"""Scoring encoders against formal semantic-similarity criteria.

A *distance score* over an input space must be non-negative, symmetric, and
zero between identical values; `check_distance_axioms` verifies those three
properties on sampled inputs.  A good encoder then maps smaller distances to
larger bit overlaps; `evaluate_semantic_consistency` measures how often an
encoder strictly violates that ordering over sampled quadruples of inputs,
and reports the rank correlation between overlap and distance over all
sample pairs.

Only the *strict* violations are counted: overlap is integer-valued, so ties
against distinct distances are unavoidable for any encoder and are treated
as neutral.  The discordance rate is a heuristic quality signal, not a hard
pass/fail -- a perfect ordering is not attainable for most input spaces.

Everything is read off two m x m matrices over the m samples, each built
once: the distance matrix and the overlap matrix.  Memory is therefore
O(m**2): the two matrices plus vectors over the m(m-1)/2 pairs i < j.
A distance expression (`ExpressionDistance`, `absolute_difference` among
them) fills the distance matrix with numpy where that is exact; otherwise
the distance is called once per ordered pair, m**2 calls in all.
Distance values are compared as float64; a distance that raises, or
returns something ``float()`` rejects, raises `EvaluationError` naming the
pair.  Offending examples in the report show the distance's own return
values.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Callable, Sequence

import numpy as np

from .errors import DimensionMismatch, EvaluationError, InputError, is_finite_number
from .expressions import ExpressionDistance
from .hashing import counter_stream_array
from .sdr import SDR

AXIOM_TOLERANCE = 1e-9
EXHAUSTIVE_SAMPLE_LIMIT = 40
_EXAMPLE_CAP = 10  # offending pairs kept per axiom, enough to debug with
_QUADRUPLE_CHUNK = 1 << 16  # sampled quadruples per numpy pass; bounds memory

AXIOMS = ("non_negativity", "symmetry", "identity")


@dataclass
class AxiomCheck:
    """Violation count for one axiom plus a few offending example pairs."""

    violations: int = 0
    examples: list[tuple] = field(default_factory=list)

    def record(self, example: tuple) -> None:
        self.violations += 1
        if len(self.examples) < _EXAMPLE_CAP:
            self.examples.append(example)


@dataclass
class EvaluationReport:
    """Outcome of axiom checks and/or a semantic-consistency run."""

    samples_checked: int = 0
    axiom_violations: dict[str, AxiomCheck] = field(default_factory=dict)
    quadruples_sampled: int = 0
    discordant: int = 0
    discordance_rate: float = 0.0
    rank_correlation: float = 0.0
    overlap_uninformative: bool = False

    @property
    def total_axiom_violations(self) -> int:
        return sum(c.violations for c in self.axiom_violations.values())

    def to_text(self) -> str:
        lines = [f"samples_checked: {self.samples_checked}"]
        if self.axiom_violations:
            lines.append("axioms:")
            for name in AXIOMS:
                check = self.axiom_violations.get(name, AxiomCheck())
                lines.append(f"  {name}: {check.violations} violation(s)")
                for ex in check.examples:
                    lines.append(f"    offending: {ex!r}")
        if self.quadruples_sampled:
            lines.append(f"quadruples_sampled: {self.quadruples_sampled}")
            lines.append(f"discordant: {self.discordant}")
            lines.append(f"discordance_rate: {self.discordance_rate:.6f}")
            lines.append(f"rank_correlation: {self.rank_correlation:.6f}")
            if self.overlap_uninformative:
                lines.append("note: overlap has zero variance across sample pairs; "
                             "the encoder is uninformative on these samples")
        return "\n".join(lines)


def _call_distance(distance: Callable, x, y):
    try:
        return distance(x, y)
    except Exception as exc:  # surface which pair broke the user's function
        raise EvaluationError(f"distance failed on pair ({x!r}, {y!r}): {exc}") from exc


def _float_distance(distance: Callable, x, y) -> float:
    value = _call_distance(distance, x, y)
    try:
        return float(value)
    except (TypeError, ValueError, OverflowError) as exc:
        raise EvaluationError(
            f"distance returned {value!r} on pair ({x!r}, {y!r}), not a number: {exc}"
        ) from exc


def _distance_matrix(distance: Callable, samples: Sequence) -> np.ndarray:
    """``D[i, j] = float(distance(samples[i], samples[j]))`` for every ordered
    pair.  An `ExpressionDistance` fills it with numpy where that is exact;
    otherwise the distance is called once per pair in the axiom order (i, i),
    then (i, j) and (j, i) for j > i, so the first failing pair is the one a
    pair-by-pair check would hit first."""
    # The class, never an attribute: functools.wraps copies those.
    if isinstance(distance, ExpressionDistance):
        D = distance.matrix(samples)
        if D is not None:
            return D
        distance = distance._pair  # the compiled function, without __call__'s frame
    m = len(samples)
    D = np.empty((m, m))
    for i in range(m):
        x = samples[i]
        D[i, i] = _float_distance(distance, x, x)
        upper, lower = [], []
        for j in range(i + 1, m):
            y = samples[j]
            upper.append(_float_distance(distance, x, y))
            lower.append(_float_distance(distance, y, x))
        D[i, i + 1 :] = upper
        D[i + 1 :, i] = lower
    return D


def _axiom_distances(distance: Callable, samples: Sequence) -> np.ndarray:
    """The distance matrix an axiom check reads, after its precondition."""
    if len(samples) < 2:
        raise InputError("axiom checks need at least 2 samples")
    return _distance_matrix(distance, samples)


def _upper(m: int) -> np.ndarray:
    """Mask of the pairs i < j of an m x m matrix; indexing with it reads
    them in row-major order."""
    return np.triu(np.ones((m, m), dtype=bool), 1)


def _axiom_report(distance: Callable, samples: Sequence, D: np.ndarray,
                  upper: np.ndarray) -> EvaluationReport:
    """Axiom violations read off ``D``.  The kept examples follow the order of
    a pair-by-pair check, (i, i), then (i, j) and (j, i) for j > i, and call
    the distance again, so they show its own return values."""
    with np.errstate(invalid="ignore", over="ignore"):  # inf - inf is nan: no violation
        identity = np.abs(np.diagonal(D)) > AXIOM_TOLERANCE
        negative = D < -AXIOM_TOLERANCE
        asymmetric = np.abs(D - D.T) > AXIOM_TOLERANCE
    np.fill_diagonal(negative, False)
    asymmetric &= upper

    def call(i: int, j: int):
        return _call_distance(distance, samples[i], samples[j])

    def first_pairs(flags: np.ndarray) -> list[list[int]]:
        return np.argwhere(flags & upper)[:_EXAMPLE_CAP].tolist()

    negative_pairs = [(a, b) for i, j in first_pairs(negative | negative.T)
                      for a, b in ((i, j), (j, i)) if negative[a, b]][:_EXAMPLE_CAP]
    checks = {
        "non_negativity": AxiomCheck(
            int(np.count_nonzero(negative)),
            [(samples[i], samples[j], call(i, j)) for i, j in negative_pairs]),
        "symmetry": AxiomCheck(
            int(np.count_nonzero(asymmetric)),
            [(samples[i], samples[j], call(i, j), call(j, i))
             for i, j in first_pairs(asymmetric)]),
        "identity": AxiomCheck(
            int(np.count_nonzero(identity)),
            [(samples[i], samples[i], call(i, i))
             for i in np.flatnonzero(identity)[:_EXAMPLE_CAP].tolist()]),
    }
    return EvaluationReport(samples_checked=len(samples), axiom_violations=checks)


def check_distance_axioms(distance: Callable, samples: Sequence) -> EvaluationReport:
    """Verify non-negativity, symmetry, and identity-of-zero on all sample
    pairs (tolerance 1e-9 for the float comparisons)."""
    D = _axiom_distances(distance, samples)
    return _axiom_report(distance, samples, D, _upper(len(samples)))


def _encode_all(encode: Callable[[object], SDR], samples: Sequence) -> list[SDR]:
    encodings = [encode(x) for x in samples]
    lengths = {e.n for e in encodings}
    if len(lengths) > 1:
        raise DimensionMismatch(
            f"encodings have mixed total lengths {sorted(lengths)}; "
            "an encoder must emit one fixed dimensionality"
        )
    return encodings


def _overlap_matrix(encodings: list[SDR]) -> np.ndarray:
    """``O[i, j]`` = shared one-bits of encodings i and j, from an inverted
    index: every bit adds 1 to ``O[rows, rows]`` for the encodings holding
    it, which costs sum(|rows|**2) and never an m x n dense array."""
    holders: dict[int, list[int]] = {}
    for row, e in enumerate(encodings):
        for bit in e.active:
            holders.setdefault(bit, []).append(row)
    m = len(encodings)
    O = np.zeros((m, m), dtype=np.int32)
    for rows in holders.values():
        if len(rows) > 1:
            O[np.ix_(rows, rows)] += 1
    np.fill_diagonal(O, [len(e.active) for e in encodings])
    return O


def _average_ranks(codes: np.ndarray) -> np.ndarray:
    """1-based ranks of non-negative integer codes, ties sharing their
    average rank (``scipy.stats.rankdata``'s default), by counting."""
    counts = np.bincount(codes)
    ends = np.cumsum(counts)
    return (0.5 * (2 * ends - counts + 1))[codes]


def _rank_correlation(overlaps: np.ndarray, dists: np.ndarray) -> tuple[float, bool]:
    """Spearman's rho of the pair overlaps against the pair distances,
    computed as ``scipy.stats.spearmanr`` does: the Pearson correlation of
    the average ranks.  0.0 where rho is undefined (a constant side or a NaN
    distance)."""
    uninformative = bool(overlaps.min() == overlaps.max())
    if uninformative or np.isnan(dists).any() or dists.min() == dists.max():
        return 0.0, uninformative
    dist_codes = np.unique(dists, return_inverse=True)[1].reshape(-1)
    rho = np.corrcoef(_average_ranks(overlaps), _average_ranks(dist_codes))[1, 0]
    return float(rho), uninformative


def _is_discordant(o1, o2, d1, d2):
    # Strict violation of "more overlap <=> smaller distance"; any tie on
    # either side is neutral.  Elementwise on arrays.
    return ((o1 > o2) & (d1 > d2)) | ((o1 < o2) & (d1 < d2))


def _check_consistency_arguments(samples: Sequence, quadruple_count: int,
                                 exhaustive: bool) -> None:
    if len(samples) < 4:
        raise InputError("consistency evaluation needs at least 4 samples")
    if quadruple_count < 0:
        raise InputError(f"quadruple_count must be >= 0, got {quadruple_count}")
    if exhaustive and len(samples) > EXHAUSTIVE_SAMPLE_LIMIT:
        raise InputError(
            f"exhaustive mode enumerates len(samples)**4 quadruples and is "
            f"limited to {EXHAUSTIVE_SAMPLE_LIMIT} samples, got {len(samples)}"
        )


def _consistency_report(encodings: list[SDR], D: np.ndarray,
                        upper: np.ndarray, quadruple_count: int,
                        seed: int, exhaustive: bool) -> EvaluationReport:
    O = _overlap_matrix(encodings)
    rho, uninformative = _rank_correlation(O[upper], D[upper])
    if exhaustive:
        discordant, total = _exhaustive_discordance(O, D), O.size ** 2
    else:
        discordant, total = _sampled_discordance(O, D, quadruple_count, seed), quadruple_count
    return EvaluationReport(
        samples_checked=len(encodings),
        quadruples_sampled=total,
        discordant=discordant,
        discordance_rate=discordant / total if total else 0.0,
        rank_correlation=rho,
        overlap_uninformative=uninformative,
    )


def evaluate_semantic_consistency(
    encode: Callable[[object], SDR],
    distance: Callable,
    samples: Sequence,
    quadruple_count: int = 10_000,
    seed: int = 0,
    exhaustive: bool = False,
) -> EvaluationReport:
    """Count strict overlap-vs-distance discordances over quadruples.

    A quadruple (w, x, y, z) is discordant when pair (w, x) overlaps strictly
    more than (y, z) yet is strictly farther, or vice versa.  Sampling uses a
    counter-based generator keyed by (seed, ordinal), so reports are
    reproducible and independent of any partitioning of the loop.  With
    ``exhaustive=True`` (at most 40 samples) every ordered quadruple is
    enumerated instead.
    """
    _check_consistency_arguments(samples, quadruple_count, exhaustive)
    encodings = _encode_all(encode, samples)
    return _consistency_report(encodings, _distance_matrix(distance, samples),
                               _upper(len(samples)),
                               quadruple_count, seed, exhaustive)


def _sampled_discordance(O: np.ndarray, D: np.ndarray, quadruple_count: int, seed: int) -> int:
    """Quadruple q is samples ``counter_stream(seed, 4q + j) % m``, j = 0..3;
    quadruples are drawn in chunks so memory stays bounded at any count."""
    m = np.uint64(O.shape[0])
    discordant = 0
    for start in range(0, quadruple_count, _QUADRUPLE_CHUNK):
        stop = min(start + _QUADRUPLE_CHUNK, quadruple_count)
        ks = np.arange(4 * start, 4 * stop, dtype=np.uint64)
        w, x, y, z = (counter_stream_array(seed, ks) % m).astype(np.intp).reshape(-1, 4).T
        discordant += int(np.count_nonzero(_is_discordant(O[w, x], O[y, z], D[w, x], D[y, z])))
    return discordant


def _exhaustive_discordance(O: np.ndarray, D: np.ndarray) -> int:
    o_flat = O.reshape(-1)
    d_flat = D.reshape(-1)
    discordant = 0
    chunk = 4096  # bounds the (chunk, m*m) comparison matrices
    for s in range(0, o_flat.size, chunk):
        discordant += int(np.count_nonzero(_is_discordant(
            o_flat[s : s + chunk, None], o_flat, d_flat[s : s + chunk, None], d_flat
        )))
    return discordant


def evaluate_encoder(
    encode: Callable[[object], SDR],
    distance: Callable,
    samples: Sequence,
    quadruple_count: int = 10_000,
    seed: int = 0,
    exhaustive: bool = False,
) -> EvaluationReport:
    """Full report: `evaluate_semantic_consistency`'s, with the axiom
    violations of `check_distance_axioms`; the two share one distance
    matrix."""
    D = _axiom_distances(distance, samples)
    upper = _upper(len(samples))
    axioms = _axiom_report(distance, samples, D, upper)
    _check_consistency_arguments(samples, quadruple_count, exhaustive)
    encodings = _encode_all(encode, samples)
    report = _consistency_report(encodings, D, upper, quadruple_count, seed, exhaustive)
    report.axiom_violations = axioms.axiom_violations
    return report


# --- Ready-made distance scores -------------------------------------------
#
# Conveniences for common input spaces; nothing downstream privileges them,
# and callers are free to supply their own callables.  `absolute_difference`
# is a compiled expression, so the evaluator fills its matrix with numpy.

absolute_difference = ExpressionDistance("abs(a - b)")


def circular_distance(period: float) -> Callable[[float, float], float]:
    """Shortest way around a cycle of the given period."""
    if not (is_finite_number(period) and period > 0):
        raise InputError(f"period must be positive and finite, got {period!r}")

    def dist(a: float, b: float) -> float:
        d = abs(a - b) % period
        return min(d, period - d)

    return dist


def chebyshev_distance(a, b) -> float:
    """Chessboard distance between grid coordinates."""
    (ax, ay), (bx, by) = a, b
    return float(max(abs(ax - bx), abs(ay - by)))


def discrete_distance(a, b) -> float:
    """0 for equal values, 1 otherwise (categorical inputs)."""
    return 0.0 if a == b else 1.0


__all__ = [
    "AXIOM_TOLERANCE",
    "EXHAUSTIVE_SAMPLE_LIMIT",
    "AxiomCheck",
    "EvaluationReport",
    "check_distance_axioms",
    "evaluate_semantic_consistency",
    "evaluate_encoder",
    "absolute_difference",
    "circular_distance",
    "chebyshev_distance",
    "discrete_distance",
]
