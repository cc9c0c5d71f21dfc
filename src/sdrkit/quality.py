"""Scoring encoders against formal semantic-similarity criteria.

A *distance score* over an input space must be non-negative, symmetric, and
zero between identical values; `check_distance_axioms` verifies those three
properties on sampled inputs.  A good encoder then maps smaller distances to
larger bit overlaps; `evaluate_encoder` adds to the axiom report how often
an encoder strictly violates that ordering over sampled quadruples of
inputs, and the rank correlation between overlap and distance over all
sample pairs.

Only the *strict* violations are counted: overlap is integer-valued, so ties
against distinct distances are unavoidable for any encoder and are treated
as neutral.  The discordance rate is a heuristic quality signal, not a hard
pass/fail -- a perfect ordering is not attainable for most input spaces.

Everything is read off two m x m matrices over the m samples, each built
once: the distance matrix and the overlap matrix.  The overlaps are counted
from an m x w matrix of the encodings' bit indices, which `evaluate_encoder`
builds from each sample's SDR and `sdrkit evaluate` keys from all its rows
in one step: among the distinct encodings only, by `np.bincount` over the
pairs of encodings that hold each bit, and gathered from there.  The
symmetry axiom is checked a block of rows at a time; the pair distances are
ranked by one sort.  Memory is therefore O(m**2 + m*w): the two matrices
plus vectors over the m(m-1)/2 pairs i < j, or, for the exact count over
all m**4 quadruples, over the m**2 cells, and the bit matrix with the
overlap count's temporaries.  More than `MAX_EVALUATE_SAMPLES` samples
raise InputError before any of it is allocated; `sdrkit evaluate` also
refuses more than `MAX_EVALUATE_CELLS` bits (m x w) before it keys a
sample.
A distance expression (`ExpressionDistance`, every built-in among them)
fills the distance matrix with numpy where that is exact; otherwise the
distance is called once per ordered pair, m**2 calls in all.
Distance values are compared as float64; a distance that raises, or
returns something ``float()`` rejects, raises `EvaluationError` naming the
pair.  Offending examples in the report show the distance's own return
values.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Callable, Sequence

import numpy as np

from .errors import DimensionMismatch, EvaluationError, InputError, _shown, is_finite_number
from .expressions import ExpressionDistance
from .hashing import counter_stream_array
from .sdr import SDR

AXIOM_TOLERANCE = 1e-9
_EXAMPLE_CAP = 10  # offending pairs kept per axiom, enough to debug with
_QUADRUPLE_CHUNK = 1 << 16  # sampled quadruples per numpy pass; bounds memory
_AXIOM_BLOCK = 128  # distance rows per symmetry pass; bounds its float temporaries
_PAIR_BLOCK = 1 << 20  # most overlap holder pairs per bincount; bounds its temporaries

AXIOMS = ("non_negativity", "symmetry", "identity")

# Most samples an evaluation takes.  Its m x m matrices and pair vectors
# take about 38 bytes per cell: `sdrkit evaluate` of m = 10,000 scalar
# samples peaked at 3.8 GB of resident memory.  A larger m is an InputError
# before anything is allocated (`sdrkit evaluate` reads one row past the
# bound, no more, and keys none); a smaller one may still not fit in the
# memory there is, a MemoryError, which `sdrkit` reports as a data error.
MAX_EVALUATE_SAMPLES = 10_000

# Most cells, m samples times w bits, that `sdrkit evaluate` keys into the
# samples' bit matrix.  The command's traced peak (tracemalloc) was about 65
# bytes per cell at m = 1,000 and w = 20,000, the overlap count's
# temporaries included, so 2**25 cells need about 2.2 GB, less than the
# m x m side at MAX_EVALUATE_SAMPLES.  `sdrkit evaluate` refuses a larger m x w as a data
# error once the input is read, before any sample is keyed.
MAX_EVALUATE_CELLS = 1 << 25


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
        raise EvaluationError(f"distance failed on pair ({_shown(x)}, {_shown(y)}): "
                              f"{exc}") from exc


def _float_distance(distance: Callable, x, y) -> float:
    value = _call_distance(distance, x, y)
    try:
        return float(value)
    except (TypeError, ValueError, OverflowError) as exc:
        raise EvaluationError(
            f"distance returned {_shown(value)} on pair ({_shown(x)}, {_shown(y)}), not a "
            f"number: {exc}"
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


def _axiom_check(distance: Callable, samples: Sequence
                 ) -> tuple[EvaluationReport, np.ndarray, np.ndarray]:
    """The axiom report, the distance matrix ``D`` it reads and the mask
    ``upper`` of the pairs i < j (in row-major order).  The kept examples
    follow a pair-by-pair check, (i, i), then (i, j) and (j, i) for j > i,
    and call the distance again, so they show its own return values."""
    if len(samples) < 2:
        raise InputError("axiom checks need at least 2 samples")
    if len(samples) > MAX_EVALUATE_SAMPLES:
        raise InputError(f"m = {len(samples)} samples is more than MAX_EVALUATE_SAMPLES "
                         f"({MAX_EVALUATE_SAMPLES}), which bounds the memory of the m x m "
                         "matrices")
    D = _distance_matrix(distance, samples)
    m = len(samples)
    upper = np.arange(m)[:, None] < np.arange(m)
    with np.errstate(invalid="ignore", over="ignore"):  # inf - inf is nan: no violation
        identity = np.abs(np.diagonal(D)) > AXIOM_TOLERANCE
        negative = D < -AXIOM_TOLERANCE
        asymmetric = np.zeros((m, m), dtype=bool)
        for i in range(0, m, _AXIOM_BLOCK):  # rows i.. i+B-1 by columns i.. hold each i < j
            rows = slice(i, i + _AXIOM_BLOCK)
            asymmetric[rows, i:] = np.abs(D[rows, i:] - D[i:, rows].T) > AXIOM_TOLERANCE
    np.fill_diagonal(negative, False)
    asymmetric &= upper
    negatives, asymmetries = int(np.count_nonzero(negative)), int(np.count_nonzero(asymmetric))

    def call(i: int, j: int):
        return _call_distance(distance, samples[i], samples[j])

    def first_pairs(flags: np.ndarray) -> list[list[int]]:
        return np.argwhere(flags)[:_EXAMPLE_CAP].tolist()

    negative_pairs = []
    if negatives:  # example pairs are looked for only where some flag is set
        negative_pairs = [(a, b) for i, j in first_pairs((negative | negative.T) & upper)
                          for a, b in ((i, j), (j, i)) if negative[a, b]][:_EXAMPLE_CAP]
    checks = {
        "non_negativity": AxiomCheck(
            negatives, [(samples[i], samples[j], call(i, j)) for i, j in negative_pairs]),
        "symmetry": AxiomCheck(
            asymmetries, [(samples[i], samples[j], call(i, j), call(j, i))
                          for i, j in (first_pairs(asymmetric) if asymmetries else [])]),
        "identity": AxiomCheck(
            int(np.count_nonzero(identity)),
            [(samples[i], samples[i], call(i, i))
             for i in np.flatnonzero(identity)[:_EXAMPLE_CAP].tolist()]),
    }
    return EvaluationReport(samples_checked=len(samples), axiom_violations=checks), D, upper


def check_distance_axioms(distance: Callable, samples: Sequence) -> EvaluationReport:
    """Verify non-negativity, symmetry, and identity-of-zero on all sample
    pairs (tolerance 1e-9 for the float comparisons)."""
    return _axiom_check(distance, samples)[0]


def _active_rows(encode: Callable[[object], SDR], samples: Sequence) -> np.ndarray:
    """The m x w matrix of the active indices of each sample's encoding, a
    shorter one padded with -1, for `_overlap_matrix`: int64, or Python
    ints past 2**63 bits.  The encodings must share one length."""
    encodings = [encode(x) for x in samples]
    lengths = {e.n for e in encodings}
    if len(lengths) > 1:
        raise DimensionMismatch(f"encodings have mixed total lengths {sorted(lengths)}; "
                                "an encoder must emit one fixed dimensionality")
    w = max(len(e.active) for e in encodings)
    return np.array([e.active + (-1,) * (w - len(e.active)) for e in encodings],
                    dtype=np.int64 if lengths.pop() <= 1 << 63 else object)


def _overlap_matrix(bits: np.ndarray) -> np.ndarray:
    """``O[i, j]`` = distinct bits that rows i and j of ``bits`` share, an
    m x w matrix of bit indices: uint64, int64 with -1 padding a row, or
    Python ints; a bit repeated in a row (a hash collision) counts once.

    Each bit becomes a small id (``np.unique``), each row its sorted ids,
    and the k distinct rows are counted against each other: every bit adds
    1 to ``U[a, b]`` for each pair of distinct rows (a, b) holding it, one
    ``np.bincount`` over those holder pairs per block of rows a, which
    costs sum(holders**2), never an m x n dense array, and leaves each
    row's active count on ``U``'s diagonal; ``O`` gathers ``U`` by each
    row's distinct row."""
    values, ids = np.unique(bits, return_inverse=True)
    rows, which = np.unique(np.sort(ids.reshape(bits.shape), axis=1), axis=0,
                            return_inverse=True)
    counted = np.diff(rows, axis=1, prepend=-1) != 0  # a repeat counts once
    if len(values) and values[0] < 0:  # -1, the padding, is id 0
        counted &= rows != 0
    holder, bit = np.nonzero(counted)[0], rows[counted]  # row by row
    size = np.bincount(bit, minlength=len(values))  # each bit's holders
    holders = holder[np.argsort(bit, kind="stable")]  # bit by bit
    start = np.cumsum(size) - size  # where each bit's holders begin in holders
    k = len(rows)
    U = np.empty((k, k), dtype=np.int32)
    # Rows a..a+step-1 hold at most step * w bits of at most k holders each,
    # so one bincount takes at most _PAIR_BLOCK holder pairs (or one row's).
    step = max(1, _PAIR_BLOCK // (k * max(1, rows.shape[1])))
    for a in range(0, k, step):
        lo, hi = np.searchsorted(holder, [a, a + step])  # the block's bits
        c = size[bit[lo:hi]]  # each pairs its row with every holder of the bit
        at = np.repeat(start[bit[lo:hi]] - np.cumsum(c) + c, c) + np.arange(c.sum())
        U[a:a + step] = np.bincount(np.repeat((holder[lo:hi] - a) * k, c) + holders[at],
                                    minlength=len(U[a:a + step]) * k).reshape(-1, k)
    return U[which.ravel()][:, which.ravel()]  # which is 2-D on some numpy versions


def _average_ranks(codes: np.ndarray) -> np.ndarray:
    """1-based ranks of non-negative integer codes, ties sharing their
    average rank (``scipy.stats.rankdata``'s default), by counting."""
    counts = np.bincount(codes)
    ends = np.cumsum(counts)
    return (0.5 * (2 * ends - counts + 1))[codes]


def _sorted_average_ranks(values: np.ndarray) -> np.ndarray:
    """The same ranks of any non-NaN values, by one sort: a run of equal
    sorted values (-0.0 equals 0.0, inf equals inf) at sorted positions
    first..end - 1 shares the rank (first + end + 1) / 2."""
    order = np.argsort(values)
    ordered = values[order]
    first = np.flatnonzero(np.concatenate(([True], ordered[1:] != ordered[:-1])))
    del ordered  # before the ranks are built, which lowers the peak
    end = np.append(first[1:], len(values))
    ranks = np.empty(len(values))
    ranks[order] = np.repeat((first + end + 1) / 2, end - first)
    return ranks


def _rank_correlation(overlaps: np.ndarray, dists: np.ndarray) -> tuple[float, bool]:
    """Spearman's rho of the pair overlaps against the pair distances,
    computed as ``scipy.stats.spearmanr`` does: the Pearson correlation of
    the average ranks.  0.0 where rho is undefined (a constant side or a NaN
    distance)."""
    uninformative = bool(overlaps.min() == overlaps.max())
    if uninformative or np.isnan(dists).any() or dists.min() == dists.max():
        return 0.0, uninformative
    dist_ranks = _sorted_average_ranks(dists)  # before the overlap ranks: the larger peak
    rho = np.corrcoef(_average_ranks(overlaps), dist_ranks)[1, 0]
    return float(rho), uninformative


def _is_discordant(o1, o2, d1, d2):
    # Strict violation of "more overlap <=> smaller distance"; any tie on
    # either side is neutral.  Elementwise on arrays.
    return ((o1 > o2) & (d1 > d2)) | ((o1 < o2) & (d1 < d2))


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
    """`_is_discordant` summed over all ordered pairs of cells of (O, D), by
    overlap level (Knight, JASA 61(314), 1966).  It is symmetric, so the sum
    is twice the pairs whose first cell is strictly greater in overlap and
    in distance.  NaN never compares true, so its cells are dropped first."""
    o, d = O.reshape(-1), D.reshape(-1)
    cells = np.flatnonzero(~np.isnan(d))
    cells = cells[np.lexsort((d[cells], o[cells]))]  # by overlap, then distance
    o, d = o[cells], d[cells]
    below = d[:0]  # the distances of the levels done so far, sorted
    concordant = 0
    for level in np.split(d, np.flatnonzero(np.diff(o)) + 1):
        at = np.searchsorted(below, level, side="left")
        concordant += int(at.sum())
        below = np.insert(below, at, level)
    return 2 * concordant


def evaluate_encoder(
    encode: Callable[[object], SDR],
    distance: Callable,
    samples: Sequence,
    quadruple_count: int = 10_000,
    seed: int = 0,
    exhaustive: bool = False,
) -> EvaluationReport:
    """Full report: the axiom violations of `check_distance_axioms`, then
    the strict overlap-vs-distance discordances over quadruples and the rank
    correlation over all sample pairs.

    A quadruple (w, x, y, z) is discordant when pair (w, x) overlaps strictly
    more than (y, z) yet is strictly farther, or vice versa.  Sampling uses a
    counter-based generator keyed by (seed, ordinal), so reports are
    reproducible and independent of any partitioning of the loop.  With
    ``exhaustive=True`` all m**4 ordered quadruples are counted exactly, at
    any m, by overlap level in O(m**2) memory.
    """
    return _evaluate(lambda: _active_rows(encode, samples), distance, samples,
                     quadruple_count, seed, exhaustive)


def _evaluate(bits, distance, samples, quadruple_count, seed, exhaustive=False):
    """`evaluate_encoder`, with ``bits()`` the m x w matrix of the samples'
    encodings that `_overlap_matrix` counts, called once the samples pass
    the checks."""
    report, D, upper = _axiom_check(distance, samples)
    if len(samples) < 4:
        raise InputError("consistency evaluation needs at least 4 samples")
    if quadruple_count < 0:
        raise InputError(f"quadruple_count must be >= 0, got {quadruple_count}")
    O = _overlap_matrix(bits())
    report.rank_correlation, report.overlap_uninformative = _rank_correlation(
        O[upper], D[upper])
    if exhaustive:
        discordant, total = _exhaustive_discordance(O, D), O.size ** 2
    else:
        discordant, total = _sampled_discordance(O, D, quadruple_count, seed), quadruple_count
    report.quadruples_sampled, report.discordant = total, discordant
    report.discordance_rate = discordant / total if total else 0.0
    return report


# --- Ready-made distance scores -------------------------------------------
#
# Conveniences for common input spaces; nothing downstream privileges them,
# and callers are free to supply their own callables.  Each is a compiled
# expression, so the evaluator fills its matrix with numpy where that is exact.

absolute_difference = ExpressionDistance("abs(a - b)")


def circular_distance(period: float) -> ExpressionDistance:
    """Shortest way around a cycle of the given period; in ints for an int period."""
    if not (is_finite_number(period) and period > 0):
        raise InputError(f"period must be positive and finite, got {_shown(period)}")
    p = repr(period if type(period) is int else float(period))
    return ExpressionDistance(f"min(abs(a - b) % {p}, {p} - abs(a - b) % {p})")


# Chessboard distance between grid coordinates ``a[0]``/``a[1]``, as a float.
chebyshev_distance = ExpressionDistance("max(abs(a[0] - b[0]), abs(a[1] - b[1])) + 0.0")

# 0 for equal values, 1 otherwise (categorical inputs); runs per pair.
discrete_distance = ExpressionDistance("0.0 if a == b else 1.0")


__all__ = [
    "AXIOM_TOLERANCE",
    "MAX_EVALUATE_SAMPLES",
    "MAX_EVALUATE_CELLS",
    "AxiomCheck",
    "EvaluationReport",
    "check_distance_axioms",
    "evaluate_encoder",
    "absolute_difference",
    "circular_distance",
    "chebyshev_distance",
    "discrete_distance",
]
