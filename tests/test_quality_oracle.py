"""The matrix evaluator pinned to the pair-by-pair evaluator it replaced.

The oracle below is the earlier `sdrkit.quality` algorithm, kept verbatim in
substance: the per-pair axiom loop, the unordered-pair overlaps and
distances ranked by `scipy.stats.spearmanr`, the sampled quadruple loop over
`counter_stream`, and the exhaustive m x m builder.  Every report of
`evaluate_encoder` must equal the oracle's, as a dataclass and as text.
"""

import functools
import hashlib
import importlib.util
import json
import math
import os
import subprocess
import sys
from pathlib import Path
from unittest import mock

import numpy as np
import pytest
from hypothesis import HealthCheck, assume, example, given, settings, strategies as st
from scipy import stats

import sdrkit
from sdrkit import cli, quality
from sdrkit.errors import EvaluationError, InputError
from sdrkit.expressions import ExpressionDistance
from sdrkit.geospatial import GridCoordinate
from sdrkit.hashing import counter_stream, counter_stream_array, mix64
from sdrkit.quality import (
    AXIOM_TOLERANCE,
    AXIOMS,
    AxiomCheck,
    EvaluationReport,
    absolute_difference,
    check_distance_axioms,
    chebyshev_distance,
    circular_distance,
    discrete_distance,
    evaluate_encoder,
)
from sdrkit.sdr import SDR

# --- the oracle ---------------------------------------------------------------


def oracle_call(distance, x, y):
    try:
        return distance(x, y)
    except Exception as exc:
        raise EvaluationError(f"distance failed on pair ({x!r}, {y!r}): {exc}") from exc


def oracle_axioms(distance, samples):
    if len(samples) < 2:
        raise InputError("axiom checks need at least 2 samples")
    checks = {name: AxiomCheck() for name in AXIOMS}
    m = len(samples)
    for i in range(m):
        d_ii = oracle_call(distance, samples[i], samples[i])
        if abs(d_ii) > AXIOM_TOLERANCE:
            checks["identity"].record((samples[i], samples[i], d_ii))
        for j in range(i + 1, m):
            d_ij = oracle_call(distance, samples[i], samples[j])
            d_ji = oracle_call(distance, samples[j], samples[i])
            if d_ij < -AXIOM_TOLERANCE:
                checks["non_negativity"].record((samples[i], samples[j], d_ij))
            if d_ji < -AXIOM_TOLERANCE:
                checks["non_negativity"].record((samples[j], samples[i], d_ji))
            if abs(d_ij - d_ji) > AXIOM_TOLERANCE:
                checks["symmetry"].record((samples[i], samples[j], d_ij, d_ji))
    return EvaluationReport(samples_checked=m, axiom_violations=checks)


def oracle_pairwise(sets, distance, samples):
    m = len(samples)
    overlaps, dists = [], []
    for i in range(m):
        for j in range(i + 1, m):
            overlaps.append(len(sets[i] & sets[j]))
            dists.append(oracle_call(distance, samples[i], samples[j]))
    return overlaps, dists


def oracle_rank_correlation(overlaps, dists):
    uninformative = len(set(overlaps)) <= 1
    if uninformative or len(set(dists)) <= 1:
        return 0.0, uninformative
    rho = stats.spearmanr(overlaps, dists).statistic
    return (0.0 if math.isnan(rho) else float(rho)), uninformative


def oracle_discordant(o1, o2, d1, d2):
    return (o1 > o2 and d1 > d2) or (o1 < o2 and d1 < d2)


def oracle_sampled(sets, distance, samples, quadruple_count, seed):
    m = len(samples)
    discordant = 0
    for q in range(quadruple_count):
        w_, x_, y_, z_ = (counter_stream(seed, 4 * q + j) % m for j in range(4))
        o1 = len(sets[w_] & sets[x_])
        o2 = len(sets[y_] & sets[z_])
        if o1 == o2:
            continue
        d1 = oracle_call(distance, samples[w_], samples[x_])
        d2 = oracle_call(distance, samples[y_], samples[z_])
        if oracle_discordant(o1, o2, d1, d2):
            discordant += 1
    return discordant, quadruple_count


def oracle_exhaustive(sets, distance, samples):
    m = len(samples)
    O = np.empty((m, m), dtype=np.int64)
    D = np.empty((m, m), dtype=np.float64)
    for i in range(m):
        for j in range(m):
            O[i, j] = len(sets[i] & sets[j])
            D[i, j] = oracle_call(distance, samples[i], samples[j])
    o_flat, d_flat = O.reshape(-1), D.reshape(-1)
    discordant = 0
    for s in range(0, o_flat.size, 4096):
        o, d = o_flat[s : s + 4096, None], d_flat[s : s + 4096, None]
        discordant += int(np.count_nonzero(
            ((o > o_flat) & (d > d_flat)) | ((o < o_flat) & (d < d_flat))
        ))
    return discordant, int(o_flat.size) ** 2


def oracle_consistency(encode, distance, samples, quadruple_count, seed, exhaustive):
    if len(samples) < 4:
        raise InputError("consistency evaluation needs at least 4 samples")
    sets = [frozenset(encode(x).active) for x in samples]
    overlaps, dists = oracle_pairwise(sets, distance, samples)
    rho, uninformative = oracle_rank_correlation(overlaps, dists)
    if exhaustive:
        discordant, total = oracle_exhaustive(sets, distance, samples)
    else:
        discordant, total = oracle_sampled(sets, distance, samples, quadruple_count, seed)
    return EvaluationReport(
        samples_checked=len(samples),
        quadruples_sampled=total,
        discordant=discordant,
        discordance_rate=discordant / total if total else 0.0,
        rank_correlation=rho,
        overlap_uninformative=uninformative,
    )


def oracle_evaluate(encode, distance, samples, quadruple_count, seed, exhaustive):
    axioms = oracle_axioms(distance, samples)
    report = oracle_consistency(encode, distance, samples, quadruple_count, seed, exhaustive)
    report.axiom_violations = axioms.axiom_violations
    return report


def outcome(fn, *args):
    """A report, or the type and message of the error raised instead."""
    try:
        return fn(*args)
    except (EvaluationError, InputError) as exc:
        return type(exc), str(exc)


# --- encoders and samples -------------------------------------------------------

N, W = 48, 6


def _key(value) -> int:
    if isinstance(value, tuple):
        return sum(_key(v) for v in value)
    if isinstance(value, float):
        return math.floor(value) if math.isfinite(value) else 1_000 + int(value > 0)
    if isinstance(value, int):
        return value
    return len(value)


def window_encode(value) -> SDR:
    """Locality-preserving: a w-bit window placed by the value."""
    start = _key(value) % (N - W + 1)
    return SDR(N, tuple(range(start, start + W)))


def scatter_encode(value) -> SDR:
    """No locality: w hashed bits per value (collisions may drop some)."""
    key = _key(value) & ((1 << 64) - 1)
    return SDR(N, tuple(sorted({mix64(key ^ k) % N for k in range(W)})))


encoders = st.sampled_from([window_encode, scatter_encode])

# Magnitudes up to 2**52 keep every int difference exact in float64.
small_ints = st.integers(-20, 20)
exact_ints = st.one_of(small_ints, st.integers(-(1 << 52), 1 << 52))
plain_floats = st.one_of(
    st.floats(-30, 30, allow_nan=False).map(lambda v: round(v, 1)),
    st.floats(allow_nan=False, allow_infinity=False, width=64),
)
any_floats = st.one_of(plain_floats, st.sampled_from([math.inf, -math.inf, math.nan, -0.0]))
numbers = st.one_of(
    st.lists(small_ints, min_size=4, max_size=24),
    st.lists(exact_ints, min_size=4, max_size=24),
    st.lists(plain_floats, min_size=4, max_size=24),
    st.lists(st.one_of(small_ints, any_floats), min_size=4, max_size=24),
)
coordinates = st.lists(
    st.tuples(st.one_of(small_ints, exact_ints, plain_floats),
              st.one_of(small_ints, any_floats)),
    min_size=4, max_size=24,
)
labels = st.lists(st.sampled_from(["a", "b", "cc", "ddd"]), min_size=4, max_size=24)
periods = st.one_of(st.integers(1, 30), st.floats(0.5, 30.0))


@st.composite
def builtin_cases(draw):
    kind = draw(st.sampled_from(["absolute", "circular", "chebyshev", "discrete"]))
    if kind == "absolute":
        return absolute_difference, draw(numbers)
    if kind == "circular":
        return circular_distance(draw(periods)), draw(numbers)
    if kind == "chebyshev":
        return chebyshev_distance, draw(coordinates)
    return discrete_distance, draw(st.one_of(labels, numbers))


def _signed(a, b):
    return a - b


def _negated(a, b):
    return -abs(a - b)


def _rounded_int(a, b):
    return int(round(abs(a - b)))


def _nan_on_ties(a, b):
    return math.nan if a == b else abs(a - b)


def _inf_beyond(a, b):
    return math.inf if abs(a - b) > 10 else abs(a - b)


def _skewed(a, b):
    return abs(a - b) + (0.5 if a > b else 0.0)


def _shifted(a, b):
    return abs(a - b) + 1


def _shifted_down(a, b):
    return abs(a - b) - 1


def _square(a, b):
    return (a - b) ** 2


user_distances = st.sampled_from(
    [_signed, _negated, _rounded_int, _nan_on_ties, _inf_beyond, _skewed, _shifted,
     _shifted_down, _square]
)
user_samples = st.lists(st.one_of(small_ints, st.floats(-30, 30).map(lambda v: round(v, 1))),
                        min_size=4, max_size=24)

ORACLE_SETTINGS = settings(max_examples=120, deadline=None,
                           suppress_health_check=[HealthCheck.too_slow])


def assert_same(encode, distance, samples, quadruple_count, seed, exhaustive=False):
    expected = outcome(oracle_evaluate, encode, distance, samples,
                       quadruple_count, seed, exhaustive)
    got = outcome(evaluate_encoder, encode, distance, samples,
                  quadruple_count, seed, exhaustive)
    assert got == expected
    if isinstance(expected, EvaluationReport):
        assert got.to_text() == expected.to_text()


# --- the evaluator equals the oracle ------------------------------------------------


@ORACLE_SETTINGS
@given(builtin_cases(), encoders, st.integers(0, 300), st.integers(-(1 << 70), 1 << 70))
def test_builtin_distances_match_the_oracle(case, encode, quadruple_count, seed):
    distance, samples = case
    assert_same(encode, distance, samples, quadruple_count, seed)


@ORACLE_SETTINGS
@given(user_distances, user_samples, encoders, st.integers(0, 300), st.integers(0, 1 << 64))
def test_user_distances_match_the_oracle(distance, samples, encode, quadruple_count, seed):
    assert_same(encode, distance, samples, quadruple_count, seed)


@ORACLE_SETTINGS
@given(st.one_of(builtin_cases(), st.tuples(user_distances, user_samples)), encoders,
       st.one_of(st.just(0), st.integers(0, 300)), st.integers(0, 1 << 64))
def test_evaluate_encoder_is_the_axiom_and_consistency_reports(case, encode,
                                                              quadruple_count, seed):
    """The axiom fields are `check_distance_axioms`', the rest, rank
    correlation included when no quadruple is sampled, are the oracle's
    consistency report."""
    distance, samples = case
    got = outcome(evaluate_encoder, encode, distance, samples, quadruple_count, seed)
    axioms = outcome(check_distance_axioms, distance, samples)
    consistency = outcome(oracle_consistency, encode, distance, samples,
                          quadruple_count, seed, False)
    if not isinstance(axioms, EvaluationReport):
        assert got == axioms
    elif not isinstance(consistency, EvaluationReport):
        assert got == consistency
    else:
        assert got.axiom_violations == axioms.axiom_violations
        got.axiom_violations = {}
        assert got == consistency


@settings(max_examples=40, deadline=None)
@given(st.one_of(builtin_cases(), st.tuples(user_distances, user_samples)), encoders)
def test_exhaustive_mode_matches_the_oracle(case, encode):
    distance, samples = case
    assert_same(encode, distance, samples, 0, 0, exhaustive=True)


def test_exhaustive_mode_matches_the_oracle_at_the_sample_limit():
    samples = [0.25 * i for i in range(40)]  # the most samples the old loop took
    for encode in (window_encode, scatter_encode):
        for distance in (absolute_difference, _skewed):
            assert_same(encode, distance, samples, 0, 0, exhaustive=True)


@settings(max_examples=40, deadline=None)
@given(user_distances,
       st.lists(st.one_of(small_ints, st.floats(-30, 30).map(lambda v: round(v, 1))),
                min_size=41, max_size=64),
       encoders)
def test_exhaustive_mode_matches_the_oracle_past_the_old_limit(distance, samples, encode):
    assert_same(encode, distance, samples, 0, 0, exhaustive=True)


@settings(max_examples=60, deadline=None)
@given(st.integers(1, 9), st.integers(0, 40), st.integers(-50, 50), user_samples, encoders)
def test_quadruple_chunks_do_not_change_the_count(chunk, quadruple_count, seed, samples, encode):
    with mock.patch.object(quality, "_QUADRUPLE_CHUNK", chunk):
        assert_same(encode, _skewed, samples, quadruple_count, seed)


def test_sampled_count_crosses_the_default_chunk():
    samples = [0.5 * i for i in range(30)]
    count = quality._QUADRUPLE_CHUNK + 11
    assert_same(scatter_encode, absolute_difference, samples, count, 3)


FAILURES = {
    "on one ordered pair": lambda a, b, bad_a, bad_b: a == bad_a and b == bad_b,
    "on either order": lambda a, b, bad_a, bad_b: {a, b} == {bad_a, bad_b},
    "whenever b is bad": lambda a, b, bad_a, bad_b: b == bad_b,
    "above a gap": lambda a, b, bad_a, bad_b: a - b > abs(bad_a),
}


@ORACLE_SETTINGS
@given(user_samples, st.integers(0, 23), st.integers(0, 23), encoders,
       st.sampled_from(sorted(FAILURES)))
def test_raising_distance_names_the_oracle_pair(samples, bad_i, bad_j, encode, failure):
    assume(bad_i < len(samples) and bad_j < len(samples))
    bad_a, bad_b = samples[bad_i], samples[bad_j]
    fails = FAILURES[failure]

    def flaky(a, b):
        if fails(a, b, bad_a, bad_b):
            raise ValueError("boom")
        return abs(a - b)

    assert outcome(evaluate_encoder, encode, flaky, samples, 50, 0, False) == \
        outcome(oracle_evaluate, encode, flaky, samples, 50, 0, False)


@ORACLE_SETTINGS
@given(st.one_of(builtin_cases(), st.tuples(user_distances, user_samples)))
def test_axiom_check_matches_the_oracle(case):
    distance, samples = case
    assert outcome(check_distance_axioms, distance, samples) == \
        outcome(oracle_axioms, distance, samples)


@ORACLE_SETTINGS
@given(builtin_cases(), encoders, st.integers(0, 300), st.integers(0, 99))
def test_consistency_matches_the_oracle(case, encode, quadruple_count, seed):
    distance, samples = case
    args = (encode, distance, samples, quadruple_count, seed, False)
    got = outcome(evaluate_encoder, *args)
    if isinstance(got, EvaluationReport):
        got.axiom_violations = {}  # the axiom sections have their own oracle test
    assert got == outcome(oracle_consistency, *args)


def test_offending_examples_keep_the_distance_return_type():
    samples = [0, 1, 2, 5]
    report = evaluate_encoder(window_encode, lambda a, b: a - b, samples, 100)
    assert report == oracle_evaluate(window_encode, lambda a, b: a - b, samples, 100, 0, False)
    text = report.to_text()
    assert "offending: (0, 1, -1)" in text
    assert "float64" not in text


@pytest.mark.parametrize("bad", [None, "far", 1j, 10 ** 400])
def test_non_numeric_distance_names_the_pair(bad):
    samples = [0.0, 1.0, 2.0, 3.0]

    def dist(a, b):
        return bad if (a, b) == (2.0, 1.0) else abs(a - b)

    with pytest.raises(EvaluationError, match=r"\(2\.0, 1\.0\)"):
        evaluate_encoder(window_encode, dist, samples)


def test_builtin_matrix_forms_decline_inexact_inputs():
    # absolute_difference is the compiled expression abs(a - b)
    absolute = absolute_difference
    assert absolute.matrix([0, (1 << 52) + 1]) is None
    assert absolute.matrix([0.0, True]) is None
    assert absolute.matrix([0.0, np.float64(1.0)]) is None
    assert absolute.matrix([1, "a"]) is None
    assert absolute.matrix([0, 1 << 52]) is not None
    big = [0, (1 << 53) + 1, -(1 << 53) - 1, 3]
    assert_same(window_encode, absolute_difference, big, 200, 0)


@ORACLE_SETTINGS
@given(st.lists(plain_floats, min_size=4, max_size=24), encoders, st.integers(0, 300))
def test_wrapped_builtin_distance_is_called(samples, encode, quadruple_count):
    # functools.wraps copies the built-in's attributes; the wrapper's own
    # values must still be the ones evaluated.
    @functools.wraps(absolute_difference)
    def capped(a, b):
        return min(absolute_difference(a, b), 10.0)

    assume(any(capped(a, b) != abs(a - b) for a in samples for b in samples))
    assert_same(encode, capped, samples, quadruple_count, 0)


# --- the compiled expression's matrix form ----------------------------------------
#
# `ExpressionDistance.matrix` must give exactly the per-pair values, NaN
# positions and signs of zero included, or decline so the pairs are called.


def oracle_float(distance, x, y):
    value = oracle_call(distance, x, y)
    try:
        return float(value)
    except (TypeError, ValueError, OverflowError) as exc:
        raise EvaluationError(
            f"distance returned {value!r} on pair ({x!r}, {y!r}), not a number: {exc}"
        ) from exc


def oracle_matrix(distance, samples):
    """Every ordered pair called in the axiom order: (i, i), (i, j), (j, i)."""
    m = len(samples)
    D = np.empty((m, m))
    for i in range(m):
        D[i, i] = oracle_float(distance, samples[i], samples[i])
        for j in range(i + 1, m):
            D[i, j] = oracle_float(distance, samples[i], samples[j])
            D[j, i] = oracle_float(distance, samples[j], samples[i])
    return D


def assert_same_matrix(distance, samples):
    got = outcome(quality._distance_matrix, distance, samples)
    want = outcome(oracle_matrix, distance, samples)
    if isinstance(want, tuple) or isinstance(got, tuple):
        assert got == want
        return
    assert_equal_matrices(got, want)


def assert_equal_matrices(got, want):
    assert np.array_equal(np.isnan(got), np.isnan(want))
    assert np.array_equal(got, want, equal_nan=True)
    # Python itself does not fix the sign of a NaN made from NaN operands
    # (it can change once the interpreter specialises the bytecode), and no
    # output shows it: compare the signs of numbers only.
    numbers = ~np.isnan(want)
    assert np.array_equal(np.signbit(got[numbers]), np.signbit(want[numbers]))


EDGE_INTS = [0, 1, -1, 2 ** 31, -(2 ** 31), 2 ** 31 - 1, 2 ** 53, -(2 ** 53), 2 ** 53 + 1,
             -(2 ** 53) - 1, 2 ** 63, -(2 ** 63) - 1, 2 ** 64]
EDGE_FLOATS = [0.0, -0.0, 0.5, -2.5, 1e308, -1e308, 5e-324, math.inf, -math.inf, math.nan]
LEAVES = ["a", "b", "a[0]", "b[0]", "a[1]", "b[1]", "a[0][1]", "b[0][0]", "a[2]"]
LITERALS = ["0", "3", "0.5", "0.0", "2147483648", "9007199254740992", "9007199254740993",
            "1e308", "0.1"]

edge_ints = st.one_of(st.integers(-20, 20), st.sampled_from(EDGE_INTS))
edge_floats = st.one_of(st.floats(-30, 30).map(lambda v: round(v, 1)),
                        st.sampled_from(EDGE_FLOATS))


def _samples(values):
    return st.lists(values, min_size=2, max_size=8)


# Each sample shape with the leaves that fit it; other leaves raise per pair.
CELL_LEAVES = ["a[0]", "b[0]", "a[1]", "b[1]"]
SHAPES = [
    (_samples(small_ints), ["a", "b"]),
    (_samples(edge_ints), ["a", "b"]),
    (_samples(edge_floats), ["a", "b"]),
    (_samples(st.one_of(edge_ints, edge_floats)), ["a", "b"]),
    (_samples(st.builds(GridCoordinate, small_ints, small_ints)), CELL_LEAVES),
    (_samples(st.builds(GridCoordinate, edge_ints, edge_ints)), CELL_LEAVES),
    (_samples(st.tuples(st.tuples(edge_ints, edge_ints), edge_floats)),
     ["a[0][0]", "b[0][0]", "a[0][1]", "b[0][1]", "a[1]", "b[1]"]),
    (_samples(st.one_of(st.booleans(), st.integers(-9, 9).map(np.int64),
                        edge_floats.map(np.float64), edge_floats)), ["a", "b"]),
]


def _wrap(template, inner):
    return st.builds(template.format, inner)


def _pair(template, ops, inner):
    return st.builds(lambda x, op, y: template.format(x, op, y),
                     inner, st.sampled_from(ops), inner)


def expressions(leaves, per_pair_only=True):
    """Expressions over ``leaves``: the vectorised subset's operations, and
    unless ``per_pair_only`` is False, those that only run per pair."""
    def extend(inner):
        subset = [
            _wrap("-({})", inner), _wrap("+({})", inner), _wrap("abs({})", inner),
            _pair("({}) {} ({})", ("+", "-", "*", "/") if per_pair_only else ("+", "-", "*"),
                  inner),
            _pair("{1}({0}, {2})", ("min", "max"), inner),
            st.builds("{}({}, {}, {})".format, st.sampled_from(["min", "max"]),
                      inner, inner, inner),
        ]
        if not per_pair_only:
            return st.one_of(*subset)
        return st.one_of(*subset, st.one_of(
            _pair("({}) {} ({})", ("//", "%", "<", "==", "and", "or"), inner),
            _wrap("({}) ** 2", inner), _wrap("math.fabs({})", inner),
            _wrap("min({})", inner),
            st.builds("({}) if ({}) else ({})".format, inner, inner, inner),
        ))
    return st.recursive(st.sampled_from(leaves), extend, max_leaves=6)


@st.composite
def matrix_cases(draw):
    samples, fitting = draw(st.sampled_from(SHAPES))
    leaves = 4 * fitting + LITERALS if draw(st.booleans()) else fitting + LITERALS + LEAVES
    return draw(expressions(leaves)), draw(samples)


@settings(max_examples=400, deadline=None, suppress_health_check=[HealthCheck.too_slow])
@given(matrix_cases())
def test_expression_matrix_equals_the_pair_loop(case):
    expr, samples = case
    with np.errstate(all="ignore"):  # numpy scalars warn where Python floats do not
        assert_same_matrix(ExpressionDistance(expr), samples)


# Samples of one kind, with literals of the same kind and no division: every
# pair evaluates, so the matrix form must not decline.
TYPED_SHAPES = [
    (_samples(small_ints), ["a", "b", "0", "3"]),
    (_samples(edge_floats), ["a", "b", "0.5", "-0.0", "1e308"]),
    (_samples(st.builds(GridCoordinate, small_ints, small_ints)), CELL_LEAVES + ["0", "3"]),
    (_samples(st.tuples(st.tuples(small_ints, small_ints), edge_floats)),
     ["a[1]", "b[1]", "0.5"]),
]


@settings(max_examples=200, deadline=None, suppress_health_check=[HealthCheck.too_slow])
@given(st.sampled_from(TYPED_SHAPES).flatmap(
    lambda shape: st.tuples(expressions(shape[1], per_pair_only=False), shape[0])))
@example(("(a[1]) + (-(a[1]))", [((0, 0), 0.0), ((0, 0), math.nan)]))
def test_subset_expressions_vectorise(case):
    expr, samples = case
    distance = ExpressionDistance(expr)
    assert distance.matrix(samples) is not None
    with mock.patch.object(quality, "_call_distance", side_effect=AssertionError):
        assert_same_matrix(distance, samples)


VECTORISED = [
    ("max(abs(a[0] - b[0]), abs(a[1] - b[1]))",
     [GridCoordinate(x, y) for x, y in [(0, 0), (3, -4), (-(2 ** 31), 2 ** 31 - 1), (7, 7)]]),
    ("abs(a - b) / (1 + a * b)", [0.0, -0.0, 1.5, math.inf, math.nan, -2.0]),
    ("-(a - b) * 0", [0, 3, -5, 2 ** 26]),
    ("min(a, b, 0.5) - max(-a, b)", [0.0, -0.0, 0.5, math.nan, -math.inf]),
    ("a / b - b / a", [1, -3, 2 ** 53, 7]),
    ("abs(a[0][0] - b[0][0]) + abs(a[0][1] - b[0][1]) + abs(a[1] - b[1])",
     [((0, 1), 2.5), ((-3, 4), 0.0), ((2 ** 20, 5), -0.0)]),
    # ints and floats mixed, in the samples or through a literal
    ("abs(a - b)", [0, 0.5, -3, 2 ** 52, -0.0, math.inf, 7, -(2 ** 52)]),
    ("min(abs(a - b), 3)", [0.0, 1.5, 10.0, -2.5, math.nan]),
    ("max(a, b) - min(a, b, 0.5) + a / 4 - (a - b) * 2.0", [0, 1, -2.5, 3.0, -0.0, 0]),
    ("a % 2 + b", [1, 2]),
    ("min(abs(a - b) % 7.5, 7.5 - abs(a - b) % 7.5)",
     [0.0, -0.0, 6.5, 30.25, -3.5, math.inf, math.nan, 5e-324]),
]


@pytest.mark.parametrize("expr, samples", VECTORISED)
def test_vectorised_expressions_call_no_distance(expr, samples):
    distance = ExpressionDistance(expr)
    assert distance.matrix(samples) is not None
    with mock.patch.object(quality, "_call_distance", side_effect=AssertionError):
        assert_same_matrix(distance, samples)


@pytest.mark.parametrize("expr, samples", [
    ("-(a - b)", [0, 1.5, 2]),          # int 0 negated is 0; in float64 it is -0.0
    ("(a - b) * -1", [0, 1.5, 2]),
    ("a - b", [True, 1.0]),
    ("a - b", [np.float64(1.0), 2.0]),
    ("a - b", [np.int64(1), 2]),
    ("a * b * a", [2 ** 18, 3]),        # 2**54 may not be exact in float64
    ("a + b", [2 ** 53, 1]),
    ("a / 3", [2 ** 53 + 1, 3]),        # Python rounds int / int once, float64 twice
    ("a - b", [2 ** 64, 1]),
    ("a ** 2 - b", [1.5, 2.0]),
    ("math.fabs(a - b)", [1.0, 2.0]),
    ("a % -2", [4, 1.5]),               # Python's 4 % -2 is 0; in float64 it is -0.0
    ("a if a < b else b", [1, 2]),
])
def test_matrix_declines_where_numpy_may_differ(expr, samples):
    distance = ExpressionDistance(expr)
    assert distance.matrix(samples) is None
    assert_same_matrix(distance, samples)


@pytest.mark.parametrize("expr, samples", [
    ("a / (a - b)", [1.0, 2.0, 3.0]),                  # zero divisor on the diagonal
    ("a - 1 / (b - 7)", list(range(10))),              # zero divisors in one column
    ("1 / (a - 150) + b", list(range(200))),           # in one row, blocks past the first
    ("(a - b) / -0.0", [1.0, 2.0]),                    # a literal negative zero
    ("a[2] - b[2]", [GridCoordinate(0, 0), GridCoordinate(1, 2)]),   # out of range
    ("a[0][2] - b[1]", [((0, 1), 2.0), ((3, 4), 5.0)]),
    ("a[0] + b[0]", [((0, 1), 2.0), ((3, 4), 5.0)]),   # tuple + tuple is a tuple
    ("a", [GridCoordinate(0, 0), GridCoordinate(1, 2)]),
    ("min(a)", [1.0, 2.0]),
    ("a * b", [10 ** 200, 10 ** 200]),                 # an int past the float range
    ("a % (a - b)", [1.0, 2.0]),                       # a zero remainder divisor
])
def test_matrix_declines_where_a_pair_raises(expr, samples):
    distance = ExpressionDistance(expr)
    assert distance.matrix(samples) is None
    with pytest.raises(EvaluationError) as got:
        quality._distance_matrix(distance, samples)
    with pytest.raises(EvaluationError) as want:
        oracle_matrix(distance, samples)
    assert str(got.value) == str(want.value)


remainder_samples = st.one_of(
    _samples(st.integers(-20, 20)),
    _samples(st.one_of(
        st.floats(allow_subnormal=True),
        st.floats(-30, 30).map(lambda v: round(v, 1)),
        st.sampled_from([0.0, -0.0, math.inf, -math.inf, math.nan, 5e-324, -5e-324,
                         2.2250738585072014e-308, 1e308]),
    )),
)


@settings(max_examples=300, deadline=None, suppress_health_check=[HealthCheck.too_slow])
@given(st.sampled_from(["(a - b) % b", "-(a - b) % b"]), remainder_samples)
@example("(a - b) % b", [4.0, -2.0, 5e-324, -math.inf, math.nan])
@example("-(a - b) % b", [1.5, -1.5, math.inf])
@example("(a - b) % b", [-0.0, 3.0])
def test_remainder_matrix_equals_the_pair_loop(expr, samples):
    # numpy's float remainder must be Python's, sign of zero included; a zero
    # divisor (any zero sample) declines, and the pairs raise as Python does.
    distance = ExpressionDistance(expr)
    if all(samples):
        assert distance.matrix(samples) is not None
    with np.errstate(all="ignore"):
        assert_same_matrix(distance, samples)


def test_fallback_calls_every_pair_through_call_distance():
    samples = [GridCoordinate(x, 2 * x - 5) for x in range(9)]
    calls = []

    def counted(distance, x, y):
        calls.append((x, y))
        return distance(x, y)

    with mock.patch.object(quality, "_call_distance", counted):
        quality._distance_matrix(ExpressionDistance("max(abs(a[0] - b[0]), 1)"), samples)
        assert calls == []
        quality._distance_matrix(ExpressionDistance("max(abs(a[0] - b[0]), 1) ** 1"), samples)
    assert len(calls) == len(samples) ** 2


DECLINED_SAMPLES = [GridCoordinate(x, 2 * x - 5) for x in range(9)]


def _no_method_call(*args):
    raise AssertionError("ExpressionDistance.__call__ was called")


def test_declined_expression_runs_its_compiled_function_per_pair():
    """Outside the matrix subset, the evaluator calls the compiled function
    through `_call_distance`, once per ordered pair in the oracle's order,
    and never the object's `__call__`."""
    distance = ExpressionDistance("math.hypot(a[0] - b[0], a[1] - b[1])")
    samples = DECLINED_SAMPLES
    assert distance.matrix(samples) is None
    want_calls = []

    def recorded(x, y):
        want_calls.append((x, y))
        return distance(x, y)

    oracle_matrix(recorded, samples)
    want = oracle_evaluate(window_encode, distance, samples, 300, 0, False)
    got_calls = []
    real_call = quality._call_distance

    def counted(fn, x, y):
        got_calls.append((x, y))
        return real_call(fn, x, y)

    with mock.patch.object(ExpressionDistance, "__call__", _no_method_call), \
            mock.patch.object(quality, "_call_distance", counted):
        got = evaluate_encoder(window_encode, distance, samples, 300, 0)
    assert got_calls == want_calls and len(got_calls) == len(samples) ** 2
    assert got == want and got.to_text() == want.to_text()


@pytest.mark.parametrize("expr", [
    "math.sqrt(a[0] - b[0])",                                # raises on the pair (0, 1)
    "math.hypot(a[0] - b[0], 0) if a[0] != 3 else a",        # returns `a` where a[0] == 3
], ids=["raises", "not-a-number"])
def test_declined_expression_errors_keep_their_text(expr):
    distance = ExpressionDistance(expr)
    assert distance.matrix(DECLINED_SAMPLES) is None
    want = outcome(oracle_matrix, distance, DECLINED_SAMPLES)
    assert want[0] is EvaluationError
    with mock.patch.object(ExpressionDistance, "__call__", _no_method_call):
        got = outcome(evaluate_encoder, window_encode, distance, DECLINED_SAMPLES, 300, 0)
    assert got == want


# --- the built-ins equal the function bodies they replaced -----------------------


def reference_circular(period):
    def dist(a, b):
        d = abs(a - b) % period
        return min(d, period - d)

    return dist


def reference_chebyshev(a, b):
    (ax, ay), (bx, by) = a, b
    return float(max(abs(ax - bx), abs(ay - by)))


def reference_discrete(a, b):
    return 0.0 if a == b else 1.0


def _value_or_raises(distance, x, y):
    try:
        return distance(x, y)
    except Exception:
        return EvaluationError


def _same_value(got, want):
    """Same type and bits; any NaN matches any NaN."""
    if type(got) is not type(want):
        return False
    if isinstance(got, float):
        return math.isnan(got) and math.isnan(want) or got.hex() == want.hex()
    return got == want


def _with_period(periods, kind):
    return periods.filter(lambda p: type(p) is kind).map(
        lambda p: (circular_distance(p), reference_circular(p)))


@pytest.mark.parametrize("pairs", [
    _with_period(periods, int),
    _with_period(periods, float),
    st.just((chebyshev_distance, reference_chebyshev)),
    st.just((discrete_distance, reference_discrete)),
], ids=["circular-int", "circular-float", "chebyshev", "discrete"])
@ORACLE_SETTINGS
@given(data=st.data())
def test_builtins_equal_their_reference(pairs, data):
    """Every pair's value, and the evaluator's matrix, equal the function
    body each built-in replaced; where the reference raises, so does it."""
    distance, reference = data.draw(pairs)
    samples = data.draw(st.one_of(numbers, coordinates, labels))
    for x in samples:
        for y in samples:
            got = _value_or_raises(distance, x, y)
            want = _value_or_raises(reference, x, y)
            assert _same_value(got, want), (x, y, got, want)
    got = outcome(quality._distance_matrix, distance, samples)
    want = outcome(oracle_matrix, reference, samples)
    if isinstance(want, tuple) or isinstance(got, tuple):
        assert got[0] is want[0] is EvaluationError  # the messages name different errors
    else:
        assert_equal_matrices(got, want)


ROOT = Path(__file__).resolve().parents[1]


def _bench_workloads():
    spec = importlib.util.spec_from_file_location("bench_workloads", ROOT / "bench" / "workloads.py")
    module = importlib.util.module_from_spec(spec)
    sys.modules.setdefault(spec.name, module)
    spec.loader.exec_module(module)
    return module


def assert_bench_report_is_pinned(name, seed, tmp_path, capsys):
    """The workload's report for ``seed``, with its distance matrix taken
    from numpy (no per-pair call), hashes to the digest pinned in
    bench/digests.json."""
    wl = _bench_workloads()
    workload = wl.WORKLOADS[name]
    inputs = wl.generate(workload, seed, str(tmp_path))
    csv_path = tmp_path / "input.csv"
    csv_path.write_bytes(inputs.data)
    with mock.patch.object(quality, "_call_distance", side_effect=AssertionError):
        code = cli.main(wl.cli_args(workload, inputs.config_path, str(csv_path), "", seed))
    out = capsys.readouterr().out
    assert code == 0
    digests = json.loads((ROOT / "bench" / "digests.json").read_text(encoding="utf-8"))
    assert hashlib.sha256(out.encode()).hexdigest() == digests[name][str(seed)]


@pytest.mark.parametrize("seed", range(10))
def test_benchmark_geo_report_is_byte_identical(seed, tmp_path, capsys):
    """The evaluate-geo-expr report, taken from the expression's matrix
    form, is the one pinned in bench/digests.json, which the per-pair
    evaluator printed before the matrix form existed."""
    assert_bench_report_is_pinned("evaluate-geo-expr", seed, tmp_path, capsys)


@pytest.mark.parametrize("seed", range(10))
def test_benchmark_scalar_report_is_byte_identical(seed, tmp_path, capsys):
    """The evaluate-scalar report (m = 1,500 samples, 1,124,250 pairs with
    repeated encodings and tied distances) is the one pinned in
    bench/digests.json."""
    assert_bench_report_is_pinned("evaluate-scalar", seed, tmp_path, capsys)


# --- the m x m steps against their formulas -------------------------------------

# A few bits, some past 2**64, so that distinct encodings share some of them.
OVERLAP_BITS = [0, 1, 2, 7, 40, (1 << 63) - 1, 1 << 63, 1 << 64, (1 << 64) + 5, (1 << 70) - 1]


@settings(max_examples=200, deadline=None)
@given(st.lists(st.frozensets(st.sampled_from(OVERLAP_BITS)), min_size=1, max_size=6),
       st.sampled_from([1 << 63, 1 << 70]), st.sampled_from([1, 5, quality._PAIR_BLOCK]),
       st.data())
def test_overlap_matrix_equals_the_pairwise_intersections(pool, n, block, data):
    """Heavy repeats (m samples over at most 6 distinct encodings), the
    empty encoding, bits past 2**63 (int64 rows) and past 2**64 (Python
    ints), and holder-pair blocks of one pair up: O[i, j] is |A_i & A_j|
    on the library's rows, each SDR's active indices padded with -1, read
    as U[which[i], which[j]] off the distinct rows' counts."""
    pool = [frozenset(bit for bit in bits if bit < n) for bits in pool]
    which = data.draw(st.lists(st.integers(0, len(pool) - 1), min_size=1, max_size=40))
    encodings = [SDR(n, tuple(sorted(bits))) for bits in pool]
    with mock.patch.object(quality, "_PAIR_BLOCK", block):
        U, rows = quality._overlap_matrix(quality._active_rows(encodings.__getitem__, which))
    O = U[rows][:, rows]
    assert O.shape == (len(which), len(which))
    assert O.tolist() == [[len(pool[i] & pool[j]) for j in which] for i in which]


@settings(max_examples=200, deadline=None)
@given(st.integers(1, 5), st.booleans(), st.sampled_from([1, 5, quality._PAIR_BLOCK]),
       st.data())
def test_overlap_matrix_counts_a_repeated_bit_once(w, past_2_64, block, data):
    """The CLI's rows, w indices each as `MultiEncoder._bits` keys them,
    uint64 or Python ints past 2**64: a bit repeated in a row (a hash
    collision) is one shared bit, so O[i, j] is still |A_i & A_j|."""
    bits = OVERLAP_BITS if past_2_64 else [b for b in OVERLAP_BITS if b < 1 << 64]
    rows = data.draw(st.lists(st.lists(st.sampled_from(bits[:3]) | st.sampled_from(bits),
                                       min_size=w, max_size=w), min_size=1, max_size=30))
    matrix = np.array(rows, dtype=object if past_2_64 else np.uint64)
    with mock.patch.object(quality, "_PAIR_BLOCK", block):
        U, which = quality._overlap_matrix(matrix)
    O = U[which][:, which]
    assert O.tolist() == [[len(set(a) & set(b)) for b in rows] for a in rows]


def matrix_discordance(O, D, quadruple_count, seed):
    """The sampled count over whole m x m matrices, in one numpy pass."""
    ks = np.arange(4 * quadruple_count, dtype=np.uint64)
    samples = counter_stream_array(seed, ks) % np.uint64(len(O))
    w, x, y, z = samples.astype(np.intp).reshape(-1, 4).T
    return int(np.count_nonzero(quality._is_discordant(O[w, x], O[y, z], D[w, x], D[y, z])))


PAIR_DISTANCES = [0.0, 0.5, 1.0, 2.0, 3.0, math.inf]


@settings(max_examples=150, deadline=None)
@given(st.lists(st.frozensets(st.sampled_from(OVERLAP_BITS[:5])), min_size=1, max_size=5),
       st.integers(4, 60), st.integers(1, 9), st.integers(0, 300), st.integers(0, 1 << 32),
       st.floats(0.0, 0.05), st.sampled_from([64, 1 << 70]), st.data())
def test_the_pair_reads_equal_the_m_x_m_matrices(pool, m, chunk, quadruple_count, seed,
                                                 nan_share, n, data):
    """m samples over at most 5 distinct encodings and a distance matrix of
    few levels, inf and a share of NaN: the pair vectors that `_evaluate`
    ranks are ``O[upper]`` and ``D[upper]`` of the whole overlap and
    distance matrices, its sampled count, in chunks of a few quadruples,
    is the same formula over ``O`` and ``D``, and its exhaustive count is
    `_exhaustive_discordance` of ``O`` and ``D``."""
    which = data.draw(st.lists(st.integers(0, len(pool) - 1), min_size=m, max_size=m))
    encodings = [SDR(n, tuple(sorted(bits))) for bits in pool]  # int64 or Python int rows
    O = np.array([[len(pool[a] & pool[b]) for b in which] for a in which])
    rng = np.random.default_rng(seed)
    D = np.array(PAIR_DISTANCES)[rng.integers(0, len(PAIR_DISTANCES), (m, m))]
    D[rng.random((m, m)) < nan_share] = math.nan
    upper = np.triu(np.ones((m, m), dtype=bool), 1)
    real_rank, ranked = quality._rank_correlation, []

    def ranking(pairs):
        ranked.append([vector.copy() for vector in pairs])
        return real_rank(pairs)

    def evaluate(exhaustive):
        return quality._evaluate(
            lambda: quality._active_rows(lambda i: encodings[which[i]], range(m)),
            lambda i, j: float(D[i, j]), list(range(m)), quadruple_count, seed, exhaustive)

    with mock.patch.object(quality, "_distance_matrix", return_value=D), \
         mock.patch.object(quality, "_rank_correlation", ranking), \
         mock.patch.object(quality, "_QUADRUPLE_CHUNK", chunk):
        sampled, exhaustive = evaluate(False), evaluate(True)
    assert len(ranked) == 2
    for overlaps, dists in ranked:
        assert overlaps.tolist() == O[upper].tolist()
        assert np.array_equal(dists, D[upper], equal_nan=True)
    assert sampled.discordant == matrix_discordance(O, D, quadruple_count, seed)
    assert exhaustive.discordant == quality._exhaustive_discordance(O, D)
    assert exhaustive.quadruples_sampled == m ** 4
    rho = oracle_rank_correlation(O[upper].tolist(), D[upper].tolist())
    assert (sampled.rank_correlation, sampled.overlap_uninformative) == rho
    assert (exhaustive.rank_correlation, exhaustive.overlap_uninformative) == rho


B = quality._AXIOM_BLOCK
# Distances an axiom check must compare: NaN never flags, inf - inf is NaN,
# -0.0 equals 0.0, and some differences lie just past the 1e-9 tolerance.
AXIOM_VALUES = [0.0, -0.0, 1.0, 1.0 + 1e-9, 1.0 + 3e-9, -1e-9, -2e-9, 2.5, math.nan,
                math.inf, -math.inf]


@settings(max_examples=60, deadline=None)
@given(st.sampled_from([2, 3, B - 1, B, B + 1, 2 * B + 3]), st.integers(0, 1 << 32),
       st.floats(0.0, 0.2), st.data())
def test_blocked_axiom_flags_equal_the_whole_matrix_formula(m, seed, share, data):
    """The counts and kept examples of the row-blocked flags equal those of
    ``np.abs(D - D.T) > AXIOM_TOLERANCE`` over the pairs i < j (and of the
    sign and diagonal checks), on a matrix with NaN, ±inf and -0.0 cells and
    asymmetric cells on the block edges."""
    rng = np.random.default_rng(seed)
    values = np.array(AXIOM_VALUES)
    D = values[rng.integers(0, len(values), (m, m))]
    D = np.where(np.arange(m)[:, None] < np.arange(m), D, D.T)  # symmetric so far
    changed = rng.random((m, m)) < share
    D[changed] = values[rng.integers(0, len(values), np.count_nonzero(changed))]
    edges = [k for e in range(0, m + B, B) for k in (e - 1, e, e + 1) if 0 <= k < m]
    for i, j, value in data.draw(st.lists(st.tuples(st.sampled_from(edges),
                                                    st.integers(0, m - 1),
                                                    st.sampled_from(AXIOM_VALUES)),
                                          max_size=8)):
        D[i, j] = value
    upper = np.triu(np.ones((m, m), dtype=bool), 1)
    with np.errstate(invalid="ignore"):
        asymmetric = (np.abs(D - D.T) > AXIOM_TOLERANCE) & upper
    negative = (D < -AXIOM_TOLERANCE) & ~np.eye(m, dtype=bool)
    identity = np.abs(np.diagonal(D)) > AXIOM_TOLERANCE

    def matrix_distance(i, j):
        return float(D[i, j])

    with mock.patch.object(quality, "_distance_matrix", return_value=D):
        report, got_D = quality._axiom_check(matrix_distance, list(range(m)))
    assert got_D is D
    checks = report.axiom_violations
    assert checks["symmetry"].violations == np.count_nonzero(asymmetric)
    assert checks["symmetry"].examples == [(i, j, D[i, j], D[j, i])
                                           for i, j in np.argwhere(asymmetric)[:10].tolist()]
    assert checks["non_negativity"].violations == np.count_nonzero(negative)
    assert checks["identity"].violations == np.count_nonzero(identity)
    assert report == oracle_axioms(matrix_distance, list(range(m)))


def test_each_block_edge_asymmetry_is_flagged():
    m = 2 * B + 3
    for i in sorted({0, B - 2, B - 1, B, B + 1, 2 * B - 1, 2 * B, m - 2}):
        for j in sorted({i + 1, B - 1, B, B + 1, 2 * B, m - 1} - set(range(i + 1))):
            D = np.zeros((m, m))
            D[j, i] = 1.0
            with mock.patch.object(quality, "_distance_matrix", return_value=D):
                report = quality._axiom_check(lambda a, b: D[a, b], list(range(m)))[0]
            assert report.axiom_violations["symmetry"] == AxiomCheck(1, [(i, j, 0.0, 1.0)])


# --- Spearman without scipy -------------------------------------------------------

RANKED_VALUES = [0.0, -0.0, 0.1, 0.2, 1e-300, 5e-324, -5e-324, 3.0, -3.0, math.inf, -math.inf]


@settings(max_examples=300, deadline=None)
@given(st.lists(st.one_of(st.sampled_from(RANKED_VALUES),
                          st.floats(allow_nan=False)), min_size=1, max_size=300))
def test_distance_ranks_equal_rankdata(values):
    """Average ranks by one sort are scipy's, ties, -0.0 against 0.0 and
    ±inf included."""
    values = np.array(values, dtype=float)
    order = np.argsort(values)
    ranks = quality._ranked_in_place(values[order], order)
    assert ranks.tolist() == stats.rankdata(values).tolist()


@settings(max_examples=300, deadline=None)
@given(st.integers(2, 400), st.integers(1, 12), st.integers(1, 12), st.integers(0, 1 << 32),
       st.floats(0.0, 0.5))
def test_rank_correlation_equals_spearmanr_on_ties(size, overlap_levels, dist_levels, seed,
                                                   special):
    """Ties on both sides; a share ``special`` of the distances is -0.0, 0.0
    or ±inf."""
    rng = np.random.default_rng(seed)
    overlaps = rng.integers(0, overlap_levels, size)
    dists = rng.integers(0, dist_levels, size) * 0.1 + rng.choice([0.0, 1e-3], size)
    odd = rng.random(size) < special
    dists[odd] = rng.choice([-0.0, 0.0, math.inf, -math.inf], int(odd.sum()))
    rho, uninformative = quality._rank_correlation([overlaps, dists])
    assert (rho, uninformative) == oracle_rank_correlation(overlaps.tolist(), dists.tolist())


def test_rank_correlation_constant_and_nan_sides_are_zero():
    overlaps = np.array([0, 1, 2, 3])
    assert quality._rank_correlation([overlaps, np.full(4, 2.0)]) == (0.0, False)
    assert quality._rank_correlation([overlaps, np.array([0.0, math.nan, 1.0, 2.0])]) == (0.0,
                                                                                         False)
    assert quality._rank_correlation([np.full(4, 3), np.arange(4.0)]) == (0.0, True)


# --- negative quadruple counts ----------------------------------------------------


def test_negative_quadruple_count_is_rejected():
    samples = [0.0, 1.0, 2.0, 3.0]
    with pytest.raises(InputError, match="quadruple_count"):
        evaluate_encoder(window_encode, absolute_difference, samples, quadruple_count=-1)


def test_zero_quadruples_is_allowed():
    samples = [0.0, 1.0, 2.0, 3.0]
    report = evaluate_encoder(window_encode, absolute_difference, samples, quadruple_count=0)
    assert report.quadruples_sampled == 0 and report.discordance_rate == 0.0
    assert report == oracle_evaluate(window_encode, absolute_difference, samples, 0, 0, False)


# --- scipy stays out of the runtime -------------------------------------------------


def _run_python(code: str, cwd) -> subprocess.CompletedProcess:
    src = str(Path(sdrkit.__file__).resolve().parents[1])
    env = dict(os.environ)
    env["PYTHONPATH"] = os.pathsep.join(p for p in (src, env.get("PYTHONPATH")) if p)
    return subprocess.run([sys.executable, "-c", code], cwd=cwd, env=env,
                          capture_output=True, text=True, timeout=120)


def test_cli_import_loads_no_scipy(tmp_path):
    proc = _run_python(
        "import sys, sdrkit.cli\n"
        "print(sorted(m for m in sys.modules if m.split('.')[0] == 'scipy'))",
        tmp_path,
    )
    assert proc.returncode == 0, proc.stderr
    assert proc.stdout.strip() == "[]"


def test_evaluate_run_loads_no_scipy(tmp_path):
    """The golden absolute report, from `sdrkit evaluate` run in the
    process that imported `sdrkit.cli`."""
    reports = ROOT / "tests" / "data" / "evaluate"
    proc = _run_python(
        "import sys\n"
        "from sdrkit import cli\n"
        f"rc = cli.main(['evaluate', '--config', {str(reports / 'absolute.json')!r},"
        f" '--input', {str(reports / 'absolute.csv')!r}])\n"
        "print(rc, sorted(m for m in sys.modules if m.split('.')[0] == 'scipy'))",
        tmp_path,
    )
    assert proc.returncode == 0, proc.stderr
    golden = (reports / "absolute.stdout").read_text(encoding="utf-8")
    assert proc.stdout == golden + "0 []\n"
