"""Scalar-family encoders: bounded, cyclic, delta, unbounded."""

import math
import random
import statistics
import sys

import pytest
from hypothesis import given, strategies as st

from sdrkit.errors import ConfigError, InputError, RangeError
from sdrkit.hashing import bucket_bit_index
from sdrkit.scalars import (
    CyclicEncoder,
    DeltaEncoder,
    MAX_W,
    ScalarEncoder,
    UnboundedScalarEncoder,
)
from sdrkit.sdr import overlap

finite_floats = st.floats(allow_nan=False, allow_infinity=False, width=64)


@pytest.fixture
def temp_encoder():
    return ScalarEncoder(0, 45, 100, 10)


class TestScalarEncoder:
    def test_resolution_is_derived(self, temp_encoder):
        assert temp_encoder.resolution == 0.5

    def test_encode_interior(self, temp_encoder):
        assert temp_encoder.encode(10).active == tuple(range(20, 30))

    def test_clamps_below_minimum(self, temp_encoder):
        assert temp_encoder.encode(-5).active == tuple(range(0, 10))

    def test_clamps_above_maximum(self, temp_encoder):
        assert temp_encoder.encode(1e9).active == tuple(range(90, 100))

    def test_adjacent_buckets_share_w_minus_1(self, temp_encoder):
        a = frozenset(temp_encoder.encode(10).active)
        b = frozenset(temp_encoder.encode(10.5).active)
        assert len(a & b) == 9 == temp_encoder.w - 1

    def test_non_finite_rejected(self, temp_encoder):
        for bad in (float("nan"), float("inf"), float("-inf")):
            with pytest.raises(InputError):
                temp_encoder.encode(bad)

    @given(finite_floats)
    def test_always_exactly_w_bits_and_fixed_n(self, v):
        enc = ScalarEncoder(0, 45, 100, 10)
        out = enc.encode(v)
        assert out.n == 100
        assert out.active_count == 10

    @given(finite_floats)
    def test_deterministic(self, v):
        enc = ScalarEncoder(-3, 12, 64, 8)
        assert enc.encode(v) == enc.encode(v)

    def test_overlap_law_on_value_grid(self, temp_encoder):
        # overlap(f(a), f(b)) == max(0, w - |bucket(a) - bucket(b)|), checked
        # by brute-force set intersection over a 0.25-spaced grid
        values = [i * 0.25 for i in range(181)]
        encs = {v: frozenset(temp_encoder.encode(v).active) for v in values}
        for a in values[::3]:
            for b in values:
                expected = max(
                    0, temp_encoder.w - abs(temp_encoder.bucket(a) - temp_encoder.bucket(b))
                )
                assert len(encs[a] & encs[b]) == expected

    def test_overlap_monotone_on_aligned_grid(self):
        # with samples one per bucket, overlap never increases with distance
        enc = ScalarEncoder(0, 45, 100, 10)
        values = [i * enc.resolution + enc.resolution / 2 for i in range(91)]
        anchor = enc.encode(values[30])
        prev = enc.w
        for v in values[30:]:
            o = overlap(anchor, enc.encode(v))
            assert o <= prev
            prev = o


class TestCyclicEncoder:
    def test_day_of_week_wraps(self):
        enc = CyclicEncoder(period=7, n=7, w=3)
        assert enc.encode(6).active == (0, 1, 6)  # Saturday wraps past the end

    def test_sunday_equidistant_from_saturday_and_monday(self):
        enc = CyclicEncoder(period=7, n=7, w=3)
        sat, sun, mon = enc.encode(6), enc.encode(0), enc.encode(1)
        assert overlap(sun, sat) == overlap(sun, mon) == 2

    @given(st.floats(min_value=-1e6, max_value=1e6))
    def test_periodicity(self, v):
        enc = CyclicEncoder(period=24, n=96, w=21)
        assert enc.encode(v) == enc.encode(v + 24)

    @given(finite_floats)
    def test_exactly_w_bits(self, v):
        enc = CyclicEncoder(period=12, n=48, w=11)
        out = enc.encode(v)
        assert out.n == 48
        assert out.active_count == 11

    def test_negative_values_wrap(self):
        enc = CyclicEncoder(period=7, n=7, w=3)
        assert enc.encode(-1) == enc.encode(6)

    def test_tiny_negative_phase_edge(self):
        enc = CyclicEncoder(period=7, n=7, w=3)
        out = enc.encode(-1e-18)  # float mod may land exactly on the period
        assert out.active_count == 3

    def test_overlap_depends_only_on_circular_distance(self):
        enc = CyclicEncoder(period=12, n=12, w=4)
        codes = [enc.encode(i) for i in range(12)]
        by_distance = {}
        for i in range(12):
            for j in range(12):
                d = min(abs(i - j), 12 - abs(i - j))
                by_distance.setdefault(d, set()).add(overlap(codes[i], codes[j]))
        for d, overlaps in by_distance.items():
            assert len(overlaps) == 1, f"distance {d} gave mixed overlaps {overlaps}"

    def test_full_ring_window_allowed(self):
        enc = CyclicEncoder(period=7, n=7, w=7)
        assert enc.encode(3).active_count == 7


class TestDeltaEncoder:
    def test_first_value_encodes_zero_delta(self):
        inner = ScalarEncoder(-10, 10, 100, 21)
        delta = DeltaEncoder(-10, 10, 100, 21)
        assert delta.encode(10) == inner.encode(0)

    def test_second_value_encodes_difference(self):
        inner = ScalarEncoder(-10, 10, 100, 21)
        delta = DeltaEncoder(-10, 10, 100, 21)
        delta.encode(10)
        assert delta.encode(12) == inner.encode(2)

    def test_constant_input_repeats(self):
        delta = DeltaEncoder(-10, 10, 100, 21)
        outs = [delta.encode(5), delta.encode(5), delta.encode(5)]
        assert outs[1] == outs[2]

    def test_error_leaves_state_unchanged(self):
        delta = DeltaEncoder(-10, 10, 100, 21)
        delta.encode(3)
        with pytest.raises(InputError):
            delta.encode(float("nan"))
        assert delta.previous == 3

    def test_reset(self):
        delta = DeltaEncoder(-10, 10, 100, 21)
        first = delta.encode(7)
        delta.encode(9)
        delta.reset()
        assert delta.encode(7) == first

    @given(st.floats(-1e3, 1e3), st.floats(0.5, 1e3), st.integers(2, 300), st.data(),
           st.lists(st.one_of(st.floats(-30, 30), st.floats()), max_size=20))
    def test_equals_a_scalar_encoder_of_the_deltas(self, lo, span, n, data, stream):
        w = data.draw(st.integers(1, n - 1))
        delta, scalar = DeltaEncoder(lo, lo + span, n, w), ScalarEncoder(lo, lo + span, n, w)

        def outcome(encode, value):
            try:
                return encode(value)
            except InputError:
                return InputError

        previous = None
        for v in stream:
            change = 0.0 if previous is None else v - previous
            if math.isinf(change):  # a change past the float range clamps to an end
                change = math.copysign(sys.float_info.max, change)
            expected = outcome(scalar.encode, change if math.isfinite(v) else v)
            assert outcome(delta.encode, v) == expected
            if expected is not InputError:
                previous = v
            assert delta.previous == previous  # untouched on error

    @pytest.mark.parametrize("first, second, end", [(-1e308, 1e308, 5), (1e308, -1e308, -5)])
    def test_change_past_the_float_range_clamps(self, first, second, end):
        # the change is +-inf: only the input is checked, so it clamps to an end
        delta = DeltaEncoder(-5, 5, 60, 21)
        delta.encode(first)
        assert delta.encode(second) == ScalarEncoder(-5, 5, 60, 21).encode(end)
        assert delta.previous == second

    def test_is_a_scalar_encoder_over_the_delta_range(self):
        delta = DeltaEncoder(-10, 10, 100, 21)
        assert isinstance(delta, ScalarEncoder)
        assert delta.params() == ScalarEncoder(-10, 10, 100, 21).params()
        with pytest.raises(ConfigError, match="empty range"):
            DeltaEncoder(10, -10, 100, 21)


class TestUnboundedScalarEncoder:
    def test_deterministic(self):
        enc = UnboundedScalarEncoder(resolution=1, n=1000, w=25, seed=42)
        assert enc.encode(123.4) == enc.encode(123.4)

    def test_adjacent_values_share_24_of_25_buckets(self):
        enc = UnboundedScalarEncoder(resolution=1, n=1000, w=25, seed=42)
        assert enc.bucket(0) == 0
        assert enc.bucket(1) == 1
        buckets0 = set(range(0, 25))
        buckets1 = set(range(1, 26))
        assert len(buckets0 & buckets1) == 24
        # and the bit overlap equals the overlap of the hashed bucket images
        bits0 = {bucket_bit_index(b, 42, 1000) for b in buckets0}
        bits1 = {bucket_bit_index(b, 42, 1000) for b in buckets1}
        assert overlap(enc.encode(0), enc.encode(1)) == len(bits0 & bits1)

    def test_far_values_overlap_at_chance_level(self):
        enc = UnboundedScalarEncoder(resolution=1, n=1000, w=25, seed=42)
        overlaps = [
            overlap(enc.encode(k), enc.encode(k + 5000)) for k in range(1000)
        ]
        mean = statistics.mean(overlaps)
        sem = statistics.stdev(overlaps) / math.sqrt(len(overlaps))
        chance = enc.w ** 2 / enc.n
        assert mean <= chance + 3 * sem

    def test_at_most_w_bits(self):
        enc = UnboundedScalarEncoder(resolution=0.5, n=400, w=25, seed=1)
        rng = random.Random(5)
        for _ in range(500):
            out = enc.encode(rng.uniform(-1e9, 1e9))
            assert out.n == 400
            assert out.active_count <= 25

    def test_bucket_overflow_raises(self):
        enc = UnboundedScalarEncoder(resolution=1e-300, n=100, w=21)
        with pytest.raises(RangeError):
            enc.encode(1e300)

    def test_finite_bucket_past_int64_raises(self):
        # value / resolution is finite here; its floor leaves the int64 range
        enc = UnboundedScalarEncoder(resolution=1.0, n=1000, w=21)
        with pytest.raises(RangeError, match="bucket index .* overflows the signed 64-bit range"):
            enc.encode(1e300)

    def test_negative_values_fine(self):
        enc = UnboundedScalarEncoder(resolution=1, n=1000, w=25)
        assert enc.bucket(-3.5) == -4
        assert enc.encode(-3.5).active_count <= 25

    @pytest.mark.parametrize("seed", ["x", 1.5, True, None])
    def test_seed_must_be_an_integer(self, seed):
        with pytest.raises(ConfigError, match="seed must be an integer"):
            UnboundedScalarEncoder(resolution=1, n=1000, w=25, seed=seed)


def _config_error(make) -> str:
    with pytest.raises(ConfigError) as exc:
        make()
    return str(exc.value)


class TestValidateScalarConfig:
    """Each constructor raises ConfigError at the first failed check and
    keeps its advisory sizing warnings as strings on ``.warnings``."""

    def test_recommended_sizes_pass_clean(self):
        assert ScalarEncoder(0, 45, 134, 21).warnings == []
        assert CyclicEncoder(7, 100, 21).warnings == []
        assert UnboundedScalarEncoder(1, 134, 21).warnings == []

    def test_small_w_warns(self):
        assert ScalarEncoder(0, 45, 100, 10).warnings == [
            "w=10 is below the recommended minimum of 20 one-bits; small codes are "
            "fragile under noise and subsampling"]

    def test_empty_range_is_error(self):
        assert _config_error(lambda: ScalarEncoder(5, 5, 100, 21)) == (
            "empty range: min (5) must be below max (5)")

    def test_w_exceeding_n_is_error(self):
        for make in (lambda: ScalarEncoder(0, 1, 10, 11), lambda: CyclicEncoder(7, 10, 11),
                     lambda: UnboundedScalarEncoder(1, 10, 11)):
            assert _config_error(make) == "w (11) cannot exceed n (10)"

    def test_n_must_leave_room_for_the_window(self):
        assert _config_error(lambda: ScalarEncoder(0, 1, 21, 21)) == (
            "n - w must be at least 1 to span a bounded range (n=21, w=21)")

    def test_w_above_max_w_is_error(self):
        CyclicEncoder(7, 2 * MAX_W, MAX_W)
        assert _config_error(lambda: CyclicEncoder(7, 2 * MAX_W, MAX_W + 1)) == (
            f"w ({MAX_W + 1}) cannot exceed MAX_W ({MAX_W})")

    def test_sparsity_band_warning(self):
        assert CyclicEncoder(7, 100, 50).warnings == [
            "sparsity w/n = 0.5000 is outside the usual [1%, 35%] band"]

    def test_small_n_warns(self):
        assert UnboundedScalarEncoder(1, 64, 21).warnings == [
            "n=64 is below the recommended minimum of 100 bits"]

    def test_bad_period_and_resolution(self):
        assert _config_error(lambda: CyclicEncoder(0, 100, 21)) == (
            "period must be positive and finite, got 0")
        assert _config_error(lambda: UnboundedScalarEncoder(-1, 100, 21)) == (
            "resolution must be positive and finite, got -1")

    @pytest.mark.parametrize("make, message", [
        (lambda: ScalarEncoder(5, 5, 100.5, 0), "n must be a positive integer, got 100.5"),
        (lambda: ScalarEncoder(5, 5, 100, 0), "w must be a positive integer, got 0"),
        (lambda: ScalarEncoder(5, 5, 21, 21), "empty range: min (5) must be below max (5)"),
        (lambda: CyclicEncoder(0, 10, 11), "w (11) cannot exceed n (10)"),
        (lambda: UnboundedScalarEncoder(0, 100, 21, seed=1.5),
         "resolution must be positive and finite, got 0"),
    ], ids=["n-before-w", "w-before-range", "range-before-n-w", "w-before-period",
            "resolution-before-seed"])
    def test_two_bad_parameters_raise_for_the_first(self, make, message):
        assert _config_error(make) == message

    def test_constructor_raises_on_errors(self):
        with pytest.raises(ConfigError):
            ScalarEncoder(5, 5, 100, 21)
        with pytest.raises(ConfigError):
            CyclicEncoder(-7, 7, 3)

    @pytest.mark.parametrize("make", [
        lambda: ScalarEncoder("0", 1, 100, 21),
        lambda: ScalarEncoder(True, 5, 100, 21),
        lambda: ScalarEncoder(None, None, 100, 21),
        lambda: ScalarEncoder(0, 10**400, 134, 21),
        lambda: CyclicEncoder("7", 100, 21),
        lambda: CyclicEncoder(None, 100, 21),
        lambda: UnboundedScalarEncoder(None, 100, 21),
        lambda: UnboundedScalarEncoder(10**400, 100, 21),
    ], ids=["str-min", "bool-min", "none-range", "huge-max", "str-period",
            "none-period", "none-resolution", "huge-resolution"])
    def test_numbers_of_the_wrong_type_rejected_at_construction(self, make):
        # Each of these used to raise TypeError or OverflowError, or (a bool
        # min) was read as 1.0.
        with pytest.raises(ConfigError, match="finite"):
            make()
        with pytest.raises(ConfigError):
            UnboundedScalarEncoder(0, 100, 21)
