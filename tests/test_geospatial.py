"""Grid-position encoders, the deterministic hash, and the GPS adapter."""

import math
import random

import pytest
from hypothesis import given, strategies as st

from sdrkit.errors import ConfigError, InputError, ProjectionError, RangeError
from sdrkit.geospatial import (
    EARTH_RADIUS_M,
    GeospatialEncoder,
    GridCoordinate,
    gps_to_grid,
    neighborhood,
)
from sdrkit.hashing import coordinate_hash, mix64

# Golden vectors frozen from the normative formulas (64-bit wrapping
# arithmetic), cross-checked against an independent numpy-uint64 evaluation.
MIX64_GOLDEN = {
    0: 16294208416658607535,
    1: 10451216379200822465,
    2: 10905525725756348110,
    3: 2092789425003139053,
    42: 13679457532755275413,
    0xDEADBEEF: 5395234354446855067,
    0x123456789ABCDEF0: 1592342178222199016,
    (1 << 64) - 1: 16490336266968443936,
}

COORD_HASH_GOLDEN = [
    # (x, y, seed, n) -> (bit_index, order_key)
    (5, 10, 0, 100, 96, 13196963132351923944),
    (0, 0, 0, 100, 35, 13441156890354882375),
    (-1, -1, 0, 100, 36, 673816163787505614),
    (3, 8, 42, 1000, 878, 4296119873410644788),
    (7, 12, 42, 1000, 311, 1735005669635149522),
    (-2147483648, 2147483647, 0, 2048, 1856, 15970056337956877322),
    (2147483647, -2147483648, 987654321, 2048, 808, 16250037414708667658),
    (1000, -1000, 0xDEADBEEF, 542, 196, 6893670091078129998),
    (123, 456, 1, 100, 38, 11712295588728583504),
    (-5, 10, 0, 100, 46, 1980126693028878924),
    (5, -10, 0, 100, 73, 9899200897745132311),
    (0, 1, 0, 2, 1, 13957987245808512451),
]

MERCATOR_GOLDEN = [
    # (lat, lon, cell_size_m) -> (gx, gy); frozen from an independent
    # high-precision evaluation of the spherical mercator formulas
    (0.0, 0.0, 3.048, 0, 0),
    (37.7749, -122.4194, 3.048, -4471019, 1492019),
    (-33.8688, 151.2093, 3.048, 5522487, -1316011),
    (51.5074, -0.1278, 3.048, -4668, 2201949),
    (85.0, 179.999, 3.048, 6573949, 6552450),
]


class TestMix64:
    def test_golden_vectors(self):
        for k, expected in MIX64_GOLDEN.items():
            assert mix64(k) == expected

    def test_pure(self):
        for k in (0, 1, 7, 1 << 40):
            assert mix64(k) == mix64(k)

    def test_avalanche_on_consecutive_keys(self):
        flips = [bin(mix64(k) ^ mix64(k + 1)).count("1") for k in range(1000)]
        assert sum(flips) / len(flips) >= 20
        assert mix64(1) != mix64(0)


class TestCoordinateHash:
    def test_golden_vectors(self):
        for x, y, seed, n, bit_index, order_key in COORD_HASH_GOLDEN:
            assert coordinate_hash((x, y), seed, n) == (bit_index, order_key)

    def test_deterministic(self):
        assert coordinate_hash((5, 10), 7, 64) == coordinate_hash((5, 10), 7, 64)

    def test_bit_index_in_range(self):
        rng = random.Random(3)
        for _ in range(500):
            c = (rng.randint(-(2**31), 2**31 - 1), rng.randint(-(2**31), 2**31 - 1))
            bit, key = coordinate_hash(c, 99, 37)
            assert 0 <= bit < 37
            assert 0 <= key < 1 << 64

    def test_lattice_uniformity(self):
        # full 100x100 lattice into 100 buckets; seed 4 is the pinned fixture
        # (seed-0 ratio is 1.525, computed once and recorded)
        def ratio(seed):
            hist = [0] * 100
            for x in range(100):
                for y in range(100):
                    hist[coordinate_hash((x, y), seed, 100)[0]] += 1
            return max(hist) / min(hist)

        assert ratio(4) < 1.5
        for seed in range(8):
            assert ratio(seed) < 1.6


class TestNeighborhood:
    def test_worked_example(self):
        cells = neighborhood((5, 10), 2)
        assert len(cells) == 25
        assert set(cells) == {(x, y) for x in range(3, 8) for y in range(8, 13)}
        assert cells == sorted(cells)

    def test_adjacent_positions_share_20_of_25(self):
        a = set(neighborhood((5, 10), 2))
        b = set(neighborhood((6, 10), 2))
        assert len(a & b) == 20

    @pytest.mark.parametrize("radius", [1, 2, 3])
    def test_axis_aligned_overlap_counts(self, radius):
        side = 2 * radius + 1
        base = set(neighborhood((0, 0), radius))
        for d in range(0, 2 * radius + 1):
            shifted = set(neighborhood((d, 0), radius))
            assert len(base & shifted) == (side - d) * side

    def test_i32_overflow(self):
        with pytest.raises(RangeError):
            neighborhood((2**31 - 1, 0), 2)


class TestFixedEncoder:
    def test_bit_count_bounded_by_pool(self):
        enc = GeospatialEncoder(1000, 2)
        out = enc.encode((5, 10))
        assert out.n == 1000
        assert out.active_count <= 25

    def test_deterministic(self):
        enc = GeospatialEncoder(1000, 2, seed=9)
        assert enc.encode((123, -456)) == enc.encode((123, -456))

    def test_w_is_derived_from_radius(self):
        assert GeospatialEncoder(1000, 2).w == 25
        assert GeospatialEncoder(1000, 4).w == 81

    def test_mismatched_fixed_w_rejected(self):
        with pytest.raises(ConfigError):
            GeospatialEncoder(1000, 2, w=15)

    @pytest.mark.parametrize("radius", [2**31, 2**600], ids=["2**31", "2**600"])
    def test_radius_beyond_the_grid_rejected(self, radius):
        # Construction only: no neighborhood is ever enumerated.
        with pytest.raises(ConfigError, match="32-bit grid"):
            GeospatialEncoder(1000, radius)
        with pytest.raises(ConfigError, match="32-bit grid"):
            GeospatialEncoder(1000, 2, variant="topw", w=15, radius_max=radius)

    def test_largest_radius_accepted(self):
        enc = GeospatialEncoder(2**70, 2**31 - 1)
        assert enc.w == (2**32 - 1) ** 2

    @pytest.mark.parametrize("kwargs", [
        {"seed": "7"}, {"seed": 1.9}, {"seed": True},
        {"variant": "topw", "w": 2.0}, {"variant": "topw", "w": True},
        {"radius_min": 1.5}, {"radius_max": 3.0}, {"radius_min": False},
        {"speed_scale": math.nan}, {"speed_scale": math.inf}, {"speed_scale": "0.1"},
        {"seed": None},
    ], ids=repr)
    def test_parameters_of_the_wrong_type_rejected(self, kwargs):
        # Construction only: each of these used to be accepted (or coerced)
        # and failed, if at all, at encode time.
        with pytest.raises(ConfigError):
            GeospatialEncoder(1000, 2, **kwargs)

    def test_speed_scale_past_the_float_range_rejected(self):
        with pytest.raises(ConfigError, match="speed_scale must be a finite number"):
            GeospatialEncoder(1000, speed_scale=10**400)

    @pytest.mark.parametrize("make, message", [
        (lambda: GeospatialEncoder(0, -1, variant="ring"), "n must be a positive integer, got 0"),
        (lambda: GeospatialEncoder(1000, 2, radius_min=3, w=26),
         "need 0 <= radius_min <= radius_max, got [3, 2]"),
    ], ids=["n-before-radius-and-variant", "radius-range-before-w"])
    def test_two_bad_parameters_raise_for_the_first(self, make, message):
        with pytest.raises(ConfigError) as exc:
            make()
        assert str(exc.value) == message

    def test_collision_warning_for_small_n(self):
        assert GeospatialEncoder(100, 2).warnings == [
            "w**2/n = 6.25 > 1: expect noticeable bit-index collisions; increase n"]
        assert GeospatialEncoder(625, 2).warnings == []

    def test_speed_rejected(self):
        enc = GeospatialEncoder(1000, 2)
        with pytest.raises(InputError):
            enc.encode(((0, 0), 3.0))


class TestTopWEncoder:
    def make(self, **kw):
        args = dict(variant="topw", w=15, seed=0)
        args.update(kw)
        return GeospatialEncoder(100, 2, **args)

    def test_selects_15_of_25(self):
        sel = self.make().select_topw((0, 0))
        assert len(sel) == 15
        assert len(set(sel)) == 15
        assert set(sel) <= set(neighborhood((0, 0), 2))

    def test_selects_15_of_81_at_radius_4(self):
        enc = self.make(radius_min=2, radius_max=4)
        sel = enc.select_topw((0, 0), radius=4)
        assert len(sel) == 15
        assert set(sel) <= set(neighborhood((0, 0), 4))

    def test_at_most_w_bits(self):
        out = self.make().encode((3, 4))
        assert out.active_count <= 15

    def test_selection_independent_of_enumeration_order(self):
        enc = self.make(seed=11)
        pool = neighborhood((7, -2), 2)
        shuffled = list(pool)
        random.Random(0).shuffle(shuffled)
        rank = lambda cell: (-coordinate_hash(cell, enc.seed, enc.n)[1], cell)
        assert sorted(shuffled, key=rank)[:15] == enc.select_topw((7, -2))

    def test_w_exceeding_pool_rejected(self):
        with pytest.raises(ConfigError):
            GeospatialEncoder(100, 1, variant="topw", w=15)  # pool is 9
        enc = self.make()
        with pytest.raises(ConfigError):
            enc.select_topw((0, 0), radius=1)

    def test_w_beyond_the_radius_pool_fails_only_without_a_speed(self):
        # The constructor checks w against the radius_min pool (49 cells); a
        # bare cell encodes at radius 1, whose pool has 9.
        enc = GeospatialEncoder(1000, 1, variant="topw", w=20, radius_min=3, radius_max=5)
        with pytest.raises(ConfigError, match="cannot select w=20 cells from a radius-1 "
                                              "neighborhood of 9"):
            enc.encode((0, 0))
        assert enc.encode(((0, 0), 0.0)).active_count <= 20

    def test_nearby_positions_share_selected_cells(self):
        shared = []
        for seed in range(100):
            enc = self.make(seed=seed)
            s1 = set(enc.select_topw((0, 0)))
            s2 = set(enc.select_topw((2, 0)))
            shared.append(len(s1 & s2))
        assert sum(shared) / len(shared) >= 8.0

    def test_requires_w(self):
        with pytest.raises(ConfigError):
            GeospatialEncoder(100, 2, variant="topw")


class TestRadiusFromSpeed:
    def make(self):
        return GeospatialEncoder(
            1000, 2, variant="topw", w=15,
            speed_scale=0.1, radius_min=2, radius_max=10,
        )

    def test_zero_speed_gives_radius_min(self):
        assert self.make().radius_from_speed(0) == 2

    def test_worked_example(self):
        assert self.make().radius_from_speed(20) == 4

    def test_huge_speed_clamps(self):
        assert self.make().radius_from_speed(1e6) == 10

    def test_monotone(self):
        enc = self.make()
        rng = random.Random(1)
        for _ in range(300):
            s1, s2 = sorted((rng.uniform(0, 200), rng.uniform(0, 200)))
            assert enc.radius_from_speed(s1) <= enc.radius_from_speed(s2)

    def test_negative_speed_rejected(self):
        with pytest.raises(InputError):
            self.make().radius_from_speed(-1)

    def test_non_numeric_speed_rejected(self):
        with pytest.raises(InputError, match="expected a number for speed, got 'fast'"):
            self.make().radius_from_speed("fast")

    @pytest.mark.parametrize("speed", [math.inf, "inf"], ids=repr)
    def test_infinite_speed_rejected(self, speed):
        with pytest.raises(InputError, match="speed must be finite"):
            self.make().radius_from_speed(speed)

    def test_product_past_the_float_range_clamps(self):
        def make(scale):
            return GeospatialEncoder(1000, 2, variant="topw", w=15, speed_scale=scale,
                                     radius_min=2, radius_max=10)
        assert make(1e300).radius_from_speed(1e308) == 10
        assert make(-1e300).radius_from_speed(1e308) == 2

    @given(st.floats(0, 1e12), st.floats(-1e3, 1e3), st.integers(0, 50),
           st.integers(0, 2**31 - 60))
    def test_affine_then_clamp(self, speed, scale, spread, radius_min):
        enc = GeospatialEncoder(1000, radius_min, variant="topw", w=1, speed_scale=scale,
                                radius_min=radius_min, radius_max=radius_min + spread)
        grown = radius_min + math.floor(speed * scale)
        assert enc.radius_from_speed(speed) == min(max(grown, radius_min), radius_min + spread)

    def test_speed_adapts_encoding(self):
        enc = self.make()
        slow = enc.encode(((0, 0), 0))
        assert slow == enc.encode_topw((0, 0), radius=2)
        fast = enc.encode(((0, 0), 20))
        assert fast == enc.encode_topw((0, 0), radius=4)


@given(st.integers(0, 6), st.integers(0, 6), st.floats(-10, 10), st.data(),
       st.tuples(st.integers(-1000, 1000), st.integers(-1000, 1000)),
       st.one_of(st.floats(0, 100), st.floats()))
def test_a_cell_speed_pair_is_encoded_at_the_speed_radius(radius_min, spread, scale, data,
                                                           cell, speed):
    enc = GeospatialEncoder(1000, radius_min, variant="topw", speed_scale=scale,
                            w=data.draw(st.integers(1, (2 * radius_min + 1) ** 2)),
                            radius_min=radius_min, radius_max=radius_min + spread)
    cell = data.draw(st.sampled_from([cell, GridCoordinate(*cell), list(cell)]))

    def outcome(fn):
        try:
            return fn()
        except InputError as exc:
            return str(exc)

    assert outcome(lambda: enc.encode((cell, speed))) == \
        outcome(lambda: enc.encode_topw(cell, enc.radius_from_speed(speed)))


class TestGpsToGrid:
    def test_golden_fixtures(self):
        for lat, lon, cell, gx, gy in MERCATOR_GOLDEN:
            assert gps_to_grid(lat, lon, cell) == GridCoordinate(gx, gy)

    def test_origin(self):
        assert gps_to_grid(0.0, 0.0, 17.5) == (0, 0)

    def test_small_offset_same_cell(self):
        # 1e-7 degrees of longitude is ~1.1 cm on the equator, far below the
        # 3.048 m cell width
        assert gps_to_grid(0.0, 1e-7, 3.048) == gps_to_grid(0.0, 0.0, 3.048)

    def test_nearby_points_land_in_adjacent_cells(self):
        cell = 3.048
        base = gps_to_grid(37.0, -122.0, cell)
        # ~2.7 m east: same or adjacent cell
        dlon = 2.7 / (EARTH_RADIUS_M * 3.141592653589793 / 180.0)
        moved = gps_to_grid(37.0, -122.0 + dlon, cell)
        assert abs(moved.x - base.x) <= 1
        assert moved.y == base.y

    def test_latitude_beyond_mercator_validity(self):
        with pytest.raises(ProjectionError):
            gps_to_grid(85.05113, 0, 3.048)
        with pytest.raises(ProjectionError):
            gps_to_grid(-89.9, 0, 3.048)

    def test_longitude_out_of_range(self):
        with pytest.raises(ProjectionError):
            gps_to_grid(0, 180.5, 3.048)

    def test_bad_cell_size(self):
        with pytest.raises(InputError):
            gps_to_grid(0, 0, 0)

    def test_cell_index_overflow(self):
        with pytest.raises(RangeError):
            gps_to_grid(80.0, 170.0, 1e-4)

    def test_non_finite_rejected(self):
        with pytest.raises(InputError):
            gps_to_grid(float("nan"), 0, 3.048)
