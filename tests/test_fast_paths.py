"""Fast paths pinned to their scalar references.

* `mix64_array` equals `mix64` key by key, and `counter_stream_array`
  equals `counter_stream` ordinal by ordinal.
* The geospatial encoders equal the reference algorithm kept here as the
  oracle: `coordinate_hash` over every `neighborhood` cell, with top-w
  ranked by (-order key, cell).
* The unbounded scalar encoder equals `bucket_bit_index` over its w buckets.
* Every encoder's output, built without validation, passes the validating
  `SDR` constructor unchanged and holds plain Python ints.
"""

import warnings

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

from sdrkit.categories import CategoryEncoder
from sdrkit.composite import DatetimeEncoder, MultiEncoder, concat
from sdrkit.errors import InputError, InvalidSdr, SdrError
from sdrkit.geospatial import GeospatialEncoder, neighborhood
from sdrkit.hashing import (
    bucket_bit_index,
    coordinate_hash,
    counter_stream,
    counter_stream_array,
    mix64,
    mix64_array,
)
from sdrkit.scalars import (
    CyclicEncoder,
    DeltaEncoder,
    ScalarEncoder,
    UnboundedScalarEncoder,
)
from sdrkit.sdr import SDR

I32_MIN = -(1 << 31)
I32_MAX = (1 << 31) - 1
U64_MAX = (1 << 64) - 1

u64 = st.integers(0, U64_MAX)
seeds = st.one_of(
    st.integers(-(1 << 63), -1),
    st.integers(0, 1000),
    st.integers(1 << 63, U64_MAX),
    st.integers(-(1 << 80), 1 << 80),
)
# Cells at and beyond reach of the signed 32-bit edges, plus ordinary ones.
ordinates = st.one_of(
    st.integers(I32_MIN, I32_MIN + 8),
    st.integers(I32_MAX - 8, I32_MAX),
    st.integers(-1000, 1000),
)
coords = st.tuples(ordinates, ordinates)
bit_counts = st.one_of(st.integers(1, 5000), st.just(U64_MAX + 7))
# Past 64 bits no hash is reduced modulo n, so each cell keeps a bit of its own.
WIDE = U64_MAX + 7


# --- reference algorithm ----------------------------------------------------

def reference_encode_fixed(enc, coord):
    bits = {coordinate_hash(cell, enc.seed, enc.n)[0]
            for cell in neighborhood(coord, enc.radius)}
    return SDR(enc.n, tuple(sorted(bits)))


def reference_select_topw(enc, coord, radius=None):
    r = enc.radius if radius is None else radius
    pool = neighborhood(coord, r)
    if not 1 <= enc.w <= len(pool):
        raise InputError(f"w={enc.w} needs a speed: a bare cell encodes at radius {r}, "
                         f"whose neighborhood has only {len(pool)} cells; encode a "
                         "(cell, speed) pair")
    ranked = sorted(pool, key=lambda cell: (-coordinate_hash(cell, enc.seed, enc.n)[1], cell))
    return ranked[: enc.w]


def reference_encode_topw(enc, coord, radius=None):
    bits = {coordinate_hash(cell, enc.seed, enc.n)[0]
            for cell in reference_select_topw(enc, coord, radius)}
    return SDR(enc.n, tuple(sorted(bits)))


def outcome(fn, *args):
    """The result, or the error's type and message."""
    try:
        return fn(*args)
    except SdrError as exc:
        return type(exc), str(exc)


# --- mix64_array --------------------------------------------------------------

@given(st.lists(u64, max_size=64))
def test_mix64_array_matches_mix64(keys):
    keys = [0, U64_MAX] + keys
    out = mix64_array(keys)
    assert out.dtype == np.uint64
    assert out.tolist() == [mix64(k) for k in keys]


@given(u64)
def test_mix64_array_scalar_input_wraps_silently(key):
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        assert int(mix64_array(key)) == mix64(key)


def test_mix64_array_leaves_its_input_alone():
    keys = np.array([1, 2, 3], dtype=np.uint64)
    mix64_array(keys)
    assert keys.tolist() == [1, 2, 3]


@given(seeds, st.lists(st.one_of(u64, st.integers(0, 1 << 20)), max_size=64))
def test_counter_stream_array_matches_counter_stream(seed, ks):
    ks = [0, 1, U64_MAX] + ks
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        out = counter_stream_array(seed, ks)
    assert out.dtype == np.uint64
    assert out.tolist() == [counter_stream(seed, k) for k in ks]


def test_counter_stream_array_takes_a_uint64_range():
    ks = np.arange(4 * 3, 4 * 9, dtype=np.uint64)
    assert counter_stream_array(-7, ks).tolist() == [counter_stream(-7, k) for k in range(12, 36)]


# --- geospatial fast path vs the reference ------------------------------------

@settings(max_examples=150, deadline=None)
@given(bit_counts, st.integers(0, 7), seeds, coords)
def test_encode_fixed_matches_reference(n, radius, seed, coord):
    enc = GeospatialEncoder(n, radius, seed=seed)
    assert outcome(enc.encode, coord) == outcome(reference_encode_fixed, enc, coord)


@st.composite
def topw_cases(draw):
    radius = draw(st.integers(0, 7))
    w = draw(st.integers(1, (2 * radius + 1) ** 2))
    enc = GeospatialEncoder(draw(bit_counts), radius, variant="topw", w=w, seed=draw(seeds))
    # A radius override may make the pool smaller than w.
    override = draw(st.one_of(st.none(), st.integers(0, 7)))
    return enc, draw(coords), override


def at_radius(enc, radius):
    """``enc``, or its twin whose bare cells encode at ``radius``; radius_min
    stays at ``enc.radius``, whose pool the constructor accepts for w."""
    if radius is None:
        return enc
    return GeospatialEncoder(enc.n, radius, variant="topw", w=enc.w, seed=enc.seed,
                             radius_min=enc.radius, radius_max=enc.radius)


@settings(max_examples=150, deadline=None)
@given(topw_cases())
def test_select_topw_matches_reference(case):
    enc, coord, radius = case
    wide = GeospatialEncoder(WIDE, enc.radius, variant="topw", w=enc.w, seed=enc.seed)
    got = outcome(at_radius(wide, radius).encode, coord)
    want = outcome(reference_select_topw, wide, coord, radius)
    if isinstance(want, list):  # the selected cells, each as its own bit
        want = SDR(WIDE, tuple(sorted(coordinate_hash(cell, wide.seed, WIDE)[0]
                                      for cell in want)))
        assert got.active_count == enc.w
    assert got == want


@settings(max_examples=150, deadline=None)
@given(topw_cases())
def test_encode_topw_matches_reference(case):
    enc, coord, radius = case
    assert outcome(at_radius(enc, radius).encode, coord) == \
        outcome(reference_encode_topw, enc, coord, radius)


@pytest.mark.parametrize("variant", ["fixed", "topw"])
def test_edge_of_grid_still_raises(variant):
    enc = GeospatialEncoder(1000, 2, variant=variant, w=5 if variant == "topw" else None)
    for coord in [(I32_MAX - 1, 0), (0, I32_MIN + 1)]:
        got = outcome(enc.encode, coord)
        want = outcome(reference_encode_fixed if variant == "fixed" else reference_encode_topw,
                       enc, coord)
        assert got == want
        assert "exceeds the signed 32-bit range" in got[1]
    assert enc.encode((I32_MAX - 2, I32_MIN + 2)).n == 1000


# --- unbounded scalar fast path vs bucket_bit_index ---------------------------

@st.composite
def unbounded_cases(draw):
    """An encoder and a value whose buckets sit at a signed 64-bit edge (at
    resolution 1, where floats there are 1024 apart), straddle 0, or are
    ordinary."""
    n = draw(st.one_of(st.integers(1, 5000), st.sampled_from([U64_MAX, U64_MAX + 1,
                                                              U64_MAX + 7])))
    w = draw(st.integers(1, min(n, 1024)))
    step = 1024.0 * draw(st.integers(0, 64))
    value, resolution = draw(st.one_of(
        st.tuples(st.just(-(2.0 ** 63) + step), st.just(1.0)),
        st.tuples(st.just(2.0 ** 63 - 1024 - step), st.just(1.0)),  # b + w - 1 < 2**63
        st.tuples(st.floats(-w, 0), st.just(1.0)),
        st.tuples(st.floats(-1e6, 1e6), st.floats(0.01, 100)),
    ))
    return UnboundedScalarEncoder(resolution, n, w, seed=draw(seeds)), value


@settings(max_examples=300, deadline=None)
@given(unbounded_cases())
def test_unbounded_encode_matches_bucket_bit_index(case):
    enc, value = case
    b = enc.bucket(value)
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        out = enc.encode(value)
    bits = {bucket_bit_index(b + i, enc.seed, enc.n) for i in range(enc.w)}
    assert out == SDR(enc.n, tuple(sorted(bits)))


# --- every trusted output is a valid SDR ----------------------------------------

def assert_valid(out):
    assert type(out) is SDR
    assert type(out.n) is int
    assert all(type(i) is int for i in out.active)
    assert SDR(out.n, out.active) == out


finite = st.floats(-1e6, 1e6, allow_nan=False)
labels = ["alpha", "beta", "gamma"]


@st.composite
def scalar_encoders(draw):
    n = draw(st.integers(2, 300))
    w = draw(st.integers(1, n - 1))
    lo = draw(st.floats(-1e3, 1e3))
    return ScalarEncoder(lo, lo + draw(st.floats(0.5, 1e3)), n, w)


@st.composite
def cyclic_encoders(draw):
    n = draw(st.integers(1, 300))
    return CyclicEncoder(draw(st.floats(0.5, 1e3)), n, draw(st.integers(1, n)))


@st.composite
def unbounded_encoders(draw):
    n = draw(st.integers(1, 3000))
    return UnboundedScalarEncoder(draw(st.floats(0.01, 100)), n,
                                  draw(st.integers(1, min(n, 60))), seed=draw(seeds))


@st.composite
def geo_encoders(draw):
    radius = draw(st.integers(0, 4))
    if draw(st.booleans()):
        return GeospatialEncoder(draw(bit_counts), radius, seed=draw(seeds))
    w = draw(st.integers(1, (2 * radius + 1) ** 2))
    return GeospatialEncoder(draw(bit_counts), radius, variant="topw", w=w, seed=draw(seeds))


@settings(deadline=None)
@given(scalar_encoders(), finite)
def test_scalar_output_valid(enc, value):
    assert_valid(enc.encode(value))


@settings(deadline=None)
@given(cyclic_encoders(), finite)
def test_cyclic_output_valid(enc, value):
    out = enc.encode(value)
    assert_valid(out)
    b = enc.bucket(value)
    assert out.active == tuple(sorted((b + i) % enc.n for i in range(enc.w)))


@settings(deadline=None)
@given(scalar_encoders(), st.lists(finite, min_size=1, max_size=5))
def test_delta_output_valid(inner, stream):
    enc = DeltaEncoder(inner.min_value, inner.max_value, inner.n, inner.w)
    for value in stream:
        assert_valid(enc.encode(value))


@settings(deadline=None)
@given(unbounded_encoders(), st.floats(-1e4, 1e4))
def test_unbounded_output_valid(enc, value):
    assert_valid(enc.encode(value))


@settings(deadline=None)
@given(st.integers(1, 40), st.sampled_from(labels + ["unknown"]))
def test_category_output_valid(w, label):
    enc = CategoryEncoder(labels, w=w, unknown_policy="catch_all")
    assert_valid(enc.encode(label))


@settings(deadline=None)
@given(geo_encoders(), st.tuples(st.integers(-10**6, 10**6), st.integers(-10**6, 10**6)))
def test_geospatial_output_valid(enc, coord):
    assert_valid(enc.encode(coord))


@settings(deadline=None)
@given(st.datetimes())
def test_datetime_output_valid(t):
    enc = DatetimeEncoder(weekend={"w": 50}, day_of_week={"n": 100, "w": 21},
                          time_of_day={"n": 60, "w": 21}, month_of_year={"n": 48, "w": 7},
                          day_of_month={"n": 100, "w": 21})
    assert_valid(enc.encode(t))


@settings(deadline=None)
@given(finite, st.sampled_from(labels), st.integers(-1000, 1000), st.integers(-1000, 1000))
def test_multi_output_valid(temp, kind, x, y):
    enc = MultiEncoder([
        ("temp", ScalarEncoder(0, 45, 134, 21)),
        ("kind", CategoryEncoder(labels, w=21)),
        ("pos", GeospatialEncoder(1000, 2, variant="topw", w=21, seed=-3)),
    ])
    assert_valid(enc.encode({"temp": temp, "kind": kind, "pos": (x, y)}))


@given(st.lists(st.integers(1, 40).flatmap(
    lambda n: st.sets(st.integers(0, n - 1)).map(lambda s: SDR(n, tuple(s)))),
    min_size=1, max_size=6))
def test_concat_output_valid(parts):
    assert_valid(concat(parts))


class _Part:
    def __init__(self, n, active):
        self.n = n
        self.active = active


def test_concat_validates_parts_that_are_not_sdrs():
    assert concat([SDR(4, (1,)), _Part(4, (np.int64(2),))]) == SDR(8, (1, 6))
    with pytest.raises(InvalidSdr):
        concat([SDR(4, (1,)), _Part(4, (4,))])  # index 4 is past its part
    with pytest.raises(InvalidSdr):
        concat([_Part(4, (2, 2))])
    with pytest.raises(InvalidSdr):
        concat([_Part(4, (1.5,))])
