"""The geospatial column step pinned to the per-value one.

* `_gps_to_grid_columns`, the projection's column twin, equals `gps_to_grid`
  of each (lat, lon) bit for bit over the mercator band, |lat| < 85.05113
  and |lon| <= 180, at cell sizes from 1e-3 to 1e7 m: values drawn at
  random, built to fall on a cell edge (with their float neighbours), at
  the band edges and at ±0.0.  Where any value of a column fails
  `gps_to_grid`, the twin refuses the column, and `sdrkit encode` runs the
  chunk row by row and reports `gps_to_grid`'s error for that row.
* ``GeospatialEncoder._bits`` and `encode` of one value take each top-w
  neighborhood's cells by a threshold on the order keys.  They keep the w
  cells of largest order key, the earlier cell first where keys tie, which
  real 64-bit keys almost never do: `order_keys_array` is patched to a
  stand-in of three values, and each pool is ranked in Python as well.
"""

import math
from unittest import mock

import numpy as np
import pytest
from hypothesis import HealthCheck, given, settings, strategies as st

from sdrkit import geospatial
from sdrkit.config import parse_pipeline_config
from sdrkit.errors import SdrError
from sdrkit.geospatial import (
    _CHUNK_CELLS,
    EARTH_RADIUS_M,
    MAX_MERCATOR_LAT,
    GeospatialEncoder,
    _gps_to_grid_columns,
    gps_to_grid,
    neighborhood,
)
from sdrkit.hashing import bit_indices, pack_coordinate
from sdrkit.scalars import _Unkeyed

from test_column_keys import cell_column, key_rows, leaf_bits
from test_dense_chunks import csv_text, encode, per_row_run

SETTINGS = settings(max_examples=200, deadline=None,
                    suppress_health_check=[HealthCheck.too_slow, HealthCheck.data_too_large])

# --- the projection twin ---------------------------------------------------------------

INSIDE = math.nextafter(MAX_MERCATOR_LAT, 0)  # the last latitude in the band
Y_EDGE = EARTH_RADIUS_M * math.atanh(math.sin(math.radians(INSIDE)))
BAND_EDGES = [0.0, -0.0, INSIDE, -INSIDE, 180.0, -180.0, math.nextafter(180.0, 0),
              math.nextafter(-180.0, 0)]


def near(value):
    """``value`` and its two float neighbours."""
    return st.sampled_from([math.nextafter(value, -math.inf), value,
                            math.nextafter(value, math.inf)])


@st.composite
def edge_longitudes(draw, cell_size):
    """A longitude whose x lands on (or next to) a cell edge."""
    k = draw(st.integers(-1 << 31, 1 << 31)) % (int(math.pi * EARTH_RADIUS_M / cell_size) + 1)
    lon = math.degrees(draw(st.sampled_from([-1, 1])) * k * cell_size / EARTH_RADIUS_M)
    return draw(near(max(-180.0, min(180.0, lon))))


@st.composite
def edge_latitudes(draw, cell_size):
    """A latitude whose y lands on (or next to) a cell edge."""
    k = draw(st.integers(-1 << 31, 1 << 31)) % (int(Y_EDGE / cell_size) + 1)
    lat = math.degrees(math.asin(math.tanh(
        draw(st.sampled_from([-1, 1])) * k * cell_size / EARTH_RADIUS_M)))
    return draw(near(max(-INSIDE, min(INSIDE, lat))))


@st.composite
def columns(draw):
    """(lats, lons, cell_size): a column of positions in the band."""
    cell_size = draw(st.one_of(st.floats(1e-3, 1e7), st.sampled_from([1e-3, 1.0, 1e7])))
    lat = st.one_of(st.floats(-MAX_MERCATOR_LAT, MAX_MERCATOR_LAT, exclude_min=True,
                              exclude_max=True),
                    edge_latitudes(cell_size), st.sampled_from(BAND_EDGES[:4]))
    lon = st.one_of(st.floats(-180.0, 180.0), edge_longitudes(cell_size),
                    st.sampled_from(BAND_EDGES))
    rows = draw(st.lists(st.tuples(lat, lon), min_size=1, max_size=16))
    return [a for a, _ in rows], [b for _, b in rows], cell_size


def check_twin(lats, lons, cell_size):
    """The twin's cells equal `gps_to_grid` of each row, and it refuses the
    column exactly where some row raises."""
    try:
        expected = [tuple(gps_to_grid(a, b, cell_size)) for a, b in zip(lats, lons)]
    except SdrError:
        expected = None
    try:
        cells = _gps_to_grid_columns(np.array(lats), np.array(lons), cell_size)
    except Exception:
        assert expected is None, f"the twin refused cells that gps_to_grid gives: {expected}"
        return False
    assert expected is not None, "the twin keyed a column that gps_to_grid refuses"
    assert cells.x.dtype == cells.y.dtype == np.int64 and cells.speed is None
    assert list(zip(cells.x.tolist(), cells.y.tolist())) == expected
    return True


@SETTINGS
@given(columns())
def test_the_projection_twin_equals_gps_to_grid(column):
    check_twin(*column)


def test_band_edges_and_signed_zeros():
    lats = [0.0, -0.0, INSIDE, -INSIDE, INSIDE, -INSIDE, 45.0]
    lons = [-0.0, 0.0, 180.0, -180.0, -180.0, 180.0, math.nextafter(180.0, 0)]
    for cell_size in (0.01, 1.0, 40.0, 1e7):
        assert check_twin(lats, lons, cell_size)
    assert not check_twin(lats, lons, 1e-3)  # 180 degrees is past 2**31 cells of 1 mm


@pytest.mark.parametrize("lat, lon", [
    (MAX_MERCATOR_LAT, 0.0), (-MAX_MERCATOR_LAT, 0.0), (90.0, 0.0), (0.0, 180.5),
    (0.0, math.nextafter(-180.0, -math.inf)), (math.nan, 0.0), (0.0, math.nan),
    (math.inf, 0.0), (0.0, -math.inf),
])
def test_one_position_off_the_band_refuses_the_column(lat, lon):
    assert not check_twin([10.0, lat, -10.0], [20.0, lon, -20.0], 40.0)


CONFIG = {"encoder": {"type": "geospatial", "n": 500, "variant": "topw", "w": 9, "radius": 1,
                      "radius_max": 4, "speed_scale": 0.5, "cell_size": 40.0, "seed": 3},
          "field": ["lat", "lon"], "speed_field": "speed", "output_format": "sparse"}


@pytest.mark.parametrize("lat, lon", [
    ("85.05113", "0"), ("-89", "10"), ("0", "180.5"), ("nan", "0"), ("0", "-inf"),
    ("1e400", "0"),
])
def test_encode_reports_the_row_off_the_band(lat, lon):
    header = ["lat", "lon", "speed"]
    rows = [["47.6", "-122.3", "0"], ["-33.9", "151.2", "4"], [lat, lon, "1"],
            ["0", "0", "2"]]
    cfg = parse_pipeline_config(CONFIG)
    with pytest.raises(_Unkeyed):
        cfg._chunk_keys(header, rows)
    with pytest.raises(SdrError) as refused:
        gps_to_grid(float(lat), float(lon), 40.0)
    text = csv_text(header, rows)
    code, out, err = encode(CONFIG, text, "sparse")
    assert (code, out, err) == per_row_run(CONFIG, text)
    assert out.count("\n") == 2
    assert err == f"data error: row 3: {refused.value}\n"


# --- top-w blocks when order keys tie -----------------------------------------------------

def tied_order_keys(keys, seed, real=geospatial.order_keys_array):
    """Order keys of three values: most cells of a neighborhood tie."""
    return real(keys, seed) % np.uint64(3)


def stable_top_w(enc, key) -> list:
    """The sorted bits of the w cells of ``key``'s pool with the largest
    `tied_order_keys`, by Python's stable sort: among ties, the earlier cell
    in `neighborhood` order."""
    cx, cy, r = key
    packed = np.array([pack_coordinate(*cell) for cell in neighborhood((cx, cy), r)],
                      dtype=np.uint64)
    order = tied_order_keys(packed, enc.seed).tolist()
    kept = sorted(range(len(order)), key=lambda i: -order[i])[:enc.w]
    return list(bit_indices(packed[kept], enc.seed, enc.n))


@st.composite
def tied_chunks(draw):
    """A top-w encoder and a chunk of (cell, speed) pairs whose radii, from
    radius_min to radius_max, are mixed, some with many rows."""
    r_min = draw(st.integers(0, 3))
    r_max = r_min + draw(st.sampled_from([0, 1, 4, 30]))
    enc = GeospatialEncoder(draw(st.integers(1, 2000)), r_min, variant="topw",
                            w=draw(st.integers(1, (2 * r_min + 1) ** 2)),
                            seed=draw(st.integers(0, 1 << 64)), speed_scale=1.0,
                            radius_min=r_min, radius_max=r_max)
    cell = st.tuples(st.integers(-1000, 1000), st.integers(-1000, 1000))
    speed = st.one_of(st.sampled_from([0.0, float(r_max - r_min)]),
                      st.floats(0, r_max - r_min + 1))
    return enc, draw(st.lists(st.tuples(cell, speed), min_size=1, max_size=24))


@SETTINGS
@given(tied_chunks())
def test_threshold_selection_equals_the_stable_sort_when_keys_tie(case):
    enc, values = case
    with mock.patch.object(geospatial, "order_keys_array", tied_order_keys):
        keys = enc._keys(cell_column(values))
        assert key_rows(enc, keys) == [enc._key(value) for value in values]
        bits = leaf_bits(enc, keys, len(values))
        assert bits.shape == (len(values), enc.w)
        for row, key, value in zip(bits.tolist(), key_rows(enc, keys), values):
            expected = stable_top_w(enc, key)
            assert sorted(set(row)) == expected
            assert list(enc.encode(value).active) == expected


def test_a_radius_of_many_rows_is_split_into_blocks(monkeypatch):
    enc = GeospatialEncoder(1000, 1, variant="topw", w=9, seed=4, speed_scale=1.0,
                            radius_min=1, radius_max=30)
    values = [((i, -i), speed) for i, speed in enumerate([29.0] * 12 + [0.0] * 3)]
    blocks = []

    def tied(keys, seed):
        blocks.append(keys.shape)
        return tied_order_keys(keys, seed)

    monkeypatch.setattr(geospatial, "order_keys_array", tied)
    bits = leaf_bits(enc, enc._keys(cell_column(values)), len(values))
    assert _CHUNK_CELLS // 61 ** 2 == 8  # rows of radius 30 per block
    assert sorted(blocks) == [(3, 9), (4, 61 ** 2), (8, 61 ** 2)]
    for row, value in zip(bits.tolist(), values):
        assert sorted(set(row)) == list(enc.encode(value).active)
