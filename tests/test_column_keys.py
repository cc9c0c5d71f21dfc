"""The column step pinned to the per-row one.

`sdrkit encode` keys each chunk of rows a column at a time: every
encoder's ``_keys(values)``, through `PipelineConfig._chunk_keys` for CSV
text.  ``_keys`` takes the one column form its binding reads (`column`
builds it here from a list of values) and returns int64 key columns, or
Python ints in an object array for a window of 2**62 buckets or more.
``_key``, one value at a time, is the reference, and the oracle here:

* wherever ``_keys`` returns, its key columns, read row by row
  (`key_rows`), equal the ``_key`` of each value in turn, and so does every
  delta encoder's state after it;
* wherever ``_key`` raises for one of the values, ``_keys`` raises too and
  leaves every delta encoder as it was;
* on the column form its binding reads, ``_keys`` raises only there: it
  refuses no column that ``_key`` takes, for every leaf type and at window
  sizes on both sides of 2**62 and past 2**64 (`check_chunks` with
  ``parity``).  Off that form (text or huge integers among floats, a date
  among datetimes) it may refuse more, and the values are run row by row.

Each encoder gets a stream of chunks: scalar, delta (state carried across
chunks), cyclic, category under both unknown policies, unbounded,
geospatial fixed and top-w (with and without a speed), datetime with all
five components and a multi encoder of these, with hostile values among
the plain ones (NaN, ±inf, huge magnitudes, text, unknown labels, cells
off the grid, negative speeds, values that are no datetime).  On plain
values the column step must key every chunk.  The same holds for CSV text
through the bindings of `tests/data/encode/all_leaves.json`.

``MultiEncoder._bits`` writes each part into its column slice of one
matrix, a new one or the first rows of one that ``sdrkit encode`` reuses
for every chunk.  The reference is each part's indices plus its offset,
side by side, computed without ``_bits`` (`reference_bits`): same values,
uint64 or Python ints past 2**64 bits, and no row of the reused matrix past
the chunk's is written, for a nested datetime, cyclic windows that wrap,
windows keyed by Python ints, offsets in uint64's upper half, a top-w part
with several radii in one chunk and a pipeline past 2**64 bits.
"""

import datetime as dt
import json
import math
from pathlib import Path

import numpy as np
import pytest
from hypothesis import HealthCheck, given, settings, strategies as st

from sdrkit.categories import CategoryEncoder
from sdrkit.composite import DatetimeEncoder, MultiEncoder
from sdrkit.config import parse_pipeline_config
from sdrkit.geospatial import GeospatialEncoder, GridCoordinate, _Cells
from sdrkit.hashing import _bit_indices_array
from sdrkit.scalars import CyclicEncoder, DeltaEncoder, ScalarEncoder, UnboundedScalarEncoder

I32_MAX = (1 << 31) - 1
SETTINGS = settings(max_examples=60, deadline=None,
                    suppress_health_check=[HealthCheck.too_slow, HealthCheck.data_too_large])

# --- the oracle ------------------------------------------------------------


def per_row(key, values):
    """``key`` of each value, in order, or the exception of the first one
    for which it raises."""
    keys = []
    for value in values:
        try:
            keys.append(key(value))
        except Exception as exc:
            return exc
    return keys


def cell_column(values) -> _Cells:
    """A list of (x, y) cells, or of (cell, speed) pairs, as the `_Cells`
    that a geospatial binding reads; cells that are no int64 integers
    raise, as a binding's integer parse would."""
    pairs = isinstance(values[0][0], (tuple, list))
    cells, speeds = zip(*values, strict=True) if pairs else (values, None)
    xy = np.array(cells)
    if xy.dtype.kind != "i" or xy.shape != (len(values), 2):
        raise TypeError(f"no int64 cells: {values!r}")
    x, y = xy.astype(np.int64).T
    return _Cells(x, y, None if speeds is None else np.array(speeds))


def column(enc, values):
    """The list ``values`` in the one column form that ``enc._keys`` takes:
    `_Cells` for geospatial, a {field: column} mapping of a list of records
    for a multi encoder, and the list itself otherwise."""
    if isinstance(enc, GeospatialEncoder):
        return cell_column(values)
    if isinstance(enc, MultiEncoder) and not isinstance(enc, DatetimeEncoder):
        return {name: column(part, [record[name] for record in values])
                for name, part in enc.parts}
    return values


def key_dtype(enc):
    """The dtype of ``enc``'s key columns: int64, or object (Python ints)
    for a scalar or delta window with n - w >= 2**62 or a cyclic one with
    n >= 2**62."""
    buckets = (enc.n - enc.w if isinstance(enc, ScalarEncoder)
               else enc.n if isinstance(enc, CyclicEncoder) else 0)
    return object if buckets >= 1 << 62 else np.int64


def key_rows(enc, keys) -> list:
    """The key columns that ``enc._keys`` returns as the list of each row's
    ``_key``; each column must have ``enc``'s `key_dtype`."""
    if isinstance(enc, MultiEncoder):
        return list(zip(*(key_rows(part, part_keys)
                          for (_, part), part_keys in zip(enc.parts, keys, strict=True))))
    columns = keys if isinstance(enc, GeospatialEncoder) else (keys,)
    assert all(c.dtype == key_dtype(enc) and c.ndim == 1 for c in columns)
    rows = list(zip(*(c.tolist() for c in columns), strict=True))
    return rows if isinstance(enc, GeospatialEncoder) else [key for key, in rows]


def state(enc):
    """Every delta encoder's ``previous`` inside ``enc``."""
    if isinstance(enc, MultiEncoder):
        return tuple(state(part) for _, part in enc.parts)
    return getattr(enc, "previous", None)


def check_chunks(make, chunks, by_rows=lambda enc, values: per_row(enc._key, values),
                 by_column=lambda enc, values: enc._keys(column(enc, values)),
                 rows=key_rows, state=state, parity=False):
    """Key each chunk with two encoders from ``make()``: one row by row
    (``by_rows``), one a column at a time (``by_column``, read by ``rows``),
    falling back to row by row where that raises; return how many chunks
    ``by_column`` keyed.  With ``parity``, ``by_column`` raises only for a
    chunk that the rows refuse.  The stream ends at the first chunk that the
    rows refuse."""
    by_row, columnar = make(), make()
    keyed = 0
    for values in chunks:
        before = state(columnar)
        expected = by_rows(by_row, values)
        try:
            keys = by_column(columnar, values)
        except Exception as exc:
            assert not parity or isinstance(expected, Exception), (
                f"the column step refused {values!r}, which _key takes: {exc!r}")
            assert state(columnar) == before
            fallback = by_rows(columnar, values)
            if isinstance(expected, Exception):
                assert (type(fallback), str(fallback)) == (type(expected), str(expected))
            else:
                assert fallback == expected
        else:
            assert not isinstance(expected, Exception), (
                f"the column step keyed {values!r}, which _key refuses: {expected!r}")
            assert rows(columnar, keys) == expected
            keyed += 1
        assert state(columnar) == state(by_row)
        if isinstance(expected, Exception):
            break
    return keyed


def chunks_of(values, min_size=1):
    return st.lists(st.lists(values, min_size=min_size, max_size=8), min_size=1, max_size=4)


# --- values ----------------------------------------------------------------

plain_floats = st.floats(-1e6, 1e6, allow_nan=False)
hostile_floats = st.one_of(
    st.sampled_from([math.nan, math.inf, -math.inf, 1e308, -1e308, 5e-324, -0.0,
                     2.0 ** 62, -(2.0 ** 62), 9.3e18, -9.3e18]),
    st.floats(),
)
not_floats = st.one_of(st.integers(-(1 << 70), 1 << 70), st.booleans(),
                       st.sampled_from(["1.5", "nan", "warm", None]))
numbers = st.one_of(plain_floats, plain_floats, hostile_floats, hostile_floats, not_floats)


def check_numbers(make, plain, data):
    """Plain chunks are all keyed; mixed ones follow the oracle."""
    assert check_chunks(make, plain) == len(plain)
    check_chunks(make, data.draw(chunks_of(numbers)))


# Window sizes on both sides of 2**62 buckets, where keys turn from int64
# into Python ints, and past 2**64.
WINDOW_NS = {"2**62-1": (1 << 62) - 1, "2**62+50": (1 << 62) + 50, "2**64+7": (1 << 64) + 7}


@st.composite
def bounded(draw, cls):
    """A constructor of ``cls`` at any n: past 2**53 too, where buckets are
    no longer exact floats, and past 2**62, where they are Python ints."""
    lo, span = draw(st.floats(-1e3, 1e3)), draw(st.floats(0.5, 1e3))
    n = draw(st.one_of(st.integers(2, 400), st.sampled_from([(1 << 54) + 7, *WINDOW_NS.values()])))
    w = draw(st.integers(1, min(n - 1, 40)))
    return lambda: cls(lo, lo + span, n, w)


@SETTINGS
@given(st.sampled_from([ScalarEncoder, DeltaEncoder]).flatmap(bounded),
       chunks_of(plain_floats), st.data())
def test_scalar_and_delta(make, plain, data):
    check_numbers(make, plain, data)  # a delta's state carries across the chunks


@pytest.mark.parametrize("make", [
    lambda: ScalarEncoder(0, 10, 50, 5), lambda: DeltaEncoder(-5, 5, 50, 5),
    lambda: CyclicEncoder(7.0, 50, 5), lambda: UnboundedScalarEncoder(0.5, 50, 5),
], ids=["scalar", "delta", "cyclic", "unbounded"])
@pytest.mark.parametrize("chunks, keyed", [
    ([[1.0, math.nan]], 0), ([[math.inf]], 0), ([[2.0], [-math.inf, 1.0]], 1),
    ([[3.0], ["4"]], 1),
])
def test_what_is_not_a_finite_number_is_left_to_the_rows(make, chunks, keyed):
    assert check_chunks(make, chunks) == keyed


def test_delta_change_past_the_float_range():
    assert check_chunks(lambda: DeltaEncoder(-5, 5, 60, 21),
                        [[-1e308, 1e308], [-1e308], [0.0, 1e308]]) == 3


@SETTINGS
@given(st.floats(0.1, 1e4), st.integers(1, 300), st.data(), chunks_of(plain_floats))
def test_cyclic(period, n, data, plain):
    w = data.draw(st.integers(1, n))
    check_numbers(lambda: CyclicEncoder(period, n, w), plain, data)


@SETTINGS
@given(st.sampled_from([(1 << 54) + 7, 1 << 62, *WINDOW_NS.values()]), st.floats(0.1, 1e4),
       chunks_of(plain_floats), st.data())
def test_cyclic_keys_every_n(n, period, plain, data):
    check_numbers(lambda: CyclicEncoder(period, n, 21), plain, data)


@SETTINGS
@given(st.sampled_from([1e-300, 1e-3, 0.5, 1.0, 7.25, 1e300]), st.integers(1, 500),
       chunks_of(plain_floats), st.data())
def test_unbounded(resolution, n, plain, data):
    w = data.draw(st.integers(1, n))
    make = lambda: UnboundedScalarEncoder(resolution, n, w, seed=3)  # noqa: E731
    if resolution > 1e-300:
        check_numbers(make, plain, data)
    else:  # most buckets overflow int64
        check_chunks(make, data.draw(chunks_of(numbers)))


def test_unbounded_keys_exactly_the_int64_buckets():
    # -2**63 is the first bucket, and 2**63 - w the last whose w buckets
    # fit; the column step keys every bucket between, as `bucket` does.
    make = lambda: UnboundedScalarEncoder(1.0, 100, 4)  # noqa: E731
    assert check_chunks(make, [[1.0, 2.0 ** 62]]) == 1
    assert check_chunks(make, [[-(2.0 ** 63)], [2.0 ** 63]]) == 1
    assert check_chunks(make, [[-4.6e18, 4.6e18], [9.3e18]]) == 1
    last_float = 2.0 ** 63 - 1024  # the largest float below 2**63
    assert check_chunks(lambda: UnboundedScalarEncoder(1.0, 100, 21), [[last_float]]) == 1
    assert check_chunks(lambda: UnboundedScalarEncoder(1.0, 2000, 1025), [[last_float]]) == 0


LABELS = ["red", "green", "blue"]
labels = st.one_of(st.sampled_from(LABELS), st.sampled_from(["", "Red", "plum", "red "]))


@SETTINGS
@given(st.sampled_from(["error", "catch_all"]), st.integers(1, 30),
       chunks_of(st.sampled_from(LABELS)), chunks_of(labels))
def test_category(policy, w, plain, mixed):
    make = lambda: CategoryEncoder(LABELS, w, unknown_policy=policy)  # noqa: E731
    assert check_chunks(make, plain) == len(plain)
    keyed = check_chunks(make, mixed)
    if policy == "catch_all":  # every label has a block
        assert keyed == len(mixed)


plain_cells = st.builds(GridCoordinate, st.integers(-50, 50), st.integers(-50, 50))


def cells(margin):
    """Cells, some of whose radius-``margin`` neighborhoods leave the grid."""
    return st.one_of(plain_cells, st.builds(GridCoordinate,
                                            st.integers(I32_MAX - margin - 2, I32_MAX),
                                            st.integers(-50, 50)))


speeds = st.one_of(st.floats(0, 10), st.sampled_from([-1.0, math.nan, math.inf]))


@SETTINGS
@given(st.integers(0, 3), chunks_of(plain_cells), chunks_of(cells(3)))
def test_geospatial_fixed(radius, plain, mixed):
    make = lambda: GeospatialEncoder(400, radius, seed=5)  # noqa: E731
    assert check_chunks(make, plain) == len(plain)
    check_chunks(make, mixed)


@SETTINGS
@given(st.integers(1, 9), st.booleans(), st.data())
def test_geospatial_topw(w, with_speed, data):
    def make():
        return GeospatialEncoder(400, 1, variant="topw", w=w, seed=9, speed_scale=0.5,
                                 radius_min=1, radius_max=4)
    plain = st.tuples(plain_cells, st.floats(0, 10)) if with_speed else plain_cells
    values = st.tuples(cells(4), speeds) if with_speed else cells(1)
    plain_chunks = data.draw(chunks_of(plain))
    assert check_chunks(make, plain_chunks) == len(plain_chunks)
    check_chunks(make, data.draw(chunks_of(values)))


COMPONENTS = dict(weekend={"w": 7}, day_of_week={"n": 70, "w": 9},
                  time_of_day={"n": 96, "w": 11}, month_of_year={"n": 48, "w": 5},
                  day_of_month={"n": 62, "w": 8})
datetimes = st.one_of(
    st.datetimes(dt.datetime(1, 1, 1), dt.datetime(9999, 12, 31, 23, 59, 59, 999999)),
    st.datetimes(dt.datetime(1999, 12, 1), dt.datetime(2001, 3, 31),
                 timezones=st.sampled_from([dt.timezone.utc,
                                            dt.timezone(dt.timedelta(hours=-8))])),
)
hostile_datetimes = st.one_of(datetimes, st.sampled_from(
    [dt.date(2024, 2, 29), dt.time(12, 30), "2024-01-01T00:00:00", None, 0.5]))


@SETTINGS
@given(st.lists(st.sampled_from(list(COMPONENTS)), min_size=1, max_size=5, unique=True),
       chunks_of(datetimes), chunks_of(hostile_datetimes))
def test_datetime(names, plain, mixed):
    make = lambda: DatetimeEncoder(**{name: COMPONENTS[name] for name in names})  # noqa: E731
    assert check_chunks(make, plain) == len(plain)
    check_chunks(make, mixed)


@pytest.mark.parametrize("names", [["weekend"], list(COMPONENTS)])
@pytest.mark.parametrize("value", [dt.date(2024, 3, 2), dt.time(12), "2024-03-02", None])
def test_datetime_refuses_what_is_no_datetime(names, value):
    make = lambda: DatetimeEncoder(**{name: COMPONENTS[name] for name in names})  # noqa: E731
    assert check_chunks(make, [[dt.datetime(2024, 3, 2), value]]) == 0


def test_datetime_every_day_of_four_centuries():
    # Every month length, leap rule and weekday of the Gregorian cycle.
    days = [dt.datetime(1900, 1, 1, 13, 7, 5, 123) + dt.timedelta(days=d)
            for d in range(0, 146097, 7)]
    days += [dt.datetime(2000, 1, 1, 23, 59, 59, 999999) + dt.timedelta(days=d)
             for d in range(0, 146097, 3)]
    assert check_chunks(lambda: DatetimeEncoder(**COMPONENTS), [days]) == 1


def multi():
    return MultiEncoder([
        ("t", ScalarEncoder(0, 45, 100, 9)),
        ("d", DeltaEncoder(-5, 5, 60, 7)),
        ("c", CategoryEncoder(LABELS, 5)),
        ("ts", DatetimeEncoder(**COMPONENTS)),
        ("u", UnboundedScalarEncoder(0.5, 80, 6)),
        ("g", GeospatialEncoder(300, 1, seed=2)),
    ])


def records(t, d, c, ts, u, g):
    return st.fixed_dictionaries({"t": t, "d": d, "c": c, "ts": ts, "u": u, "g": g})


@SETTINGS
@given(chunks_of(records(plain_floats, plain_floats, st.sampled_from(LABELS), datetimes,
                         plain_floats, plain_cells)),
       chunks_of(records(numbers, numbers, labels, hostile_datetimes, numbers, cells(1))))
def test_multi(plain, mixed):
    assert check_chunks(multi, plain) == len(plain)
    check_chunks(multi, mixed)


def test_multi_missing_field():
    record = {"t": 1.0, "d": 2.0, "c": "red", "ts": dt.datetime(2024, 1, 1), "u": 3.0,
              "g": GridCoordinate(0, 0)}
    partial = {k: v for k, v in record.items() if k != "u"}
    assert check_chunks(multi, [[record, record], [record, partial, record]]) == 1


# --- parity on each binding's column form -------------------------------------

binding_floats = st.one_of(plain_floats, plain_floats, hostile_floats)  # what float() reads
# Each leaf type at n, and values in the column form its binding reads.
LEAVES = {
    "scalar": (lambda n: ScalarEncoder(-50, 50, n, 21), binding_floats),
    "delta": (lambda n: DeltaEncoder(-5, 5, n, 21), binding_floats),
    "cyclic": (lambda n: CyclicEncoder(7.0, n, 21), binding_floats),
    "datetime": (lambda n: DatetimeEncoder(weekend={"w": 7}, day_of_week={"n": n, "w": 9},
                                           time_of_day={"n": n, "w": 11}), datetimes),
    "unbounded": (lambda n: UnboundedScalarEncoder(0.5, n, 21, seed=3), binding_floats),
    "category": (lambda n: CategoryEncoder(LABELS, 5), labels),
    "geospatial-fixed": (lambda n: GeospatialEncoder(n, 1, seed=5), cells(1)),
    "geospatial-topw": (lambda n: GeospatialEncoder(n, 1, variant="topw", w=9, seed=9,
                                                    speed_scale=0.5, radius_min=1,
                                                    radius_max=4),
                        st.tuples(cells(4), speeds)),
}
PARITY_CASES = ([pytest.param(leaf, n, id=f"{leaf}-{name}")
                  for leaf in ("scalar", "delta", "cyclic", "datetime")
                  for name, n in {"400": 400, **WINDOW_NS}.items()]
                + [pytest.param(leaf, 400, id=leaf) for leaf in ("unbounded", "category",
                                                                 "geospatial-fixed",
                                                                 "geospatial-topw")])


@pytest.mark.parametrize("leaf, n", PARITY_CASES)
@settings(SETTINGS, max_examples=30)
@given(data=st.data())
def test_keys_raise_exactly_where_key_raises(leaf, n, data):
    make, values = LEAVES[leaf]
    check_chunks(lambda: make(n), data.draw(chunks_of(values)), parity=True)


# --- CSV text through the bindings -------------------------------------------

CONFIG = json.loads((Path(__file__).resolve().parent / "data" / "encode" / "all_leaves.json")
                    .read_text(encoding="utf-8"))
HEADER = ["temp", "level", "angle", "reading", "label", "ts", "x", "y", "lat", "lon", "speed"]
plain_numbers = st.one_of(plain_floats.map(repr), st.integers(-100, 100).map(str))
# Each column's (plain, hostile) texts.
TEXTS = {
    **dict.fromkeys(["temp", "level", "angle", "reading"], (
        plain_numbers, st.sampled_from(["nan", "inf", "-inf", "1e999", " 3 ", "1_0", "",
                                        "warm", "9.3e18", "-4.6e+18", "0x10"]))),
    "label": (st.sampled_from(["red", "green", "blue", "cyan", "plum"]),
              st.sampled_from(["navy", "", "Red"])),
    "ts": (datetimes.map(dt.datetime.isoformat),
           st.sampled_from(["2024-02-30T00:00", "2024-13-01", "noon", "2024-01-01 25:00"])),
    "x": (st.integers(-50, 50).map(str), st.sampled_from(["1.5", str(I32_MAX), "x"])),
    "y": (st.integers(-50, 50).map(str), st.just("")),
    "lat": (st.floats(-85.05, 85.05).map(repr), st.sampled_from(["89", "nan", "x"])),
    "lon": (st.floats(-180, 180).map(repr), st.just("181")),
    "speed": (st.floats(0, 20).map(repr), st.sampled_from(["-1", "nan", "inf"])),
}


def text_chunks(hostile):
    columns = [st.one_of(plain, plain, bad) if hostile else plain
               for plain, bad in (TEXTS[c] for c in HEADER)]
    return chunks_of(st.tuples(*columns).map(list))


def row_keys(cfg, header, rows):
    """``multi._key(record_from_row(row))`` of each row, or the first exception."""
    return per_row(lambda row: cfg.multi._key(cfg.record_from_row(dict(zip(header, row)))),
                   rows)


@SETTINGS
@given(text_chunks(False), text_chunks(True), st.permutations(range(len(HEADER))))
def test_chunk_keys_of_csv_text(plain, mixed, order):
    header = [HEADER[i] for i in order]

    def check(chunks):
        return check_chunks(
            lambda: parse_pipeline_config(CONFIG),
            [[[row[i] for i in order] for row in chunk] for chunk in chunks],
            by_rows=lambda cfg, rows: row_keys(cfg, header, rows),
            by_column=lambda cfg, rows: cfg._chunk_keys(header, rows),
            rows=lambda cfg, keys: key_rows(cfg.multi, keys),
            state=lambda cfg: state(cfg.multi), parity=True)

    assert check(plain) == len(plain)
    check(mixed)


def test_csv_windows_below_2_62_buckets_are_keyed_by_columns():
    """A scalar of 2**60 bits and a cyclic one of 2**54, whose buckets are
    no longer exact floats, take the column step on every chunk."""
    config = {"encoder": {"type": "multi", "parts": [
        {"field": "a", "encoder": {"type": "scalar", "min": -100, "max": 100, "n": 1 << 60,
                                   "w": 21}},
        {"field": "b", "encoder": {"type": "cyclic", "period": 360, "n": 1 << 54, "w": 21}},
    ]}}
    header = ["a", "b"]
    rows = [[repr(v / 3), repr(v * 7.1)] for v in range(-390, 390, 7)]
    assert check_chunks(lambda: parse_pipeline_config(config), [rows[:50], rows[50:]],
                        by_rows=lambda cfg, rows: row_keys(cfg, header, rows),
                        by_column=lambda cfg, rows: cfg._chunk_keys(header, rows),
                        rows=lambda cfg, keys: key_rows(cfg.multi, keys),
                        state=lambda cfg: state(cfg.multi)) == 2


# --- one bit matrix, written in place ---------------------------------------------

HASHING = (UnboundedScalarEncoder, GeospatialEncoder)


def reference_bits(enc, keys, offset=0) -> list:
    """The rows of the bit matrix of ``keys``, as lists of Python ints: each
    part's indices plus its offset, side by side.  A window's are its start
    plus 0..w - 1, modulo n, in order; a hashing part's are the hashes
    (`_bit_indices_array`) of its bucket and w - 1 successors, or of each
    row's neighborhood cells (``_cells``), sorted with repeats kept, since a
    top-w block keeps its cells in another order than one neighborhood."""
    if isinstance(enc, MultiEncoder):
        blocks = []
        for (_, part), part_keys in zip(enc.parts, keys, strict=True):
            blocks.append(reference_bits(part, part_keys, offset))
            offset += part.n
        return [sum(row, []) for row in zip(*blocks, strict=True)]
    if not isinstance(enc, HASHING):
        return [[(start + i) % enc.n + offset for i in range(enc.w)] for start in keys.tolist()]
    if isinstance(enc, UnboundedScalarEncoder):
        hashed = keys.view(np.uint64)[:, None] + np.arange(enc.w, dtype=np.uint64)
    else:
        hashed = [enc._cells(*key) for key in key_rows(enc, keys)]
    return [sorted(bit + offset for bit in _bit_indices_array(cells, enc.seed, enc.n).tolist())
            for cells in hashed]


def matrix_rows(multi, matrix) -> list:
    """The rows of ``multi``'s bit matrix as `reference_bits` gives them:
    each hashing part's columns sorted."""
    rows, column = [[] for _ in matrix], 0
    for _, part in multi.parts:
        for row, bits in zip(rows, matrix[:, column:column + part.w].tolist()):
            row.extend(sorted(bits) if isinstance(part, HASHING) else bits)
        column += part.w
    return rows


def leaf_bits(enc, keys, rows: int) -> np.ndarray:
    """``enc``'s bit matrix of ``rows`` rows of its key columns ``keys``, as
    a one-part `MultiEncoder` writes it into a new `_matrix`."""
    multi = MultiEncoder([("v", enc)])
    return multi._bits((keys,), multi._matrix(rows))


WIDE = (1 << 62) + 50  # a window keyed by Python ints
# A top-w part fed (cell, speed) pairs: radii 1 to 4, several in one chunk.
TOPW = GeospatialEncoder(400, 1, variant="topw", w=7, seed=9, speed_scale=0.5, radius_min=1,
                         radius_max=4)
# Each pipeline, as (name, part) pairs, and values for its records.
MATRIX_PIPELINES = {
    "nested-datetime": ([("t", ScalarEncoder(0, 45, 100, 9)),
                         ("ts", DatetimeEncoder(**COMPONENTS)), ("c", CategoryEncoder(LABELS, 5))],
                        dict(t=plain_floats, ts=datetimes, c=st.sampled_from(LABELS))),
    "cyclic-wrap": ([("a", CyclicEncoder(7.0, 20, 15)), ("b", CyclicEncoder(24.0, 9, 9))],
                    dict(a=plain_floats, b=plain_floats)),
    "window-past-2**62": ([("s", ScalarEncoder(-50, 50, WIDE, 21)),
                           ("a", CyclicEncoder(7.0, WIDE, 21)),
                           ("u", UnboundedScalarEncoder(0.5, 80, 6))],
                          dict(s=plain_floats, a=plain_floats, u=plain_floats)),
    # Every part but the first lies in [2**63, 2**64): uint64's upper half.
    "offsets-past-2**63": ([("pad", ScalarEncoder(0, 1, (1 << 63) + 5, 3)),
                            ("s", ScalarEncoder(-50, 50, WIDE, 21)),
                            ("a", CyclicEncoder(7.0, 30, 25)), ("c", CategoryEncoder(LABELS, 5)),
                            ("ts", DatetimeEncoder(**COMPONENTS)),
                            ("u", UnboundedScalarEncoder(0.5, 80, 6)),
                            ("g", GeospatialEncoder(300, 1, seed=2)), ("p", TOPW)],
                           dict(pad=plain_floats, s=plain_floats, a=plain_floats,
                                c=st.sampled_from(LABELS), ts=datetimes, u=plain_floats,
                                g=plain_cells, p=st.tuples(plain_cells, st.floats(0, 10)))),
    "past-2**64": ([("s", ScalarEncoder(-50, 50, (1 << 64) + 7, 21)),
                    ("a", CyclicEncoder(7.0, 30, 25)), ("ts", DatetimeEncoder(**COMPONENTS)),
                    ("u", UnboundedScalarEncoder(0.5, 1 << 70, 6)),
                    ("g", GeospatialEncoder(300, 1, seed=2)), ("p", TOPW)],
                   dict(s=plain_floats, a=plain_floats, ts=datetimes, u=plain_floats,
                        g=plain_cells, p=st.tuples(plain_cells, st.floats(0, 10)))),
}


def test_the_matrix_pipelines_reach_their_ranges():
    upper = MultiEncoder(MATRIX_PIPELINES["offsets-past-2**63"][0])
    assert upper.parts[0][1].n >= 1 << 63 and upper.n <= 1 << 64  # uint64, every later offset
    assert MultiEncoder(MATRIX_PIPELINES["past-2**64"][0]).n > 1 << 64  # Python ints


@pytest.mark.parametrize("name", MATRIX_PIPELINES)
@SETTINGS
@given(data=st.data())
def test_bits_in_place_are_the_parts_matrices_side_by_side(name, data):
    parts, values = MATRIX_PIPELINES[name]
    multi = MultiEncoder(parts)
    chunks = data.draw(chunks_of(st.fixed_dictionaries(values)))
    size = max(map(len, chunks)) + data.draw(st.integers(0, 3))
    buffer = multi._matrix(size)  # one matrix for every chunk, as encode reuses it
    assert buffer.dtype == (np.uint64 if multi.n <= 1 << 64 else object)
    for records in chunks:
        keys = multi._keys(column(multi, records))
        expected = reference_bits(multi, keys)
        fresh = multi._bits(keys, multi._matrix(len(records)))
        assert fresh.dtype == buffer.dtype and matrix_rows(multi, fresh) == expected
        rest = buffer[len(records):].tolist()
        written = multi._bits(keys, buffer[:len(records)])
        assert np.shares_memory(written, buffer)
        assert matrix_rows(multi, written) == expected
        assert buffer[len(records):].tolist() == rest  # only the chunk's rows are written
