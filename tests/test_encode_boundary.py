"""The library `encode` boundary: whatever Python value an encoder is given,
it returns an SDR or raises an SdrError, never a bare Python error.

* Every encoder type gets arbitrary values: None, bools, ints past the float
  and 64-bit ranges and past the interpreter's 4,300-digit limit on int
  text, NaN and ±inf, complex numbers, text, bytes, datetimes, and lists,
  tuples, dicts and (cell, speed) pairs nesting them.  Where ``_key`` raises,
  ``_keys`` of the one value, in the column form its binding reads, raises
  too; where both return, they agree.
* Each value that escaped as OverflowError, TypeError or ValueError raises
  InputError, and an error that shows an int too long to print names its
  type and size instead.
* A geospatial neighborhood of more than `MAX_NEIGHBORHOOD_CELLS` cells is
  refused by ``_key`` before any array is built, and `sdrkit encode`
  reports it as a data error naming its row, after writing the rows before.
"""

import tracemalloc

import pytest
from hypothesis import HealthCheck, example, given, settings, strategies as st

from sdrkit import cli
from sdrkit.categories import CategoryEncoder
from sdrkit.composite import DatetimeEncoder, MultiEncoder
from sdrkit.errors import InputError, SdrError
from sdrkit.geospatial import MAX_NEIGHBORHOOD_CELLS, GeospatialEncoder
from sdrkit.scalars import CyclicEncoder, DeltaEncoder, ScalarEncoder, UnboundedScalarEncoder
from sdrkit.sdr import SDR

from test_column_keys import column, key_rows
from test_dense_chunks import csv_text, encode, per_row_run


def scalar():
    return ScalarEncoder(0, 10, 40, 5)


def cyclic():
    return CyclicEncoder(7, 40, 5)


def delta():
    return DeltaEncoder(-5, 5, 40, 5)


def unbounded():
    return UnboundedScalarEncoder(0.5, 64, 5)


def category(policy="error"):
    return CategoryEncoder(["a", "b"], 5, policy)


def fixed():
    return GeospatialEncoder(1000, 1)


def topw():
    return GeospatialEncoder(1000, 1, variant="topw", w=4, speed_scale=1.0, radius_max=8)


def datetime_encoder():
    return DatetimeEncoder(weekend={"w": 3}, day_of_week={"n": 21, "w": 3},
                           time_of_day={"n": 24, "w": 3}, month_of_year={"n": 24, "w": 3},
                           day_of_month={"n": 31, "w": 3})


def multi():
    return MultiEncoder([("t", scalar()), ("c", category()), ("p", topw())])


ENCODERS = {"scalar": scalar, "cyclic": cyclic, "delta": delta, "unbounded": unbounded,
            "category": category, "catch_all": lambda: category("catch_all"),
            "fixed": fixed, "topw": topw, "datetime": datetime_encoder, "multi": multi}

ATOMS = st.one_of(
    st.none(), st.booleans(), st.integers(),
    st.sampled_from([1 << 63, -(1 << 63) - 1]),
    # 10**400 and 10**5000, past the digits that int text may have, either sign
    st.tuples(st.sampled_from([400, 5000]), st.sampled_from([1, -1])).map(
        lambda digits_sign: digits_sign[1] * 10**digits_sign[0]),
    st.floats(), st.complex_numbers(), st.text(max_size=4), st.binary(max_size=4),
    st.sampled_from(["a", "b", "1.5", "nan", "1e400"]), st.datetimes(),
)
VALUES = st.recursive(ATOMS, lambda inner: st.one_of(
    st.lists(inner, max_size=3), st.lists(inner, max_size=3).map(tuple),
    st.dictionaries(st.sampled_from(["t", "c", "p", 0]), inner, max_size=3),
    st.tuples(st.tuples(inner, inner), inner),  # a (cell, speed) pair
), max_leaves=6)


@settings(max_examples=400, deadline=None, suppress_health_check=[HealthCheck.too_slow])
@given(st.sampled_from(sorted(ENCODERS)), VALUES)
@example("fixed", ((3, 0), 1.5))  # a speed, which only topw takes
def test_any_value_encodes_or_raises_an_sdr_error(name, value):
    make = ENCODERS[name]
    enc = make()
    try:
        keys = enc._keys(column(enc, [value]))
    except Exception:  # a refusal: the row decides
        keys = None
    try:
        sdr = make().encode(value)
    except SdrError:
        assert keys is None
        return
    assert isinstance(sdr, SDR)
    assert keys is None or key_rows(enc, keys) == [make()._key(value)]


@pytest.mark.parametrize("name, value", [
    pytest.param(name, value, id=f"{name}-{label}") for name, value, label in [
        ("scalar", 10**400, "10**400"), ("cyclic", 10**400, "10**400"),
        ("delta", -(10**400), "-10**400"), ("unbounded", 10**400, "10**400"),
        ("topw", ((0, 0), 10**400), "speed-10**400"),
        ("category", ["a"], "list"), ("catch_all", {"a": 1}, "dict"),
        ("fixed", (1.5, 2), "float-x"), ("fixed", 5, "int"), ("fixed", "ab", "str"),
        ("fixed", (1, 2, 3), "three"), ("fixed", (), "empty"),
        ("topw", ((0, 0),), "no-speed"), ("topw", ((0, 0), 1, 2), "two-speeds"),
        ("multi", None, "None"), ("multi", "tcp", "str"), ("multi", [("t", 1)], "pairs"),
    ]
])
def test_malformed_values_raise_input_error(name, value):
    with pytest.raises(InputError):
        ENCODERS[name]().encode(value)


HUGE = 10**5000  # past the 4,300 digits that int text may have


@pytest.mark.parametrize("name, value", [
    pytest.param(name, value, id=f"{name}-{label}") for name, value, label in [
        ("category", HUGE, "int"), ("catch_all", [HUGE], "list"), ("scalar", (HUGE,), "tuple"),
        ("fixed", (HUGE, 0), "cell"), ("fixed", (0, -HUGE), "cell-y"),
        ("topw", ((0, 0), [HUGE]), "speed"), ("topw", ((HUGE, 0), 1.0), "pair-cell"),
        ("topw", ((0, 0), 1.0, HUGE), "three"), ("datetime", HUGE, "int"),
        ("multi", [HUGE], "list"), ("multi", {"t": 1.0, "c": HUGE, "p": (0, 0)}, "label"),
    ]
])
def test_an_int_too_long_to_print_is_shown_by_type_and_size(name, value):
    with pytest.raises(SdrError, match="<int of 16610 bits>|<(tuple|list) that cannot be shown>"):
        ENCODERS[name]().encode(value)


def test_a_normal_value_is_shown_by_its_repr():
    with pytest.raises(SdrError, match=r"^unknown category 12345; known: \['a', 'b'\]$"):
        category().encode(12345)
    with pytest.raises(SdrError, match=r"^neighborhood x 2147483648 exceeds"):
        fixed().encode((2**31 - 1, 0))


class FieldLookup:
    """Answers ``in`` and ``[]`` for its fields, as a mapping would, but is
    no mapping."""

    def __init__(self, fields):
        self._fields = fields

    def __contains__(self, name):
        return name in self._fields

    def __getitem__(self, name):
        return self._fields[name]


def test_a_record_that_is_no_mapping_is_refused():
    record = FieldLookup({"t": 1.0, "c": "a", "p": (0, 0)})
    assert multi().encode(dict(record._fields)).n == multi().n
    with pytest.raises(InputError, match="expected a mapping"):
        multi().encode(record)


# --- the geospatial neighborhood bound -------------------------------------------------

WIDEST = (int(MAX_NEIGHBORHOOD_CELLS ** 0.5) - 1) // 2  # the largest radius allowed


def test_the_bound_allows_radius_511():
    assert WIDEST == 511
    assert GeospatialEncoder(1000, WIDEST)._key((3, 4)) == (3, 4, WIDEST)
    with pytest.raises(InputError, match="MAX_NEIGHBORHOOD_CELLS"):
        GeospatialEncoder(1000, WIDEST + 1)._key((3, 4))


@pytest.mark.parametrize("make, value", [
    (lambda: GeospatialEncoder(2**70, 2**31 - 1), (0, 0)),
    (lambda: GeospatialEncoder(2**70, 1, variant="topw", w=9, speed_scale=1.0,
                               radius_max=2**31 - 1), ((0, 0), 2.0**40)),
], ids=["fixed", "topw-speed"])
def test_a_refused_neighborhood_allocates_little(make, value):
    enc = make()
    tracemalloc.start()
    try:
        with pytest.raises(InputError, match="MAX_NEIGHBORHOOD_CELLS"):
            enc.encode(value)
        _, peak = tracemalloc.get_traced_memory()
    finally:
        tracemalloc.stop()
    assert peak < 1 << 20


def test_encode_reports_a_refused_neighborhood_by_row():
    config = {"encoder": {"type": "geospatial", "n": 4096, "radius": 1, "variant": "topw",
                          "w": 9, "speed_scale": 1.0, "radius_max": 2000},
              "field": ["x", "y"], "speed_field": "s", "output_format": "sparse"}
    text = csv_text(["x", "y", "s"], [["0", "0", "0"], ["5", "-5", "3"], ["1", "1", "600"],
                                      ["2", "2", "0"]])
    code, out, err = encode(config, text, "sparse")
    assert (code, out, err) == per_row_run(config, text)
    assert code == cli.EXIT_DATA
    assert out.count("\n") == 2
    assert err.startswith("data error: row 3: field 'x,y': a radius-601 neighborhood")
