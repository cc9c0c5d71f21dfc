"""Core SDR type: overlap, sparsity, serialization."""

import random

import numpy as np
import pytest
from hypothesis import example, given, settings, strategies as st

from sdrkit.errors import DimensionMismatch, InvalidSdr, ParseError, SdrError
from sdrkit.sdr import (
    SDR,
    from_dense_string,
    from_sparse_string,
    overlap,
    random_sdr,
    sparsity,
    to_dense_array,
    to_dense_string,
    to_sparse_string,
)


def test_overlap_basic():
    a = SDR(10, (1, 2, 3))
    b = SDR(10, (2, 3, 9))
    assert overlap(a, b) == 2


def test_overlap_identity():
    a = SDR(100, tuple(range(0, 50, 2)))
    assert a.active_count == 25
    assert overlap(a, a) == 25


def test_overlap_empty():
    empty = SDR(10, ())
    assert overlap(empty, SDR(10, (0, 5, 9))) == 0


def test_overlap_dimension_mismatch():
    with pytest.raises(DimensionMismatch):
        overlap(SDR(10, (1,)), SDR(11, (1,)))


def test_sparsity():
    assert sparsity(SDR(100, tuple(range(25)))) == 0.25
    assert sparsity(SDR(2048, tuple(range(41)))) == pytest.approx(0.0200, abs=2e-4)
    assert sparsity(SDR(134, tuple(range(21)))) == pytest.approx(0.1567, abs=2e-4)


def test_sparsity_zero_length():
    with pytest.raises(InvalidSdr):
        sparsity(SDR(0, ()))


def test_dense_string():
    assert to_dense_string(SDR(8, (1, 4))) == "01001000"
    assert to_dense_string(SDR(5, ())) == "00000"


def test_dense_array():
    out = to_dense_array(SDR(6, (1, 4)))
    assert out.dtype == np.uint8
    assert out.tolist() == [0, 1, 0, 0, 1, 0]
    wide = to_dense_array(SDR(3, (0, 2)), dtype=np.float32)
    assert wide.dtype == np.float32 and wide.tolist() == [1.0, 0.0, 1.0]
    empty = to_dense_array(SDR(4, ()))
    assert empty.dtype == np.uint8 and empty.tolist() == [0, 0, 0, 0]
    assert to_dense_array(SDR(0)).shape == (0,)


def test_from_dense_string():
    assert from_dense_string("01001000") == SDR(8, (1, 4))
    assert from_dense_string("0000") == SDR(4, ())
    with pytest.raises(ParseError, match="position 2"):
        from_dense_string("01x0")


def test_dense_round_trip_1000_random():
    rng = random.Random(20240608)
    for _ in range(1000):
        n = rng.randint(0, 200)
        w = rng.randint(0, n)
        a = random_sdr(n, w, rng)
        assert from_dense_string(to_dense_string(a)) == a


def test_sparse_string():
    a = SDR(8, (1, 4))
    assert to_sparse_string(a) == "1,4"
    assert to_sparse_string(a, self_describing=True) == "n=8;1,4"
    assert to_sparse_string(SDR(5, ())) == ""
    assert to_sparse_string(SDR(5, ()), self_describing=True) == "n=5;"


def test_sparse_string_round_trip():
    rng = random.Random(7)
    for _ in range(200):
        n = rng.randint(1, 100)
        a = random_sdr(n, rng.randint(0, min(10, n)), rng)
        assert from_sparse_string(to_sparse_string(a), n=a.n) == a
        assert from_sparse_string(to_sparse_string(a, self_describing=True)) == a


def test_sparse_string_requires_n():
    with pytest.raises(ParseError):
        from_sparse_string("1,4")


@pytest.mark.parametrize("text", [
    "n= 5;1", "n=+5;+1", "n=05;01", "n=5;-0", "n=5;\u0661", "n=5; 1 , 2",
    "n=5;1,", "n=5;,1", "n=5", "n=;1", "N=5;1",
])
def test_sparse_string_accepts_only_canonical_text(text):
    # The first six used to parse, through int().
    with pytest.raises(ParseError):
        from_sparse_string(text)


def test_sparse_string_strips_surrounding_whitespace():
    assert from_sparse_string(" n=5;1,3\n") == SDR(5, (1, 3))
    assert from_sparse_string("1,3\r\n", n=5) == SDR(5, (1, 3))


@settings(max_examples=1000, deadline=None)
@given(st.text() | st.text(alphabet="n=;,0123456789 +-\n\u0661", max_size=24),
       st.none() | st.integers(min_value=0, max_value=40))
@example("n=" + "1" * 5000 + ";", None)
def test_sparse_text_parses_or_raises_sdr_error(text, n):
    """Any text parses to an SDR that round-trips, or raises SdrError."""
    try:
        sdr = from_sparse_string(text, n)
    except SdrError:
        return
    assert from_sparse_string(to_sparse_string(sdr, self_describing=True)) == sdr
    assert from_sparse_string(to_sparse_string(sdr), n=sdr.n) == sdr


def test_constructor_rejects_duplicates():
    with pytest.raises(InvalidSdr):
        SDR(10, (1, 1, 2))


def test_constructor_rejects_out_of_range():
    with pytest.raises(InvalidSdr):
        SDR(10, (3, 10))
    with pytest.raises(InvalidSdr):
        SDR(10, (-1, 3))


def test_constructor_normalizes_order():
    assert SDR(10, (5, 1, 3)) == SDR(10, (1, 3, 5))


@pytest.mark.parametrize("index", [1.7, 3.0, "3", True, False, None])
def test_constructor_rejects_non_integer_indices(index):
    # no truncation (1.7 -> 1), parsing ("3" -> 3) or bool-as-int
    with pytest.raises(InvalidSdr, match="integers"):
        SDR(10, (index,))


def test_constructor_rejects_numpy_bool_index():
    with pytest.raises(InvalidSdr, match="integers"):
        SDR(10, (np.bool_(True),))


def test_constructor_accepts_numpy_integer_indices():
    a = SDR(10, (np.int64(7), np.uint64(2), np.int32(5)))
    assert a == SDR(10, (2, 5, 7))
    assert all(type(i) is int for i in a.active)
    assert SDR(10, np.array([4, 1], dtype=np.uint64)) == SDR(10, (1, 4))


def test_trusted_equals_validated():
    a = SDR._trusted(10, (1, 3, 5))
    assert a == SDR(10, (1, 3, 5))
    assert hash(a) == hash(SDR(10, (1, 3, 5)))


def test_constructor_rejects_bad_n():
    with pytest.raises(InvalidSdr):
        SDR(-1, ())
    with pytest.raises(InvalidSdr):
        SDR(2.0, ())


@st.composite
def same_length_pairs(draw):
    n = draw(st.integers(min_value=1, max_value=200))
    idx = st.sets(st.integers(min_value=0, max_value=n - 1), max_size=n)
    return (
        SDR(n, tuple(sorted(draw(idx)))),
        SDR(n, tuple(sorted(draw(idx)))),
    )


@given(same_length_pairs())
def test_overlap_commutative(pair):
    a, b = pair
    assert overlap(a, b) == overlap(b, a)


@given(same_length_pairs())
def test_overlap_bounded_by_smaller_side(pair):
    a, b = pair
    assert overlap(a, b) <= min(a.active_count, b.active_count)


@given(same_length_pairs())
def test_dense_round_trip_property(pair):
    a, _ = pair
    assert from_dense_string(to_dense_string(a)) == a
