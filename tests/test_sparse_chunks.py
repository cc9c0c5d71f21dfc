"""Chunked sparse `sdrkit encode` pinned to the per-row path.

`sdrkit encode --format sparse|sparse-n` checks and keys each chunk of rows
a column at a time (the encoders' ``_keys`` step) and turns the chunk into
text at once (``_bits`` and `cli._sparse_lines`); where the column step
raises, it halves the chunk until the failing row stands alone, as dense
output does.  The oracle is the per-row path, `per_row_run`:
``to_sparse_string(cfg.encode_row(row))`` for each row, with the CLI's own
row reading and error report.

* Random pipelines of every leaf type (the leaf strategies of
  `test_dense_chunks`), at a w that puts 1, 2, 3 or 5 rows in a chunk or all
  rows in one, give the oracle's bytes in chunks of that many rows.  The
  draws cover unbounded hashes that collide (n <= 32), whose repeated
  indices sparse output lists once, delta state across chunk edges, cyclic
  windows that wrap and several top-w radii in one chunk.
* A data error inside the second chunk leaves exactly the rows before it,
  with the oracle's stderr and exit code, and each chunk is one write; a
  value error is reported before rows later in its chunk that cannot be
  read, in the second chunk and in the last, partial one.
* A hash collision on a row's last index lists that bit once and still
  ends the line.
* A pipeline of n >= 2**63 bits, whose bit matrix (``MultiEncoder._bits``)
  is uint64 up to 2**64 bits and Python ints past it, keys each plain
  chunk by columns like any other, with no row's SDR built
  (``MultiEncoder._sdr``), byte-identical to the oracle; a chunk with a
  data error is halved, at any n, builds no row's SDR either and writes
  its rows before the failing one a block per half that keys.
* Windows of 2**62 buckets or more (a scalar with n - w >= 2**62, a
  cyclic part with n >= 2**62) take the same column step, with no row
  run through the per-row path (`cli._each_value`).
* Whichever row of a 37-row chunk holds a value that cannot be read, the
  halving writes the oracle's rows before it and reports the oracle's
  error, with delta state and hashes crossing each split, in at most
  2 * ceil(log2(37)) + 1 column steps, not one step per row.
* Lines of more than `_CHUNK_CELLS` bit indices are one row a chunk,
  written from one bit matrix allocated for the run, with the oracle's
  bytes.
* A column step that refuses a row which the per-row path takes makes
  `encode` raise that step's exception, with that row not written: it is
  a bug, not a slow path.
"""

import contextlib
import io
import json
import math
from unittest import mock

import pytest
from hypothesis import HealthCheck, given, settings, strategies as st

from sdrkit import cli
from sdrkit.composite import MultiEncoder
from sdrkit.config import PipelineConfig, parse_pipeline_config
from sdrkit.scalars import ScalarEncoder
from sdrkit.sdr import to_sparse_string

from test_dense_chunks import (
    ERROR_PARTS, FAILING, FAILING_ROWS, HEADER, VALUE_ERROR_FIRST, WRITE_CASES,
    WriteRecorder, check_each_chunk_is_one_write, counting_matrices, csv_text, encode,
    encode_counting_chunks, expected_chunks, per_row_run, pipelines,
    value_error_message,
)

CHUNK_CELLS = 1 << 15
FORMATS = ["sparse", "sparse-n"]


def sparse_pad(multi, per_chunk):
    """A scalar of the remaining one-bits, which brings w to
    CHUNK_CELLS // per_chunk; the block's text then holds at least
    per_chunk rows, so the bit matrix sets the chunk size."""
    w = CHUNK_CELLS // per_chunk - multi.w
    return {"type": "scalar", "min": 0, "max": 1, "n": w + 1, "w": w}


@settings(max_examples=150, deadline=None,
          suppress_health_check=[HealthCheck.too_slow, HealthCheck.data_too_large])
@given(pipelines(pad=sparse_pad), st.sampled_from(FORMATS))
def test_chunked_sparse_equals_the_per_row_path(case, fmt):
    config, header, rows, per_chunk = case
    text = csv_text(header, rows)
    result, sizes = encode_counting_chunks(config, text, fmt, "_sparse_lines")
    assert result == per_row_run(config, text, fmt == "sparse-n")
    assert result[0] == 0
    assert sizes == expected_chunks(len(rows), per_chunk)


@pytest.mark.parametrize("fmt", FORMATS)
def test_lines_past_the_cells_cap_equal_the_per_row_path(fmt):
    config = {"encoder": {"type": "scalar", "min": 0, "max": 9, "n": 40_000,
                          "w": CHUNK_CELLS + 1}, "field": "v"}
    text = csv_text(["v"], [["0"], ["9"], ["4.5"], ["-1"], ["2"]])
    with counting_matrices() as matrices:
        result, sizes = encode_counting_chunks(config, text, fmt, "_sparse_lines")
    assert result == per_row_run(config, text, fmt == "sparse-n")
    assert result[0] == cli.EXIT_OK
    assert sizes == [1] * 5 and matrices.call_count == 1


# --- data errors inside a chunk ------------------------------------------------------

ROWS_PER_CHUNK = 4
# A padding scalar brings w to CHUNK_CELLS // 4, so each chunk holds 4 rows.
ERROR_CONFIG = {"encoder": {"type": "multi", "parts": [
    *ERROR_PARTS,
    {"field": "pad", "encoder": sparse_pad(
        parse_pipeline_config({"encoder": {"type": "multi", "parts": ERROR_PARTS}}).multi,
        ROWS_PER_CHUNK)},
]}}


def test_error_config_puts_four_rows_in_a_chunk():
    multi = parse_pipeline_config(ERROR_CONFIG).multi
    assert CHUNK_CELLS // multi.w == ROWS_PER_CHUNK
    # the text of four rows fits the byte bound too
    line_bytes = len(f"n={multi.n};") + multi.w * (len(str(multi.n - 1)) + 1)
    assert ROWS_PER_CHUNK * line_bytes <= cli._CHUNK_BYTES


@pytest.mark.parametrize("fmt", FORMATS)
@pytest.mark.parametrize("rows", FAILING_ROWS)
def test_data_error_mid_chunk_matches_the_per_row_path(rows, fmt):
    text = csv_text(HEADER, rows)
    code, out, err = encode(ERROR_CONFIG, text, fmt)
    assert (code, out, err) == per_row_run(ERROR_CONFIG, text, fmt == "sparse-n")
    assert code == cli.EXIT_DATA
    assert f"data error: row {FAILING}: " in err
    assert out.count("\n") == FAILING - 1


@pytest.mark.parametrize("fmt", FORMATS)
@pytest.mark.parametrize("rows, failing", VALUE_ERROR_FIRST)
def test_a_value_error_before_unreadable_rows_is_reported(rows, failing, fmt):
    text = csv_text(HEADER, rows)
    code, out, err = encode(ERROR_CONFIG, text, fmt)
    assert (code, out, err) == per_row_run(ERROR_CONFIG, text, fmt == "sparse-n")
    assert code == cli.EXIT_DATA
    assert err.endswith(value_error_message(failing))
    assert out.count("\n") == failing - 1


@pytest.mark.parametrize("rows, lines_per_write", WRITE_CASES)
def test_each_chunk_is_one_write(tmp_path, rows, lines_per_write):
    check_each_chunk_is_one_write(tmp_path, ERROR_CONFIG, "sparse", rows, lines_per_write)


def test_a_collision_lists_its_bit_once():
    # Buckets -13..-10 all hash to bit 3 of 4, and -14..-11 to bits 0 and 3:
    # the row's last index is a repeated one.
    config = {"encoder": {"type": "multi", "parts": [
        {"field": "t", "encoder": {"type": "scalar", "min": 0, "max": 10, "n": 50, "w": 5}},
        {"field": "v", "encoder": {"type": "scalar_unbounded", "resolution": 1,
                                   "n": 4, "w": 4}},
    ]}}
    text = csv_text(["t", "v"], [["3", "-13"], ["10", "-14"]])
    for fmt in FORMATS:
        result = encode(config, text, fmt)
        assert result == per_row_run(config, text, fmt == "sparse-n")
    assert result[1] == "n=54;13,14,15,16,17,53\nn=54;45,46,47,48,49,50,53\n"


# --- n >= 2**63: the same column step ---------------------------------------------

def huge_config(unbounded_n):
    """A 50-bit scalar and an unbounded scalar of ``unbounded_n`` bits."""
    return {"encoder": {"type": "multi", "parts": [
        {"field": "t", "encoder": {"type": "scalar", "min": 0, "max": 10, "n": 50, "w": 5}},
        {"field": "v", "encoder": {"type": "scalar_unbounded", "resolution": 0.5,
                                   "n": unbounded_n, "w": 7, "seed": 3}},
    ]}}


@pytest.mark.parametrize("fmt", FORMATS)
@pytest.mark.parametrize("values", [
    pytest.param(["1", "-2.5", "1e6", "3"], id="ok"),
    pytest.param(["1", "-2.5", "x", "3"], id="data-error"),
])
@pytest.mark.parametrize("unbounded_n", [
    pytest.param((1 << 63) - 51, id="n=2**63-1"),
    pytest.param((1 << 63) - 50, id="n=2**63"),
    pytest.param((1 << 64) - 50, id="n=2**64"),  # the largest uint64 matrix
    pytest.param(1 << 64, id="n=2**64+50"),
])
def test_past_int64_bits_are_keyed_by_columns(unbounded_n, fmt, values):
    config = huge_config(unbounded_n)
    text = csv_text(["t", "v"], [[str(i), v] for i, v in enumerate(values)])
    row_sdrs = mock.patch.object(MultiEncoder, "_sdr", autospec=True,
                                 side_effect=MultiEncoder._sdr)
    with row_sdrs as sdr_calls:
        result, sizes = encode_counting_chunks(config, text, fmt, "_sparse_lines")
    assert result == per_row_run(config, text, fmt == "sparse-n")
    code, out, _ = result
    failing = "x" in values  # row 3; rows 1 and 2 are written as one block
    assert sizes == ([2] if failing else [4])
    assert sdr_calls.call_count == 0
    assert code == (cli.EXIT_DATA if failing else cli.EXIT_OK)
    n = 50 + unbounded_n
    first = out.splitlines()[0]
    assert first.startswith((f"n={n};" if fmt == "sparse-n" else "") + "0,1,2,3,4,")
    # indices near or past 2**63
    assert max(int(i) for i in first.split(";")[-1].split(",")) >= 1 << 60


@pytest.mark.parametrize("fmt", FORMATS)
def test_past_int64_bits_writes_fewer_times_than_rows(tmp_path, fmt):
    config = huge_config(1 << 64)
    text = csv_text(["t", "v"], [[str(i % 11), str(i * 1.5 - 20)] for i in range(30)])
    cfg_path, in_path = tmp_path / "c.json", tmp_path / "in.csv"
    cfg_path.write_text(json.dumps(config), encoding="utf-8")
    in_path.write_text(text, encoding="utf-8")
    out, err = WriteRecorder(), io.StringIO()
    with mock.patch("sys.stdout", out), contextlib.redirect_stderr(err):
        code = cli.main(["encode", "--config", str(cfg_path), "--input", str(in_path),
                         "--format", fmt])
    assert (code, out.getvalue(), err.getvalue()) == per_row_run(config, text,
                                                                  fmt == "sparse-n")
    assert out.getvalue().count("\n") == 30
    assert len(out.writes) < 30


# --- windows of 2**62 buckets and more: the same column step -------------------

WIDE_WINDOWS = {"encoder": {"type": "multi", "parts": [
    {"field": "a", "encoder": {"type": "scalar", "min": -100, "max": 100,
                               "n": (1 << 62) + 50, "w": 21}},
    {"field": "b", "encoder": {"type": "cyclic", "period": 360, "n": (1 << 63) + 3, "w": 21}},
    {"field": "c", "encoder": {"type": "delta", "min": -5, "max": 5, "n": (1 << 62) + 30,
                               "w": 21}},
]}}


@pytest.mark.parametrize("fmt", FORMATS)
def test_windows_past_2_62_buckets_take_the_column_step(fmt):
    text = csv_text(["a", "b", "c"], [[repr(v / 3), repr(v * 7.1), repr(v / 50)]
                                      for v in range(-390, 390, 7)])
    with mock.patch.object(cli, "_each_value", wraps=cli._each_value) as per_row_calls:
        result = encode(WIDE_WINDOWS, text, fmt)
    assert per_row_calls.call_count == 0
    assert result == per_row_run(WIDE_WINDOWS, text, fmt == "sparse-n")
    assert result[0] == cli.EXIT_OK and result[1].count("\n") == 112


# --- a failing row found by halving its chunk -----------------------------------

HALVING_CONFIG = {"encoder": {"type": "multi", "parts": [
    {"field": "temp", "encoder": {"type": "scalar", "min": 0, "max": 45, "n": 200, "w": 21}},
    {"field": "level", "encoder": {"type": "delta", "min": -5, "max": 5, "n": 150, "w": 21}},
    {"field": "reading", "encoder": {"type": "scalar_unbounded", "resolution": 0.5,
                                     "n": 300, "w": 21, "seed": 7}},
    {"field": ["x", "y"], "speed_field": "speed",
     "encoder": {"type": "geospatial", "variant": "topw", "n": 1000, "w": 15, "radius": 2,
                 "radius_min": 2, "radius_max": 5, "speed_scale": 0.5, "seed": 3}},
]}}
HALVING_HEADER = ["temp", "level", "reading", "x", "y", "speed"]
HALVING_ROWS = 37  # all in one chunk
# The column of row i's unparsable value, in turn.
HALVING_COLUMNS = ["temp", "level", "reading", "x", "speed"]


@pytest.mark.parametrize("failing", range(1, HALVING_ROWS + 1))
def test_a_failing_row_is_found_by_halving_its_chunk(failing):
    """Whichever row of a chunk cannot be read, the rows before it are the
    per-row path's, the error is its error, and the chunk takes at most
    2 * ceil(log2(rows)) + 1 column steps, delta state and hashes crossing
    each split."""
    rows = [[repr(i * 1.1), repr((i * 7 % 10) - 4.5), repr(i * 3.3 - 60), str(i - 20),
             str(3 * i), repr(i / 4)] for i in range(HALVING_ROWS)]
    column = HALVING_COLUMNS[failing % len(HALVING_COLUMNS)]
    rows[failing - 1][HALVING_HEADER.index(column)] = "?"
    text = csv_text(HALVING_HEADER, rows)
    steps = mock.patch.object(PipelineConfig, "_chunk_keys", autospec=True,
                              side_effect=PipelineConfig._chunk_keys)
    with steps as step_calls:
        code, out, err = encode(HALVING_CONFIG, text, "sparse")
    assert step_calls.call_count <= 2 * math.ceil(math.log2(HALVING_ROWS)) + 1
    assert step_calls.call_args_list[0].args[2] == rows  # one chunk
    assert (code, out, err) == per_row_run(HALVING_CONFIG, text)
    assert code == cli.EXIT_DATA
    assert out.count("\n") == failing - 1
    assert err.splitlines()[-1].startswith(f"data error: row {failing}: ")


class Refused(Exception):
    """A column step's refusal of a value that ``_key`` takes."""


@pytest.mark.parametrize("refuses, written", [
    pytest.param(lambda values: 4.0 in values, 3, id="row-4"),
    pytest.param(lambda values: len(values) > 1, 2, id="every-chunk"),
])
def test_a_column_step_that_refuses_what_key_takes_raises(tmp_path, refuses, written):
    """``_keys`` refusing row 4 writes rows 1-3 and raises at row 4, which
    it does not write; refusing every chunk of more than one row, while each
    row keys alone, writes rows 1 and 2, the two halves of the first refused
    pair, each from its own key column, and then raises."""
    config = {"encoder": {"type": "scalar", "min": 0, "max": 10, "n": 50, "w": 5},
              "field": "t"}
    (tmp_path / "c.json").write_text(json.dumps(config), encoding="utf-8")
    (tmp_path / "in.csv").write_text(csv_text(["t"], [[str(i)] for i in range(1, 9)]),
                                     encoding="utf-8")
    real = ScalarEncoder._keys

    def keys(enc, values):
        if refuses(values):
            raise Refused
        return real(enc, values)

    with mock.patch.object(ScalarEncoder, "_keys", keys), pytest.raises(Refused):
        cli.main(["encode", "--config", str(tmp_path / "c.json"),
                  "--input", str(tmp_path / "in.csv"), "--output", str(tmp_path / "out"),
                  "--format", "sparse"])
    lines = (tmp_path / "out").read_text(encoding="utf-8").splitlines()
    assert lines == [to_sparse_string(ScalarEncoder(0, 10, 50, 5).encode(i))
                     for i in range(1, written + 1)]
