"""Chunked sparse `sdrkit encode` pinned to the per-row path.

`sdrkit encode --format sparse|sparse-n` checks and keys each chunk of rows
a column at a time (the encoders' ``_keys`` step) and turns the chunk into
text at once (``_bits`` and `cli._sparse_lines`), or runs it row by row
where the column step refuses, as dense output does.  The oracle is
the per-row path, `per_row_run`: ``to_sparse_string(cfg.encode_row(row))``
for each row, with the CLI's own row reading and error report.

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
  data error runs row by row, at any n, and still writes its rows before
  the failing one at once.
"""

import contextlib
import io
import json
from unittest import mock

import pytest
from hypothesis import HealthCheck, given, settings, strategies as st

from sdrkit import cli
from sdrkit.composite import MultiEncoder
from sdrkit.config import parse_pipeline_config

from test_dense_chunks import (
    ERROR_PARTS, FAILING, FAILING_ROWS, HEADER, VALUE_ERROR_FIRST, WRITE_CASES,
    WriteRecorder, check_each_chunk_is_one_write, csv_text, encode,
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
    assert ROWS_PER_CHUNK * (len(f"n={multi.n};") + multi.w * (len(str(multi.n - 1)) + 1)) <= 1 << 18


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
    by_rows = "x" in values  # only the chunk with a data error runs row by row
    assert bool(sizes) != by_rows
    assert sdr_calls.call_count == (out.count("\n") if by_rows else 0)
    assert code == (cli.EXIT_OK if not by_rows else cli.EXIT_DATA)
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
