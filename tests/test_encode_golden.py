"""`sdrkit encode` output pinned byte for byte, in every format.

`tests/data/encode/all_leaves.json` binds every leaf encoder type (scalar,
delta, cyclic, scalar_unbounded, category with a catch-all block, datetime
with all five components, geospatial fixed on [x, y] and geospatial topw
with a speed field on [lat, lon]) to the 300 rows of `all_leaves.csv`.
`all_leaves.dense`, `all_leaves.sparse` and `all_leaves.sparse-n` are the
lines the CLI printed when the files were written (the sparse formats row
by row, before they were written in chunks).  At n = 1,994 the output
spans several write chunks, so a change to any encoder, to the hashing or
to how lines are built and written shows here as a diff.  Every line of
`sdrkit encode` is written from the column step
(`PipelineConfig._chunk_keys`, then `MultiEncoder._bits`); the per-row path
(`cli._each_value`) only words a data error, and no row here reaches it,
so the files pin the column step of every leaf encoder, the ±4.6e18
unbounded readings at the int64 edge included.  The same rows with CRLF or
lone-CR line ends, with or without a UTF-8 byte-order mark, read from a
file or from a piped stdin, give the same bytes.

`geo_band.json` binds one geospatial top-w encoder with a speed field on
[lat, lon] (radius 2 to 8, w = 20, 40 m cells) to the 3,600 rows of
`geo_band.csv`, drawn across the whole mercator band: latitudes within
±85.05 and longitudes within ±180, with ±0.0, ±180 and latitudes a hair
inside the band edge among them, and speeds that put every radius in each
chunk.  Its 1,638-row chunks are three, the last one partial.
`geo_band.sparse` is the output printed when the file was written, before
the geospatial column step keyed cells in numpy and took top-w blocks by
threshold.

`past_2_64.json` binds an unbounded scalar of 2**64 bits, a cyclic part
that starts past bit 2**64, an unbounded scalar of 2**70 bits and a bounded
scalar that starts past bit 2**70 (n = 1,199,038,364,791,120,855,220, whose
indices take up to 22 digits) to the 400 rows of `past_2_64.csv`, with
buckets at both ends of the int64 range and a cyclic window that wraps.
Each line is 84 indices, so the 400 rows are four chunks.
`past_2_64.sparse-n` is the output printed when the file was written, when
every row of a pipeline of n >= 2**63 bits ran through the per-row path; it
now pins the column step, whose bit matrix holds Python ints past 2**64.
"""

import subprocess
import sys
from pathlib import Path
from unittest import mock

import pytest

from sdrkit import cli

DATA = Path(__file__).resolve().parent / "data" / "encode"


def encode_by_columns(args):
    """`sdrkit encode` with ``args``, asserting that no row took the
    per-row path; its exit code."""
    with mock.patch.object(cli, "_each_value", wraps=cli._each_value) as row_path:
        code = cli.main(["encode", *args])
    assert row_path.call_count == 0
    return code


@pytest.mark.parametrize("fmt", ["dense", "sparse", "sparse-n"])
def test_encode_output_is_byte_identical(fmt, capsys):
    code = encode_by_columns(["--config", str(DATA / "all_leaves.json"),
                              "--input", str(DATA / "all_leaves.csv"), "--format", fmt])
    assert code == 0
    assert capsys.readouterr().out == (DATA / f"all_leaves.{fmt}").read_text(encoding="utf-8")


@pytest.mark.parametrize("bom", [b"", b"\xef\xbb\xbf"], ids=["no-bom", "bom"])
@pytest.mark.parametrize("end", [b"\n", b"\r\n", b"\r"], ids=["lf", "crlf", "cr"])
def test_line_ends_and_a_byte_order_mark_change_no_byte(tmp_path, capsys, end, bom):
    text = bom + (DATA / "all_leaves.csv").read_bytes().replace(b"\n", end)
    path = tmp_path / "in.csv"
    path.write_bytes(text)
    args = ["--config", str(DATA / "all_leaves.json"), "--format", "sparse"]
    expected = (DATA / "all_leaves.sparse").read_bytes()
    assert encode_by_columns([*args, "--input", str(path)]) == 0
    assert capsys.readouterr().out.encode() == expected
    # through the process's own stdin, a byte stream
    proc = subprocess.run([sys.executable, "-m", "sdrkit.cli", "encode", *args],
                          input=text, capture_output=True, timeout=120)
    assert (proc.returncode, proc.stdout) == (0, expected)


def test_encode_across_the_mercator_band_is_byte_identical(capsys):
    code = encode_by_columns(["--config", str(DATA / "geo_band.json"),
                              "--input", str(DATA / "geo_band.csv")])
    assert code == 0
    assert capsys.readouterr().out == (DATA / "geo_band.sparse").read_text(encoding="utf-8")


def test_encode_past_2_64_bits_is_byte_identical(capsys):
    code = encode_by_columns(["--config", str(DATA / "past_2_64.json"),
                              "--input", str(DATA / "past_2_64.csv")])
    assert code == 0
    assert capsys.readouterr().out == (DATA / "past_2_64.sparse-n").read_text(encoding="utf-8")
