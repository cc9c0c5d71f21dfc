"""`sdrkit encode` output pinned byte for byte, in every format.

`tests/data/encode/all_leaves.json` binds every leaf encoder type (scalar,
delta, cyclic, scalar_unbounded, category with a catch-all block, datetime
with all five components, geospatial fixed on [x, y] and geospatial topw
with a speed field on [lat, lon]) to the 300 rows of `all_leaves.csv`.
`all_leaves.dense`, `all_leaves.sparse` and `all_leaves.sparse-n` are the
lines the CLI printed when the files were written (the sparse formats row
by row, before they were written in chunks).  At n = 1,994 the output
spans several write chunks, so a change to any encoder, to the hashing or
to how lines are built and written shows here as a diff.
"""

from pathlib import Path

import pytest

from sdrkit import cli

DATA = Path(__file__).resolve().parent / "data" / "encode"


@pytest.mark.parametrize("fmt", ["dense", "sparse", "sparse-n"])
def test_encode_output_is_byte_identical(fmt, capsys):
    code = cli.main(["encode", "--config", str(DATA / "all_leaves.json"),
                     "--input", str(DATA / "all_leaves.csv"), "--format", fmt])
    assert code == 0
    assert capsys.readouterr().out == (DATA / f"all_leaves.{fmt}").read_text(encoding="utf-8")
