"""`sdrkit encode` writes one byte stream, whatever its output is.

Each block of lines is written as bytes, straight from the reused text
buffer: to the `--output` file, and to stdout's binary buffer after the text
written to stdout before it.  An in-memory stdout, which has no buffer,
gets each block as ASCII text, in one write.

* The golden `all_leaves` output, dense, sparse and sparse-n, comes out
  byte for byte to `--output`, to stdout as a file and as a pipe (in a
  child process), and to an in-memory stdout, one write per chunk.
* Text written to stdout before `encode` runs comes out before its lines.
* A dense line wider than `cli._CHUNK_BYTES` is one chunk of its own, and
  lines that fill the cap, or fall one byte short of it, are
  `_CHUNK_BYTES // (n + 1)` rows a chunk; each gives the per-row path's
  lines, from one bit matrix allocated for the run.
* `cli.run`, the entry of the console script and of `python -m sdrkit.cli`,
  freezes the heap before `main`, so the exit's collections skip what the
  imports made; `cli.main` called in process freezes nothing.
"""

import gc
import io
import subprocess
import sys
from pathlib import Path
from unittest import mock

import pytest

from sdrkit import cli

from test_dense_chunks import (
    WriteRecorder, counting_matrices, csv_text, encode_counting_chunks, expected_chunks,
    per_row_dense,
)

DATA = Path(__file__).resolve().parent / "data"
GOLDEN = DATA / "encode"
FORMATS = ["dense", "sparse", "sparse-n"]


def golden_args(fmt):
    return ["encode", "--config", str(GOLDEN / "all_leaves.json"),
            "--input", str(GOLDEN / "all_leaves.csv"), "--format", fmt]


def golden(fmt):
    return (GOLDEN / f"all_leaves.{fmt}").read_bytes()


def run_child(args, stdout):
    """`python -m sdrkit.cli` with ``args`` in a child process writing to
    ``stdout``, asserting that it exits 0 with only the config's warnings
    on stderr; what it wrote to a piped stdout."""
    proc = subprocess.run([sys.executable, "-m", "sdrkit.cli", *args], stdout=stdout,
                          stderr=subprocess.PIPE, timeout=300)
    assert proc.returncode == cli.EXIT_OK, proc.stderr
    assert all(line.startswith(b"warning: ") for line in proc.stderr.splitlines())
    return proc.stdout


@pytest.mark.parametrize("fmt", FORMATS)
def test_to_an_output_path(tmp_path, fmt):
    out = tmp_path / "out"
    assert cli.main([*golden_args(fmt), "--output", str(out)]) == cli.EXIT_OK
    assert out.read_bytes() == golden(fmt)


@pytest.mark.parametrize("fmt", FORMATS)
def test_to_stdout_as_a_file(tmp_path, fmt):
    out = tmp_path / "out"
    with open(out, "wb") as f:
        run_child(golden_args(fmt), f)
    assert out.read_bytes() == golden(fmt)


@pytest.mark.parametrize("fmt", FORMATS)
def test_to_stdout_as_a_pipe(fmt):
    out = run_child(golden_args(fmt), subprocess.PIPE)
    assert len(out) > 64 << 10  # more than a pipe holds: the reader drains it as it goes
    assert out == golden(fmt)


@pytest.mark.parametrize("fmt", FORMATS)
def test_to_an_in_memory_stdout_one_write_per_chunk(fmt):
    lines_function = "_dense_lines" if fmt == "dense" else "_sparse_lines"
    real, sizes = getattr(cli, lines_function), []

    def counting(multi, bits, *args):
        sizes.append(len(bits))
        return real(multi, bits, *args)

    out = WriteRecorder()
    with mock.patch("sys.stdout", out), mock.patch.object(cli, lines_function, counting):
        code = cli.main(golden_args(fmt))
    assert code == cli.EXIT_OK
    assert out.getvalue().encode("ascii") == golden(fmt)
    assert len(sizes) > 1  # the golden rows span several chunks
    assert [text.count("\n") for text in out.writes] == sizes


def test_text_written_to_stdout_before_comes_first():
    raw = io.BytesIO()
    stdout = io.TextIOWrapper(raw, encoding="utf-8", newline="")
    stdout.write("before\n")  # held in the text layer, not yet in ``raw``
    with mock.patch("sys.stdout", stdout):
        assert cli.main(golden_args("sparse")) == cli.EXIT_OK
    assert raw.getvalue() == b"before\n" + golden("sparse")


def scalar_config(n):
    return {"encoder": {"type": "scalar", "min": 0, "max": 9, "n": n, "w": 21},
            "field": "v"}


ROWS = [[str(v)] for v in (0, 9, 4.5, 2, 7, 1, 8, 3, 6)]


@pytest.mark.parametrize("n, per_chunk", [
    pytest.param(cli._CHUNK_BYTES, 1, id="wider-than-the-cap"),
    pytest.param(cli._CHUNK_BYTES // 4 - 1, 4, id="filling-the-cap"),
    pytest.param(cli._CHUNK_BYTES // 3 - 1, 3, id="one-byte-short-of-the-cap"),
])
def test_dense_chunks_at_the_byte_cap_equal_the_per_row_path(n, per_chunk):
    assert max(1, cli._CHUNK_BYTES // (n + 1)) == per_chunk
    rows = ROWS[:4] if per_chunk == 1 else ROWS
    with counting_matrices() as matrices:
        (code, out, _), sizes = encode_counting_chunks(scalar_config(n), csv_text(["v"], rows),
                                                       "dense", "_dense_lines")
    assert code == cli.EXIT_OK and matrices.call_count == 1
    assert sizes == expected_chunks(len(rows), per_chunk)
    assert out == per_row_dense(scalar_config(n), ["v"], rows)


def test_the_cli_entry_freezes_the_heap():
    """`selftest-hash` through `cli.run` in a child process: the golden
    output, and a frozen heap when the interpreter exits."""
    script = ("import atexit, gc, sys\n"
              "from sdrkit import cli\n"
              "atexit.register(lambda: print(gc.get_freeze_count(), file=sys.stderr))\n"
              "sys.argv = ['sdrkit', 'selftest-hash']\n"
              "cli.run()\n")
    proc = subprocess.run([sys.executable, "-c", script], capture_output=True, timeout=300)
    assert proc.returncode == cli.EXIT_OK, proc.stderr
    assert proc.stdout == (DATA / "golden_hash_vectors.txt").read_bytes()
    assert int(proc.stderr) > 0


def test_main_in_process_freezes_nothing(tmp_path, capsys):
    evaluate = DATA / "evaluate"
    before = gc.get_freeze_count()
    assert cli.main([*golden_args("sparse"), "--output", str(tmp_path / "out")]) == cli.EXIT_OK
    assert cli.main(["evaluate", "--config", str(evaluate / "absolute.json"),
                     "--input", str(evaluate / "absolute.csv")]) == cli.EXIT_OK
    assert capsys.readouterr().out.startswith("# encoder evaluation\n")
    assert gc.get_freeze_count() == before
