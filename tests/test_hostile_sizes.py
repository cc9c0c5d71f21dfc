"""Hostile sizes and failed writes end `sdrkit` with the documented exit
code and one error line on stderr, never a traceback.

* Each hostile input runs in its own child process, one at a time, under a
  1.5 GB address-space cap (`RLIMIT_AS`, set in that child only) with
  OpenBLAS held to one thread, since each BLAS thread reserves address
  space.  A size that the CLI failed to bound would end there in a
  `MemoryError` traceback, not in an allocation that swaps the machine.
  An input the CLI accepts but that needs more memory than the cap (m =
  `MAX_EVALUATE_SAMPLES` samples to evaluate) is a data error, exit 3.
  So is an evaluate input of more than `MAX_EVALUATE_CELLS` bits (m x w),
  refused before any sample is keyed.
  A header-only input to a pipeline whose line is past every cap encodes
  nothing and exits 0: `encode` allocates nothing before a row keys.
* An output that cannot be written (a full device, as `--output` or as
  stdout, and a pipe whose reader has gone) is a data error, exit 3, for
  `encode`, `evaluate` and `selftest-hash` alike.
* A stderr that cannot be written is no output error: the command writes
  what it writes with a writable stderr and exits with its own code.
* A pipeline whose total n has more digits than the interpreter prints
  (`sys.get_int_max_str_digits()`) is a config error, exit 2.
"""

import csv
import io
import json
import os
import subprocess
import sys
from pathlib import Path

import pytest

from sdrkit import cli, quality
from sdrkit.config import parse_pipeline_config
from sdrkit.errors import ConfigError
from sdrkit.sdr import MAX_DENSE_N

resource = pytest.importorskip("resource")

CAP = 1_500_000_000  # bytes of address space for each child
GOLDEN = Path(__file__).resolve().parent / "data" / "encode"
DIGIT_LIMIT = getattr(sys, "get_int_max_str_digits", lambda: 0)()  # 0: no limit
no_digit_limit = pytest.mark.skipif(not DIGIT_LIMIT, reason="int-to-str has no digit limit")
no_dev_full = pytest.mark.skipif(not os.path.exists("/dev/full"), reason="no /dev/full")

SCALAR = {"encoder": {"type": "scalar", "min": 0, "max": 45, "n": 100, "w": 10},
          "field": "temp"}
WIDEST_RADIUS = 2**31 - 1


def digits_config():
    """Two unbounded parts of the most digits JSON reads, whose total n has
    one digit more."""
    part = {"type": "scalar_unbounded", "resolution": 1, "n": 9 * 10 ** (DIGIT_LIMIT - 1),
            "w": 21}
    return {"encoder": {"type": "multi", "parts": [{"field": "a", "encoder": part},
                                                   {"field": "b", "encoder": part}]},
            "output_format": "sparse"}


def run_cli(args, cap=None, **kwargs):
    """`python -m sdrkit.cli` with ``args`` in a child process, under an
    address-space cap of ``cap`` bytes if one is given."""
    limit = cap and (lambda: resource.setrlimit(resource.RLIMIT_AS, (cap, cap)))
    return subprocess.run([sys.executable, "-m", "sdrkit.cli", *args],
                          env={**os.environ, "OPENBLAS_NUM_THREADS": "1"}, preexec_fn=limit,
                          text=True, timeout=300, **{"stderr": subprocess.PIPE, **kwargs})


def the_error(proc, exit_code, start):
    """Assert that ``proc`` exited with ``exit_code``, printing no traceback
    and one error line, its last, which starts with ``start``."""
    assert proc.returncode == exit_code, proc.stderr
    assert "Traceback" not in proc.stderr
    lines = proc.stderr.splitlines()
    assert [line for line in lines if " error: " in line] == lines[-1:]
    assert lines[-1].startswith(start)


def write_inputs(tmp_path, config, text):
    (tmp_path / "cfg.json").write_text(json.dumps(config), encoding="utf-8")
    (tmp_path / "in.csv").write_text(text, encoding="utf-8")
    return ["--config", str(tmp_path / "cfg.json"), "--input", str(tmp_path / "in.csv")]


# (command, config, CSV text, further arguments, exit code, start of the error line)
HOSTILE = {
    "evaluate-m-past-the-bound": (
        "evaluate", {**SCALAR, "distance": "absolute"},
        "temp\n" + "".join(f"{i % 45}\n" for i in range(quality.MAX_EVALUATE_SAMPLES + 1)), [],
        cli.EXIT_DATA, "data error: the input has more than MAX_EVALUATE_SAMPLES "
                       f"({quality.MAX_EVALUATE_SAMPLES}) samples, which bounds the memory of "
                       "the m x m matrices"),
    # accepted, but its m x m matrices need more than the cap: no traceback either
    "evaluate-m-at-the-bound": (
        "evaluate", {"encoder": {"type": "scalar", "min": 0, "max": 45, "n": 400, "w": 21},
                     "field": "temp", "distance": "absolute"},
        "temp\n" + "".join(f"{i % 45}\n" for i in range(quality.MAX_EVALUATE_SAMPLES)), [],
        cli.EXIT_DATA, "data error: not enough memory: "),
    # 1,000 samples of w = 401**2 bits: a 1.2 GiB bit matrix, refused before any is keyed
    "evaluate-cells-past-the-bound": (
        "evaluate", {"encoder": {"type": "geospatial", "n": 100_000, "radius": 200},
                     "field": ["x", "y"], "distance": "chebyshev"},
        "x,y\n" + "".join(f"{i},{-i}\n" for i in range(1000)), [],
        cli.EXIT_DATA, "data error: the input has 1000 samples of w = 160801 bits, more than "
                       f"MAX_EVALUATE_CELLS ({quality.MAX_EVALUATE_CELLS}) cells"),
    "fixed-radius-2**31-1": (
        "encode", {"encoder": {"type": "geospatial", "n": 2**70, "radius": WIDEST_RADIUS},
                   "field": ["x", "y"], "output_format": "sparse"},
        "x,y\n0,0\n", [], cli.EXIT_DATA, "data error: row 1: "),
    "topw-radius-2**31-1-by-speed": (
        "encode", {"encoder": {"type": "geospatial", "n": 2**70, "radius": 1, "variant": "topw",
                               "w": 9, "speed_scale": 1.0, "radius_max": WIDEST_RADIUS},
                   "field": ["x", "y"], "speed_field": "s", "output_format": "sparse"},
        "x,y,s\n0,0,0\n0,0,1e12\n", [], cli.EXIT_DATA, "data error: row 2: "),
    "dense-n-past-MAX_DENSE_N": (
        "encode", {"encoder": {"type": "scalar_unbounded", "resolution": 1,
                               "n": MAX_DENSE_N + 1, "w": 21}, "field": "temp"},
        "temp\n1\n", ["--format", "dense"], cli.EXIT_CONFIG,
        "config error: dense output takes n <= MAX_DENSE_N"),
    "field-past-the-csv-limit": (
        "encode", SCALAR, "temp\n1\n" + "1" * (csv.field_size_limit() + 1) + "\n", [],
        cli.EXIT_DATA, "data error: row 2: field larger than field limit"),
    "digit-limit": pytest.param(
        "encode", digits_config, "a,b\n1,2\n", [], cli.EXIT_CONFIG,
        "config error: config: the total n has more decimal digits", marks=no_digit_limit),
    "output-to-dev-full": pytest.param(
        "encode", SCALAR, "temp\n1\n", ["--output", "/dev/full"], cli.EXIT_DATA,
        "data error: cannot write output '/dev/full': ", marks=no_dev_full),
}


@pytest.mark.parametrize("command, config, text, more, exit_code, start",
                         list(HOSTILE.values()), ids=list(HOSTILE))
def test_a_hostile_input_under_a_memory_cap(tmp_path, command, config, text, more,
                                            exit_code, start):
    config = config() if callable(config) else config
    proc = run_cli([command, *write_inputs(tmp_path, config, text), *more], cap=CAP,
                   stdout=subprocess.DEVNULL)
    the_error(proc, exit_code, start)


def test_a_header_only_input_past_every_cap_exits_0(tmp_path):
    config = HOSTILE["fixed-radius-2**31-1"][1]
    proc = run_cli(["encode", *write_inputs(tmp_path, config, "x,y\n")], cap=CAP,
                   stdout=subprocess.PIPE)
    assert (proc.returncode, proc.stdout) == (cli.EXIT_OK, ""), proc.stderr
    assert all(line.startswith("warning: ") for line in proc.stderr.splitlines())


ALL_LEAVES = ["encode", "--config", str(GOLDEN / "all_leaves.json"),
              "--input", str(GOLDEN / "all_leaves.csv"), "--format", "dense"]
REPORTS = Path(__file__).resolve().parent / "data" / "evaluate"
# Each command that writes stdout, on golden inputs.
WRITERS = {
    "encode": ALL_LEAVES,
    "evaluate": ["evaluate", "--config", str(REPORTS / "absolute.json"),
                 "--input", str(REPORTS / "absolute.csv")],
    "selftest-hash": ["selftest-hash"],
}


@no_dev_full
@pytest.mark.parametrize("args", list(WRITERS.values()), ids=list(WRITERS))
def test_stdout_on_a_full_device_is_a_data_error(args):
    with open("/dev/full", "w", encoding="utf-8") as full:
        proc = run_cli(args, stdout=full)
    the_error(proc, cli.EXIT_DATA, "data error: cannot write output '-': ")


@pytest.mark.parametrize("args", list(WRITERS.values()), ids=list(WRITERS))
def test_a_closed_pipe_is_a_data_error(args):
    assert (GOLDEN / "all_leaves.dense").stat().st_size >= 64 << 10  # more than a pipe holds
    read_end, write_end = os.pipe()
    os.close(read_end)  # the reader is gone before the first write
    try:
        proc = run_cli(args, stdout=write_end)
    finally:
        os.close(write_end)
    the_error(proc, cli.EXIT_DATA, "data error: cannot write output '-': ")


@no_dev_full
def test_evaluate_with_stderr_on_a_full_device_writes_its_report():
    with open("/dev/full", "w", encoding="utf-8") as full:
        proc = run_cli(WRITERS["evaluate"], stdout=subprocess.PIPE, stderr=full)
    assert proc.returncode == cli.EXIT_OK  # not 1, nor the exit flush's 120
    assert proc.stdout == (REPORTS / "absolute.stdout").read_text(encoding="utf-8")


@no_dev_full
def test_encode_with_stderr_on_a_full_device_writes_its_output(tmp_path):
    out = tmp_path / "out.dense"
    with open("/dev/full", "w", encoding="utf-8") as full:  # the config warns first
        proc = run_cli([*ALL_LEAVES, "--output", str(out)], stdout=subprocess.PIPE, stderr=full)
    assert proc.returncode == cli.EXIT_OK and proc.stdout == ""
    assert out.read_bytes() == (GOLDEN / "all_leaves.dense").read_bytes()


@no_dev_full
def test_a_data_error_with_stderr_on_a_full_device_keeps_its_exit_code(tmp_path):
    args = write_inputs(tmp_path, SCALAR, "temp\n1\nwarm\n")
    with open("/dev/full", "w", encoding="utf-8") as full:
        proc = run_cli(["encode", *args, "--format", "sparse"], stdout=subprocess.PIPE,
                       stderr=full)
    assert proc.returncode == cli.EXIT_DATA
    assert proc.stdout.count("\n") == 1  # row 1, before the failing row 2


@pytest.mark.parametrize("error, words", [
    (MemoryError("Unable to allocate 763. MiB"), "Unable to allocate 763. MiB"),
    (MemoryError(), "an allocation failed"),  # the interpreter's own has no message
])
def test_a_memory_error_is_a_data_error(error, words):
    def run():
        raise error

    stderr = io.StringIO()
    assert cli._reported(run, stderr) == cli.EXIT_DATA
    assert stderr.getvalue() == f"data error: not enough memory: {words}\n"


@no_digit_limit
def test_a_total_n_past_the_digit_limit_is_a_config_error():
    with pytest.raises(ConfigError, match=r"get_int_max_str_digits\(\) \(\d+\) allows$"):
        parse_pipeline_config(digits_config())
