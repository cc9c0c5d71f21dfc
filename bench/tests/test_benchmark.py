"""The benchmark's own tests: deterministic inputs, output verification and
tracing that changes no output bit.

    python3 -m pytest bench/tests
"""

from __future__ import annotations

import hashlib
import json
import os
import subprocess
import sys
from types import SimpleNamespace

import pytest

BENCH = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))
ROOT = os.path.dirname(BENCH)
sys.path[:0] = [BENCH, os.path.join(ROOT, "src")]

import inproc  # noqa: E402
import run as bench  # noqa: E402
import workloads as wl  # noqa: E402

# Small inputs keep each traced command to about a second.
SMALL_ROWS = {"encode-tabular": 300, "encode-geo": 60,
              "evaluate-scalar": 40, "evaluate-geo-expr": 40}


def test_generator_is_deterministic_per_seed(tmp_path):
    for workload in wl.WORKLOADS.values():
        first = wl.generate(workload, 3, str(tmp_path / "a"))
        again = wl.generate(workload, 3, str(tmp_path / "b"))
        other = wl.generate(workload, 4, str(tmp_path / "c"))
        assert first.data == again.data
        assert first.data != other.data
        assert wl.input_properties(first) == wl.input_properties(again)


def _small_inputs(tmp_path, name: str, seed: int = 0) -> tuple[list[str], str]:
    """Write a small input of ``name``; return its CLI args and output path."""
    workload = wl.WORKLOADS[name]
    header, rows = workload.rows(seed, SMALL_ROWS[name])
    csv_path = tmp_path / "input.csv"
    csv_path.write_bytes(wl.csv_bytes(header, rows))
    config_path = tmp_path / "config.json"
    config_path.write_text(json.dumps(workload.config()))
    output = str(tmp_path / "output.txt")
    return wl.cli_args(workload, str(config_path), str(csv_path), output, seed), output


def _run(argv: list[str], stdout_path: str) -> None:
    env = dict(os.environ, PYTHONPATH=os.path.join(ROOT, "src"))
    with open(stdout_path, "wb") as out:
        subprocess.run(argv, env=env, stdout=out, check=True, timeout=120)


def _result(name: str, output: str, stdout: str) -> bytes:
    path = output if wl.WORKLOADS[name].command == "encode" else stdout
    with open(path, "rb") as f:
        return f.read()


def test_verification_rejects_one_flipped_bit(tmp_path):
    from sdrkit.config import parse_pipeline_config

    for name in ("encode-geo", "encode-tabular"):
        workload = wl.WORKLOADS[name]
        header, rows = workload.rows(0, 50)
        cfg = parse_pipeline_config(workload.config())
        sdrs = [cfg.encode_row(dict(zip(header, r))) for r in rows]
        expected = inproc.encode_reference(sdrs, cfg.output_format)
        prep = SimpleNamespace(operations=len(rows), recorded=None,
                               workload=workload)
        assert bench.failed_operations(prep, 0, expected, expected) == 0

        lines = expected.split(b"\n")
        line = lines[10]
        if cfg.output_format == "dense":
            flipped = line[:5] + (b"1" if line[5:6] == b"0" else b"0") + line[6:]
        else:  # move the first one-bit by one position
            first, _, rest = line.partition(b",")
            flipped = str(int(first) ^ 1).encode() + b"," + rest
        corrupted = b"\n".join(lines[:10] + [flipped] + lines[11:])
        assert bench.failed_operations(prep, 0, corrupted, expected) == 1
        assert bench.failed_operations(prep, 3, expected, expected) == len(rows)

        pinned = SimpleNamespace(operations=len(rows), workload=workload,
                                 recorded=hashlib.sha256(expected).hexdigest())
        assert bench.failed_operations(pinned, 0, expected, None) == 0
        assert bench.failed_operations(pinned, 0, corrupted, None) == len(rows)


def _traced(tmp_path, name: str, run_id: str, args: list[str]) -> dict:
    summary = str(tmp_path / f"summary-{run_id}.json")
    _run([sys.executable, os.path.join(BENCH, "trace_child.py"), summary,
          str(tmp_path / f"spans-{run_id}.npz"), "--", *args],
         str(tmp_path / f"stdout-{run_id}.txt"))
    with open(summary, encoding="utf-8") as f:
        return json.load(f)


@pytest.mark.parametrize("name", list(wl.WORKLOADS))
def test_tracing_changes_no_bit_and_counts_repeat(tmp_path, name):
    args, output = _small_inputs(tmp_path, name)
    plain_stdout = str(tmp_path / "stdout-plain.txt")
    _run([sys.executable, "-m", "sdrkit.cli", *args], plain_stdout)
    plain = _result(name, output, plain_stdout)

    first = _traced(tmp_path, name, "1", args)
    assert _result(name, output, str(tmp_path / "stdout-1.txt")) == plain
    second = _traced(tmp_path, name, "2", args)
    assert _result(name, output, str(tmp_path / "stdout-2.txt")) == plain

    assert first["exit_code"] == 0
    assert first["calls"] == second["calls"]
    assert first["counts"] == second["counts"]
    assert first["spans"] == second["spans"] > 0
