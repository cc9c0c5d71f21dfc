"""In-process measurements, run as a helper process so that the process
which spawns the timed commands stays small.

    python3 bench/inproc.py reference WORKLOAD SEED WORK_DIR RESULT.json
    python3 bench/inproc.py micro SEED RESULT.json

`reference` writes the workload's input properties, the per-record latency
of what the command does per CSV row (encode: `PipelineConfig.encode_row`;
evaluate: the sample's value, then its encoding), and the expected command
output (encode:
`encode_row` + `to_*_string` for every row; evaluate: the report from
`cmd_evaluate` in this process) to WORK_DIR/reference.txt.  `micro` runs the
isolated layer microbenchmarks.

Why a separate process: Linux reports a child's peak RSS as at least the
RSS of the process that spawned it, so the spawner must not hold sdrkit,
scipy or the latency samples.
"""

from __future__ import annotations

import io
import json
import os
import sys
import time

import harness
import workloads as wl

PROBE_EVERY_NS = 50_000_000  # about 50 ms of timed rows between two speed probes
MIN_LATENCY_SAMPLES = 5_000
MIN_LATENCY_BUSY_NS = 1_000_000_000  # cheap rows get more passes


def record_path(cfg, command: str):
    """The command's work on one CSV row: `encode_row` for encode; for
    evaluate, `value_from_row` then the encoder's `encode`, the two calls
    `cmd_evaluate` makes per sample."""
    if command == "encode":
        return cfg.encode_row
    binding = cfg.bound[0]
    value_from_row, encode = binding.value_from_row, binding.encoder.encode
    return lambda row: encode(value_from_row(row))


def row_latencies(raw_config: dict, command: str, rows: list[dict]):
    """Normalised per-record latency of `record_path` in microseconds, and
    the SDRs of the first pass.  Passes over the rows repeat until there
    are MIN_LATENCY_SAMPLES samples and MIN_LATENCY_BUSY_NS of timed work.
    Each pass parses the config afresh, so a delta encoder starts from the
    same state as in the CLI."""
    from sdrkit.config import parse_pipeline_config

    clock = time.perf_counter_ns
    latencies: list[float] = []
    sdrs = []
    busy_total = 0
    k = 0
    speed = harness.Speed()
    while len(latencies) < MIN_LATENCY_SAMPLES or busy_total < MIN_LATENCY_BUSY_NS:
        cfg = parse_pipeline_config(raw_config)
        per_row = record_path(cfg, command)
        chunk: list[int] = []
        busy_ns = 0
        for i, row in enumerate(rows):
            t0 = clock()
            sdr = per_row(row)
            elapsed = clock() - t0
            chunk.append(elapsed)
            busy_ns += elapsed
            if k == 0:
                sdrs.append(sdr)
            if busy_ns >= PROBE_EVERY_NS or i == len(rows) - 1:
                factor = speed.factor() / 1000
                latencies.extend(ns * factor for ns in chunk)
                busy_total += busy_ns
                chunk, busy_ns = [], 0
        k += 1
    return latencies, sdrs, cfg.output_format


def encode_reference(sdrs, output_format: str) -> bytes:
    from sdrkit.sdr import to_dense_string, to_sparse_string

    if output_format == "dense":
        lines = [to_dense_string(s) for s in sdrs]
    elif output_format == "sparse":
        lines = [to_sparse_string(s) for s in sdrs]
    else:
        lines = [to_sparse_string(s, self_describing=True) for s in sdrs]
    return "".join(line + "\n" for line in lines).encode()


def evaluate_reference(cli_args: list[str]) -> bytes:
    from sdrkit import cli

    out = io.StringIO()
    args = cli.build_parser().parse_args(cli_args)
    with open(os.devnull, "w", encoding="utf-8") as devnull:
        code = cli.cmd_evaluate(args, stdout=out, stderr=devnull)
    if code != cli.EXIT_OK:
        raise RuntimeError(f"in-process evaluate exited {code}")
    return out.getvalue().encode()


def reference(name: str, seed: int, work: str) -> dict:
    workload = wl.WORKLOADS[name]
    inputs = wl.generate(workload, seed, work)
    rows = [dict(zip(inputs.header, r)) for r in inputs.rows]
    latencies, sdrs, output_format = row_latencies(workload.config(), workload.command, rows)
    if workload.command == "encode":
        expected = encode_reference(sdrs, output_format)
    else:
        csv_path = os.path.join(work, "input.csv")
        expected = evaluate_reference(wl.cli_args(workload, inputs.config_path, csv_path, "", seed))
    with open(os.path.join(work, "reference.txt"), "wb") as f:
        f.write(expected)
    latencies.sort()
    return {
        "input_properties": wl.input_properties(inputs),
        "latency_samples": len(latencies),
        "row_p50_us": harness.percentile(latencies, 0.50),
        "row_p99_us": harness.percentile(latencies, 0.99),
    }


def main(argv: list[str]) -> int:
    task, *args = argv
    if task == "reference":
        name, seed, work, out = args
        result = reference(name, int(seed), work)
    elif task == "micro":
        import micro

        seed, out = args
        result = micro.run(int(seed))
    else:
        raise SystemExit(f"unknown task {task!r}")
    with open(out, "w", encoding="utf-8") as f:
        json.dump(result, f)
    return 0


if __name__ == "__main__":
    sys.exit(main(sys.argv[1:]))
