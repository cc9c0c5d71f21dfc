"""sdrkit benchmark: seeded inputs through the real `sdrkit` CLI.

    python3 bench/run.py --workload encode-tabular --seed 0 --seconds 20 --trace 0
    python3 bench/run.py --workload all            # every workload, one table

Run from the root of an sdrkit checkout; the program is the checkout's
`src/sdrkit`, run as `python3 -m sdrkit.cli` in fresh processes.  Scratch
files go to `.bench_work/`, result files to `.bench_out/`.  The last line
of standard output is one JSON object: `correct`, `attempted`, `failed` and
`metrics` (the end-to-end metrics with `--trace 0`, the per-layer ones with
`--trace 1`).  See bench/README.md for what each metric means and which
layer metric should move which end-to-end metric on which workload.
"""

from __future__ import annotations

import argparse
import json
import os
import shutil
import statistics
import subprocess
import sys
import time

BENCH_DIR = os.path.dirname(os.path.abspath(__file__))
sys.path.insert(0, BENCH_DIR)

import harness  # noqa: E402
import workloads as wl  # noqa: E402

with open(os.path.join(os.path.dirname(BENCH_DIR), "BENCHMARK.json"), encoding="utf-8") as _f:
    _CONTRACT = json.load(_f)
END_TO_END = {m["name"]: m["unit"] for m in _CONTRACT["end_to_end"]}
PER_LAYER = {m["name"]: m["unit"] for m in _CONTRACT["per_layer"]}

MIN_INVOCATIONS = 3
DIGESTS = os.path.join(BENCH_DIR, "digests.json")
HELPER_TIMEOUT_S = 170


class Context:
    """Paths and environment shared by every measurement in one run."""

    def __init__(self, root: str):
        self.root = root
        self.env = dict(os.environ)
        self.env["PYTHONPATH"] = os.pathsep.join(
            p for p in (os.path.join(root, "src"), os.environ.get("PYTHONPATH")) if p)
        self.out_dir = os.path.join(root, ".bench_out")
        os.makedirs(self.out_dir, exist_ok=True)
        with open(DIGESTS, encoding="utf-8") as f:
            self.digests = json.load(f)

    def helper(self, *args: str) -> dict:
        """Run a bench/inproc.py task and return its JSON result."""
        out = os.path.join(self.out_dir, "helper-result.json")
        subprocess.run([sys.executable, os.path.join(BENCH_DIR, "inproc.py"), *args, out],
                       env=self.env, check=True, timeout=HELPER_TIMEOUT_S)
        with open(out, encoding="utf-8") as f:
            return json.load(f)


class Prepared:
    """One workload's generated inputs, scratch files and CLI arguments."""

    def __init__(self, ctx: Context, workload: wl.Workload, seed: int):
        self.workload = workload
        self.seed = seed
        self.work = os.path.join(ctx.root, ".bench_work", f"{workload.name}-seed{seed}")
        self.inputs = wl.generate(workload, seed, self.work)
        self.rows = len(self.inputs.rows)
        self.operations = self.rows if workload.command == "encode" else 1
        with open(os.path.join(self.work, "input.csv"), "wb") as f:
            f.write(self.inputs.data)
        self.fifo = harness.make_fifo(os.path.join(self.work, "input.fifo"))
        self.output = os.path.join(self.work, "output.txt")
        self.stdout = os.path.join(self.work, "stdout.txt")
        self.stderr = os.path.join(self.work, "stderr.txt")
        self.recorded = ctx.digests.get(workload.name, {}).get(str(seed))

    def cli_args(self) -> list[str]:
        return wl.cli_args(self.workload, self.inputs.config_path, self.fifo,
                           self.output, self.seed)

    def result(self) -> bytes:
        """The last command's output: the encode output file or evaluate's stdout."""
        path = self.output if self.workload.command == "encode" else self.stdout
        with open(path, "rb") as f:
            return f.read()


def failed_operations(prep: Prepared, exit_code: int, output: bytes,
                      reference: bytes | None) -> int:
    """Failed operations in one command's output: rows for encode, the
    report for evaluate.  A nonzero exit fails every operation; so does a
    digest that differs from the one recorded for this seed."""
    if exit_code != 0:
        return prep.operations
    if prep.recorded is not None and harness.sha256_bytes(output) != prep.recorded:
        return prep.operations
    if reference is None or output == reference:
        return 0
    if prep.workload.command != "encode":
        return 1
    got, want = output.split(b"\n"), reference.split(b"\n")
    mismatched = sum(a != b for a, b in zip(got, want)) + abs(len(got) - len(want))
    return min(prep.operations, mismatched)


# --- untraced run: end-to-end metrics ------------------------------------

def cli_argv(prep: Prepared) -> list[str]:
    return [sys.executable, "-m", "sdrkit.cli", *prep.cli_args()]


def invoke(ctx: Context, prep: Prepared, argv: list[str],
           header_only: bool = False) -> harness.ProcessTiming:
    data = prep.inputs.data
    if header_only:
        data = data[:data.index(b"\n") + 1]
    return harness.run_timed(argv, ctx.env, prep.fifo, data, prep.stdout, prep.stderr)


def reference(ctx: Context, prep: Prepared) -> tuple[dict, bytes]:
    """Input properties, row latency and the expected output, from the helper."""
    result = ctx.helper("reference", prep.workload.name, str(prep.seed), prep.work)
    with open(os.path.join(prep.work, "reference.txt"), "rb") as f:
        return result, f.read()


def measure_end_to_end(ctx: Context, prep: Prepared, seconds: float) -> dict:
    ref, expected = reference(ctx, prep)  # also fills bytecode and page caches
    samples = []
    setups = []  # from commands fed only the CSV header: set-up alone, no operation
    attempted = failed = 0
    started = time.perf_counter()
    # Start another command only if it is likely to end within `seconds`.
    while (len(samples) < MIN_INVOCATIONS
           or (time.perf_counter() - started) * (len(samples) + 1) / len(samples) <= seconds):
        timing = invoke(ctx, prep, cli_argv(prep))
        output = prep.result()
        setups.append(invoke(ctx, prep, cli_argv(prep), header_only=True).setup_s)
        bad = failed_operations(prep, timing.exit_code, output, expected)
        attempted += prep.operations
        failed += bad
        samples.append({
            "setup_s": timing.setup_s,
            "command_s": timing.command_s,
            "rows_per_s": prep.rows / timing.command_s if timing.command_s else 0.0,
            **vars(timing),
            "failed": bad,
            "sha256": harness.sha256_bytes(output),
        })
    metrics = {name: statistics.median([s[name] for s in samples])
               for name in ("command_s", "rows_per_s", "peak_rss_mb")}
    metrics["setup_s"] = statistics.median([s["setup_s"] for s in samples] + setups)
    metrics["row_p50_us"] = ref["row_p50_us"]
    return {"metrics": metrics, "row_p99_us": ref["row_p99_us"],
            "attempted": attempted, "failed": failed,
            "runs": len(samples), "header_only_setup_s": setups,
            "input_properties": ref["input_properties"],
            "latency_samples": ref["latency_samples"], "invocations": samples}


# --- traced run: per-layer metrics ----------------------------------------

def layer_metrics(summary: dict, prep: Prepared, output_bytes: int,
                  timing: harness.ProcessTiming) -> dict:
    """Per-layer metrics of one traced command; None where the workload
    does not exercise the layer.  Times are normalised by the probes taken
    while the traced command ran."""
    factor, setup_factor = timing.command_factor, timing.setup_factor
    calls, total, self_s = summary["calls"], summary["total_s"], summary["self_s"]
    counts, child = summary["counts"], summary["child_s"]
    rows = prep.rows
    pairs = rows * (rows - 1) / 2

    def per_call_us(name):
        return total[name] / calls[name] * 1e6 * factor if calls.get(name) else None

    def per_field_us(name):  # field encoders not inside another field encoder
        field_calls = summary["field_calls"]
        return (summary["field_s"][name] / field_calls[name] * 1e6 * factor
                if field_calls.get(name) else None)

    def seconds(name):
        return total[name] * factor if calls.get(name) else None

    hashing_self = sum(v for k, v in self_s.items() if k.startswith("hashing."))
    quality_encode = sum(v for k, v in child.items()
                         if k.startswith("quality.consistency>") and k.endswith(".encode"))
    topw_hashed = counts.get("geospatial.topw.hashed", 0)
    evaluate = prep.workload.command == "evaluate"
    return {
        "hashing.mix64_calls_per_row": counts.get("hashing.mix64", 0) / rows or None,
        "hashing.self_s": hashing_self * factor or None,
        "sdr.constructions_per_row": calls.get("sdr.construct", 0) / rows or None,
        "sdr.construct_self_s": self_s.get("sdr.construct", 0) * factor or None,
        "scalars.scalar.encode_us": per_field_us("scalars.scalar.encode"),
        "scalars.delta.encode_us": per_field_us("scalars.delta.encode"),
        "scalars.unbounded.encode_us": per_field_us("scalars.unbounded.encode"),
        "categories.category.encode_us": per_field_us("categories.category.encode"),
        "composite.datetime.encode_us": per_field_us("composite.datetime.encode"),
        "composite.concat_us": per_call_us("composite.concat"),
        "composite.multi_encode_us": per_call_us("composite.multi.encode"),
        "geospatial.fixed.encode_us": per_field_us("geospatial.fixed.encode"),
        "geospatial.topw.encode_us": per_field_us("geospatial.topw.encode"),
        "geospatial.cells_hashed_per_row":
            calls.get("hashing.coordinate_hash", 0) / rows or None,
        "geospatial.kept_per_hashed":
            counts["geospatial.topw.kept"] / topw_hashed if topw_hashed else None,
        "config.parse_s":
            total["config.parse"] * setup_factor if calls.get("config.parse") else None,
        "config.row_to_record_us":
            total["config.row_to_record"] / rows * 1e6 * factor
            if calls.get("config.row_to_record") else None,
        "cli.import_s": summary["import_s"] * setup_factor,
        "cli.format_us": per_call_us("cli.format"),
        "cli.self_us_per_row": self_s.get("cli.command", 0) / rows * 1e6 * factor or None,
        "cli.output_bytes_per_row": output_bytes / rows,
        "quality.axioms_s": seconds("quality.axioms"),
        "quality.consistency_s": seconds("quality.consistency"),
        "quality.spearman_s": seconds("quality.spearman"),
        "quality.encode_s": quality_encode * factor if evaluate and quality_encode else None,
        "quality.distance_calls_per_pair":
            calls["quality.distance"] / pairs if evaluate and calls.get("quality.distance") else None,
        "quality.distance_s": seconds("quality.distance"),
    }


def traced_pass(ctx: Context, prep: Prepared, expected: bytes | None) -> dict:
    """One traced command, checked against one untraced command (tracing
    must change no output bit) and, when given, the expected output."""
    untraced = invoke(ctx, prep, cli_argv(prep))
    untraced_output = prep.result()
    summary_path = os.path.join(prep.work, "trace-summary.json")
    spans_path = os.path.join(prep.work, "trace-spans.npz")
    argv = [sys.executable, os.path.join(BENCH_DIR, "trace_child.py"),
            summary_path, spans_path, "--", *prep.cli_args()]
    traced = invoke(ctx, prep, argv)
    traced_output = prep.result()
    if traced.exit_code != 0:
        with open(prep.stderr, encoding="utf-8", errors="replace") as f:
            raise RuntimeError(f"traced {prep.workload.name} exited {traced.exit_code}: "
                               + f.read()[-2000:])
    failed = failed_operations(prep, untraced.exit_code, untraced_output, expected)
    failed += failed_operations(prep, traced.exit_code, traced_output, untraced_output)
    with open(summary_path, encoding="utf-8") as f:
        summary = json.load(f)

    def e2e(timing):
        return {"setup_s": timing.setup_s, "command_s": timing.command_s,
                "rows_per_s": prep.rows / timing.command_s,
                "peak_rss_mb": timing.peak_rss_mb}

    plain, with_trace = e2e(untraced), e2e(traced)
    return {
        "layers": layer_metrics(summary, prep, len(traced_output), traced),
        "attempted": 2 * prep.operations,
        "failed": failed,
        "output_sha256": {"untraced": harness.sha256_bytes(untraced_output),
                          "traced": harness.sha256_bytes(traced_output)},
        "overhead": {k: plain[k] - with_trace[k] for k in plain},
        "untraced": plain,
        "traced": with_trace,
        "spans": summary["spans"],
        "counts": summary["counts"],
        "calls": summary["calls"],
    }


def trace_workloads(ctx: Context, seed: int, first: list[str]) -> tuple[dict, dict]:
    """One checked traced pass of every workload, those in ``first`` first,
    and the microbenchmarks.  Every workload's outputs are checked against
    its own reference, whichever workload the metrics are reported for."""
    passes = {}
    for name in [*first, *(n for n in wl.WORKLOADS if n not in first)]:
        prep = Prepared(ctx, wl.WORKLOADS[name], seed)
        ref, expected = reference(ctx, prep)
        passes[name] = {**traced_pass(ctx, prep, expected), "reference": ref}
    return passes, ctx.helper("micro", str(seed))


def measure_layers(name: str, passes: dict, micro: dict) -> dict:
    """Per-layer metrics for workload ``name``.  Each comes from that
    workload's pass when it exercises the layer, else from the first pass
    (in declared order) that does."""
    order = [name, *(n for n in wl.WORKLOADS if n != name)]
    ref = passes[name]["reference"]
    metrics = {"row_p99_us": ref["row_p99_us"]}
    source = {"row_p99_us": name}
    for metric in PER_LAYER:
        if metric in metrics:
            continue
        for borrowed in order:
            value = passes[borrowed]["layers"].get(metric)
            if value is not None:
                metrics[metric], source[metric] = value, borrowed
                break
        else:  # the program no longer has this boundary; reported, not hidden
            metrics[metric], source[metric] = 0.0, "not exercised"
    for metric, value in micro["metrics"].items():
        metrics[metric], source[metric] = value, "microbenchmark"
    return {
        "metrics": metrics,
        "source": source,
        "microbenchmark_raw_ns": micro["raw"],
        "attempted": sum(p["attempted"] for p in passes.values()),
        "failed": sum(p["failed"] for p in passes.values()),
        "runs": len(passes),
        "input_properties": ref["input_properties"],
        "passes": passes,
    }


# --- reporting ------------------------------------------------------------

def save_and_report(ctx: Context, name: str, seed: int, trace: bool, result: dict) -> dict:
    record = {
        "workload": name,
        "trace": int(trace),
        "machine": harness.machine_record(ctx.root, seed, result["runs"]),
        "recorded_digest": ctx.digests.get(name, {}).get(str(seed)),
        **result,
    }
    path = os.path.join(ctx.out_dir, f"{name}-seed{seed}-trace{int(trace)}.json")
    with open(path, "w", encoding="utf-8") as f:
        json.dump(record, f, indent=1, sort_keys=True)
    print_report(record, PER_LAYER if trace else END_TO_END, path)
    return record


def print_report(record: dict, units: dict, path: str) -> None:
    name = record["workload"]
    metrics = record["metrics"]
    error_rate = record["failed"] / record["attempted"]
    print(f"== {name} (seed {record['machine']['seed']}, "
          f"{'traced' if record['trace'] else 'untraced'}, {record['machine']['runs']} runs)")
    for key, value in record["input_properties"].items():
        print(f"  input {key:<40} {value}")
    for metric, unit in units.items():
        source = record.get("source", {}).get(metric)
        note = f"  [{source}]" if source and source != name else ""
        print(f"  {metric:<40} {metrics[metric]:>14.6g} {unit}{note}")
    if not record["trace"]:
        print(f"  {'row_p99_us (a per-layer metric)':<40} {record['row_p99_us']:>14.6g} us")
        if wl.WORKLOADS[name].command == "evaluate":
            print(f"  {'eval_s (= command_s)':<40} {metrics['command_s']:>14.6g} s")
    print(f"  {'error_rate':<40} {error_rate:>14.6g} fraction "
          f"({record['failed']}/{record['attempted']})")
    if record["trace"]:
        own = record["passes"][name]
        for key, value in own["overhead"].items():
            print(f"  tracing overhead {key:<23} {value:>14.6g} (untraced - traced)")
    print(f"  result file: {os.path.relpath(path, os.getcwd())}")


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload", default="all", choices=[*wl.WORKLOADS, "all"])
    parser.add_argument("--seed", type=int, default=0)
    parser.add_argument("--seconds", type=float, default=20)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)

    root = os.getcwd()
    if not os.path.isfile(os.path.join(root, "src", "sdrkit", "cli.py")):
        print("error: run from the root of an sdrkit checkout (src/sdrkit/cli.py "
              "not found)", file=sys.stderr)
        return 2
    harness.pin_to_one_cpu()
    shutil.rmtree(os.path.join(root, ".bench_work"), ignore_errors=True)  # earlier runs' files
    ctx = Context(root)

    names = list(wl.WORKLOADS) if args.workload == "all" else [args.workload]
    trace = bool(args.trace)
    if trace:
        passes, micro = trace_workloads(ctx, args.seed, names)
        results = {n: measure_layers(n, passes, micro) for n in names}
        attempted = sum(p["attempted"] for p in passes.values())
        failed = sum(p["failed"] for p in passes.values())
    else:
        results = {n: measure_end_to_end(ctx, Prepared(ctx, wl.WORKLOADS[n], args.seed),
                                          args.seconds) for n in names}
        attempted = sum(r["attempted"] for r in results.values())
        failed = sum(r["failed"] for r in results.values())
    records = [save_and_report(ctx, n, args.seed, trace, r) for n, r in results.items()]
    units = PER_LAYER if trace else END_TO_END

    def entry(metric, value):
        return {"value": value, "unit": units[metric]}

    if len(records) == 1:
        metrics = {m: entry(m, records[0]["metrics"][m]) for m in units}
    else:
        metrics = {f"{r['workload']}/{m}": entry(m, r["metrics"][m])
                   for r in records for m in units}
    print(json.dumps({"correct": failed == 0,
                      "attempted": attempted,
                      "failed": failed,
                      "metrics": metrics}))
    return 0


if __name__ == "__main__":
    sys.exit(main())
