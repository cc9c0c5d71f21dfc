"""Command-line interface.

    sdrkit encode   --config cfg.json [--input in.csv] [--output out.txt]
                    [--format dense|sparse|sparse-n]
    sdrkit evaluate --config cfg.json --input in.csv [--quadruples N] [--seed S]
    sdrkit selftest-hash

`encode` streams CSV rows (header required, fields bound by name) to one
output line per row; memory use is independent of row count.  Dense output
of more than `sdr.MAX_DENSE_N` bits per line is a config error (exit 2).
Every column the config references must appear exactly once in the header:
a missing or repeated name is a config error (exit 2), and a row whose field
count differs from the header's is a data error (exit 3), for `encode` and
`evaluate` alike.
Validation warnings go to stderr so stdout stays machine-parseable.
`evaluate` checks the configured distance's axioms and the encoder's
overlap-vs-distance consistency on the input column; `--quadruples` must be
a non-negative integer (a usage error, exit 2, otherwise).  `selftest-hash` prints
the deterministic hash golden vectors for cross-platform verification.

Exit codes: 0 ok, 2 config error, 3 data error, 4 distance-axiom violation.
"""

from __future__ import annotations

import argparse
import csv
import json
import sys
import time
from contextlib import nullcontext

from .config import OUTPUT_FORMATS, parse_pipeline_config
from .errors import ConfigError, InputError, SdrError
from .hashing import coordinate_hash, mix64
from .quality import evaluate_encoder
from .sdr import MAX_DENSE_N, SDR, to_dense_string, to_sparse_string

EXIT_OK = 0
EXIT_CONFIG = 2
EXIT_DATA = 3
EXIT_AXIOM = 4

# Inputs for the printed hash vectors; arbitrary but frozen, spanning the
# signed 32-bit corners and both hash output streams.
SELFTEST_MIX64_INPUTS = (
    0, 1, 2, 3, 42, 0xDEADBEEF, 0x123456789ABCDEF0, (1 << 64) - 1,
)
SELFTEST_COORD_CASES = (
    (5, 10, 0, 100),
    (0, 0, 0, 100),
    (-1, -1, 0, 100),
    (3, 8, 42, 1000),
    (7, 12, 42, 1000),
    (-2147483648, 2147483647, 0, 2048),
    (2147483647, -2147483648, 987654321, 2048),
    (1000, -1000, 0xDEADBEEF, 542),
    (123, 456, 1, 100),
    (-5, 10, 0, 100),
    (5, -10, 0, 100),
    (0, 1, 0, 2),
)


def _load_config(path: str):
    try:
        with open(path, "r", encoding="utf-8") as f:
            raw = json.load(f)
    except OSError as exc:
        raise ConfigError(f"cannot read config {path!r}: {exc}") from exc
    except ValueError as exc:  # also bad UTF-8, and integers past int()'s digit limit
        raise ConfigError(f"config {path!r} is not valid JSON: {exc}") from exc
    return parse_pipeline_config(raw)


def _emit_warnings(cfg, stderr) -> None:
    for message in cfg.warnings:
        print(f"warning: {message}", file=stderr)


def _format_line(sdr: SDR, fmt: str) -> str:
    if fmt == "dense":
        return to_dense_string(sdr)
    if fmt == "sparse":
        return to_sparse_string(sdr)
    return to_sparse_string(sdr, self_describing=True)


def _open_input(path):
    if path in (None, "-"):
        return nullcontext(sys.stdin)
    return open(path, "r", encoding="utf-8", newline="")


def _open_output(path):
    if path in (None, "-"):
        return nullcontext(sys.stdout)
    return open(path, "w", encoding="utf-8")


def _each_row(fin, cfg, per_row, stderr) -> int:
    """Call ``per_row`` with each CSV data row as a {column: text} mapping,
    in order; return the exit code.  A missing or repeated column in the
    header is a config error; an empty input, a row whose field count
    differs from the header's, or an SdrError from ``per_row`` is a data
    error naming the row (rows count from 1 after the header)."""
    reader = csv.reader(fin, delimiter=cfg.delimiter)
    header = next(reader, None)
    if header is None:
        print("data error: input is empty; a header row is required", file=stderr)
        return EXIT_DATA
    missing = [c for c in cfg.referenced_columns if c not in header]
    duplicated = [c for c in dict.fromkeys(cfg.referenced_columns) if header.count(c) > 1]
    if missing or duplicated:
        problem = (f"{missing} not present in" if missing
                   else f"{duplicated} appear more than once in")
        print(f"config error: field(s) {problem} the CSV header {header}", file=stderr)
        return EXIT_CONFIG
    for row_number, row in enumerate(reader, start=1):
        try:
            if len(row) != len(header):
                raise InputError(
                    f"expected {len(header)} fields per the header, got {len(row)}"
                )
            per_row(dict(zip(header, row)))
        except SdrError as exc:
            print(f"data error: row {row_number}: {exc}", file=stderr)
            return EXIT_DATA
    return EXIT_OK


def cmd_encode(args, stderr=None) -> int:
    stderr = stderr or sys.stderr
    try:
        cfg = _load_config(args.config)
        fmt = args.format or cfg.output_format  # argparse and the config check each
        if fmt == "dense" and cfg.multi.n > MAX_DENSE_N:
            raise ConfigError(f"dense output takes n <= MAX_DENSE_N ({MAX_DENSE_N}), "
                              f"got n={cfg.multi.n}; use a sparse format")
    except ConfigError as exc:
        print(f"config error: {exc}", file=stderr)
        return EXIT_CONFIG
    _emit_warnings(cfg, stderr)

    with _open_input(args.input) as fin, _open_output(args.output) as fout:
        def write_line(row):
            fout.write(_format_line(cfg.encode_row(row), fmt))
            fout.write("\n")

        code = _each_row(fin, cfg, write_line, stderr)
        fout.flush()  # on a data error too: keep everything encoded so far
    return code


def cmd_evaluate(args, stdout=None, stderr=None) -> int:
    stdout = stdout or sys.stdout
    stderr = stderr or sys.stderr
    try:
        cfg = _load_config(args.config)
        if cfg.spec["encoder"]["type"] == "multi":
            raise ConfigError("evaluate requires a config with exactly one encoder")
        if cfg.distance is None:
            raise ConfigError("evaluate requires a 'distance' in the config")
    except ConfigError as exc:
        print(f"config error: {exc}", file=stderr)
        return EXIT_CONFIG
    _emit_warnings(cfg, stderr)

    binding = cfg.bound[0]
    samples = []
    started = time.perf_counter()
    with _open_input(args.input) as fin:
        code = _each_row(fin, cfg, lambda row: samples.append(binding.value_from_row(row)),
                         stderr)
    if code != EXIT_OK:
        return code

    try:
        report = evaluate_encoder(
            binding.encoder.encode, cfg.distance, samples,
            quadruple_count=args.quadruples, seed=args.seed,
        )
    except SdrError as exc:
        print(f"data error: {exc}", file=stderr)
        return EXIT_DATA
    elapsed = time.perf_counter() - started

    print("# encoder evaluation", file=stdout)
    print(f"config: {json.dumps(cfg.spec, sort_keys=True)}", file=stdout)
    print(f"quadruple_seed: {args.seed}", file=stdout)
    print(report.to_text(), file=stdout)
    # timing is run-dependent; keep it out of the reproducible report stream
    print(f"elapsed_seconds: {elapsed:.3f}", file=stderr)

    if report.total_axiom_violations > 0:
        return EXIT_AXIOM
    return EXIT_OK


def cmd_selftest_hash(args, stdout=None) -> int:
    stdout = stdout or sys.stdout
    print("# mix64 input,output", file=stdout)
    for k in SELFTEST_MIX64_INPUTS:
        print(f"{k},{mix64(k)}", file=stdout)
    print("# coordinate_hash x,y,seed,n,bit_index,order_key", file=stdout)
    for x, y, seed, n in SELFTEST_COORD_CASES:
        bit_index, order_key = coordinate_hash((x, y), seed, n)
        print(f"{x},{y},{seed},{n},{bit_index},{order_key}", file=stdout)
    return EXIT_OK


def _quadruple_count(text: str) -> int:
    try:
        count = int(text)
    except ValueError:
        count = -1
    if count < 0:
        raise argparse.ArgumentTypeError(f"must be a non-negative integer, got {text!r}")
    return count


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="sdrkit",
        description="Encode CSV data into sparse distributed representations "
                    "and evaluate encoder quality.",
    )
    sub = parser.add_subparsers(dest="command", required=True)

    p_enc = sub.add_parser("encode", help="stream CSV rows to SDR output lines")
    p_enc.add_argument("--config", required=True, help="pipeline config (JSON)")
    p_enc.add_argument("--input", default="-", help="input CSV path or '-' for stdin")
    p_enc.add_argument("--output", default="-", help="output path or '-' for stdout")
    p_enc.add_argument("--format", choices=OUTPUT_FORMATS, default=None,
                       help="override the config's output format")

    p_eval = sub.add_parser("evaluate", help="score an encoder against a distance")
    p_eval.add_argument("--config", required=True, help="pipeline config (JSON)")
    p_eval.add_argument("--input", required=True, help="input CSV of sample values")
    p_eval.add_argument("--quadruples", type=_quadruple_count, default=10_000,
                        help="sampled quadruples for the consistency check")
    p_eval.add_argument("--seed", type=int, default=0, help="quadruple sampling seed")

    sub.add_parser("selftest-hash", help="print deterministic hash golden vectors")

    return parser


def main(argv=None) -> int:
    args = build_parser().parse_args(argv)
    if args.command == "encode":
        return cmd_encode(args)
    if args.command == "evaluate":
        return cmd_evaluate(args)
    return cmd_selftest_hash(args)


def run() -> None:
    raise SystemExit(main())


if __name__ == "__main__":
    run()
