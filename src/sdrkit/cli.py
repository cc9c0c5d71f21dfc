"""Command-line interface.

    sdrkit encode   --config cfg.json [--input in.csv] [--output out.txt]
                    [--format dense|sparse|sparse-n]
    sdrkit evaluate --config cfg.json --input in.csv [--quadruples N] [--seed S]
    sdrkit selftest-hash

`encode` and `evaluate` read their input by one loop over row chunks
(`_chunks`: the checked header, then runs of rows) and key each chunk by
one step (`_keyed_runs`, which yields the key columns of each run of rows
that keys).  A UTF-8 byte-order mark before the header is dropped.  Every
column the config references must appear exactly once in the header: a
missing or repeated name is a config error (exit 2), and a row whose field
count differs from the header's is a data error (exit 3).  A chunk's rows
are checked and keyed a column at a time, and each run's keys are written
into a bit matrix, uint64 or Python ints past 2**64 bits, so every n takes
the same column step: each part writes its columns of one matrix in place
(`MultiEncoder._bits`).  `encode` allocates one bit matrix and one text
buffer once per run, when the first row keys, whatever the line size, and
writes every chunk into their first rows; `evaluate` reads all its samples
as one chunk and keys it into one matrix, the samples'.  A chunk with a
data error is halved, and each half keyed the same way, until the failing
row stands alone: the rows before it are still used, and the per-row path
(`PipelineConfig.encode_row`) words that row's error.
Validation warnings go to stderr so stdout stays machine-parseable.

`encode` streams CSV rows (header required, fields bound by name) to one
output line per row; memory use is independent of row count.  Dense output
of more than `sdr.MAX_DENSE_N` bits per line is a config error (exit 2).
Each chunk is one block of lines, as many as fit in 1 MiB and 2**15 bit
indices (one line when it is longer), written from its bit matrix as
bytes, unchanged: lines end in "\n" on every platform.  A reader of a live
pipe sees rows arrive a block at a time, up to 1 MiB, sparse rows too,
and a data error is reported when its block fills or the input ends.
`evaluate` checks the configured distance's axioms and the encoder's
overlap-vs-distance consistency on the input column; `--quadruples` must be
a non-negative integer (a usage error, exit 2, otherwise).  It reads every
sample, or stops at one more than `MAX_EVALUATE_SAMPLES`, and refuses more
samples than that, or more than `MAX_EVALUATE_CELLS` bits (m x w), as a
data error before any sample is keyed; otherwise it keys them all in one
step, so no sample's SDR is built and a sample that fails to encode is
named by row with `encode`'s line.  `selftest-hash` prints
the deterministic hash golden vectors for cross-platform verification,
computed by the numpy hash path the encoders run.

Exit codes: 0 ok; 2 config error, also a config file that cannot be read,
is not JSON or repeats a key in an object; 3 data error, also an input that
cannot be opened, is not UTF-8 or holds a field longer than
`csv.field_size_limit()`, each named by row (or header) where it has one,
with every row before it written, and an output that cannot be opened,
cannot be written (a full device, a closed pipe) or is the input file (the
input is opened first and left as it was), for every command's stdout
too, and a run out of memory; 4 distance-axiom violation.
Every config and data error is raised until the command prints it, as one
`config error: …` or `data error: …` line on stderr (`_reported`).  Every
line on stderr is best-effort (`_note`): a stderr that cannot be written
changes neither the output nor the exit code.
"""

from __future__ import annotations

import argparse
import csv
import json
import os
import sys
import time
from contextlib import contextmanager, nullcontext
from itertools import chain, repeat
from types import SimpleNamespace

import numpy as np

from .config import OUTPUT_FORMATS, parse_pipeline_config
from .errors import ConfigError, InputError, SdrError
from .geospatial import _CHUNK_CELLS, _neighborhood_keys
from .hashing import bit_indices, mix64_array, order_keys_array
from .quality import MAX_EVALUATE_CELLS, MAX_EVALUATE_SAMPLES, _evaluate
from .sdr import MAX_DENSE_N

EXIT_OK = 0
EXIT_CONFIG = 2
EXIT_DATA = 3
EXIT_AXIOM = 4

# Largest block `encode` writes at once: max(1, rows) lines, with rows small
# enough that the block's text (a dense line is n + 1 bytes, a sparse one at
# most its prefix and w indices of up to len(str(n - 1)) digits and a
# separator each) fits in _CHUNK_BYTES and its (rows, w) bit matrix in
# _CHUNK_CELLS, since the command's own peak memory grows with the chunk: a
# run's buffers, allocated once when its first row keys, hold at most 1 MiB
# of text, a sparse one 1 MiB of `keep` too, and 256 KiB of uint64 bit
# matrix, or one line's worth when a line is longer.  Each block's bytes go
# to the output as they are.
_CHUNK_BYTES = 1 << 20

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


def _unique_keys(pairs: list) -> dict:
    """A JSON object whose keys are all distinct: `json.load` keeps the last
    of a repeated key silently, which would hide a typo or a stale value."""
    obj = {}
    for key, value in pairs:
        if key in obj:
            raise ConfigError(f"repeats the key {key!r}")
        obj[key] = value
    return obj


def _load_config(path: str):
    try:
        with open(path, "r", encoding="utf-8") as f:
            raw = json.load(f, object_pairs_hook=_unique_keys)
    except OSError as exc:
        raise ConfigError(f"cannot read config {path!r}: {exc}") from exc
    except ValueError as exc:  # also bad UTF-8, and integers past int()'s digit limit
        raise ConfigError(f"config {path!r} is not valid JSON: {exc}") from exc
    except RecursionError:  # arrays or objects nested past the parser's depth limit
        raise ConfigError(f"config {path!r} nests too deeply to parse") from None
    except ConfigError as exc:
        raise ConfigError(f"config {path!r} {exc}") from None
    return parse_pipeline_config(raw)


def _note(line: str, stderr) -> None:
    """Print a diagnostic line to ``stderr``, best-effort: a stderr that
    cannot be written (a full device) changes no output and no exit code."""
    try:
        print(line, file=stderr)
    except OSError:
        pass


def _emit_warnings(cfg, stderr) -> None:
    for message in cfg.warnings:
        _note(f"warning: {message}", stderr)


def _dense_lines(multi, bits, text) -> np.ndarray:
    """The ASCII bytes of the dense lines, newlines included, of the rows of
    a bit matrix (`MultiEncoder._bits`): the first rows of ``text``, a uint8
    matrix of n + 1 columns, written in place and not copied.  They are the
    text of `to_dense_string` of each row's encoding."""
    n = multi.n
    lines = text[: len(bits)]
    lines[:] = np.frombuffer(b"0" * n + b"\n", np.uint8)  # each row's zeros and newline
    np.put_along_axis(lines, bits, ord("1"), axis=1)
    return lines


def _sparse_lines(multi, bits, self_describing, text, keep) -> np.ndarray:
    """The ASCII bytes of the sparse lines, newlines included, of the rows
    of a bit matrix (`MultiEncoder._bits`), as one uint8 vector gathered
    from the first rows of ``text``, a uint8 matrix as wide as a line's
    cells, and ``keep``, a bool one of its shape: the text of
    `to_sparse_string` of each row's encoding.

    Each index is written right-aligned in a cell of ``digits`` characters
    and one separator, and the text is every cell character that is kept: an
    index's digits from its first nonzero one, and only the last of a run of
    equal indices (a hash collision repeats one), so the row's last cell,
    which ends in the newline, is always kept."""
    # The narrowest unsigned type that holds n - 1 divides fastest.
    bits = np.sort(bits.astype(np.min_scalar_type(multi.n - 1)), axis=1)
    rows, w = bits.shape
    prefix = np.frombuffer(f"n={multi.n};".encode() if self_describing else b"", np.uint8)
    digits = len(str(multi.n - 1))
    text, keep = text[:rows], keep[:rows]
    keep[:] = True
    text[:, : len(prefix)] = prefix
    cells = text[:, len(prefix):].reshape(rows, w, digits + 1)  # views of the rows
    kept = keep[:, len(prefix):].reshape(rows, w, digits + 1)
    cells[..., digits] = ord(",")
    cells[:, -1, digits] = ord("\n")
    rest = bits
    for d in range(digits - 1, -1, -1):
        quotient = rest // 10
        cells[..., d] = rest - quotient * 10 + ord("0")
        rest = quotient
        if d == 19:  # rest < 10**19 now: uint64 from here, whatever n is
            rest = rest.astype(np.uint64)
        if d:  # the digit before is a leading zero unless the index reaches it
            kept[..., d - 1] = rest != 0
    kept[:, :-1][bits[:, :-1] == bits[:, 1:]] = False
    return text[keep]


def _each_value(header, rows, first, step):
    """``step`` of each row, as a {column: text} mapping, in order; at the
    first row whose ``step`` raises an SdrError, an InputError naming that
    row, ``rows[0]`` being row ``first``."""
    for number, row in enumerate(rows, first):
        try:
            yield step(dict(zip(header, row)))
        except SdrError as exc:
            raise InputError(f"row {number}: {exc}") from exc


def _keyed_runs(cfg, header, rows, first):
    """Each run of a chunk of CSV rows, ``rows[0]`` being row ``first``,
    that keys, in order, as (its row count, its key columns).

    The chunk is checked and keyed a column at a time
    (`PipelineConfig._chunk_keys`), whose key columns `MultiEncoder._bits`
    writes as a bit matrix.  Where that raises, some row holds a data
    error: the chunk is halved and each half, first then second, takes the
    same step, so the runs are the rows before the failing one, one per
    half that keys, and that row, alone, gets its error from the per-row
    path (``cfg.encode_row``).  Where the per-row path takes that row, or
    both halves key, the column step's own exception is raised: it is a
    bug."""
    try:
        keys = cfg._chunk_keys(header, rows)
    except Exception:  # of any kind: a smaller step finds the row
        if len(rows) == 1:  # its error, from the per-row path
            next(_each_value(header, rows, first, cfg.encode_row), None)
        else:
            half = len(rows) // 2
            yield from _keyed_runs(cfg, header, rows[:half], first)
            yield from _keyed_runs(cfg, header, rows[half:], first + half)
        raise  # the per-row path took the row, or both halves keyed: a bug
    yield len(rows), keys


def _open_input(path, output=None):
    """The input's lines, in a context that closes the file.  Its bytes are
    read as latin-1, which keeps each byte and newline in place, and decoded
    as UTF-8 a line at a time, so bytes that are not UTF-8 raise
    UnicodeDecodeError after every line before them has been read.  An
    InputError when the file cannot be opened or is the file that
    ``output``, an output path, names (through a link too), which opening
    the output would empty."""
    if path in (None, "-"):
        if not hasattr(sys.stdin, "buffer"):  # an in-memory stdin holds text already
            return nullcontext(_without_bom(sys.stdin))
        path = sys.stdin.fileno()  # a descriptor, which stays open after
    try:
        file = open(path, "r", encoding="latin-1", newline="", closefd=isinstance(path, str))
    except OSError as exc:
        raise InputError(f"cannot read input {path!r}: {exc}") from exc
    try:
        clash = output not in (None, "-") and os.path.samestat(os.fstat(file.fileno()),
                                                              os.stat(output))
    except OSError:  # nothing is at the output path yet
        clash = False
    if clash:
        file.close()
        raise InputError(f"output {output!r} is the input file")
    return _utf8_lines(file)


@contextmanager
def _utf8_lines(file):
    with file:
        yield _without_bom(map(bytes.decode, map(str.encode, file, repeat("latin-1")),
                               repeat("utf-8")))


def _without_bom(lines):
    """``lines`` with one U+FEFF, the byte-order mark some editors write
    before the header, dropped from the start of the first line, which is
    read only when it is asked for."""
    return map(str.removeprefix, lines, chain(["\ufeff"], repeat("")))


def _open_output(path):
    """The output file or stdout as a binary sink, in a context; an OSError,
    which `_reported` words as a data error, when the file cannot be opened.
    Stdout's bytes go to its buffer, after the text written to it before; an
    in-memory stdout (with no buffer) gets each block decoded as ASCII."""
    if path not in (None, "-"):
        return open(path, "wb")
    stdout = sys.stdout
    stdout.flush()
    if not hasattr(stdout, "buffer"):  # an in-memory stdout takes text
        return nullcontext(SimpleNamespace(write=lambda block: stdout.write(str(block, "ascii")),
                                           flush=stdout.flush))
    return nullcontext(stdout.buffer)


def _chunks(lines, cfg, size):
    """The CSV header and each run of up to ``size`` data rows (lists of
    their texts) of ``lines``, in order, as (header, first, rows), ``rows[0]``
    being row ``first`` (rows count from 1 after the header).

    A missing or repeated column in the header raises a ConfigError.  An
    empty input, a header or row that cannot be read (a field longer than
    `csv.field_size_limit()`, bytes that are not UTF-8, a read that fails)
    or a row whose field count differs from the header's raises an
    InputError naming the header or the row, after the rows before it."""
    reader = csv.reader(lines, delimiter=cfg.delimiter)
    try:
        header = next(reader)
    except StopIteration:
        raise InputError("input is empty; a header row is required") from None
    except (csv.Error, UnicodeDecodeError, OSError) as exc:
        raise InputError(f"header: {exc}") from exc
    missing = [c for c in cfg.referenced_columns if c not in header]
    duplicated = [c for c in dict.fromkeys(cfg.referenced_columns) if header.count(c) > 1]
    if missing or duplicated:
        problem = (f"{missing} not present in" if missing
                   else f"{duplicated} appear more than once in")
        raise ConfigError(f"field(s) {problem} the CSV header {header}")
    chunk, number = [], 1  # number: the row being read
    try:
        for row in reader:
            if len(row) != len(header):
                raise InputError(f"expected {len(header)} fields per the header, got {len(row)}")
            chunk.append(row)
            number += 1
            if len(chunk) == size:
                yield header, number - size, chunk
                chunk = []
    except (InputError, csv.Error, UnicodeDecodeError, OSError) as exc:
        if chunk:
            yield header, number - len(chunk), chunk
        raise InputError(f"row {number}: {exc}") from exc
    if chunk:
        yield header, number - len(chunk), chunk


def _reported(run, stderr, output="-", stdout=None) -> int:
    """``run()``'s exit code, or, when it raises, the error printed to
    ``stderr`` (`_note`) and its exit code: a ConfigError is a config error,
    any other SdrError a data error, and so are a MemoryError (an accepted
    input may still not fit in memory) and an OSError, which only
    opening, writing, flushing or closing ``output`` can raise here (a path,
    or "-" or None for ``stdout``, the process's stdout when None): every
    diagnostic on ``stderr`` goes through `_note`, which raises none."""
    try:
        return run()
    except ConfigError as exc:
        _note(f"config error: {exc}", stderr)
        return EXIT_CONFIG
    except SdrError as exc:
        _note(f"data error: {exc}", stderr)
        return EXIT_DATA
    except MemoryError as exc:
        _note(f"data error: not enough memory: {str(exc) or 'an allocation failed'}", stderr)
        return EXIT_DATA
    except OSError as exc:
        if output in (None, "-") and stdout in (None, sys.stdout):
            # else the interpreter's exit flush would fail again
            os.dup2(os.open(os.devnull, os.O_WRONLY), sys.stdout.fileno())
        _note(f"data error: cannot write output {output!r}: {exc}", stderr)
        return EXIT_DATA


def cmd_encode(args, stderr=None) -> int:
    stderr = stderr or sys.stderr

    def run():
        cfg = _load_config(args.config)
        multi = cfg.multi
        fmt = args.format or cfg.output_format  # argparse and the config check each
        dense, self_describing = fmt == "dense", fmt == "sparse-n"
        if dense and multi.n > MAX_DENSE_N:
            raise ConfigError(f"dense output takes n <= MAX_DENSE_N ({MAX_DENSE_N}), "
                              f"got n={multi.n}; use a sparse format")
        _emit_warnings(cfg, stderr)
        # rows per chunk, each chunk one block of lines and one write (see _CHUNK_BYTES)
        line_bytes = (multi.n + 1 if dense else len(f"n={multi.n};") * self_describing
                      + multi.w * (len(str(multi.n - 1)) + 1))
        size = max(1, min(_CHUNK_BYTES // line_bytes, _CHUNK_CELLS // multi.w))
        matrix = None  # the run's buffers, when its first row keys: they may not fit in memory
        with (_open_input(args.input, args.output) as lines,
              _open_output(args.output) as fout):
            try:
                for header, first, rows in _chunks(lines, cfg, size):
                    for count, keys in _keyed_runs(cfg, header, rows, first):
                        if matrix is None:
                            matrix = multi._matrix(size)
                            text = np.empty((size, line_bytes), np.uint8)
                            keep = None if dense else np.empty(text.shape, bool)
                        bits = multi._bits(keys, matrix[:count])
                        fout.write(_dense_lines(multi, bits, text) if dense
                                   else _sparse_lines(multi, bits, self_describing, text, keep))
            finally:  # on a data error too: keep everything encoded so far
                fout.flush()
        return EXIT_OK

    return _reported(run, stderr, args.output)


def cmd_evaluate(args, stdout=None, stderr=None) -> int:
    stdout = stdout or sys.stdout
    stderr = stderr or sys.stderr

    def run():
        cfg = _load_config(args.config)
        if cfg.spec["encoder"]["type"] == "multi":
            raise ConfigError("evaluate requires a config with exactly one encoder")
        if cfg.distance is None:
            raise ConfigError("evaluate requires a 'distance' in the config")
        _emit_warnings(cfg, stderr)

        # the samples' bit matrix, in a list that `_evaluate` pops, and their values
        bits, samples, started = [], [], time.perf_counter()
        with _open_input(args.input) as lines:  # one chunk of every sample, or one too many
            for header, first, rows in _chunks(lines, cfg, MAX_EVALUATE_SAMPLES + 1):
                if len(rows) > MAX_EVALUATE_SAMPLES:
                    raise InputError(f"the input has more than MAX_EVALUATE_SAMPLES "
                                     f"({MAX_EVALUATE_SAMPLES}) samples, which bounds the "
                                     "memory of the m x m matrices")
                if len(rows) * cfg.multi.w > MAX_EVALUATE_CELLS:
                    raise InputError(f"the input has {len(rows)} samples of w = {cfg.multi.w} "
                                     f"bits, more than MAX_EVALUATE_CELLS ({MAX_EVALUATE_CELLS}) "
                                     "cells, which bounds the memory of the m x w bit matrix")
                # to its end: one run of every row, or the first failing row's error
                (m, keys), = list(_keyed_runs(cfg, header, rows, first))
                bits.append(cfg.multi._bits(keys, cfg.multi._matrix(m)))
                samples = list(_each_value(header, rows, first, cfg.bound[0].value_from_row))
                del rows, keys  # the row texts and keys go before the m x m steps
        report = _evaluate(bits.pop, cfg.distance, samples, args.quadruples, args.seed)
        elapsed = time.perf_counter() - started

        print("# encoder evaluation", file=stdout)
        print(f"config: {json.dumps(cfg.spec, sort_keys=True)}", file=stdout)
        print(f"quadruple_seed: {args.seed}", file=stdout)
        print(report.to_text(), file=stdout, flush=True)
        # timing is run-dependent; keep it out of the reproducible report stream
        _note(f"elapsed_seconds: {elapsed:.3f}", stderr)
        return EXIT_AXIOM if report.total_axiom_violations > 0 else EXIT_OK

    return _reported(run, stderr, stdout=stdout)


def cmd_selftest_hash(args, stdout=None) -> int:
    stdout = stdout or sys.stdout

    def run():
        print("# mix64 input,output", file=stdout)
        for k, out in zip(SELFTEST_MIX64_INPUTS, mix64_array(SELFTEST_MIX64_INPUTS).tolist()):
            print(f"{k},{out}", file=stdout)
        print("# coordinate_hash x,y,seed,n,bit_index,order_key", file=stdout)
        for x, y, seed, n in SELFTEST_COORD_CASES:
            keys = _neighborhood_keys(x, y, 0)  # the cell's own packed key
            (bit_index,) = bit_indices(keys, seed, n)
            order_key = int(order_keys_array(keys, seed)[0])
            print(f"{x},{y},{seed},{n},{bit_index},{order_key}", file=stdout, flush=True)
        return EXIT_OK

    return _reported(run, sys.stderr, stdout=stdout)


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
