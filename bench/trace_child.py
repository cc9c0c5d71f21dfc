"""Run one sdrkit CLI command in-process with spans around each layer's
public functions.

    python3 bench/trace_child.py SUMMARY.json SPANS.npz -- <sdrkit CLI args>

The wrappers live here, outside the program: each replaces a module or class
attribute, so the program runs unchanged and its output bits do not move.
Spans (name, start, end, parent, row) stay in memory and are written to
SPANS.npz when the command returns; SUMMARY.json holds per-name call counts,
total and self times, the counters, and the calls and times of field
encoders that no other field encoder encloses.  The run's `sdrkit` is whatever
PYTHONPATH resolves, exactly as for the untraced command.
"""

from __future__ import annotations

import functools
import json
import sys
import time
from array import array
from collections import defaultdict

_clock = time.perf_counter


class Tracer:
    def __init__(self) -> None:
        self.names: list[str] = []
        self._ids: dict[str, int] = {}
        self.start = array("d")
        self.end = array("d")
        self.name = array("i")
        self.parent = array("i")
        self.row = array("i")
        self.stack: list[list] = []  # [span index, name id, time covered by children]
        self.current_row = -1  # -1 outside encode_row
        self.rows_started = 0
        self.calls: dict[str, int] = defaultdict(int)
        self.total_s: dict[str, float] = defaultdict(float)  # outermost spans of a name
        self.self_s: dict[str, float] = defaultdict(float)
        self.child_s: dict[str, float] = defaultdict(float)  # "parent>child" durations
        self.counts: dict[str, int] = defaultdict(int)
        # Field encoder spans not inside another one: a DeltaEncoder's inner
        # ScalarEncoder or a DatetimeEncoder's weekend CategoryEncoder is
        # part of the delta or datetime field, not a scalar or category field.
        self.field_depth = 0
        self.field_calls: dict[str, int] = defaultdict(int)
        self.field_s: dict[str, float] = defaultdict(float)

    def name_id(self, name: str) -> int:
        if name not in self._ids:
            self._ids[name] = len(self.names)
            self.names.append(name)
        return self._ids[name]

    def wrap(self, fn, name: str, name_for=None, field: bool = False):
        """Span around ``fn``; ``name_for(args)`` may pick the name per call.
        ``field`` marks a field encoder's ``encode``."""
        fixed = self.name_id(name)

        @functools.wraps(fn)
        def traced(*args, **kwargs):
            nid = fixed if name_for is None else self.name_id(name_for(args))
            idx = len(self.start)
            parent = self.stack[-1] if self.stack else None
            self.name.append(nid)
            self.parent.append(parent[0] if parent else -1)
            self.row.append(self.current_row)
            self.end.append(0.0)
            frame = [idx, nid, 0.0]
            self.stack.append(frame)
            self.field_depth += field
            t0 = _clock()
            self.start.append(t0)
            try:
                return fn(*args, **kwargs)
            finally:
                t1 = _clock()
                self.end[idx] = t1
                self.stack.pop()
                duration = t1 - t0
                label = self.names[nid]
                self.calls[label] += 1
                self.self_s[label] += duration - frame[2]
                if parent is not None:
                    parent[2] += duration
                    parent_label = self.names[parent[1]]
                    self.child_s[f"{parent_label}>{label}"] += duration
                if parent is None or parent[1] != nid:
                    self.total_s[label] += duration
                if field:
                    self.field_depth -= 1
                    if self.field_depth == 0:
                        self.field_calls[label] += 1
                        self.field_s[label] += duration

        return traced

    def count(self, fn, name: str):
        """Call counter without a span, for leaf functions called per bit."""
        counts = self.counts

        @functools.wraps(fn)
        def counted(*args):
            counts[name] += 1
            return fn(*args)

        return counted


def install(tracer: Tracer) -> None:
    """Wrap the layer boundaries.  Names looked up at call time are patched
    where the caller looks them up (``from x import f`` binds f in the
    importing module).  Distances are never wrapped, so code that dispatches
    on a built-in distance's identity still sees it; distance calls are
    counted at quality's single call site instead."""
    import scipy.stats

    from sdrkit import cli, composite, config, geospatial, hashing, quality, scalars
    from sdrkit.categories import CategoryEncoder
    from sdrkit.sdr import SDR

    def patch(owner, attr: str, name: str, field: bool = False) -> None:
        if hasattr(owner, attr):  # a later refactor may drop a boundary
            setattr(owner, attr, tracer.wrap(getattr(owner, attr), name, field=field))

    hashing.mix64 = tracer.count(hashing.mix64, "hashing.mix64")
    patch(geospatial, "coordinate_hash", "hashing.coordinate_hash")
    patch(scalars, "bucket_bit_index", "hashing.bucket_bit_index")
    patch(quality, "counter_stream", "hashing.counter_stream")
    patch(SDR, "__init__", "sdr.construct")
    patch(scalars.ScalarEncoder, "encode", "scalars.scalar.encode", field=True)
    patch(scalars.DeltaEncoder, "encode", "scalars.delta.encode", field=True)
    patch(scalars.UnboundedScalarEncoder, "encode", "scalars.unbounded.encode", field=True)
    patch(scalars.CyclicEncoder, "encode", "scalars.cyclic.encode", field=True)
    patch(CategoryEncoder, "encode", "categories.category.encode", field=True)
    patch(composite.DatetimeEncoder, "encode", "composite.datetime.encode", field=True)
    patch(composite.MultiEncoder, "encode", "composite.multi.encode")
    patch(composite, "concat", "composite.concat")
    _patch_geospatial(tracer, geospatial.GeospatialEncoder)
    patch(config.PipelineConfig, "record_from_row", "config.row_to_record")
    patch(config.BoundEncoder, "value_from_row", "config.row_to_record")
    _patch_encode_row(tracer, config.PipelineConfig)
    patch(cli, "parse_pipeline_config", "config.parse")
    patch(cli, "to_sparse_string", "cli.format")
    patch(cli, "to_dense_string", "cli.format")
    patch(cli, "cmd_encode", "cli.command")
    patch(cli, "cmd_evaluate", "cli.command")
    patch(quality, "check_distance_axioms", "quality.axioms")
    patch(quality, "evaluate_semantic_consistency", "quality.consistency")
    patch(quality, "_call_distance", "quality.distance")
    patch(scipy.stats, "spearmanr", "quality.spearman")


def _patch_geospatial(tracer: Tracer, cls) -> None:
    """Span per variant, plus cells hashed and one-bits kept per variant."""
    def name_for(args):
        return f"geospatial.{args[0].variant}.encode"

    inner = tracer.wrap(cls.encode, "geospatial.fixed.encode", name_for, field=True)

    @functools.wraps(cls.encode)
    def encode(self, *args, **kwargs):
        hashed_before = tracer.calls["hashing.coordinate_hash"]
        out = inner(self, *args, **kwargs)
        hashed = tracer.calls["hashing.coordinate_hash"] - hashed_before
        tracer.counts[f"geospatial.{self.variant}.hashed"] += hashed
        tracer.counts[f"geospatial.{self.variant}.kept"] += len(out.active)
        return out

    cls.encode = encode


def _patch_encode_row(tracer: Tracer, cls) -> None:
    """encode_row spans carry the row number, so each row's spans share it."""
    inner = tracer.wrap(cls.encode_row, "config.encode_row")

    @functools.wraps(cls.encode_row)
    def encode_row(self, row):
        tracer.current_row = tracer.rows_started
        tracer.rows_started += 1
        try:
            return inner(self, row)
        finally:
            tracer.current_row = -1

    cls.encode_row = encode_row


def main(argv: list[str]) -> int:
    summary_path, spans_path, sep, *cli_args = argv
    if sep != "--":
        raise SystemExit("usage: trace_child.py SUMMARY.json SPANS.npz -- <cli args>")
    t0 = _clock()
    from sdrkit import cli

    import_s = _clock() - t0
    tracer = Tracer()
    install(tracer)
    exit_code = cli.main(cli_args)
    sys.stdout.flush()

    import numpy as np

    np.savez(spans_path, names=np.array(tracer.names), start=np.frombuffer(tracer.start),
             end=np.frombuffer(tracer.end), name=np.frombuffer(tracer.name, dtype=np.int32),
             parent=np.frombuffer(tracer.parent, dtype=np.int32),
             row=np.frombuffer(tracer.row, dtype=np.int32))
    with open(summary_path, "w", encoding="utf-8") as f:
        json.dump({"exit_code": exit_code, "import_s": import_s, "calls": tracer.calls,
                   "total_s": tracer.total_s, "self_s": tracer.self_s,
                   "child_s": tracer.child_s, "counts": tracer.counts,
                   "field_calls": tracer.field_calls, "field_s": tracer.field_s,
                   "spans": len(tracer.start)}, f, indent=1, sort_keys=True)
    return exit_code


if __name__ == "__main__":
    sys.exit(main(sys.argv[1:]))
