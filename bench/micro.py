"""Isolated layer microbenchmarks on generator-drawn inputs.

Each function is timed over a list of prebuilt inputs, in several passes;
a pass's time per call includes the `for` loop (about 15 ns a call here),
and is normalised by the speed probes around it (see harness.py).
The reported value is the median pass; the raw median is kept beside it.
"""

from __future__ import annotations

import statistics
import time

import harness
import workloads

PASSES = 5


def _time_per_call_ns(fn, inputs) -> tuple[float, float]:
    """Median normalised and median raw nanoseconds per call."""
    speed = harness.Speed()
    normalised, raw = [], []
    for _ in range(PASSES):
        started = time.perf_counter()
        fn(inputs)
        elapsed_ns = (time.perf_counter() - started) / len(inputs) * 1e9
        raw.append(elapsed_ns)
        normalised.append(elapsed_ns * speed.factor())
    return statistics.median(normalised), statistics.median(raw)


def run(seed: int) -> dict:
    from sdrkit.composite import concat
    from sdrkit.hashing import coordinate_hash, mix64, pack_coordinate
    from sdrkit.scalars import ScalarEncoder
    from sdrkit.sdr import SDR, overlap

    _, geo = workloads.geo_rows(seed, 20_000)
    cells = [(int(r[1]), int(r[2])) for r in geo]
    keys = [pack_coordinate(x, y) for x, y in cells]
    _, tab = workloads.tabular_rows(seed, 20_000)
    scalar = ScalarEncoder(0, 45, 134, 21)  # the encode-tabular temp field
    actives = [scalar.encode(float(r[1])).active for r in tab]
    sdrs = [SDR(134, a) for a in actives]
    pairs = list(zip(sdrs, sdrs[1:]))
    parts = [sdrs[i:i + 4] for i in range(0, len(sdrs) - 4, 4)]

    def run_mix64(xs):
        for k in xs:
            mix64(k)

    def run_coordinate_hash(xs):
        for c in xs:
            coordinate_hash(c, 11, 1000)

    def run_construct(xs):
        for a in xs:
            SDR(134, a)

    def run_overlap(xs):
        for a, b in xs:
            overlap(a, b)

    def run_concat(xs):
        for p in xs:
            concat(p)

    timed = {
        "hashing.mix64_ns": _time_per_call_ns(run_mix64, keys),
        "hashing.coordinate_hash_ns": _time_per_call_ns(run_coordinate_hash, cells),
        "sdr.construct_ns": _time_per_call_ns(run_construct, actives),
        "sdr.overlap_ns": _time_per_call_ns(run_overlap, pairs),
        "composite.concat_ns": _time_per_call_ns(run_concat, parts),
    }
    return {"metrics": {k: v[0] for k, v in timed.items()},
            "raw": {k: v[1] for k, v in timed.items()}}
