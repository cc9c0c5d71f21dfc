"""The four benchmark workloads: configs, seeded input generators and the
input properties a caching or memoising claim must cite.

Every input is a pure function of (workload, seed); the program under test
only ever sees the files written here.
"""

from __future__ import annotations

import datetime as _dt
import json
import math
import os
import random
from dataclasses import dataclass
from typing import Callable

LABELS = [f"label{i:02d}" for i in range(20)]
GEO_CELL_SIZE = 30.0  # meters per grid cell for the lat/lon field
GEO_SPEED_SCALE = 0.25  # extra radius cells per m/s
GEO_RADIUS = (3, 7)


def tabular_config() -> dict:
    return {
        "encoder": {"type": "multi", "parts": [
            {"field": "temp",
             "encoder": {"type": "scalar", "min": 0, "max": 45, "n": 134, "w": 21}},
            {"field": "load",
             "encoder": {"type": "delta", "min": -20, "max": 20, "n": 120, "w": 21}},
            {"field": "label",
             "encoder": {"type": "category", "categories": LABELS, "w": 21}},
            {"field": "ts",
             "encoder": {"type": "datetime", "weekend": {"w": 21},
                         "day_of_week": {"n": 100, "w": 21},
                         "time_of_day": {"n": 100, "w": 21}}},
        ]},
        "output_format": "sparse",
    }


def geo_config() -> dict:
    r_min, r_max = GEO_RADIUS
    return {
        "encoder": {"type": "multi", "parts": [
            {"field": "value",
             "encoder": {"type": "scalar_unbounded", "resolution": 1.0,
                         "n": 500, "w": 21, "seed": 7}},
            {"field": ["x", "y"],
             "encoder": {"type": "geospatial", "variant": "fixed", "radius": 2,
                         "n": 1000, "seed": 11}},
            {"field": ["lat", "lon"], "speed_field": "speed",
             "encoder": {"type": "geospatial", "variant": "topw", "radius": r_min,
                         "w": 40, "n": 2000, "seed": 13,
                         "speed_scale": GEO_SPEED_SCALE,
                         "radius_min": r_min, "radius_max": r_max,
                         "cell_size": GEO_CELL_SIZE}},
        ]},
    }


def eval_scalar_config() -> dict:
    return {
        "encoder": {"type": "scalar", "min": 0, "max": 100, "n": 400, "w": 21},
        "field": "value",
        "distance": "absolute",
    }


def eval_geo_config() -> dict:
    return {
        "encoder": {"type": "geospatial", "variant": "fixed", "radius": 2,
                    "n": 1024, "seed": 3},
        "field": ["x", "y"],
        "distance": {"expression": "max(abs(a[0] - b[0]), abs(a[1] - b[1]))"},
    }


def _rng(workload: str, seed: int) -> random.Random:
    # A string seed is hashed with SHA-512, independent of PYTHONHASHSEED.
    return random.Random(f"{workload}:{seed}")


def tabular_rows(seed: int, count: int = 20_000) -> tuple[list[str], list[list[str]]]:
    """Quarter-hourly sensor readings: a daily temperature cycle quantised to
    0.5 degrees, an integer load, 20 labels drawn with a skew, and the
    timestamp.  Field values repeat heavily by design."""
    rng = _rng("encode-tabular", seed)
    start = _dt.datetime(2024, 1, 1) + _dt.timedelta(days=int(rng.random() * 365))
    rows = []
    load = 0
    for i in range(count):
        t = start + _dt.timedelta(minutes=15 * i)
        day = (t.hour + t.minute / 60) / 24
        temp = 20 + 9 * math.sin(2 * math.pi * day) + 4 * rng.random()
        load = max(-15, min(15, load + int(rng.random() * 5) - 2))
        label = LABELS[int(rng.random() ** 2 * len(LABELS))]
        rows.append([t.isoformat(), f"{round(temp * 2) / 2:.1f}", str(load), label])
    return ["ts", "temp", "load", "label"], rows


def geo_rows(seed: int, count: int = 5_000) -> tuple[list[str], list[list[str]]]:
    """A wide-range, nearly unique value; an x,y random walk on the grid; and a
    lat/lon track whose speed (0..20 m/s) sets the topw radius.  The speed
    cycles every 250 rows, so the radius mix, and with it the work per row,
    is the same for every seed."""
    rng = _rng("encode-geo", seed)
    x, y = int(rng.random() * 2000) - 1000, int(rng.random() * 2000) - 1000
    lat = 40 + 10 * rng.random()
    lon = -120 + 40 * rng.random()
    phase = 2 * math.pi * rng.random()
    heading = 2 * math.pi * rng.random()
    rows = []
    for i in range(count):
        x += int(rng.random() * 3) - 1
        y += int(rng.random() * 3) - 1
        speed = 10 + 9 * math.sin(phase + 2 * math.pi * i / 250) + 2 * rng.random() - 1
        heading += rng.random() - 0.5
        step_m = speed * 5  # one fix every 5 s
        lat += step_m * math.cos(heading) / 111_320
        lon += step_m * math.sin(heading) / (111_320 * math.cos(math.radians(lat)))
        value = (rng.random() - 0.5) * 2e7
        rows.append([f"{value:.3f}", str(x), str(y),
                     f"{lat:.7f}", f"{lon:.7f}", f"{speed:.2f}"])
    return ["value", "x", "y", "lat", "lon", "speed"], rows


def eval_scalar_rows(seed: int, count: int = 1_500) -> tuple[list[str], list[list[str]]]:
    rng = _rng("evaluate-scalar", seed)
    return ["value"], [[f"{100 * rng.random():.3f}"] for _ in range(count)]


def eval_geo_rows(seed: int, count: int = 600) -> tuple[list[str], list[list[str]]]:
    rng = _rng("evaluate-geo-expr", seed)
    return ["x", "y"], [[str(int(rng.random() * 60)), str(int(rng.random() * 60))]
                        for _ in range(count)]


@dataclass(frozen=True)
class Workload:
    name: str
    command: str  # "encode" or "evaluate"
    config: Callable[[], dict]
    rows: Callable[[int], tuple[list[str], list[list[str]]]]
    quadruples: int = 0


# Why each workload exists: bench/README.md and BENCHMARK.json.
WORKLOADS = {
    w.name: w for w in (
        Workload("encode-tabular", "encode", tabular_config, tabular_rows),
        Workload("encode-geo", "encode", geo_config, geo_rows),
        Workload("evaluate-scalar", "evaluate", eval_scalar_config, eval_scalar_rows,
                 quadruples=20_000),
        Workload("evaluate-geo-expr", "evaluate", eval_geo_config, eval_geo_rows,
                 quadruples=10_000),
    )
}


def cli_args(workload: Workload, config_path: str, input_path: str, output_path: str,
             seed: int) -> list[str]:
    """`sdrkit` CLI arguments; evaluate's quadruple seed is the input seed."""
    args = [workload.command, "--config", config_path, "--input", input_path]
    if workload.command == "encode":
        return args + ["--output", output_path]
    return args + ["--quadruples", str(workload.quadruples), "--seed", str(seed)]


def csv_bytes(header: list[str], rows: list[list[str]]) -> bytes:
    lines = [",".join(header)] + [",".join(r) for r in rows]
    return ("\n".join(lines) + "\n").encode()


@dataclass
class Inputs:
    """Generated files of one (workload, seed) plus the parsed rows."""

    workload: Workload
    config_path: str
    header: list[str]
    rows: list[list[str]]
    data: bytes


def generate(workload: Workload, seed: int, directory: str) -> Inputs:
    os.makedirs(directory, exist_ok=True)
    header, rows = workload.rows(seed)
    config_path = os.path.join(directory, "config.json")
    with open(config_path, "w", encoding="utf-8") as f:
        json.dump(workload.config(), f, indent=1, sort_keys=True)
    return Inputs(workload, config_path, header, rows, csv_bytes(header, rows))


def input_properties(inputs: Inputs) -> dict:
    """Counts that repeat exactly for a seed: per field, the share of rows
    whose value repeats an earlier row's; on encode-geo also the share of
    neighbourhood cells shared with the previous row and the mean topw pool
    size."""
    header, rows = inputs.header, inputs.rows
    props: dict = {"rows": len(rows)}
    for k, column in enumerate(header):
        seen: set[str] = set()
        repeats = 0
        for r in rows:
            repeats += r[k] in seen
            seen.add(r[k])
        props[f"repeat_share.{column}"] = round(repeats / len(rows), 6)
    if inputs.workload.name == "encode-geo":
        props.update(_geo_sharing(rows))
    return props


def _geo_sharing(rows: list[list[str]]) -> dict:
    from sdrkit.geospatial import gps_to_grid

    r_min, r_max = GEO_RADIUS
    side_fixed = 2 * 2 + 1
    fixed_shared = pool_shared = pool_total = 0
    pool_sizes = 0
    prev_xy = prev_cell = prev_r = None
    for r in rows:
        x, y = int(r[1]), int(r[2])
        cell = gps_to_grid(float(r[3]), float(r[4]), GEO_CELL_SIZE)
        radius = min(max(r_min + math.floor(float(r[5]) * GEO_SPEED_SCALE), r_min), r_max)
        pool_sizes += (2 * radius + 1) ** 2
        if prev_xy is not None:
            fixed_shared += (max(0, side_fixed - abs(x - prev_xy[0]))
                             * max(0, side_fixed - abs(y - prev_xy[1])))
            pool_shared += _square_overlap(cell, radius, prev_cell, prev_r)
            pool_total += (2 * radius + 1) ** 2
        prev_xy, prev_cell, prev_r = (x, y), cell, radius
    pairs = len(rows) - 1
    return {
        "fixed_cells_shared_with_previous": round(fixed_shared / (pairs * side_fixed ** 2), 6),
        "topw_pool_shared_with_previous": round(pool_shared / pool_total, 6),
        "topw_mean_pool_size": round(pool_sizes / len(rows), 4),
    }


def _square_overlap(c1, r1, c2, r2) -> int:
    """Cells shared by two Chebyshev squares."""
    lo_x, hi_x = max(c1[0] - r1, c2[0] - r2), min(c1[0] + r1, c2[0] + r2)
    lo_y, hi_y = max(c1[1] - r1, c2[1] - r2), min(c1[1] + r1, c2[1] + r2)
    return max(0, hi_x - lo_x + 1) * max(0, hi_y - lo_y + 1)
