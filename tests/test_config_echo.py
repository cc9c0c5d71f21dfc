"""The canonical config echo, pinned byte for byte.

`PipelineConfig.spec` is what `sdrkit evaluate` prints on its `config:` line
(as `json.dumps(..., sort_keys=True)`): every key with its default filled
in, numbers in the type the encoder uses, and nothing the encoder ignores.
`test_round_trip_is_stable` only checks that the echo parses back to
itself; these cases pin what it says.
"""

import json

import pytest

from sdrkit.config import parse_pipeline_config

CASES = [
    pytest.param(
        {"encoder": {"type": "scalar", "min": 0, "max": 45, "n": 134, "w": 21}, "field": "temp"},
        '{"csv": {"delimiter": ","}, "encoder": {"max": 45.0, "min": 0.0, "n": 134, "type": "scalar", "w": 21}, "field": "temp", "output_format": "dense"}',
        id="scalar",
    ),
    pytest.param(
        {"encoder": {"type": "delta", "min": -5, "max": 5.5, "n": 134, "w": 21}, "field": "load"},
        '{"csv": {"delimiter": ","}, "encoder": {"max": 5.5, "min": -5.0, "n": 134, "type": "delta", "w": 21}, "field": "load", "output_format": "dense"}',
        id="delta",
    ),
    pytest.param(
        {"encoder": {"type": "cyclic", "period": 7, "n": 70, "w": 21}, "field": "dow"},
        '{"csv": {"delimiter": ","}, "encoder": {"n": 70, "period": 7.0, "type": "cyclic", "w": 21}, "field": "dow", "output_format": "dense"}',
        id="cyclic",
    ),
    pytest.param(
        {"encoder": {"type": "scalar_unbounded", "resolution": 0.25, "n": 1000, "w": 25}, "field": "x"},
        '{"csv": {"delimiter": ","}, "encoder": {"n": 1000, "resolution": 0.25, "seed": 0, "type": "scalar_unbounded", "w": 25}, "field": "x", "output_format": "dense"}',
        id="scalar_unbounded",
    ),
    pytest.param(
        {"encoder": {"type": "category", "categories": ["b", "a"], "w": 21}, "field": "kind"},
        '{"csv": {"delimiter": ","}, "encoder": {"categories": ["b", "a"], "type": "category", "unknown_policy": "error", "w": 21}, "field": "kind", "output_format": "dense"}',
        id="category",
    ),
    pytest.param(
        {"encoder": {"type": "category", "categories": ["a"], "w": 21, "unknown_policy": "catch_all"}, "field": "kind"},
        '{"csv": {"delimiter": ","}, "encoder": {"categories": ["a"], "type": "category", "unknown_policy": "catch_all", "w": 21}, "field": "kind", "output_format": "dense"}',
        id="category_catch_all",
    ),
    pytest.param(
        {"encoder": {"type": "datetime", "day_of_month": {"n": 62, "w": 21}, "weekend": {"w": 50}, "time_of_day": {"n": 96, "w": 21}}, "field": "ts"},
        '{"csv": {"delimiter": ","}, "encoder": {"day_of_month": {"n": 62, "w": 21}, "time_of_day": {"n": 96, "w": 21}, "type": "datetime", "weekend": {"w": 50}}, "field": "ts", "output_format": "dense"}',
        id="datetime",
    ),
    pytest.param(
        {"encoder": {"type": "geospatial", "n": 1000}, "field": ["x", "y"]},
        '{"csv": {"delimiter": ","}, "encoder": {"n": 1000, "radius": 2, "radius_max": 2, "radius_min": 2, "seed": 0, "speed_scale": 0.0, "type": "geospatial", "variant": "fixed"}, "field": ["x", "y"], "output_format": "dense"}',
        id="geospatial_defaults",
    ),
    pytest.param(
        {"encoder": {"type": "geospatial", "n": 1000, "variant": "fixed", "radius": 1, "w": 9, "seed": 4}, "field": ["x", "y"]},
        '{"csv": {"delimiter": ","}, "encoder": {"n": 1000, "radius": 1, "radius_max": 1, "radius_min": 1, "seed": 4, "speed_scale": 0.0, "type": "geospatial", "variant": "fixed"}, "field": ["x", "y"], "output_format": "dense"}',
        id="geospatial_fixed_explicit_w",
    ),
    pytest.param(
        {"encoder": {"type": "geospatial", "n": 1000, "radius": 1, "speed_scale": 0, "radius_min": 1, "radius_max": 1}, "field": ["x", "y"]},
        '{"csv": {"delimiter": ","}, "encoder": {"n": 1000, "radius": 1, "radius_max": 1, "radius_min": 1, "seed": 0, "speed_scale": 0.0, "type": "geospatial", "variant": "fixed"}, "field": ["x", "y"], "output_format": "dense"}',
        id="geospatial_fixed_explicit_speed_defaults",
    ),
    pytest.param(
        {"encoder": {"type": "geospatial", "n": 2048, "variant": "topw", "w": 21, "radius": 3, "radius_min": 2, "radius_max": 9, "speed_scale": 1, "cell_size": 10}, "field": ["lat", "lon"], "speed_field": "speed"},
        '{"csv": {"delimiter": ","}, "encoder": {"cell_size": 10.0, "n": 2048, "radius": 3, "radius_max": 9, "radius_min": 2, "seed": 0, "speed_scale": 1.0, "type": "geospatial", "variant": "topw", "w": 21}, "field": ["lat", "lon"], "output_format": "dense", "speed_field": "speed"}',
        id="geospatial_topw_speed_cell_size",
    ),
    pytest.param(
        {"encoder": {"type": "multi", "parts": [{"field": "t", "encoder": {"type": "scalar", "min": 0, "max": 1, "n": 134, "w": 21}}, {"field": ["x", "y"], "speed_field": "v", "encoder": {"type": "geospatial", "n": 512, "variant": "topw", "w": 21, "radius": 2, "radius_max": 8, "speed_scale": 0.2}}, {"field": "ts", "encoder": {"type": "datetime", "weekend": {"w": 21}}}]}, "output_format": "self-describing-sparse", "csv": {"delimiter": ";"}},
        '{"csv": {"delimiter": ";"}, "encoder": {"parts": [{"encoder": {"max": 1.0, "min": 0.0, "n": 134, "type": "scalar", "w": 21}, "field": "t"}, {"encoder": {"n": 512, "radius": 2, "radius_max": 8, "radius_min": 2, "seed": 0, "speed_scale": 0.2, "type": "geospatial", "variant": "topw", "w": 21}, "field": ["x", "y"], "speed_field": "v"}, {"encoder": {"type": "datetime", "weekend": {"w": 21}}, "field": "ts"}], "type": "multi"}, "output_format": "sparse-n"}',
        id="multi",
    ),
    pytest.param(
        {"encoder": {"type": "scalar", "min": 0, "max": 45, "n": 134, "w": 21}, "field": "v", "distance": "absolute"},
        '{"csv": {"delimiter": ","}, "distance": "absolute", "encoder": {"max": 45.0, "min": 0.0, "n": 134, "type": "scalar", "w": 21}, "field": "v", "output_format": "dense"}',
        id="distance_absolute",
    ),
    pytest.param(
        {"encoder": {"type": "category", "categories": ["a", "b"], "w": 21}, "field": "v", "distance": "discrete"},
        '{"csv": {"delimiter": ","}, "distance": "discrete", "encoder": {"categories": ["a", "b"], "type": "category", "unknown_policy": "error", "w": 21}, "field": "v", "output_format": "dense"}',
        id="distance_discrete",
    ),
    pytest.param(
        {"encoder": {"type": "geospatial", "n": 1000}, "field": ["x", "y"], "distance": "chebyshev"},
        '{"csv": {"delimiter": ","}, "distance": "chebyshev", "encoder": {"n": 1000, "radius": 2, "radius_max": 2, "radius_min": 2, "seed": 0, "speed_scale": 0.0, "type": "geospatial", "variant": "fixed"}, "field": ["x", "y"], "output_format": "dense"}',
        id="distance_chebyshev",
    ),
    pytest.param(
        {"encoder": {"type": "scalar", "min": 0, "max": 45, "n": 134, "w": 21}, "field": "v", "distance": {"name": "absolute"}},
        '{"csv": {"delimiter": ","}, "distance": "absolute", "encoder": {"max": 45.0, "min": 0.0, "n": 134, "type": "scalar", "w": 21}, "field": "v", "output_format": "dense"}',
        id="distance_by_name",
    ),
    pytest.param(
        {"encoder": {"type": "cyclic", "period": 24, "n": 100, "w": 21}, "field": "h", "distance": {"name": "circular", "period": 24}},
        '{"csv": {"delimiter": ","}, "distance": {"name": "circular", "period": 24.0}, "encoder": {"n": 100, "period": 24.0, "type": "cyclic", "w": 21}, "field": "h", "output_format": "dense"}',
        id="distance_circular",
    ),
    pytest.param(
        {"encoder": {"type": "geospatial", "n": 1000}, "field": ["x", "y"], "distance": {"expression": "max(abs(a[0] - b[0]), abs(a[1] - b[1]))"}},
        '{"csv": {"delimiter": ","}, "distance": {"expression": "max(abs(a[0] - b[0]), abs(a[1] - b[1]))"}, "encoder": {"n": 1000, "radius": 2, "radius_max": 2, "radius_min": 2, "seed": 0, "speed_scale": 0.0, "type": "geospatial", "variant": "fixed"}, "field": ["x", "y"], "output_format": "dense"}',
        id="distance_expression",
    ),
]


@pytest.mark.parametrize("raw, expected", CASES)
def test_canonical_echo(raw, expected):
    echo = parse_pipeline_config(raw).spec
    assert json.dumps(echo, sort_keys=True) == expected
