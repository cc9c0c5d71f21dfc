"""Fuzzing the config boundary: whatever JSON a config file holds,
`parse_pipeline_config` returns a `PipelineConfig` or raises `ConfigError`,
never another exception (which the CLI would turn into a traceback and
exit 1 instead of `config error:` and exit 2).

Parsing builds encoders but never encodes, so the huge integers below
allocate nothing.
"""

import copy
import math

import pytest
from hypothesis import example, given, settings, strategies as st

from sdrkit.composite import DATETIME_COMPONENT_ORDER
from sdrkit.config import ENCODER_TYPES, PipelineConfig, parse_pipeline_config
from sdrkit.errors import ConfigError

KEYS = sorted({
    "encoder", "field", "speed_field", "output_format", "csv", "delimiter",
    "distance", "name", "period", "expression", "type", "parts",
    *DATETIME_COMPONENT_ORDER,
    *(key for entry in ENCODER_TYPES.values() for key in entry.keys),
})
WORDS = sorted({
    *ENCODER_TYPES, "multi", "fixed", "topw", "error", "catch_all",
    "absolute", "discrete", "chebyshev", "circular", "dense", "sparse",
    "sparse-n", "self-describing-sparse", ",", ";", "x", "y", "abs(a - b)",
})

# Numbers at the edges that matter: zero and negatives, past the signed
# 32-bit grid, integers whose square no float holds, and floats at and
# beyond their range.
EDGES = [0, -1, 2**31, 2**600, -(2**700), 0.5, 1e308, math.inf, math.nan]

leaves = (
    st.none()
    | st.booleans()
    | st.sampled_from(EDGES)
    | st.integers(min_value=-(2**700), max_value=2**700)
    | st.integers(min_value=-3, max_value=40)
    | st.floats(allow_nan=True, allow_infinity=True)
    | st.sampled_from(WORDS)
    | st.text(max_size=8)
)
json_values = st.recursive(
    leaves,
    lambda children: st.lists(children, max_size=4)
    | st.dictionaries(st.sampled_from(KEYS), children, max_size=6),
    max_leaves=24,
)

VALID = [
    {"encoder": {"type": "scalar", "min": 0, "max": 45, "n": 134, "w": 21},
     "field": "temp", "distance": "absolute"},
    {"encoder": {"type": "cyclic", "period": 24, "n": 100, "w": 21}, "field": "h",
     "distance": {"name": "circular", "period": 24}},
    {"encoder": {"type": "scalar_unbounded", "resolution": 0.5, "n": 1000, "w": 21,
                 "seed": 3}, "field": "x", "output_format": "sparse"},
    {"encoder": {"type": "category", "categories": ["a", "b"], "w": 21,
                 "unknown_policy": "catch_all"}, "field": "k", "distance": "discrete"},
    {"encoder": {"type": "geospatial", "n": 2048, "variant": "topw", "w": 21,
                 "radius": 2, "radius_min": 2, "radius_max": 8, "speed_scale": 0.5,
                 "seed": 1, "cell_size": 10.0},
     "field": ["lat", "lon"], "speed_field": "v", "csv": {"delimiter": ";"}},
    {"encoder": {"type": "multi", "parts": [
        {"field": "d", "encoder": {"type": "delta", "min": -5, "max": 5, "n": 134,
                                   "w": 21}},
        {"field": "ts", "encoder": {"type": "datetime", "weekend": {"w": 21},
                                    "time_of_day": {"n": 96, "w": 21}}},
        {"field": ["x", "y"], "encoder": {"type": "geospatial", "n": 1000,
                                          "radius": 1}},
    ]}, "distance": {"expression": "abs(a - b)"}},
]


def _paths(obj, prefix=()):
    """Every (key or index) path into a nested config, parents first."""
    items = obj.items() if isinstance(obj, dict) else enumerate(obj)
    for step, child in items:
        yield prefix + (step,)
        if isinstance(child, (dict, list)):
            yield from _paths(child, prefix + (step,))


@st.composite
def mutated(draw, config):
    """``config`` with one key (or list item) replaced, deleted or added;
    a replacement is an edge number half of the time."""
    config = copy.deepcopy(config)
    path = draw(st.sampled_from(list(_paths(config))))
    parent = config
    for step in path[:-1]:
        parent = parent[step]
    value = st.sampled_from(EDGES) | json_values
    action = draw(st.sampled_from(["replace", "delete", "add"]))
    if action == "replace":
        parent[path[-1]] = draw(value)
    elif action == "delete":
        del parent[path[-1]]
    elif isinstance(parent, dict):
        parent[draw(st.sampled_from(KEYS))] = draw(value)
    else:
        parent.append(draw(value))
    return config


def _parses_or_config_error(raw) -> None:
    try:
        assert isinstance(parse_pipeline_config(raw), PipelineConfig)
    except ConfigError:
        pass


def test_valid_configs_parse():
    for raw in VALID:
        assert isinstance(parse_pipeline_config(raw), PipelineConfig)


@settings(max_examples=200, deadline=None)
@given(json_values)
@example({"encoder": {"type": "scalar", "min": 0, "max": 1, "n": 134, "w": 21},
          "field": "v", "distance": {"name": "circular", "period": -1}})
@example({"encoder": {"type": "geospatial", "n": 1000, "radius": 2**600},
          "field": ["x", "y"]})
@example({**VALID[0], "distance": {"expression": "a" + "+a" * 200000}})
@example({**VALID[0], "distance": {"expression": "-" * 100000 + "1"}})
@example({"encoder": {"type": "scalar", "min": 0, "max": 10**400, "n": 134, "w": 21},
          "field": "v"})
@example({**VALID[0], "distance": {"name": "circular", "period": 10**400}})
def test_arbitrary_json_parses_or_raises_config_error(raw):
    _parses_or_config_error(raw)


@pytest.mark.parametrize("config", VALID, ids=lambda c: c["encoder"]["type"])
@settings(max_examples=150, deadline=None)
@given(data=st.data())
def test_single_key_mutations_parse_or_raise_config_error(config, data):
    _parses_or_config_error(data.draw(mutated(config)))
