"""JSON pipeline configs and the command-line surface."""

import io
import json
import math
import re
import subprocess
import sys
from pathlib import Path

import pytest

from sdrkit import cli, quality
from sdrkit.composite import DatetimeEncoder
from sdrkit.config import parse_pipeline_config
from sdrkit.errors import ConfigError
from sdrkit.geospatial import GridCoordinate, gps_to_grid
from sdrkit.scalars import DeltaEncoder, ScalarEncoder
from sdrkit.sdr import MAX_DENSE_N

ROOT = Path(__file__).resolve().parent.parent
GOLDEN_FIXTURE = Path(__file__).parent / "data" / "golden_hash_vectors.txt"

SCALAR_CONFIG = {
    "encoder": {"type": "scalar", "min": 0, "max": 45, "n": 100, "w": 10},
    "field": "temp",
}


def write(tmp_path, name, content):
    p = tmp_path / name
    if isinstance(content, (dict, list)):
        p.write_text(json.dumps(content), encoding="utf-8")
    else:
        p.write_text(content, encoding="utf-8")
    return str(p)


def run_cli(argv):
    return cli.main(argv)


class TestConfigParsing:
    def test_scalar_happy_path(self):
        cfg = parse_pipeline_config(SCALAR_CONFIG)
        assert cfg.output_format == "dense"
        assert cfg.bound[0].columns == ("temp",)
        assert cfg.multi.n == 100

    def test_unknown_top_level_key(self):
        with pytest.raises(ConfigError, match="typo_key"):
            parse_pipeline_config({**SCALAR_CONFIG, "typo_key": 1})

    def test_unknown_encoder_key(self):
        bad = dict(SCALAR_CONFIG)
        bad["encoder"] = {**bad["encoder"], "resolution": 0.5}
        with pytest.raises(ConfigError, match="resolution"):
            parse_pipeline_config(bad)

    def test_unknown_encoder_type(self):
        with pytest.raises(ConfigError, match="log-scalar"):
            parse_pipeline_config(
                {"encoder": {"type": "log-scalar", "n": 1}, "field": "x"}
            )

    def test_missing_field_binding(self):
        with pytest.raises(ConfigError, match="field"):
            parse_pipeline_config({"encoder": SCALAR_CONFIG["encoder"]})

    def test_non_integer_n_rejected(self):
        with pytest.raises(ConfigError, match="n must be a positive integer, got 100.5"):
            parse_pipeline_config(
                {"encoder": {"type": "scalar", "min": 0, "max": 1, "n": 100.5, "w": 10},
                 "field": "x"}
            )

    def test_bool_is_not_an_integer(self):
        with pytest.raises(ConfigError, match="w must be a positive integer, got True"):
            parse_pipeline_config(
                {"encoder": {"type": "scalar", "min": 0, "max": 1, "n": 100, "w": True},
                 "field": "x"}
            )

    def test_multi_parts(self):
        cfg = parse_pipeline_config({
            "encoder": {"type": "multi", "parts": [
                {"field": "temp",
                 "encoder": {"type": "scalar", "min": 0, "max": 45, "n": 134, "w": 21}},
                {"field": "daytype",
                 "encoder": {"type": "category", "categories": ["weekday", "weekend"],
                             "w": 21}},
            ]},
        })
        assert cfg.multi.n == 134 + 42
        assert [b.name for b in cfg.bound] == ["temp", "daytype"]

    def test_multi_rejects_top_level_field(self):
        with pytest.raises(ConfigError, match="field"):
            parse_pipeline_config({
                "encoder": {"type": "multi", "parts": [
                    {"field": "t", "encoder": SCALAR_CONFIG["encoder"]}
                ]},
                "field": "t",
            })

    def test_multi_cannot_nest(self):
        with pytest.raises(ConfigError, match="nest"):
            parse_pipeline_config({
                "encoder": {"type": "multi", "parts": [
                    {"field": "inner", "encoder": {"type": "multi", "parts": []}},
                ]},
            })

    def test_geospatial_grid_binding(self):
        cfg = parse_pipeline_config({
            "encoder": {"type": "geospatial", "n": 1000, "radius": 2},
            "field": ["x", "y"],
        })
        assert cfg.bound[0].columns == ("x", "y")
        assert cfg.bound[0].value_from_row({"x": "-3", "y": "7"}) == GridCoordinate(-3, 7)

    def test_geospatial_latlon_binding(self):
        cfg = parse_pipeline_config({
            "encoder": {"type": "geospatial", "n": 1000, "radius": 2,
                        "cell_size": 3.048},
            "field": ["lat", "lon"],
        })
        row = {"lat": "37.7749", "lon": "-122.4194"}
        assert cfg.bound[0].value_from_row(row) == gps_to_grid(37.7749, -122.4194, 3.048)

    def test_geospatial_needs_two_columns(self):
        with pytest.raises(ConfigError, match="two-column"):
            parse_pipeline_config({
                "encoder": {"type": "geospatial", "n": 1000},
                "field": "x",
            })

    def test_speed_field_requires_topw(self):
        with pytest.raises(ConfigError, match="topw"):
            parse_pipeline_config({
                "encoder": {"type": "geospatial", "n": 1000, "radius": 2},
                "field": ["x", "y"],
                "speed_field": "speed",
            })

    def test_speed_field_on_scalar_rejected(self):
        with pytest.raises(ConfigError, match="speed_field"):
            parse_pipeline_config({**SCALAR_CONFIG, "speed_field": "v"})

    @pytest.mark.parametrize("config", [
        {"encoder": {"type": "geospatial", "n": 1000, "variant": "topw", "w": 9},
         "field": ["x", "y"], "speed_field": None},
        {**SCALAR_CONFIG, "speed_field": None},
        {"encoder": {"type": "multi", "parts": [
            {**SCALAR_CONFIG, "speed_field": None}]}},
    ], ids=["topw", "scalar", "multi-part"])
    def test_null_speed_field_rejected(self, config):
        # It used to parse as "no speed column" and drop out of the echo.
        with pytest.raises(ConfigError, match="key 'speed_field' must not be null"):
            parse_pipeline_config(config)

    def test_empty_multi_rejected(self):
        with pytest.raises(ConfigError) as exc:
            parse_pipeline_config({"encoder": {"type": "multi", "parts": []}})
        assert str(exc.value) == "config.encoder.parts: must be a non-empty list"

    def test_unknown_distance_name_rejected(self):
        with pytest.raises(ConfigError) as exc:
            parse_pipeline_config({**SCALAR_CONFIG, "distance": {"name": "euclid"}})
        assert str(exc.value) == "config.distance: unknown distance name 'euclid'"

    @pytest.mark.parametrize("distance, message", [
        ("euclid", "unknown distance name 'euclid'"),
        ("circular", "missing required key(s) ['period']"),
        ({"name": "circular"}, "missing required key(s) ['period']"),
        ({"name": "absolute", "period": 3}, "unknown key(s) ['period']"),
        ({"name": "discrete", "period": 3}, "unknown key(s) ['period']"),
        ({"name": "chebyshev", "period": 3}, "unknown key(s) ['period']"),
    ], ids=["unknown-string", "circular-string", "circular-without-period",
            "absolute-period", "discrete-period", "chebyshev-period"])
    def test_only_circular_takes_a_period(self, distance, message):
        # A bare "circular" used to be called unknown, and a period on any
        # other name was dropped without a word.
        with pytest.raises(ConfigError) as exc:
            parse_pipeline_config({**SCALAR_CONFIG, "distance": distance})
        assert str(exc.value) == f"config.distance: {message}"

    @pytest.mark.parametrize("name", ["absolute", "discrete", "chebyshev"])
    def test_a_distance_name_means_its_name_object(self, name):
        by_string = parse_pipeline_config({**SCALAR_CONFIG, "distance": name})
        by_object = parse_pipeline_config({**SCALAR_CONFIG, "distance": {"name": name}})
        assert by_string.distance is by_object.distance
        assert by_string.spec == by_object.spec and by_string.spec["distance"] == name

    @pytest.mark.parametrize("period, shown", [(0, "0"), (-1, "-1"), (-0.5, "-0.5"),
                                               ("7", "'7'"), (True, "True"),
                                               (math.inf, "inf")])
    def test_circular_period_checked_by_circular_distance(self, period, shown):
        with pytest.raises(ConfigError) as exc:
            parse_pipeline_config(
                {**SCALAR_CONFIG, "distance": {"name": "circular", "period": period}})
        assert str(exc.value) == (
            f"config.distance: period must be positive and finite, got {shown}")

    def test_circular_distance_keeps_the_period_as_given(self):
        cfg = parse_pipeline_config(
            {**SCALAR_CONFIG, "distance": {"name": "circular", "period": 24}})
        assert cfg.spec["distance"] == {"name": "circular", "period": 24.0}
        assert cfg.distance(1, 23) == 2 and cfg.distance(0.5, 23.0) == 1.5

    def test_datetime_components(self):
        cfg = parse_pipeline_config({
            "encoder": {"type": "datetime",
                        "weekend": {"w": 50},
                        "day_of_week": {"n": 70, "w": 21}},
            "field": "ts",
        })
        assert cfg.multi.n == 100 + 70

    def test_datetime_unknown_component_key(self):
        with pytest.raises(ConfigError, match="hour_of_day"):
            parse_pipeline_config({
                "encoder": {"type": "datetime", "hour_of_day": {"n": 10, "w": 3}},
                "field": "ts",
            })

    @pytest.mark.parametrize("component, message", [
        (True, "takes the keys ['n', 'w'], got True"),
        ([96, 21], "takes the keys ['n', 'w'], got [96, 21]"),
        ({"n": 96, "w": 21, "x": 1},
         "takes the keys ['n', 'w'], got {'n': 96, 'w': 21, 'x': 1}"),
        ({"n": 96}, "takes the keys ['n', 'w'], got {'n': 96}"),
        ({"n": 96, "w": 1.5}, "w must be a positive integer, got 1.5"),
    ], ids=["true", "pair", "unknown-key", "missing-key", "float-w"])
    def test_datetime_component_is_an_n_w_object(self, component, message):
        # The library and a config take only the object form that the echo
        # shows, and reject anything else with the same message.
        with pytest.raises(ConfigError) as library:
            DatetimeEncoder(time_of_day=component)
        assert str(library.value) == f"time_of_day component: {message}"
        with pytest.raises(ConfigError) as config:
            parse_pipeline_config({
                "encoder": {"type": "datetime", "time_of_day": component}, "field": "ts",
            })
        assert str(config.value) == f"config.encoder: {library.value}"

    def test_output_format_alias(self):
        cfg = parse_pipeline_config(
            {**SCALAR_CONFIG, "output_format": "self-describing-sparse"}
        )
        assert cfg.output_format == "sparse-n"

    def test_bad_output_format(self):
        with pytest.raises(ConfigError, match="output_format"):
            parse_pipeline_config({**SCALAR_CONFIG, "output_format": "binary"})

    def test_csv_options(self):
        cfg = parse_pipeline_config(
            {**SCALAR_CONFIG, "csv": {"delimiter": ";"}}
        )
        assert cfg.delimiter == ";"
        with pytest.raises(ConfigError, match="delimiter"):
            parse_pipeline_config({**SCALAR_CONFIG, "csv": {"delimiter": ";;"}})

    def test_distance_specs(self):
        for spec in ("absolute", "discrete", "chebyshev",
                     {"name": "circular", "period": 7},
                     {"expression": "abs(a - b)"}):
            cfg = parse_pipeline_config({**SCALAR_CONFIG, "distance": spec})
            assert cfg.distance is not None
        with pytest.raises(ConfigError, match="euclidean"):
            parse_pipeline_config({**SCALAR_CONFIG, "distance": "euclidean"})
        with pytest.raises(ConfigError, match="period"):
            parse_pipeline_config({**SCALAR_CONFIG, "distance": {"name": "circular"}})
        for period in (0, -1, -0.5):
            with pytest.raises(ConfigError, match="period"):
                parse_pipeline_config(
                    {**SCALAR_CONFIG, "distance": {"name": "circular", "period": period}}
                )

    def test_expression_distance_evaluates(self):
        cfg = parse_pipeline_config(
            {**SCALAR_CONFIG, "distance": {"expression": "min(abs(a-b), 3)"}}
        )
        assert cfg.distance(0, 10) == 3
        assert cfg.distance(1, 2) == 1

    def test_expressions_in_use_parse_and_keep_their_values(self):
        """Every expression in the README, the benchmark workloads and the
        tests passes the whitelist and evaluates as plain Python does."""
        sources = [ROOT / "README.md", ROOT / "bench" / "workloads.py",
                   *sorted((ROOT / "tests").glob("*.py"))]
        found = {e for path in sources if path.name != Path(__file__).name
                 for e in re.findall(r'"expression": "([^"]*)"}',
                                     path.read_text(encoding="utf-8"))}
        assert {"a - b", "abs(a - b)", "max(abs(a[0] - b[0]), abs(a[1] - b[1]))"} <= found
        found.add("min(abs(a-b), 3)")  # this file's own
        numbers = [0, 1, -2.5, 10, 1e300, -1e300]
        cells = [(0, 0), (3, -4), (-(2 ** 31), 2 ** 31 - 1)]
        env = {"abs": abs, "min": min, "max": max, "math": math}
        for expr in found:
            distance = parse_pipeline_config(
                {**SCALAR_CONFIG, "distance": {"expression": expr}}).distance
            values = cells if "[" in expr else numbers
            for a in values:
                for b in values:
                    want = eval(expr, {"__builtins__": {}}, {**env, "a": a, "b": b})
                    assert distance(a, b) == want

    @pytest.mark.parametrize("expr", [
        "a ** 64", "(a ** 8) ** 8", "a ** -2", "a ** 0.5 + b ** +3",
        "math.sqrt(a * a + b * b)", "math.pi * a", "-a if a < b else not b",
        "a and b or 1", "a // 2 % 3 / 4", "1 <= a != b", "min(a, b, 0.5)",
        "+".join(["a"] * 128),
        " + ".join(f"math.{f}(a)" for f in ("fabs", "sqrt", "exp", "log", "log2", "log10",
                                              "sin", "cos", "tan", "asin", "acos", "atan",
                                              "floor", "ceil", "trunc")),
        "math.atan2(a, b) + math.hypot(a, b) + math.copysign(a, b) + math.fmod(a, b)",
        "math.e + math.tau + math.inf",
        "max(abs(a[0][0] - b[0][0]), abs(a[0][1] - b[0][1]))",
    ])
    def test_expression_whitelist_accepts(self, expr):
        parse_pipeline_config({**SCALAR_CONFIG, "distance": {"expression": expr}})

    @pytest.mark.parametrize("expr, message", [
        ("().__class__.__base__.__subclasses__().__len__()", "is not allowed"),
        ("__import__('os').system('true')", "is not allowed"),
        ("__import__('os')", "'__import__' is not allowed"),
        ("a.__class__", "'a.__class__' is not allowed"),
        ("math.__loader__", "is not allowed"),
        ("math.factorial(10 ** 6)", "'math.factorial' is not allowed"),
        ("math.comb(a, b)", "'math.comb' is not allowed"),
        ("math.perm(a, b)", "'math.perm' is not allowed"),
        ("math.pow(a, 2)", "'math.pow' is not allowed"),
        ("math", "'math' is not allowed"),
        ("abs", "'abs' is not allowed"),
        ("sum([a, b])", "'sum' is not allowed"),
        ("eval('1')", "'eval' is not allowed"),
        ("c", "'c' is not allowed"),
        ("'x' * 10", "\"'x'\" is not allowed"),
        ("b'x'", "is not allowed"),
        ("1j", "'1j' is not allowed"),
        ("True", "'True' is not allowed"),
        ("None", "'None' is not allowed"),
        ("...", "'...' is not allowed"),
        ("a << 1000", "'a << 1000' is not allowed"),
        ("a >> 1", "is not allowed"),
        ("a & b", "is not allowed"),
        ("a | b", "is not allowed"),
        ("a ^ b", "is not allowed"),
        ("~a", "'~a' is not allowed"),
        ("a @ b", "is not allowed"),
        ("a in b", "is not allowed"),
        ("a is b", "is not allowed"),
        ("lambda: 1", "is not allowed"),
        ("[x for x in (1, 2)]", "is not allowed"),
        ("{x: 1 for x in (1, 2)}", "is not allowed"),
        ("(x := 1)", "is not allowed"),
        ("max(*a)", "'*a' is not allowed"),
        ("max(a, key=abs)", "keyword arguments are not allowed"),
        ("(a, b)", "'(a, b)' is not allowed"),
        ("[a]", "is not allowed"),
        ("{a}", "is not allowed"),
        ("{1: a}", "is not allowed"),
        ("f'{a}'", "is not allowed"),
        ("a[0:1]", "'a[0:1]' is not allowed"),
        ("a[b]", "'a[b]' is not allowed"),
        ("a[-1]", "'a[-1]' is not allowed"),
        ("a[True]", "is not allowed"),
        ("(a + b)[0]", "is not allowed"),
        ("abs[0]", "'abs' is not allowed"),
        ("a[0][b]", "'a[0][b]' is not allowed"),
        ("a ** b", "'a ** b' is not allowed"),
        ("a ** 65", "multiply to more than 64"),
        ("(a ** 8) ** 9", "multiply to more than 64"),
        ("(a ** 1000000) ** 0", "multiply to more than 64"),
        ("(a ** 1000) ** 0.01", "multiply to more than 64"),
        ("a ** 1e999", "multiply to more than 64"),
        ("10**10**10", "'10 ** 10 ** 10' is not allowed"),
        ("+".join(["a"] * 129), "more than 256 nodes"),
        ("a +", "invalid syntax"),
        ("a\x00", "null bytes"),
    ])
    def test_expression_whitelist_rejects(self, expr, message):
        with pytest.raises(ConfigError) as exc:
            parse_pipeline_config({**SCALAR_CONFIG, "distance": {"expression": expr}})
        assert str(exc.value).startswith("config.distance: invalid expression: ")
        assert message in str(exc.value)

    def test_warnings_surface(self):
        cfg = parse_pipeline_config(SCALAR_CONFIG)  # w=10 < 20
        assert any("20" in message for message in cfg.warnings)

    @pytest.mark.parametrize("raw", [
        SCALAR_CONFIG,
        {"encoder": {"type": "cyclic", "period": 7, "n": 70, "w": 21}, "field": "dow"},
        {"encoder": {"type": "delta", "min": -5, "max": 5, "n": 134, "w": 21},
         "field": "load"},
        {"encoder": {"type": "scalar_unbounded", "resolution": 0.25, "n": 1000,
                     "w": 25, "seed": 7}, "field": "x"},
        {"encoder": {"type": "category", "categories": ["a", "b"], "w": 21},
         "field": "kind"},
        {"encoder": {"type": "geospatial", "n": 2048, "w": 41, "variant": "topw",
                     "radius": 3, "seed": 5, "speed_scale": 0.1,
                     "radius_min": 3, "radius_max": 9},
         "field": ["x", "y"], "speed_field": "speed"},
        {"encoder": {"type": "datetime", "weekend": {"w": 50},
                     "time_of_day": {"n": 96, "w": 21}}, "field": "ts"},
        {"encoder": {"type": "multi", "parts": [
            {"field": "t", "encoder": {"type": "scalar", "min": 0, "max": 1,
                                       "n": 134, "w": 21}},
            {"field": ["lat", "lon"], "encoder": {"type": "geospatial", "n": 1000,
                                                  "radius": 2, "cell_size": 10.0}},
        ]}, "distance": "absolute"},
    ])
    def test_round_trip_is_stable(self, raw):
        first = parse_pipeline_config(raw).spec
        second = parse_pipeline_config(first).spec
        assert first == second


class TestEncodeCommand:
    def test_dense_output(self, tmp_path, capsys):
        cfg = write(tmp_path, "cfg.json", SCALAR_CONFIG)
        data = write(tmp_path, "in.csv", "temp\n10\n")
        out = tmp_path / "out.txt"
        rc = run_cli(["encode", "--config", cfg, "--input", data,
                      "--output", str(out)])
        assert rc == 0
        line = out.read_text().strip()
        assert len(line) == 100
        assert [i for i, ch in enumerate(line) if ch == "1"] == list(range(20, 30))
        err = capsys.readouterr().err
        assert "warning" in err and "20" in err  # w=10 guidance on stderr

    def test_sparse_output(self, tmp_path):
        cfg = write(tmp_path, "cfg.json", {**SCALAR_CONFIG, "output_format": "sparse"})
        data = write(tmp_path, "in.csv", "temp\n10\n")
        out = tmp_path / "out.txt"
        assert run_cli(["encode", "--config", cfg, "--input", data,
                        "--output", str(out)]) == 0
        assert out.read_text().strip() == "20,21,22,23,24,25,26,27,28,29"

    def test_sparse_n_format_flag_overrides_config(self, tmp_path):
        cfg = write(tmp_path, "cfg.json", SCALAR_CONFIG)
        data = write(tmp_path, "in.csv", "temp\n10\n")
        out = tmp_path / "out.txt"
        assert run_cli(["encode", "--config", cfg, "--input", data,
                        "--output", str(out), "--format", "sparse-n"]) == 0
        assert out.read_text().startswith("n=100;20,")

    @pytest.mark.parametrize("output_format, flag", [
        ("dense", []), ("sparse", ["--format", "dense"]),
    ], ids=["config-format", "format-flag"])
    def test_dense_output_beyond_max_dense_n_is_a_config_error(self, tmp_path, capsys,
                                                               output_format, flag):
        # A dense line holds n characters, so the size is refused up front.
        cfg = write(tmp_path, "cfg.json", {
            "encoder": {"type": "scalar_unbounded", "resolution": 1, "n": 2 ** 1100,
                        "w": 21},
            "field": "v", "output_format": output_format,
        })
        out = tmp_path / "out.txt"
        rc = run_cli(["encode", "--config", cfg, "--input", str(tmp_path / "absent.csv"),
                      "--output", str(out), *flag])
        assert rc == 2
        assert capsys.readouterr().err == (
            f"config error: dense output takes n <= MAX_DENSE_N ({MAX_DENSE_N}), "
            f"got n={2 ** 1100}; use a sparse format\n")
        assert not out.exists()  # refused before any input is read

    def test_sparse_output_takes_any_n(self, tmp_path):
        cfg = write(tmp_path, "cfg.json", {
            "encoder": {"type": "scalar_unbounded", "resolution": 1, "n": 2 ** 1100,
                        "w": 21},
            "field": "v", "output_format": "dense",
        })
        data = write(tmp_path, "in.csv", "v\n1\n")
        out = tmp_path / "out.txt"
        assert run_cli(["encode", "--config", cfg, "--input", data,
                        "--output", str(out), "--format", "sparse-n"]) == 0
        assert out.read_text().startswith(f"n={2 ** 1100};")

    def test_dense_output_of_max_dense_n_is_allowed(self, tmp_path):
        cfg = write(tmp_path, "cfg.json", {
            "encoder": {"type": "scalar_unbounded", "resolution": 1, "n": MAX_DENSE_N,
                        "w": 21},
            "field": "v",
        })
        data = write(tmp_path, "in.csv", "v\n")  # no rows: no line is built
        assert run_cli(["encode", "--config", cfg, "--input", data]) == 0

    def test_one_line_per_row_in_order(self, tmp_path):
        cfg = write(tmp_path, "cfg.json", {**SCALAR_CONFIG, "output_format": "sparse"})
        data = write(tmp_path, "in.csv", "temp,junk\n0,a\n10,b\n45,c\n")
        out = tmp_path / "out.txt"
        assert run_cli(["encode", "--config", cfg, "--input", data,
                        "--output", str(out)]) == 0
        lines = out.read_text().splitlines()
        assert len(lines) == 3
        assert lines[0].startswith("0,")
        assert lines[2].endswith("99")

    def test_delta_state_threads_through_rows(self, tmp_path):
        cfg = write(tmp_path, "cfg.json", {
            "encoder": {"type": "delta", "min": -10, "max": 10, "n": 134, "w": 21},
            "field": "v", "output_format": "sparse",
        })
        data = write(tmp_path, "in.csv", "v\n10\n12\n")
        out = tmp_path / "out.txt"
        assert run_cli(["encode", "--config", cfg, "--input", data,
                        "--output", str(out)]) == 0
        inner = ScalarEncoder(-10, 10, 134, 21)
        expected = [inner.encode(0), inner.encode(2)]
        got = out.read_text().splitlines()
        assert got[0] == ",".join(map(str, expected[0].active))
        assert got[1] == ",".join(map(str, expected[1].active))

    def test_config_error_exit_2(self, tmp_path, capsys):
        cfg = write(tmp_path, "cfg.json", {**SCALAR_CONFIG, "surprise": 1})
        data = write(tmp_path, "in.csv", "temp\n10\n")
        assert run_cli(["encode", "--config", cfg, "--input", data]) == 2
        assert "surprise" in capsys.readouterr().err

    @pytest.mark.parametrize("config, message", [
        (b'{"encoder": {"type": "scalar", "min": 0, "max": 1' + b"0" * 400
         + b', "n": 134, "w": 21}, "field": "temp"}',
         "config.encoder: min and max must be finite numbers"),
        (b'{"encoder": {"type": "scalar", "min": 0, "max": 1' + b"0" * 5000
         + b', "n": 134, "w": 21}, "field": "temp"}', "is not valid JSON"),
        (b'\xff{}', "is not valid JSON"),
        (b'{"encoder": {"type": "scalar", "min": 0, "max": 45, "n": 134, "n": 200, "w": 21},'
         b' "field": "temp"}', "repeats the key 'n'"),
        (b'{"encoder": {"type": "scalar", "min": 0, "max": 45, "n": 134, "w": 21},'
         b' "field": "temp", "field": "t"}', "repeats the key 'field'"),
    ], ids=["401-digit-max", "5001-digit-max", "not-utf-8", "repeated-key",
            "repeated-top-level-key"])
    def test_unreadable_numbers_exit_2(self, tmp_path, capsys, config, message):
        # Each of these used to end in a traceback and exit 1, or, for a
        # repeated key, to keep its last value without a word.
        cfg = tmp_path / "cfg.json"
        cfg.write_bytes(config)
        data = write(tmp_path, "in.csv", "temp\n10\n")
        assert run_cli(["encode", "--config", str(cfg), "--input", data]) == 2
        err = capsys.readouterr().err
        assert err.startswith("config error:") and message in err

    @pytest.mark.parametrize("encoder, message", [
        ({"type": "scalar", "min": 0, "max": 45, "n": 2 ** 1100, "w": 21},
         "leaves no positive finite bucket width"),
        ({"type": "delta", "min": -1, "max": 1, "n": 2 ** 1100, "w": 21},
         "leaves no positive finite bucket width"),
        ({"type": "cyclic", "period": 7, "n": 2 ** 1100, "w": 21},
         "leaves no positive finite bucket width"),
        ({"type": "scalar", "min": 0, "max": 1e-300, "n": 2 ** 1000, "w": 21},
         "leaves no positive finite bucket width"),
        ({"type": "scalar", "min": -1e308, "max": 1e308, "n": 134, "w": 21},
         "leaves no positive finite bucket width"),
        ({"type": "scalar", "min": 0, "max": 45, "n": 2 ** 20, "w": 2 ** 16 + 1},
         "w (65537) cannot exceed MAX_W (65536)"),
        ({"type": "scalar_unbounded", "resolution": 1, "n": 2 ** 20, "w": 2 ** 16 + 1},
         "w (65537) cannot exceed MAX_W (65536)"),
        ({"type": "category", "categories": ["a"], "w": 10 ** 400},
         "cannot exceed MAX_W (65536)"),
        ({"type": "datetime", "weekend": {"w": 2 ** 16 + 1}},
         "cannot exceed MAX_W (65536)"),
    ], ids=["scalar-n", "delta-n", "cyclic-n", "scalar-width-underflow",
            "scalar-span-overflow", "scalar-w", "unbounded-w", "category-w", "weekend-w"])
    def test_sizes_no_encode_can_use_exit_2(self, tmp_path, capsys, encoder, message):
        # Each of these used to pass, then fail on encode with a traceback.
        cfg = write(tmp_path, "cfg.json", {"encoder": encoder, "field": "v"})
        data = write(tmp_path, "in.csv", "v\n1\n")
        assert run_cli(["encode", "--config", cfg, "--input", data]) == 2
        captured = capsys.readouterr()
        assert captured.err.startswith("config error: config.encoder: ")
        assert message in captured.err
        assert captured.out == ""

    def test_data_error_exit_3_names_row_and_column(self, tmp_path, capsys):
        cfg = write(tmp_path, "cfg.json", {**SCALAR_CONFIG, "output_format": "sparse"})
        data = write(tmp_path, "in.csv", "temp\n10\nnot-a-number\n20\n")
        out = tmp_path / "out.txt"
        assert run_cli(["encode", "--config", cfg, "--input", data,
                        "--output", str(out)]) == 3
        err = capsys.readouterr().err
        assert "row 2" in err and "temp" in err
        # partial output up to the failing row was flushed
        assert out.read_text().splitlines() == ["20,21,22,23,24,25,26,27,28,29"]

    def test_missing_header_column_exit_2(self, tmp_path, capsys):
        cfg = write(tmp_path, "cfg.json", SCALAR_CONFIG)
        data = write(tmp_path, "in.csv", "humidity\n10\n")
        assert run_cli(["encode", "--config", cfg, "--input", data]) == 2
        assert "temp" in capsys.readouterr().err

    def test_duplicated_header_column_exit_2(self, tmp_path, capsys):
        cfg = write(tmp_path, "cfg.json", SCALAR_CONFIG)
        data = write(tmp_path, "in.csv", "temp,other,temp\n10,0,40\n")
        out = tmp_path / "out.txt"
        assert run_cli(["encode", "--config", cfg, "--input", data,
                        "--output", str(out)]) == 2
        error = capsys.readouterr().err.splitlines()[-1]  # after sizing warnings
        assert error.startswith("config error:")
        assert "'temp'" in error and "more than once" in error
        assert out.read_text() == ""

    def test_empty_input_exit_3(self, tmp_path):
        cfg = write(tmp_path, "cfg.json", SCALAR_CONFIG)
        data = write(tmp_path, "in.csv", "")
        assert run_cli(["encode", "--config", cfg, "--input", data]) == 3

    def test_short_row_exit_3(self, tmp_path, capsys):
        cfg = write(tmp_path, "cfg.json", {
            "encoder": {"type": "multi", "parts": [
                {"field": "a", "encoder": {"type": "scalar", "min": 0, "max": 1,
                                           "n": 134, "w": 21}},
                {"field": "b", "encoder": {"type": "scalar", "min": 0, "max": 1,
                                           "n": 134, "w": 21}},
            ]},
        })
        data = write(tmp_path, "in.csv", "a,b\n0.5\n")
        assert run_cli(["encode", "--config", cfg, "--input", data]) == 3

    def test_geospatial_with_speed_column(self, tmp_path):
        cfg = write(tmp_path, "cfg.json", {
            "encoder": {"type": "geospatial", "n": 1000, "variant": "topw",
                        "w": 15, "radius": 2, "radius_min": 2, "radius_max": 10,
                        "speed_scale": 0.1, "seed": 3},
            "field": ["x", "y"], "speed_field": "speed",
            "output_format": "sparse",
        })
        data = write(tmp_path, "in.csv", "x,y,speed\n5,10,0\n5,10,20\n")
        out = tmp_path / "out.txt"
        assert run_cli(["encode", "--config", cfg, "--input", data,
                        "--output", str(out)]) == 0
        slow, fast = out.read_text().splitlines()
        assert slow != fast  # radius 2 vs radius 4 select different cells

    def test_latlon_pipeline(self, tmp_path):
        cfg = write(tmp_path, "cfg.json", {
            "encoder": {"type": "geospatial", "n": 1000, "radius": 2,
                        "cell_size": 3.048},
            "field": ["lat", "lon"], "output_format": "sparse",
        })
        data = write(tmp_path, "in.csv", "lat,lon\n37.7749,-122.4194\n")
        out = tmp_path / "out.txt"
        assert run_cli(["encode", "--config", cfg, "--input", data,
                        "--output", str(out)]) == 0
        assert 1 <= len(out.read_text().strip().split(",")) <= 25

    def test_datetime_pipeline(self, tmp_path):
        cfg = write(tmp_path, "cfg.json", {
            "encoder": {"type": "datetime", "weekend": {"w": 50}},
            "field": "ts", "output_format": "sparse",
        })
        data = write(tmp_path, "in.csv", "ts\n2023-01-07T12:00:00\n2023-01-09T12:00:00\n")
        out = tmp_path / "out.txt"
        assert run_cli(["encode", "--config", cfg, "--input", data,
                        "--output", str(out)]) == 0
        sat, mon = out.read_text().splitlines()
        assert sat.split(",")[0] == "50"
        assert mon.split(",")[0] == "0"

    def test_datetime_warnings_name_field_and_component(self, tmp_path, capsys):
        cfg = write(tmp_path, "cfg.json", {
            "encoder": {"type": "multi", "parts": [
                {"field": "ts", "encoder": {"type": "datetime", "weekend": {"w": 50},
                                            "time_of_day": {"n": 100, "w": 10}}},
            ]},
        })
        data = write(tmp_path, "in.csv", "ts\n2023-01-07T12:00:00\n")
        assert run_cli(["encode", "--config", cfg, "--input", data,
                        "--output", str(tmp_path / "out.txt")]) == 0
        assert capsys.readouterr().err.splitlines() == [
            "warning: field 'ts': field 'weekend' (w=50) has more than 3x the one-bits "
            "of 'time_of_day' (w=10) and may dominate the combined encoding",
            "warning: field 'ts': field 'time_of_day': w=10 is below the recommended "
            "minimum of 20 one-bits; small codes are fragile under noise and subsampling",
        ]

    def test_datetime_utc_offset_is_ignored(self, tmp_path):
        cfg = write(tmp_path, "cfg.json", {
            "encoder": {"type": "datetime", "weekend": {"w": 21},
                        "time_of_day": {"n": 100, "w": 21}},
            "field": "ts", "output_format": "sparse",
        })
        data = write(tmp_path, "in.csv", "ts\n2024-01-06T12:00:00\n2024-01-06T12:00:00+05:00\n"
                                         "2024-01-06T12:00:00-08:00\n2024-01-06T12:00:00+00:00\n")
        out = tmp_path / "out.txt"
        assert run_cli(["encode", "--config", cfg, "--input", data,
                        "--output", str(out)]) == 0
        lines = out.read_text().splitlines()
        assert len(lines) == 4 and len(set(lines)) == 1

    # (a form `datetime.fromisoformat` takes from Python 3.11 on, the same
    # instant in a form every supported version takes)
    @pytest.mark.parametrize("newer, portable", [
        ("2024-01-06T12:00:00Z", "2024-01-06T12:00:00+00:00"),
        ("2024-01-06T12:00:00.5", "2024-01-06T12:00:00.500"),
        ("20240106T120000", "2024-01-06T12:00:00"),
    ])
    def test_iso_forms_past_python_3_10(self, tmp_path, capsys, newer, portable):
        cfg = write(tmp_path, "cfg.json", {
            "encoder": {"type": "datetime", "weekend": {"w": 21},
                        "time_of_day": {"n": 100, "w": 21}},
            "field": "ts", "output_format": "sparse",
        })
        data = write(tmp_path, "in.csv", f"ts\n{portable}\n{newer}\n")
        out = tmp_path / "out.txt"
        code = run_cli(["encode", "--config", cfg, "--input", data, "--output", str(out)])
        lines = out.read_text().splitlines()
        if sys.version_info >= (3, 11):
            assert code == 0
            assert len(lines) == 2 and lines[0] == lines[1]
        else:
            assert code == 3
            assert len(lines) == 1
            assert capsys.readouterr().err.endswith(
                f"data error: row 2: column 'ts': cannot parse {newer!r} as an ISO "
                "timestamp\n")

    def test_infinite_speed_exit_3(self, tmp_path, capsys):
        cfg = write(tmp_path, "cfg.json", {
            "encoder": {"type": "geospatial", "n": 1000, "variant": "topw",
                        "w": 15, "radius": 2, "radius_min": 2, "radius_max": 10,
                        "speed_scale": 0.1, "seed": 3},
            "field": ["x", "y"], "speed_field": "speed", "output_format": "sparse",
        })
        data = write(tmp_path, "in.csv", "x,y,speed\n5,10,1\n5,10,inf\n")
        out = tmp_path / "out.txt"
        assert run_cli(["encode", "--config", cfg, "--input", data,
                        "--output", str(out)]) == 3
        assert capsys.readouterr().err.startswith("data error: row 2: ")
        assert len(out.read_text().splitlines()) == 1

    def test_speed_product_past_the_float_range_clamps(self, tmp_path):
        cfg = write(tmp_path, "cfg.json", {
            "encoder": {"type": "geospatial", "n": 1000, "variant": "topw",
                        "w": 15, "radius": 2, "radius_min": 2, "radius_max": 10,
                        "speed_scale": 1e300, "seed": 3},
            "field": ["x", "y"], "speed_field": "speed", "output_format": "sparse",
        })
        data = write(tmp_path, "in.csv", "x,y,speed\n5,10,1e308\n5,10,1\n")
        out = tmp_path / "out.txt"
        assert run_cli(["encode", "--config", cfg, "--input", data,
                        "--output", str(out)]) == 0
        overflowed, at_radius_max = out.read_text().splitlines()
        assert overflowed == at_radius_max


class TestEvaluateCommand:
    def grid_csv(self, tmp_path):
        rows = "\n".join(str((i + 0.5) * 0.225) for i in range(200))
        return write(tmp_path, "samples.csv", "v\n" + rows + "\n")

    def test_clean_distance_exits_0(self, tmp_path, capsys):
        cfg = write(tmp_path, "cfg.json", {
            "encoder": {"type": "scalar", "min": 0, "max": 45, "n": 221, "w": 21},
            "field": "v", "distance": "absolute",
        })
        rc = run_cli(["evaluate", "--config", cfg,
                      "--input", self.grid_csv(tmp_path), "--quadruples", "2000"])
        captured = capsys.readouterr()
        assert rc == 0
        assert "discordance_rate: 0.000000" in captured.out
        assert "non_negativity: 0 violation" in captured.out
        assert "elapsed_seconds" in captured.err  # timing stays off stdout

    def test_asymmetric_distance_exits_4(self, tmp_path, capsys):
        cfg = write(tmp_path, "cfg.json", {
            "encoder": {"type": "scalar", "min": 0, "max": 45, "n": 221, "w": 21},
            "field": "v", "distance": {"expression": "a - b"},
        })
        rc = run_cli(["evaluate", "--config", cfg,
                      "--input", self.grid_csv(tmp_path), "--quadruples", "500"])
        captured = capsys.readouterr()
        assert rc == 4
        assert "symmetry" in captured.out

    def test_report_is_byte_identical_across_runs(self, tmp_path, capsys):
        cfg = write(tmp_path, "cfg.json", {
            "encoder": {"type": "scalar", "min": 0, "max": 45, "n": 221, "w": 21},
            "field": "v", "distance": "absolute",
        })
        data = self.grid_csv(tmp_path)
        outputs = []
        for _ in range(2):
            rc = run_cli(["evaluate", "--config", cfg, "--input", data,
                          "--quadruples", "1000", "--seed", "7"])
            assert rc == 0
            outputs.append(capsys.readouterr().out)
        assert outputs[0] == outputs[1]

    @pytest.mark.parametrize("count", ["-5", "-1", "many"])
    def test_bad_quadruple_count_exit_2(self, tmp_path, capsys, count):
        cfg = write(tmp_path, "cfg.json", {
            "encoder": {"type": "scalar", "min": 0, "max": 45, "n": 221, "w": 21},
            "field": "v", "distance": "absolute",
        })
        with pytest.raises(SystemExit) as exit_info:
            run_cli(["evaluate", "--config", cfg, "--input", self.grid_csv(tmp_path),
                     "--quadruples", count])
        assert exit_info.value.code == 2
        captured = capsys.readouterr()
        assert "--quadruples" in captured.err
        assert captured.out == ""

    def test_zero_quadruples_exit_0(self, tmp_path, capsys):
        cfg = write(tmp_path, "cfg.json", {
            "encoder": {"type": "scalar", "min": 0, "max": 45, "n": 221, "w": 21},
            "field": "v", "distance": "absolute",
        })
        rc = run_cli(["evaluate", "--config", cfg,
                      "--input", self.grid_csv(tmp_path), "--quadruples", "0"])
        out = capsys.readouterr().out
        assert rc == 0
        assert "identity: 0 violation(s)" in out
        assert "quadruples_sampled" not in out

    def test_duplicated_header_column_exit_2(self, tmp_path, capsys):
        cfg = write(tmp_path, "cfg.json", {
            "encoder": {"type": "scalar", "min": 0, "max": 45, "n": 221, "w": 21},
            "field": "v", "distance": "absolute",
        })
        data = write(tmp_path, "samples.csv", "v,v\n1,2\n3,4\n")
        assert run_cli(["evaluate", "--config", cfg, "--input", data]) == 2
        captured = capsys.readouterr()
        error = captured.err.splitlines()[-1]
        assert error.startswith("config error:")
        assert "'v'" in error and "more than once" in error
        assert captured.out == ""

    @pytest.mark.parametrize("rows", ["1,2\n3\n4,5\n", "1,2\n3,4,5\n4,5\n"],
                             ids=["short", "long"])
    def test_row_field_count_exit_3(self, tmp_path, capsys, rows):
        cfg = write(tmp_path, "cfg.json", {
            "encoder": {"type": "scalar", "min": 0, "max": 45, "n": 221, "w": 21},
            "field": "v", "distance": "absolute",
        })
        data = write(tmp_path, "samples.csv", "a,v\n" + rows)
        assert run_cli(["evaluate", "--config", cfg, "--input", data]) == 3
        captured = capsys.readouterr()
        assert "data error: row 2: expected 2 fields per the header" in captured.err
        assert captured.out == ""

    def test_circular_period_not_positive_exit_2(self, tmp_path, capsys):
        cfg = write(tmp_path, "cfg.json", {
            "encoder": {"type": "cyclic", "period": 24, "n": 100, "w": 21},
            "field": "v", "distance": {"name": "circular", "period": -1},
        })
        data = write(tmp_path, "samples.csv", "v\n1\n2\n")
        assert run_cli(["evaluate", "--config", cfg, "--input", data]) == 2
        assert capsys.readouterr().err.startswith("config error:")

    @pytest.mark.parametrize("expression", ["a" + "+a" * 200000, "-" * 100000 + "1"],
                             ids=["long-sum", "deep-unary"])
    def test_expression_too_deep_to_compile_exit_2(self, tmp_path, capsys, expression):
        cfg = write(tmp_path, "cfg.json", {
            "encoder": {"type": "scalar", "min": 0, "max": 45, "n": 221, "w": 21},
            "field": "v", "distance": {"expression": expression},
        })
        data = write(tmp_path, "samples.csv", "v\n1\n2\n")
        assert run_cli(["evaluate", "--config", cfg, "--input", data]) == 2
        captured = capsys.readouterr()
        assert captured.err.startswith("config error: config.distance: invalid expression")
        assert captured.out == ""

    def test_expression_escape_exit_2(self, tmp_path, capsys):
        # Without the whitelist this evaluates to the interpreter's subclass
        # count: arbitrary code from a config file.
        cfg = write(tmp_path, "cfg.json", {
            "encoder": {"type": "scalar", "min": 0, "max": 45, "n": 221, "w": 21},
            "field": "v",
            "distance": {"expression": "().__class__.__base__.__subclasses__().__len__()"},
        })
        data = write(tmp_path, "samples.csv", "v\n1\n2\n3\n4\n")
        assert run_cli(["evaluate", "--config", cfg, "--input", data]) == 2
        captured = capsys.readouterr()
        assert captured.err.startswith("config error: config.distance: invalid expression: ")
        assert captured.out == ""

    def test_speed_pairs_evaluate_with_a_cell_expression(self, tmp_path, capsys):
        # A speed column makes each sample a ((x, y), speed) pair.
        cfg = write(tmp_path, "cfg.json", {
            "encoder": {"type": "geospatial", "n": 1000, "variant": "topw", "w": 15,
                        "radius_max": 6, "speed_scale": 0.1},
            "field": ["x", "y"], "speed_field": "speed",
            "distance": {"expression": "max(abs(a[0][0] - b[0][0]), abs(a[0][1] - b[0][1]))"},
        })
        data = write(tmp_path, "samples.csv",
                     "x,y,speed\n0,0,0\n1,0,5\n3,4,20\n-2,7,40\n9,9,1\n")
        assert run_cli(["evaluate", "--config", cfg, "--input", data,
                        "--quadruples", "50"]) == 0
        out = capsys.readouterr().out
        assert "samples_checked: 5" in out and "  symmetry: 0 violation(s)" in out

    def test_requires_distance(self, tmp_path, capsys):
        cfg = write(tmp_path, "cfg.json", {
            "encoder": {"type": "scalar", "min": 0, "max": 45, "n": 221, "w": 21},
            "field": "v",
        })
        assert run_cli(["evaluate", "--config", cfg,
                        "--input", self.grid_csv(tmp_path)]) == 2
        assert "distance" in capsys.readouterr().err

    def test_rejects_multi(self, tmp_path, capsys):
        cfg = write(tmp_path, "cfg.json", {
            "encoder": {"type": "multi", "parts": [
                {"field": "v", "encoder": {"type": "scalar", "min": 0, "max": 45,
                                           "n": 221, "w": 21}},
            ]},
            "distance": "absolute",
        })
        assert run_cli(["evaluate", "--config", cfg,
                        "--input", self.grid_csv(tmp_path)]) == 2
        assert "exactly one encoder" in capsys.readouterr().err


class TestCommandEdges:
    def test_missing_config_exit_2(self, tmp_path, capsys):
        missing = str(tmp_path / "missing.json")
        assert run_cli(["encode", "--config", missing, "--input", "-"]) == 2
        captured = capsys.readouterr()
        assert captured.err.startswith(f"config error: cannot read config {missing!r}: ")
        assert captured.out == ""

    def test_encode_reads_stdin(self, tmp_path, capsys, monkeypatch):
        cfg = write(tmp_path, "cfg.json", {**SCALAR_CONFIG, "output_format": "sparse"})
        monkeypatch.setattr(sys, "stdin", io.StringIO("temp\n10\n-5\n"))
        assert run_cli(["encode", "--config", cfg, "--input", "-"]) == 0
        assert capsys.readouterr().out == (
            "20,21,22,23,24,25,26,27,28,29\n0,1,2,3,4,5,6,7,8,9\n")

    def test_evaluate_one_row_exit_3(self, tmp_path, capsys):
        cfg = write(tmp_path, "cfg.json", {**SCALAR_CONFIG, "distance": "absolute"})
        data = write(tmp_path, "samples.csv", "temp\n10\n")
        assert run_cli(["evaluate", "--config", cfg, "--input", data]) == 3
        captured = capsys.readouterr()
        assert captured.err.splitlines()[-1] == (
            "data error: axiom checks need at least 2 samples")
        assert captured.out == ""

    def test_evaluate_past_the_sample_bound_exit_3(self, tmp_path, capsys, monkeypatch):
        m = quality.MAX_EVALUATE_SAMPLES + 1
        cfg = write(tmp_path, "cfg.json", {**SCALAR_CONFIG, "distance": "absolute"})
        data = write(tmp_path, "samples.csv",
                     "temp\n" + "".join(f"{i % 45}\n" for i in range(m)))
        matrices = []
        monkeypatch.setattr(quality, "_distance_matrix", lambda *args: matrices.append(args))
        assert run_cli(["evaluate", "--config", cfg, "--input", data]) == 3
        captured = capsys.readouterr()
        assert captured.err.splitlines()[-1] == (
            "data error: the input has more than MAX_EVALUATE_SAMPLES (10000) samples, "
            "which bounds the memory of the m x m matrices")
        assert "Traceback" not in captured.err
        assert captured.out == ""
        assert matrices == []


# A topw encoder without a speed column encodes every row at `radius`; the
# constructor checks w only against the radius_min pool.
TOPW_BEYOND_RADIUS = {"type": "geospatial", "n": 1000, "variant": "topw", "w": 20,
                      "radius": 1, "radius_min": 3, "radius_max": 5}
GRID_DISTANCE = {"expression": "max(abs(a[0] - b[0]), abs(a[1] - b[1]))"}


@pytest.mark.parametrize("command", ["encode", "evaluate"])
@pytest.mark.parametrize("config, context", [
    ({"encoder": TOPW_BEYOND_RADIUS, "field": ["x", "y"], "distance": GRID_DISTANCE},
     "config.encoder"),
    ({"encoder": {"type": "multi", "parts": [
        {"field": ["x", "y"], "encoder": TOPW_BEYOND_RADIUS}]}},
     "config.encoder.parts[0]"),
], ids=["leaf", "multi-part"])
def test_topw_w_beyond_the_radius_pool_exit_2(tmp_path, capsys, command, config, context):
    cfg = write(tmp_path, "cfg.json", config)
    data = write(tmp_path, "in.csv", "x,y\n0,0\n3,4\n")
    assert run_cli([command, "--config", cfg, "--input", data]) == 2
    captured = capsys.readouterr()
    assert captured.err == (
        f"config error: {context}: without a 'speed_field', topw encodes at 'radius': "
        "cannot select w=20 cells from a radius-1 neighborhood of 9\n")
    assert captured.out == ""


@pytest.mark.parametrize("command", ["encode", "evaluate"])
def test_geospatial_variant_outside_fixed_and_topw_exit_2(tmp_path, capsys, command):
    cfg = write(tmp_path, "cfg.json", {
        "encoder": {"type": "geospatial", "n": 100, "variant": "ring"},
        "field": ["x", "y"], "distance": GRID_DISTANCE})
    data = write(tmp_path, "in.csv", "x,y\n0,0\n3,4\n")
    assert run_cli([command, "--config", cfg, "--input", data]) == 2
    captured = capsys.readouterr()
    assert captured.err == ("config error: config.encoder: variant must be 'fixed' or "
                            "'topw', got 'ring'\n")
    assert captured.out == ""


@pytest.mark.parametrize("command", ["encode", "evaluate"])
@pytest.mark.parametrize("config, rows", [
    ({"encoder": TOPW_BEYOND_RADIUS, "field": ["x", "y"], "speed_field": "speed"},
     "x,y,speed\n0,0,0\n3,4,20\n-2,7,40\n9,9,1\n"),
    ({"encoder": {**TOPW_BEYOND_RADIUS, "w": 9}, "field": ["x", "y"]},
     "x,y\n0,0\n3,4\n-2,7\n9,9\n"),
], ids=["speed-field", "w-fits-radius"])
def test_topw_configs_that_encode_every_row_are_accepted(tmp_path, capsys, command, config,
                                                         rows):
    distance = ({"expression": "max(abs(a[0][0] - b[0][0]), abs(a[0][1] - b[0][1]))"}
                if "speed_field" in config else GRID_DISTANCE)
    cfg = write(tmp_path, "cfg.json", {**config, "distance": distance})
    data = write(tmp_path, "in.csv", rows)
    assert run_cli([command, "--config", cfg, "--input", data]) == 0
    assert len(capsys.readouterr().out.splitlines()) >= 4  # four encodings, or the report


@pytest.mark.parametrize("command", ["encode", "evaluate"])
@pytest.mark.parametrize("data, message, encoded", [
    (b"temp" * 32769 + b"\n10\n20\n", "header: field larger than field limit (131072)", 0),
    (b"temp\n10\n" + b"2" * 131073 + b"\n30\n",
     "row 2: field larger than field limit (131072)", 1),
    (b"temp\n10\n\xff20\n30\n",
     "row 2: 'utf-8' codec can't decode byte 0xff in position 0: invalid start byte", 1),
    (None, "cannot read input ", 0),
], ids=["long-header-field", "long-row-field", "not-utf-8", "no-such-file"])
def test_unreadable_input_exit_3(tmp_path, capsys, command, data, message, encoded):
    # Each of these used to end in a traceback and exit 1.  The field limit
    # stays: it bounds the memory one row can take.
    cfg = write(tmp_path, "cfg.json", {**SCALAR_CONFIG, "distance": "absolute"})
    path = tmp_path / "in.csv"
    if data is not None:
        path.write_bytes(data)
    assert run_cli([command, "--config", cfg, "--input", str(path)]) == 3
    captured = capsys.readouterr()
    assert captured.err.splitlines()[-1].startswith(f"data error: {message}")
    assert "Traceback" not in captured.err
    # Dense encode still writes every row before the failing one: temp 10.
    assert captured.out == ("0" * 20 + "1" * 10 + "0" * 70 + "\n") * (
        encoded if command == "encode" else 0)


@pytest.mark.parametrize("input_exists, output_name, message", [
    (True, "no-such-dir/out.txt", "cannot write output "),
    (False, "out.txt", "cannot read input "),
], ids=["unwritable-output", "input-checked-first"])
def test_output_that_cannot_be_opened_exit_3(tmp_path, capsys, input_exists, output_name,
                                             message):
    # This used to end in a FileNotFoundError traceback and exit 1.
    cfg = write(tmp_path, "cfg.json", SCALAR_CONFIG)
    source, output = tmp_path / "in.csv", tmp_path / output_name
    if input_exists:
        source.write_text("temp\n10\n", encoding="utf-8")
    argv = ["encode", "--config", cfg, "--input", str(source), "--output", str(output)]
    assert run_cli(argv) == 3
    err = capsys.readouterr().err
    path = output if input_exists else source
    assert err.splitlines()[-1].startswith(f"data error: {message}{str(path)!r}: ")
    assert "Traceback" not in err
    assert not output.exists()  # an unreadable input creates no output file


@pytest.mark.parametrize("via", ["same-path", "symlink", "stdin"])
def test_output_that_names_the_input_exit_3(tmp_path, capsys, monkeypatch, via):
    # Opening the output used to empty the input, which then read as empty.
    cfg = write(tmp_path, "cfg.json", SCALAR_CONFIG)
    source = tmp_path / "in.csv"
    source.write_bytes(b"temp\n10\n")
    output = source
    if via == "symlink":
        output = tmp_path / "link.csv"
        output.symlink_to(source)
    argv = ["encode", "--config", cfg, "--output", str(output)]
    with open(source, encoding="utf-8") as stdin:
        if via == "stdin":
            monkeypatch.setattr(sys, "stdin", stdin)
        else:
            argv += ["--input", str(source)]
        assert run_cli(argv) == 3
    assert capsys.readouterr().err.splitlines()[-1] == (
        f"data error: output {str(output)!r} is the input file")
    assert source.read_bytes() == b"temp\n10\n"


@pytest.mark.parametrize("command", ["encode", "evaluate"])
@pytest.mark.parametrize("via", ["path", "stdin", "in-memory-stdin"])
def test_a_byte_order_mark_before_the_header_is_dropped(tmp_path, capsys, monkeypatch,
                                                        command, via):
    # A header read as '\ufefftemp' used to be a config error, exit 2.
    cfg = write(tmp_path, "cfg.json", {**SCALAR_CONFIG, "distance": "absolute"})
    plain = b"temp\n" + b"".join(b"%d\n" % t for t in range(0, 45, 4))
    results = []
    for data in (plain, b"\xef\xbb\xbf" + plain):
        source = tmp_path / "in.csv"
        source.write_bytes(data)
        with open(source, encoding="utf-8", newline="") as stdin:
            if via == "path":
                argv = ["--input", str(source)]
            else:
                monkeypatch.setattr(sys, "stdin", stdin if via == "stdin"
                                    else io.StringIO(stdin.read()))
                argv = ["--input", "-"]
            code = run_cli([command, "--config", cfg, *argv])
        captured = capsys.readouterr()
        err = [line for line in captured.err.splitlines() if not line.startswith("elapsed")]
        results.append((code, captured.out, err))
    assert results[0] == results[1]
    assert results[0][0] == 0 and results[0][1]


class TestSelftestHash:
    def test_matches_golden_fixture(self, capsys):
        assert run_cli(["selftest-hash"]) == 0
        assert capsys.readouterr().out == GOLDEN_FIXTURE.read_text()

    def test_prints_through_the_array_path(self, capsys, monkeypatch):
        """The scalar references are out of reach wherever a module binds
        them, so the golden vectors come from the path the encoders run."""
        def scalar_reference(*args):
            raise AssertionError("selftest-hash called a scalar hash reference")

        for name, module in list(sys.modules.items()):
            if name == "sdrkit" or name.startswith("sdrkit."):
                for attr in ("mix64", "coordinate_hash"):
                    if hasattr(module, attr):
                        monkeypatch.setattr(module, attr, scalar_reference)
        assert run_cli(["selftest-hash"]) == 0
        assert capsys.readouterr().out == GOLDEN_FIXTURE.read_text()


def test_console_script_end_to_end(tmp_path):
    """The installed entry point works over stdin/stdout pipes."""
    cfg = write(tmp_path, "cfg.json", {**SCALAR_CONFIG, "output_format": "sparse"})
    proc = subprocess.run(
        [sys.executable, "-m", "sdrkit.cli", "encode", "--config", cfg],
        input="temp\n10\n-5\n",
        capture_output=True, text=True, timeout=120,
    )
    assert proc.returncode == 0
    lines = proc.stdout.splitlines()
    assert lines[0] == "20,21,22,23,24,25,26,27,28,29"
    assert lines[1] == "0,1,2,3,4,5,6,7,8,9"


def test_console_script_decodes_stdin_a_line_at_a_time(tmp_path):
    """Bytes that are not UTF-8 on stdin fail their own row, after every
    row before it was written."""
    cfg = write(tmp_path, "cfg.json", {**SCALAR_CONFIG, "output_format": "sparse"})
    proc = subprocess.run(
        [sys.executable, "-m", "sdrkit.cli", "encode", "--config", cfg],
        input=b"temp\n10\n-5\n\xe9\n20\n", capture_output=True, timeout=120,
    )
    assert proc.returncode == 3
    assert proc.stdout == b"20,21,22,23,24,25,26,27,28,29\n0,1,2,3,4,5,6,7,8,9\n"
    assert proc.stderr.decode().splitlines()[-1].startswith(
        "data error: row 3: 'utf-8' codec can't decode byte 0xe9 in position 0")


@pytest.mark.parametrize("depth", [1_000, 100_000])
@pytest.mark.parametrize("opening, closing", [('{"encoder": ', "}"), ("[", "]")],
                         ids=["objects", "arrays"])
@pytest.mark.parametrize("command", ["encode", "evaluate"])
def test_a_config_nested_past_the_parser_exits_2(tmp_path, command, opening, closing, depth):
    """A config nested deeper than the JSON parser recurses is a config
    error, not a RecursionError's traceback and exit 1.  Where the parser's
    depth limit is apart from the recursion limit and higher (CPython 3.12
    on), 1,000 levels parse, and the config check refuses what they hold."""
    cfg = write(tmp_path, "cfg.json", opening * depth + "1" + closing * depth)
    data = write(tmp_path, "in.csv", "temp\n10\n")
    proc = subprocess.run(
        [sys.executable, "-m", "sdrkit.cli", command, "--config", cfg, "--input", data],
        capture_output=True, text=True, timeout=120,
    )
    assert proc.returncode == 2, proc.stderr
    assert "Traceback" not in proc.stderr
    lines = proc.stderr.splitlines()
    assert len(lines) == 1 and lines[0].startswith("config error: config")
    if depth > 10_000 or sys.version_info < (3, 12):
        assert lines[0] == f"config error: config {cfg!r} nests too deeply to parse"
