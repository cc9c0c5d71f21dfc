"""Declarative JSON pipeline configuration.

A config names one encoder (a leaf or a "multi" of named parts), binds it to
CSV columns, and optionally picks an output format and a distance score for
evaluation runs.  Unknown keys anywhere are hard errors: a silently ignored
typo would corrupt every encoding downstream.

Top level::

    {
      "encoder":       { ... encoder spec ... },
      "field":         "temp"            (leaf encoders; geospatial takes
                                          ["x","y"] or ["lat","lon"])
      "speed_field":   "speed",          (optional; geospatial topw, which
                                          then encodes (cell, speed) pairs)
      "output_format": "dense",          (dense | sparse | sparse-n)
      "csv":           {"delimiter": ","},
      "distance":      "absolute"        (evaluate only; see below)
    }

Each leaf encoder type is one entry in `ENCODER_TYPES`: the encoder class
(or a one-line builder), whose signature names the type's keys, and its CSV
binding.  The constructor types, defaults and checks every key, and the
encoder's `params()` -- every key with its default filled in -- goes into
the canonical spec, `PipelineConfig.spec`.

Distances: "absolute", "discrete", "chebyshev" (short for {"name": ...}),
{"name": "circular", "period": 7}, or {"expression": "abs(a - b)"} -- an
expression over the two values ``a`` and ``b`` (``a[k]`` and ``a[k][j]``
reach into cells and (cell, speed) pairs), checked against a whitelist when
the config is parsed: number literals, ``abs``/``min``/``max``, a fixed set
of ``math`` functions and constants, arithmetic, comparisons,
``and``/``or``/``not`` and ``x if c else y``, at most 256 nodes, and ``**``
only with a number literal as its exponent, the exponents along any path
multiplying to at most 64.  Anything else, any other name or attribute
included, is a config error, so a config file never runs arbitrary code.
`sdrkit.expressions` holds the whitelist and compiles each expression once,
to a function of one pair and a numpy form the evaluator uses where exact;
each named distance is a built-in of `sdrkit.quality` compiled the same way.
"""

from __future__ import annotations

import datetime as _dt
import inspect
import sys
from dataclasses import dataclass, field
from functools import partial
from operator import itemgetter
from typing import Callable, Mapping, NamedTuple

import numpy as np

from .categories import CategoryEncoder
from .composite import DatetimeEncoder, MultiEncoder
from .errors import ConfigError, InputError, _shown, is_finite_number
from .expressions import ExpressionDistance
from .geospatial import (
    GeospatialEncoder,
    GridCoordinate,
    _Cells,
    _gps_to_grid_columns,
    gps_to_grid,
)
from .quality import (
    absolute_difference,
    chebyshev_distance,
    circular_distance,
    discrete_distance,
)
from .scalars import CyclicEncoder, DeltaEncoder, ScalarEncoder, UnboundedScalarEncoder
from .sdr import SDR

OUTPUT_FORMATS = ("dense", "sparse", "sparse-n")
_FORMAT_ALIASES = {"self-describing-sparse": "sparse-n"}
_NAMED_DISTANCES = {"absolute": absolute_difference, "discrete": discrete_distance,
                    "chebyshev": chebyshev_distance}


def _check_keys(obj: Mapping, required: set[str], optional: set[str], context: str) -> None:
    if not isinstance(obj, Mapping):
        raise ConfigError(f"{context}: expected an object, got {type(obj).__name__}")
    keys = set(obj)
    unknown = keys - required - optional
    if unknown:
        raise ConfigError(f"{context}: unknown key(s) {sorted(unknown)}")
    missing = required - keys
    if missing:
        raise ConfigError(f"{context}: missing required key(s) {sorted(missing)}")


def _num(obj: Mapping, key: str, context: str) -> float:
    v = obj[key]
    if not is_finite_number(v):
        raise ConfigError(f"{context}: key {key!r} must be a finite number, got {_shown(v)}")
    return float(v)


def _str(obj: Mapping, key: str, context: str) -> str:
    v = obj[key]
    if not isinstance(v, str):
        raise ConfigError(f"{context}: key {key!r} must be a string, got {_shown(v)}")
    return v


# --- value converters: CSV text -> encoder input ---------------------------

def _converter(parse: Callable[[str], object], what: str) -> Callable[[str, str], object]:
    def convert(text: str, column: str):
        try:
            return parse(text)
        except ValueError:
            raise InputError(f"column {column!r}: cannot parse {text!r} as {what}") from None
    return convert


_parse_float = _converter(float, "a number")


@dataclass
class BoundEncoder:
    """One encoder plus its CSV column binding."""

    name: str
    encoder: object
    columns: tuple[str, ...]
    # This binding's column(s) of one CSV row, a {column: text} mapping,
    # converted into the encoder input value (raises InputError naming the
    # column).
    value_from_row: Callable[[Mapping[str, str]], object]
    # The column twin of ``value_from_row``: from each of ``columns``' texts
    # of a chunk of rows, the one column form that the encoder's ``_keys``
    # takes, a list of values or, for geospatial, `_Cells`; it builds no
    # error message.
    _read_columns: Callable[..., object]


@dataclass
class PipelineConfig:
    bound: list[BoundEncoder]
    multi: MultiEncoder
    output_format: str
    delimiter: str
    distance: Callable | None
    spec: dict  # canonical config, defaults filled in; parses to the same pipeline
    warnings: list[str] = field(default_factory=list)

    @property
    def referenced_columns(self) -> list[str]:
        return [c for b in self.bound for c in b.columns]

    def record_from_row(self, row: Mapping[str, str]) -> dict:
        return {b.name: b.value_from_row(row) for b in self.bound}

    def _chunk_keys(self, header: list[str], rows: list[list[str]]) -> tuple:
        """The column twin of ``multi._key(record_from_row(row))``: the key
        columns (`MultiEncoder._keys`) of CSV rows of texts in ``header``'s
        order.  Like ``_keys``, it raises, with no message meant to be
        shown, where a row fails, and may where none does."""
        texts = dict(zip(header, zip(*rows)))  # each column's texts
        return self.multi._keys({b.name: b._read_columns(*map(texts.get, b.columns))
                                 for b in self.bound})

    def encode_row(self, row: Mapping[str, str]) -> SDR:
        return self.multi.encode(self.record_from_row(row))


# --- CSV bindings: (spec, field, speed_field, context) ->
#     (columns, value_from_row, its column twin) ---------------------------------

def _column(parse: Callable[[str], object] | None = None, what: str = "") -> Callable:
    """Binding of one named column, each text read through ``parse`` (as
    is when None); a ValueError from it is an InputError saying the text is
    not ``what``."""
    convert = parse and _converter(parse, what)

    def bind(spec: dict, field_spec, speed_field, context: str):
        if speed_field is not None:
            raise ConfigError(f"{context}: 'speed_field' only applies to geospatial encoders")
        if not isinstance(field_spec, str):
            raise ConfigError(f"{context}: 'field' must name one CSV column")
        if parse is None:
            return (field_spec,), itemgetter(field_spec), list
        return ((field_spec,), lambda row: convert(row[field_spec], field_spec),
                lambda texts: list(map(parse, texts)))
    return bind


_number_column = _column(float, "a number")


def _bind_geospatial(spec: dict, field_spec, speed_field, context: str):
    """[x, y] integer grid columns, or [lat, lon] when the spec has a
    cell_size; a speed column makes the value a (coordinate, speed) pair.
    Without one, topw encodes at ``radius``, whose pool must hold w cells."""
    if (
        not isinstance(field_spec, list)
        or len(field_spec) != 2
        or not all(isinstance(c, str) for c in field_spec)
    ):
        raise ConfigError(
            f"{context}: geospatial 'field' must be a two-column list "
            "([x, y] grid columns, or [lat, lon] when cell_size is set)"
        )
    first, second = field_spec
    # The cell variant: each column's parse, the cell of the two values, and
    # its column twin, `_Cells` of the two columns of values as arrays.
    if "cell_size" in spec:
        cell_size = spec["cell_size"] = _num(spec, "cell_size", context)
        if cell_size <= 0:
            raise ConfigError(f"{context}: 'cell_size' must be positive meters")
        parse, convert, dtype = float, _parse_float, np.float64
        cell = partial(gps_to_grid, cell_size=cell_size)
        cells = partial(_gps_to_grid_columns, cell_size=cell_size)
    else:
        parse, convert, dtype = int, _converter(int, "an integer grid index"), np.int64
        cell, cells = GridCoordinate, _Cells

    def coordinate(row):
        return cell(convert(row[first], first), convert(row[second], second))

    def coordinates(firsts, seconds):
        return cells(*(np.fromiter(map(parse, texts), dtype, len(texts))
                       for texts in (firsts, seconds)))
    if speed_field is None:
        pool = (2 * spec["radius"] + 1) ** 2
        if spec["variant"] == "topw" and spec["w"] > pool:
            raise ConfigError(
                f"{context}: without a 'speed_field', topw encodes at 'radius': cannot "
                f"select w={spec['w']} cells from a radius-{spec['radius']} neighborhood "
                f"of {pool}"
            )
        return (first, second), coordinate, coordinates
    if not isinstance(speed_field, str):
        raise ConfigError(f"{context}: 'speed_field' must be a column name")
    if spec["variant"] != "topw":
        raise ConfigError(
            f"{context}: 'speed_field' requires the 'topw' variant "
            "(the fixed variant has no speed-adaptive radius)"
        )

    def with_speeds(firsts, seconds, speeds):
        return coordinates(firsts, seconds)._replace(
            speed=np.fromiter(map(float, speeds), np.float64, len(speeds)))

    return (first, second, speed_field), lambda row: (
        coordinate(row), _parse_float(row[speed_field], speed_field)
    ), with_speeds


# --- the encoder table -------------------------------------------------------

class EncoderType(NamedTuple):
    """One leaf encoder type: ``build``, the encoder class or a one-line
    builder, and ``bind``, its CSV binding.  The parameters of ``build`` are
    the type's config keys, and those without a default are required;
    ``bind_keys`` names the optional keys that the binding reads instead."""

    build: Callable
    bind: Callable
    bind_keys: tuple[str, ...] = ()

    @property
    def keys(self) -> dict[str, bool]:
        """Every config key of the type, mapped to whether it is required."""
        params = inspect.signature(self.build).parameters.values()
        return {**{p.name: p.default is p.empty for p in params},
                **dict.fromkeys(self.bind_keys, False)}


ENCODER_TYPES: dict[str, EncoderType] = {
    "scalar": EncoderType(
        lambda min, max, n, w: ScalarEncoder(min, max, n, w), _number_column
    ),
    "delta": EncoderType(
        lambda min, max, n, w: DeltaEncoder(min, max, n, w), _number_column
    ),
    "cyclic": EncoderType(CyclicEncoder, _number_column),
    "scalar_unbounded": EncoderType(UnboundedScalarEncoder, _number_column),
    "category": EncoderType(CategoryEncoder, _column()),
    "datetime": EncoderType(DatetimeEncoder,
                            _column(_dt.datetime.fromisoformat, "an ISO timestamp")),
    "geospatial": EncoderType(GeospatialEncoder, _bind_geospatial, ("cell_size",)),
}


def _bind_leaf(enc_raw: Mapping, binding: Mapping, context: str) -> tuple[BoundEncoder, dict]:
    """The bound leaf encoder and its canonical part: field, encoder spec
    and, if given, speed_field."""
    enc_type = _str(enc_raw, "type", context)
    entry = ENCODER_TYPES.get(enc_type)
    if entry is None:
        raise ConfigError(
            f"{context}: unknown encoder type {enc_type!r}; expected one of "
            f"{sorted([*ENCODER_TYPES, 'multi'])}"
        )
    keys = entry.keys
    _check_keys(enc_raw, {"type", *(k for k, required in keys.items() if required)},
                set(keys), context)
    args = {k: v for k, v in enc_raw.items() if k != "type"}
    for key, value in args.items():
        if value is None:  # a constructor reads None as "use the default"
            raise ConfigError(f"{context}: key {key!r} must not be null")
    bind_args = {k: args.pop(k) for k in entry.bind_keys if k in args}
    try:
        encoder = entry.build(**args)
    except ConfigError as exc:
        raise ConfigError(f"{context}: {exc}") from exc
    spec = {"type": enc_type, **encoder.params(), **bind_args}
    field_spec = binding.get("field")
    speed_field = binding.get("speed_field")
    if speed_field is None and "speed_field" in binding:
        raise ConfigError(f"{context}: key 'speed_field' must not be null")
    columns, value_from_row, read_columns = entry.bind(spec, field_spec, speed_field, context)
    one_column = isinstance(field_spec, str)
    name = field_spec if one_column else ",".join(field_spec)
    part: dict = {"field": field_spec if one_column else list(field_spec), "encoder": spec}
    if speed_field is not None:
        part["speed_field"] = speed_field
    return BoundEncoder(name=name, encoder=encoder, columns=columns,
                        value_from_row=value_from_row, _read_columns=read_columns), part


def parse_pipeline_config(raw: Mapping) -> PipelineConfig:
    """Validate a config dict and construct the bound encoder pipeline."""
    _check_keys(
        raw, {"encoder"},
        {"field", "speed_field", "output_format", "csv", "distance"},
        "config",
    )
    enc_raw = raw["encoder"]
    if not isinstance(enc_raw, Mapping) or "type" not in enc_raw:
        raise ConfigError("config.encoder: must be an object with a 'type' key")

    bound: list[BoundEncoder] = []
    if enc_raw["type"] == "multi":
        if "field" in raw or "speed_field" in raw:
            raise ConfigError(
                "config: 'field'/'speed_field' belong on the parts of a multi encoder"
            )
        _check_keys(enc_raw, {"type", "parts"}, set(), "config.encoder")
        parts = enc_raw["parts"]
        if not isinstance(parts, list) or not parts:
            raise ConfigError("config.encoder.parts: must be a non-empty list")
        canonical_parts = []
        for i, part in enumerate(parts):
            ctx = f"config.encoder.parts[{i}]"
            _check_keys(part, {"field", "encoder"}, {"speed_field"}, ctx)
            sub = part["encoder"]
            if not isinstance(sub, Mapping) or "type" not in sub:
                raise ConfigError(f"{ctx}.encoder: must be an object with a 'type' key")
            if sub["type"] == "multi":
                raise ConfigError(f"{ctx}: multi encoders cannot nest")
            b, canonical = _bind_leaf(sub, part, ctx)
            bound.append(b)
            canonical_parts.append(canonical)
        spec: dict = {"encoder": {"type": "multi", "parts": canonical_parts}}
    else:
        b, canonical = _bind_leaf(enc_raw, raw, "config.encoder")
        bound.append(b)
        spec = {"encoder": canonical.pop("encoder"), **canonical}

    multi = MultiEncoder([(b.name, b.encoder) for b in bound])
    try:
        str(multi.n)  # the sparse formats write its digits
    except ValueError:  # past the interpreter's limit on integer-string digits
        raise ConfigError(f"config: the total n has more decimal digits than "
                          f"sys.get_int_max_str_digits() ({sys.get_int_max_str_digits()}) "
                          "allows") from None

    fmt = "dense"
    if "output_format" in raw:
        fmt = _str(raw, "output_format", "config")
        fmt = _FORMAT_ALIASES.get(fmt, fmt)
        if fmt not in OUTPUT_FORMATS:
            raise ConfigError(
                f"config: output_format must be one of {OUTPUT_FORMATS}, got {raw['output_format']!r}"
            )
    spec["output_format"] = fmt

    delimiter = ","
    if "csv" in raw:
        _check_keys(raw["csv"], set(), {"delimiter"}, "config.csv")
        if "delimiter" in raw["csv"]:
            delimiter = _str(raw["csv"], "delimiter", "config.csv")
            if len(delimiter) != 1:
                raise ConfigError("config.csv: delimiter must be a single character")
    spec["csv"] = {"delimiter": delimiter}

    distance = None
    if "distance" in raw:
        distance, spec["distance"] = build_distance(raw["distance"])

    return PipelineConfig(
        bound=bound,
        multi=multi,
        output_format=fmt,
        delimiter=delimiter,
        distance=distance,
        spec=spec,
        warnings=list(multi.warnings),
    )


def build_distance(spec) -> tuple[Callable, object]:
    """Resolve a distance spec to a callable plus its canonical echo form.
    A name ``s`` means ``{"name": s}``; only "circular" takes a key besides
    the name, its required ``period``."""
    if isinstance(spec, str):
        spec = {"name": spec}
    if not isinstance(spec, Mapping):
        raise ConfigError(f"config.distance: expected a name or object, got {_shown(spec)}")
    if "expression" in spec:
        _check_keys(spec, {"expression"}, set(), "config.distance")
        expr = _str(spec, "expression", "config.distance")
        return ExpressionDistance(expr), {"expression": expr}
    circular = spec.get("name") == "circular"
    _check_keys(spec, {"name", "period"} if circular else {"name"}, set(), "config.distance")
    name = _str(spec, "name", "config.distance")
    if circular:
        try:
            distance = circular_distance(spec["period"])
        except InputError as exc:
            raise ConfigError(f"config.distance: {exc}") from exc
        return distance, {"name": "circular", "period": float(spec["period"])}
    if name not in _NAMED_DISTANCES:
        raise ConfigError(f"config.distance: unknown distance name {name!r}")
    return _NAMED_DISTANCES[name], name


__all__ = [
    "OUTPUT_FORMATS",
    "ENCODER_TYPES",
    "BoundEncoder",
    "PipelineConfig",
    "parse_pipeline_config",
    "build_distance",
]
