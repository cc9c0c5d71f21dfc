"""Every encoder's `encode` is ``_sdr(_key(value))``.

`encode` is written once, on `scalars._Encoder`: ``_key`` runs every check
(and alone moves a delta encoder's state), ``_sdr`` turns one key into an
SDR.

* For every leaf of `tests/data/encode/all_leaves.json` (scalar, delta,
  cyclic, unbounded, category, datetime, geospatial fixed and top-w) and
  for the multi encoder of all of them, over the rows of `all_leaves.csv`,
  ``_sdr(_key(v))`` equals ``encode(v)`` row by row, delta state included.
* ``_sdr`` is pure: twice on one key gives equal SDRs and leaves a delta
  encoder's state as it was.
* A multi encoder's errors keep their type and name their field.
"""

import csv
import datetime as dt
import json
from pathlib import Path

import pytest

from sdrkit.categories import CategoryEncoder
from sdrkit.composite import DatetimeEncoder, MultiEncoder
from sdrkit.config import parse_pipeline_config
from sdrkit.errors import InputError, MissingFieldError, RangeError, UnknownCategoryError
from sdrkit.scalars import DeltaEncoder, ScalarEncoder, UnboundedScalarEncoder

DATA = Path(__file__).resolve().parent / "data" / "encode"
CONFIG = json.loads((DATA / "all_leaves.json").read_text(encoding="utf-8"))
with open(DATA / "all_leaves.csv", newline="", encoding="utf-8") as _f:
    _header, *_rows = csv.reader(_f)
ROWS = [dict(zip(_header, row)) for row in _rows]
NAMES = [binding.name for binding in parse_pipeline_config(CONFIG).bound]


def encoder_and_values(name):
    """A fresh encoder of the binding ``name`` (or of the whole multi
    encoder), and its input value of each row."""
    cfg = parse_pipeline_config(CONFIG)
    if name == "multi":
        return cfg.multi, [cfg.record_from_row(row) for row in ROWS]
    (binding,) = [b for b in cfg.bound if b.name == name]
    return binding.encoder, [binding.value_from_row(row) for row in ROWS]


@pytest.mark.parametrize("name", [*NAMES, "multi"])
def test_encode_is_the_sdr_of_the_key(name):
    by_encode, values = encoder_and_values(name)
    by_steps, _ = encoder_and_values(name)
    for value in values:
        assert by_steps._sdr(by_steps._key(value)) == by_encode.encode(value)


def test_sdr_is_pure():
    multi, records = encoder_and_values("multi")
    delta = dict(multi.parts)["level"]
    assert isinstance(delta, DeltaEncoder)
    for record in records[:50]:
        key = multi._key(record)
        previous = delta.previous
        first = multi._sdr(key)
        assert multi._sdr(key) == first
        assert delta.previous == previous


ERROR_PARTS = MultiEncoder([
    ("a", ScalarEncoder(0, 10, 100, 21)),
    ("c", CategoryEncoder(["x", "y"], 21)),
    ("u", UnboundedScalarEncoder(1e-300, 100, 21)),
    ("ts", DatetimeEncoder(time_of_day={"n": 96, "w": 21})),
])
GOOD = {"a": 1, "c": "x", "u": 0, "ts": dt.datetime(2024, 5, 6, 7, 8)}


@pytest.mark.parametrize("field, value, error, message", [
    ("a", "one", InputError, "field 'a': expected a number, got 'one'"),
    ("c", "z", UnknownCategoryError, "field 'c': unknown category 'z'"),
    ("u", 1e300, RangeError, "field 'u': bucket index for value 1e+300"),
    ("ts", "noon", InputError, "field 'ts': expected a datetime, got 'noon'"),
    ("a", None, MissingFieldError, "record is missing field 'a'"),
])
def test_multi_errors_keep_their_type_and_name_their_field(field, value, error, message):
    assert ERROR_PARTS.encode(GOOD) == ERROR_PARTS._sdr(ERROR_PARTS._key(GOOD))
    record = {**GOOD, field: value}
    if value is None:
        del record[field]
    with pytest.raises(error) as raised:
        ERROR_PARTS.encode(record)
    assert type(raised.value) is error
    assert str(raised.value).startswith(message)
