"""Combining encoders: concatenation of per-field SDRs, and a datetime
encoder assembled from category and cyclic parts."""

from __future__ import annotations

import datetime as _dt
from collections.abc import Mapping, Sequence
from operator import attrgetter

import numpy as np

from .categories import CategoryEncoder
from .errors import ConfigError, InputError, MissingFieldError, SdrError, _shown
from .scalars import CyclicEncoder, DeltaEncoder, _Encoder, _Unkeyed
from .sdr import SDR

# One child's code should not drown out another's: flag when some child has
# more than three times the one-bits of its smallest sibling.
DOMINANCE_RATIO = 3  # an int, so huge widths compare without a float


def concat(parts: Sequence[SDR]) -> SDR:
    """Concatenate SDRs: total length is the sum of part lengths and each
    part's bits shift by the combined length of everything before it.

    Parts that are all `SDR` instances are valid already, so the result is
    too; anything else with ``n`` and ``active`` is validated."""
    if not parts:
        raise InputError("cannot concatenate an empty list of SDRs")
    active: list[int] = []
    offset = 0
    trusted = True
    for part in parts:
        trusted = trusted and isinstance(part, SDR)
        active.extend([offset + i for i in part.active])
        offset += part.n
    if trusted:
        return SDR._trusted(offset, tuple(active))
    return SDR(offset, tuple(active))


class MultiEncoder(_Encoder):
    """Encodes a record by running each named field through its own child
    encoder and concatenating the results in declared order.

    Bit positions are a stable function of the declared order; nothing is
    re-sorted.  A delta child makes the whole encoder stateful with the same
    single-writer-per-stream rule.
    """

    def __init__(self, parts: Sequence[tuple[str, object]]):
        parts = list(parts)
        if not parts:
            raise ConfigError("a multi encoder needs at least one part")
        names = [name for name, _ in parts]
        if len(set(names)) != len(names):
            raise ConfigError(f"field names must be unique, got {names}")
        self.parts = parts
        self.warnings: list[str] = []
        ws = [(name, enc.w) for name, enc in parts]
        w_lo = min(ws, key=lambda p: p[1])
        w_hi = max(ws, key=lambda p: p[1])
        if w_hi[1] > DOMINANCE_RATIO * w_lo[1]:
            self.warnings.append(
                f"field {w_hi[0]!r} (w={w_hi[1]}) has more than "
                f"{DOMINANCE_RATIO:.0f}x the one-bits of {w_lo[0]!r} "
                f"(w={w_lo[1]}) and may dominate the combined encoding"
            )
        for name, enc in parts:
            self.warnings.extend(f"field {name!r}: {message}" for message in enc.warnings)

    @property
    def n(self) -> int:
        return sum(enc.n for _, enc in self.parts)

    @property
    def w(self) -> int:
        return sum(enc.w for _, enc in self.parts)

    def _key(self, record) -> tuple:
        """Each part's key of its field of ``record``, a mapping of field
        names to values; other fields are ignored.  Anything but a mapping
        raises InputError, a missing field MissingFieldError; child failures
        propagate with the field name prepended."""
        if not isinstance(record, Mapping):
            raise InputError(f"expected a mapping of field names to values, got {_shown(record)}")
        keys = []
        for name, enc in self.parts:
            if name not in record:
                raise MissingFieldError(f"record is missing field {name!r}")
            try:
                keys.append(enc._key(record[name]))
            except SdrError as exc:
                raise type(exc)(f"field {name!r}: {exc}") from exc
        return tuple(keys)

    def _keys(self, columns) -> tuple:
        """Each part's `_keys` of its field's column in the {field: column}
        mapping ``columns``, as `PipelineConfig._chunk_keys` builds it.  When
        a part raises, every `DeltaEncoder` part is put back as it was."""
        deltas = [(enc, enc.previous) for _, enc in self.parts if isinstance(enc, DeltaEncoder)]
        try:
            return tuple(enc._keys(columns[name]) for name, enc in self.parts)
        except Exception:
            for enc, previous in deltas:
                enc.previous = previous
            raise

    def _sdr(self, keys: tuple) -> SDR:
        return concat([enc._sdr(key) for (_, enc), key in zip(self.parts, keys)])

    def _matrix(self, rows: int) -> np.ndarray:
        """An unwritten (rows, w) bit matrix: uint64, Python ints past 2**64 bits."""
        return np.empty((rows, self.w), np.uint64 if self.n <= 1 << 64 else object)

    def _bits(self, keys: tuple, out: np.ndarray, offset=0) -> np.ndarray:
        """Write the bit matrix of the key columns ``keys`` into ``out``, a
        `_matrix` of as many rows or a part's column slice of one, and return
        ``out``: each part writes its indices, plus ``offset``, into its own
        column slice, a nested multi encoder as any other part."""
        column = 0
        for (_, enc), part_keys in zip(self.parts, keys):
            enc._bits(part_keys, out[:, column:column + enc.w], offset)
            column += enc.w
            offset += enc.n
        return out


# Component order is fixed and documented: changing it would silently move
# every bit of every downstream consumer.
DATETIME_COMPONENT_ORDER = (
    "weekend",
    "day_of_week",
    "time_of_day",
    "month_of_year",
    "day_of_month",
)

_CYCLIC_PERIODS = {
    "day_of_week": 7.0,
    "time_of_day": 24.0,
    "month_of_year": 12.0,
    "day_of_month": 31.0,
}

# The weekend component's labels, indexed by whether the day is a weekend.
_WEEKEND_LABELS = ("weekday", "weekend")


def _components(names, t) -> dict:
    """The value of each named component of ``t``, a datetime or a
    `_DatetimeColumn`: the formulas use only arithmetic and comparisons,
    which give ints and floats the same values as int and float arrays.
    The weekend component's value is the index of its label in
    `_WEEKEND_LABELS`: 1 on Saturday and Sunday, else 0."""
    values = {}
    if "weekend" in names or "day_of_week" in names:
        weekday = t.weekday()  # Monday = 0
    if names != ("weekend",):  # every other component reads the day fraction
        day_fraction = (t.hour + t.minute / 60 + t.second / 3600 + t.microsecond / 3.6e9) / 24.0
    for name in names:
        if name == "weekend":
            values[name] = weekday // 5
        elif name == "day_of_week":
            values[name] = (weekday + 1) % 7 + day_fraction  # Sunday = 0 ... Saturday = 6
        elif name == "time_of_day":
            values[name] = day_fraction * 24.0
        elif name == "month_of_year":
            leap = (t.year % 4 == 0) & ((t.year % 100 != 0) | (t.year % 400 == 0))
            # 31 days in the odd months to July and the even ones from August
            days_in_month = (30 + (t.month + (t.month >= 8)) % 2
                             - (t.month == 2) * (2 - leap))
            values[name] = (t.month - 1) + (t.day - 1 + day_fraction) / days_in_month
        else:
            values[name] = (t.day - 1) + day_fraction
    return values


class _DatetimeColumn:
    """A column of datetimes, whose calendar fields and ``weekday()`` are
    int64 arrays, each read when first asked for."""

    def __init__(self, values):
        if set(map(type, values)) - {_dt.datetime}:
            raise _Unkeyed
        self._values = values

    def _field(self, read) -> np.ndarray:
        return np.fromiter(map(read, self._values), np.int64, len(self._values))

    def __getattr__(self, name):  # year, month, day, hour, minute, second, microsecond
        column = self._field(attrgetter(name))
        setattr(self, name, column)
        return column

    def weekday(self) -> np.ndarray:
        return self._field(_dt.datetime.weekday)


def _component(name: str, spec):
    """The encoder of one datetime component from its spec, the object that
    `DatetimeEncoder.params` gives."""
    keys = ["w"] if name == "weekend" else ["n", "w"]
    if not isinstance(spec, Mapping) or sorted(spec, key=str) != keys:
        raise ConfigError(f"takes the keys {keys}, got {_shown(spec)}")
    if name == "weekend":
        return CategoryEncoder(_WEEKEND_LABELS, w=spec["w"])
    return CyclicEncoder(_CYCLIC_PERIODS[name], n=spec["n"], w=spec["w"])


class DatetimeEncoder(MultiEncoder):
    """Calendar-instant encoder: a `MultiEncoder` whose parts are the enabled
    components, in `DATETIME_COMPONENT_ORDER`, and whose key step turns a
    datetime into their `component_values` first.

    * weekend        -- two-block category (weekday / weekend); give w,
                        n is 2*w.
    * day_of_week    -- cyclic, period 7, day 0 = Sunday; the encoded value
                        includes the fraction of the day elapsed, so Saturday
                        evening and Sunday evening overlap smoothly.
    * time_of_day    -- cyclic, period 24, hours plus fractional hour.
    * month_of_year  -- cyclic, period 12, month plus fractional month.
    * day_of_month   -- cyclic, period 31, day plus fractional day.

    Each component takes the object that `params` gives and a config holds:
    ``{"n": n, "w": w}``, or ``{"w": w}`` for weekend; None (the default)
    leaves it out.  Calendar fields are read from the timestamp exactly as
    given, ignoring any UTC offset: resolve time zones before encoding,
    because identical wall-clock fields must encode identically on every
    machine.
    """

    def __init__(
        self,
        *,
        weekend=None,
        day_of_week=None,
        time_of_day=None,
        month_of_year=None,
        day_of_month=None,
    ):
        specs = (weekend, day_of_week, time_of_day, month_of_year, day_of_month)
        parts: list[tuple[str, object]] = []
        for name, spec in zip(DATETIME_COMPONENT_ORDER, specs):
            if spec is None:
                continue
            try:
                parts.append((name, _component(name, spec)))
            except ConfigError as exc:
                raise ConfigError(f"{name} component: {exc}") from None
        if not parts:
            raise ConfigError("enable at least one datetime component")
        super().__init__(parts)
        self._names = tuple(name for name, _ in parts)

    def params(self) -> dict:
        """The encoder's config keys: one object per enabled component."""
        return {name: {"w": enc.w} if name == "weekend" else {"n": enc.n, "w": enc.w}
                for name, enc in self.parts}

    def component_values(self, t: _dt.datetime) -> dict[str, object]:
        """The derived per-component value for each enabled component."""
        if not isinstance(t, _dt.datetime):
            raise InputError(f"expected a datetime, got {_shown(t)}")
        values = _components(self._names, t)
        if "weekend" in values:
            values["weekend"] = _WEEKEND_LABELS[values["weekend"]]
        return values

    def _key(self, value) -> tuple:
        """The parts' keys of the `component_values` of a datetime."""
        return super()._key(self.component_values(value))

    def _keys(self, values) -> tuple:
        """The parts' key columns of the `component_values` of a column of
        datetimes; anything but a datetime is `_Unkeyed`.  The weekend key,
        its block's start, is its label's index times w, with no lookup."""
        columns = _components(self._names, _DatetimeColumn(values))
        return tuple(columns[name] * enc.w if name == "weekend" else enc._keys(columns[name])
                     for name, enc in self.parts)


__all__ = [
    "concat",
    "MultiEncoder",
    "DatetimeEncoder",
    "DATETIME_COMPONENT_ORDER",
    "DOMINANCE_RATIO",
]
