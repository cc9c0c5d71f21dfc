"""Encoders for single numeric values.

Four variants:

* ScalarEncoder          -- bounded range, contiguous window of w bits
* CyclicEncoder          -- periodic quantities (day of week, hour of day);
                            the window wraps so both ends of the range overlap
* DeltaEncoder           -- encodes the change between consecutive inputs
* UnboundedScalarEncoder -- hash-bucketed, handles unknown/unbounded ranges
                            with a fixed number of bits

All of them emit SDRs of constant length, encode deterministically, and clamp
rather than reject out-of-range input; each one's key (`_Encoder`) is its
bucket.  Each constructor checks n and w (`_sizing_warnings`) and then its
own numbers, raises ConfigError at the first failed check, and keeps the
advisory sizing warnings as strings on ``.warnings``.
"""

from __future__ import annotations

import math

import numpy as np

from .errors import ConfigError, InputError, RangeError, _shown, is_finite_number, is_integer
from .hashing import MASK64, _bit_indices_array, bit_indices
from .sdr import SDR

# Advisory sizing guidance: enough one-bits to tolerate noise and
# subsampling, enough total bits to resolve many distinct values, and
# sparsity in the band where distributed representations behave well.
MIN_RECOMMENDED_W = 20
MIN_RECOMMENDED_N = 100
SPARSITY_BAND = (0.01, 0.35)

# Largest w an encoder accepts.  Each encode builds a w-element tuple, so a
# huge w costs memory on every input; useful codes have tens to hundreds of
# one-bits.
MAX_W = 1 << 16

_I64_MIN = -(1 << 63)
_I64_MAX = (1 << 63) - 1


class _Unkeyed(Exception):
    """A column step's refusal (`_Encoder._keys`): ``_key`` raises for some
    value of the column, and words the error."""


def _check_n(n) -> None:
    if not is_integer(n) or n < 1:
        raise ConfigError(f"n must be a positive integer, got {_shown(n)}")


def _check_w(w, n=math.inf) -> None:
    """Raise ConfigError unless w is a positive int with w <= n and w <= MAX_W."""
    if not is_integer(w) or w < 1:
        raise ConfigError(f"w must be a positive integer, got {_shown(w)}")
    if w > n:
        raise ConfigError(f"w ({_shown(w)}) cannot exceed n ({_shown(n)})")
    if w > MAX_W:
        raise ConfigError(f"w ({_shown(w)}) cannot exceed MAX_W ({MAX_W})")


def _sizing_warnings(n, w) -> list[str]:
    """Check n, then w (`_check_n`, `_check_w`); return the advisory sizing
    warnings (w >= 20, n >= 100, sparsity between 1% and 35%)."""
    _check_n(n)
    _check_w(w, n)
    warnings = []
    if w < MIN_RECOMMENDED_W:
        warnings.append(f"w={w} is below the recommended minimum of {MIN_RECOMMENDED_W} "
                        "one-bits; small codes are fragile under noise and subsampling")
    if n < MIN_RECOMMENDED_N:
        warnings.append(f"n={n} is below the recommended minimum of {MIN_RECOMMENDED_N} bits")
    lo, hi = SPARSITY_BAND
    if not (lo <= w / n <= hi):
        warnings.append(f"sparsity w/n = {w / n:.4f} is outside the usual "
                        f"[{lo:.0%}, {hi:.0%}] band")
    return warnings


def _check_positive(name: str, value) -> None:
    if not (is_finite_number(value) and value > 0):
        raise ConfigError(f"{name} must be positive and finite, got {_shown(value)}")


def _resolution(span: float, n: int, w: int = 0) -> float:
    """The bucket width ``span / (n - w)``; a ConfigError unless it is a
    positive finite float, since no encode could use it otherwise."""
    try:
        width = span / (n - w)
    except OverflowError:  # n past the float range
        width = 0.0
    if not 0 < width < math.inf:
        raise ConfigError(f"n={_shown(n)} leaves no positive finite bucket width for a range "
                          f"of {span!r}")
    return width


def _require_finite(value) -> float:
    try:
        v = float(value)
    except (TypeError, ValueError):
        raise InputError(f"expected a number, got {_shown(value)}") from None
    except OverflowError:  # an int past the float range
        raise InputError("cannot encode an integer past the float range") from None
    if not math.isfinite(v):
        raise InputError(f"cannot encode non-finite value {v!r}")
    return v


def _finite_floats(values) -> np.ndarray:
    """A column of finite numbers as float64, each as `_require_finite`
    converts it; anything else, text included, is `_Unkeyed`."""
    v = np.asarray(values)
    if v.ndim != 1 or v.dtype.kind not in "biuf":
        raise _Unkeyed
    v = v.astype(np.float64, copy=False)
    if not np.isfinite(v).all():
        raise _Unkeyed
    return v


class _Encoder:
    """Every encoder's four steps: ``_key``, its column twin ``_keys``,
    ``_sdr`` and ``_bits``; `encode` is the ``_sdr`` of the ``_key``.

    * ``_key(value)`` runs every check, in order, and returns a small key (a
      bucket, a window start, a geospatial ``(cx, cy, r)``, a multi encoder's
      tuple of its parts' keys); only it raises an SdrError.
    * ``_sdr(key)`` is the `SDR` of one key: pure, it cannot fail.
    * ``_keys(values)`` is the ``_key`` of each value of a column, in order,
      computed a column at a time, as int64 arrays: one array of the keys,
      the geospatial ``(x, y, r)`` arrays, or a multi encoder's tuple of its
      parts' key columns; a window of 2**62 buckets or more keys as Python
      ints in an object array.  Every encoder has its own, and it takes the
      one column form its config binding reads (`BoundEncoder._read_columns`).
      It builds no error message: on that form it raises, an exception of
      any type, exactly where ``_key`` raises for some value.  Either step
      moves a `DeltaEncoder`, ``_keys`` only when it returns.
    * ``_bits(keys, out, offset)`` writes the bit indices of the key
      columns that ``_keys`` gives, plus ``offset``, into ``out``: w per
      row, each below n before the offset; a hash collision repeats an
      index there.  ``out`` is the encoder's column slice of a
      `MultiEncoder`'s (rows, w) bit matrix, uint64 (Python ints past 2**64
      bits), so each part writes its own columns in place.
    """

    def encode(self, value) -> SDR:
        """The SDR of ``value``, or the SdrError of its first failed check."""
        return self._sdr(self._key(value))


class _WindowEncoder(_Encoder):
    """w contiguous bits from the start that ``_key`` returns, wrapping past
    bit n - 1 (only a cyclic start gets there): the bounded, cyclic and
    category rule."""

    def _sdr(self, b: int) -> SDR:
        end = b + self.w  # past n, the window wraps around to bit 0
        if end <= self.n:
            return SDR._trusted(self.n, tuple(range(b, end)))
        return SDR._trusted(self.n, tuple(range(end - self.n)) + tuple(range(b, self.n)))

    def _bits(self, starts: np.ndarray, out: np.ndarray, offset) -> None:
        np.add(starts[:, None], offset + np.arange(self.w, dtype=out.dtype), out=out,
               dtype=out.dtype, casting="unsafe")


class ScalarEncoder(_WindowEncoder):
    """Bounded-range scalar encoder.

    The range [min_value, max_value] is divided into n - w + 1 buckets of
    width ``resolution`` = (max - min) / (n - w); a value in bucket b
    activates bits {b, ..., b + w - 1}.  Adjacent values therefore share
    w - 1 bits, and values more than w buckets apart share none.  Inputs
    outside the range are clamped to the extreme representations, so every
    input yields exactly w one-bits.
    """

    def __init__(self, min_value: float, max_value: float, n: int, w: int):
        self.warnings = _sizing_warnings(n, w)
        if not (is_finite_number(min_value) and is_finite_number(max_value)):
            raise ConfigError(f"min and max must be finite numbers, got {_shown(min_value)} "
                              f"and {_shown(max_value)}")
        if min_value >= max_value:
            raise ConfigError(f"empty range: min ({min_value}) must be below max ({max_value})")
        if n - w < 1:
            raise ConfigError(f"n - w must be at least 1 to span a bounded range (n={n}, w={w})")
        self.min_value = float(min_value)
        self.max_value = float(max_value)
        self.n = n
        self.w = w
        self.resolution = _resolution(self.max_value - self.min_value, n, w)

    def params(self) -> dict:
        """The encoder's config keys."""
        return {"min": self.min_value, "max": self.max_value, "n": self.n, "w": self.w}

    def bucket(self, value: float) -> int:
        """Clamped bucket index in [0, n - w]."""
        return self._clamped_bucket(_require_finite(value))

    _key = bucket

    def _keys(self, values) -> np.ndarray:
        return self._clamped_buckets(_finite_floats(values))

    def _clamped_bucket(self, v: float) -> int:
        """`bucket` of a float that is not NaN, unchecked; ±inf clamps to an end."""
        v = min(max(v, self.min_value), self.max_value)
        # v >= min_value, so the floor is >= 0
        return min(math.floor((v - self.min_value) / self.resolution), self.n - self.w)

    def _clamped_buckets(self, v: np.ndarray) -> np.ndarray:
        """`_clamped_bucket` of each float of an array: through the same
        float operations as int64 while n - w is below 2**62, where the
        floor is below 1.5 * 2**62 even at a subnormal bucket width, so its
        int64 cast is exact; as Python ints, a value at a time, past it."""
        top = self.n - self.w
        if top >= 1 << 62:
            return np.array(list(map(self._clamped_bucket, v.tolist())), dtype=object)
        v = np.minimum(np.maximum(v, self.min_value), self.max_value)
        return np.minimum(np.floor((v - self.min_value) / self.resolution).astype(np.int64), top)


class CyclicEncoder(_WindowEncoder):
    """Periodic scalar encoder whose window wraps around the bit array.

    The cycle [0, period) maps onto all n bits (resolution = period / n), and
    the w-bit window starting at the value's bucket wraps modulo n, so values
    at the two ends of the cycle overlap exactly like interior neighbors.
    """

    def __init__(self, period: float, n: int, w: int):
        self.warnings = _sizing_warnings(n, w)
        _check_positive("period", period)
        self.period = float(period)
        self.n = n
        self.w = w
        self.resolution = _resolution(self.period, n)

    def params(self) -> dict:
        """The encoder's config keys."""
        return {"period": self.period, "n": self.n, "w": self.w}

    def bucket(self, value: float) -> int:
        v = _require_finite(value)
        # float mod can land exactly on `period` for tiny negatives; the
        # final % n absorbs that edge.
        phase = ((v % self.period) + self.period) % self.period
        return math.floor(phase / self.resolution) % self.n

    _key = bucket

    def _keys(self, values) -> np.ndarray:
        v = _finite_floats(values)
        if self.n >= 1 << 62:  # below, the floor of phase / resolution casts exactly
            return np.array(list(map(self.bucket, v.tolist())), dtype=object)
        # numpy's float % is Python's: fmod, then the divisor's sign.
        phase = ((v % self.period) + self.period) % self.period
        return np.floor(phase / self.resolution).astype(np.int64) % self.n

    def _bits(self, starts: np.ndarray, out: np.ndarray, offset) -> None:
        np.add((starts[:, None] + np.arange(self.w)) % self.n, offset, out=out,
               dtype=out.dtype, casting="unsafe")


class DeltaEncoder(ScalarEncoder):
    """A `ScalarEncoder` over the expected delta range, fed the change
    between consecutive inputs.

    The first input has no predecessor and encodes a delta of zero, so the
    output dimensionality and sparsity are constant from the first record.
    One instance serves one input stream; it is stateful and single-writer.
    """

    previous: float | None = None  # the last input encoded

    def _key(self, value: float) -> int:
        """The bucket of the change since the previous input, which becomes
        ``value``; on an error the state is untouched.  Only the input is
        checked: a change past the float range is ±inf and clamps."""
        v = _require_finite(value)
        b = self._clamped_bucket(0.0 if self.previous is None else v - self.previous)
        self.previous = v
        return b

    def _keys(self, values) -> np.ndarray:
        v = _finite_floats(values)  # an empty column raises IndexError at v[0] or v[-1]
        with np.errstate(over="ignore"):  # a change past the float range is ±inf
            changes = np.diff(v, prepend=v[0] if self.previous is None else self.previous)
        keys = self._clamped_buckets(changes)
        self.previous = float(v[-1])
        return keys

    def reset(self) -> None:
        self.previous = None


class UnboundedScalarEncoder(_Encoder):
    """Hash-bucketed scalar encoder for unbounded or unknown ranges.

    The value's bucket b = floor(value / resolution) can be any signed 64-bit
    integer; each of the buckets b..b+w-1 is hashed to one of the n bits.
    Values d buckets apart share exactly w - d of their hashed buckets, so
    nearby values overlap strongly while far ones overlap only at chance
    level.  Hash collisions may reduce the one-bit count slightly below w;
    they are accepted, not retried.
    """

    def __init__(self, resolution: float, n: int, w: int, seed: int = 0):
        self.warnings = _sizing_warnings(n, w)
        _check_positive("resolution", resolution)
        if not is_integer(seed):
            raise ConfigError(f"seed must be an integer, got {_shown(seed)}")
        self.resolution = float(resolution)
        self.n = n
        self.w = w
        self.seed = seed

    def params(self) -> dict:
        """The encoder's config keys."""
        return {"resolution": self.resolution, "n": self.n, "w": self.w, "seed": self.seed}

    def bucket(self, value: float) -> int:
        v = _require_finite(value)
        scaled = v / self.resolution
        if not math.isfinite(scaled):
            raise RangeError(
                f"bucket index for value {v!r} at resolution {self.resolution!r} "
                "overflows the signed 64-bit range"
            )
        b = math.floor(scaled)
        if b < _I64_MIN or b + self.w - 1 > _I64_MAX:
            raise RangeError(
                f"bucket index {b} for value {v!r} overflows the signed 64-bit range"
            )
        return b

    _key = bucket

    def _keys(self, values) -> np.ndarray:
        with np.errstate(over="ignore"):  # a quotient past the float range is ±inf
            b = np.floor(_finite_floats(values) / self.resolution)
        # `bucket`'s check: each bucket and its w - 1 successors fit int64.
        # ±2.0**63 are exact, so the floats that pass convert exactly.
        if not ((-(2.0 ** 63) <= b) & (b < 2.0 ** 63)).all():
            raise _Unkeyed
        b = b.astype(np.int64)
        if (b > _I64_MAX - (self.w - 1)).any():
            raise _Unkeyed
        return b

    def _sdr(self, b: int) -> SDR:
        keys = np.arange(self.w, dtype=np.uint64)
        keys += np.uint64(b & MASK64)  # wraps, as (b + i) & MASK64 does
        return SDR._trusted(self.n, bit_indices(keys, self.seed, self.n))

    def _bits(self, buckets: np.ndarray, out: np.ndarray, offset) -> None:
        # The uint64 view is the two's-complement pattern b & MASK64.
        keys = buckets.view(np.uint64)[:, None]
        keys = keys + np.arange(self.w, dtype=np.uint64)  # wraps, as in _sdr
        # The indices are non-negative, so the cast keeps their values.
        np.add(_bit_indices_array(keys, self.seed, self.n), offset, out=out, dtype=out.dtype,
               casting="unsafe")


__all__ = [
    "ScalarEncoder",
    "CyclicEncoder",
    "DeltaEncoder",
    "UnboundedScalarEncoder",
    "MIN_RECOMMENDED_W",
    "MIN_RECOMMENDED_N",
    "SPARSITY_BAND",
    "MAX_W",
]
