"""Encoders for positions on an integer grid.

A position's neighborhood -- the square of cells within Chebyshev radius R --
is hashed cell-by-cell into the bit array.  Because the hash is a pure
function of the cell, nearby positions re-derive the same bits for their
shared cells and overlap proportionally to proximity, with no stored state
and no bound on the coordinate space.

Two variants:

* fixed: every neighborhood cell contributes a bit (w == (2R+1)**2).
* topw:  only the w cells with the highest order keys contribute; since a
         cell's order key never changes, nearby positions tend to select the
         same cells.  The radius can grow with the entity's speed so that
         "near" means near relative to how fast it is moving.

GPS input goes through `gps_to_grid`, a spherical-mercator adapter; the
encoders themselves only ever see integer cells, so any planar data works.
A column of positions goes through its twin, `_gps_to_grid_columns`, and
``GeospatialEncoder._keys`` checks and keys a column of cells (`_Cells`)
with int64 and float64 arrays, into the int64 ``(x, y, r)`` key columns
that ``_bits`` takes.

`neighborhood` and `hashing.coordinate_hash` are the reference definition
of the bits.  `GeospatialEncoder._cells`, the one cell step of both
variants, computes the same values in one numpy pass over the packed keys
of one neighborhood or of a block of neighborhoods of one radius, and keeps
the cells that set bits; ``_sdr`` and ``_bits`` hash a bit index only for
those.  Top-w ranks one neighborhood by a stable sort and a block by a
threshold at each row's w-th order key, which keeps the same cells.
"""

from __future__ import annotations

import math
import operator
from functools import lru_cache
from typing import NamedTuple

import numpy as np

from .errors import (
    ConfigError,
    InputError,
    ProjectionError,
    RangeError,
    _shown,
    is_finite_number,
    is_integer,
)
from .hashing import _bit_indices_array, bit_indices, order_keys_array
from .scalars import _check_n, _Encoder, _finite_floats, _Unkeyed
from .sdr import SDR

_I32_MIN = -(1 << 31)
_I32_MAX = (1 << 31) - 1

# Most cells a chunk step holds at once: `sdrkit encode` puts at most this
# many bit indices in a chunk (`sdrkit evaluate` keys all its samples as
# one, bounded by `quality.MAX_EVALUATE_CELLS`), and ``_bits`` packs at most
# this many cells (or one neighborhood, when that is larger) per `_cells` call.
_CHUNK_CELLS = 1 << 15

# Most cells a neighborhood an encoder hashes may have: every encode builds
# arrays of all of them, so a wider one is an InputError rather than a
# memory error.  It allows any radius up to 511.
MAX_NEIGHBORHOOD_CELLS = 1 << 20

# Spherical mercator constants: WGS84 equatorial radius and the latitude
# beyond which the square projection is undefined.
EARTH_RADIUS_M = 6378137.0
MAX_MERCATOR_LAT = 85.05113


class GridCoordinate(NamedTuple):
    """Signed 32-bit (x, y) cell on the flattened grid."""

    x: int
    y: int


def _check_i32(v: int, what: str) -> None:
    if v < _I32_MIN or v > _I32_MAX:
        raise RangeError(f"{what} {_shown(v)} exceeds the signed 32-bit range")


def _check_neighborhood(cx: int, cy: int, radius: int) -> None:
    _check_i32(cx - radius, "neighborhood x")
    _check_i32(cx + radius, "neighborhood x")
    _check_i32(cy - radius, "neighborhood y")
    _check_i32(cy + radius, "neighborhood y")


def neighborhood(center, radius: int) -> list[GridCoordinate]:
    """All cells within Chebyshev distance ``radius``, in ascending (x, y)
    order; raises RangeError if any cell would leave the 32-bit grid."""
    cx, cy = center
    _check_neighborhood(cx, cy, radius)
    return [
        GridCoordinate(x, y)
        for x in range(cx - radius, cx + radius + 1)
        for y in range(cy - radius, cy + radius + 1)
    ]


@lru_cache(maxsize=64)
def _offsets(radius: int) -> tuple[np.ndarray, np.ndarray]:
    """The offsets -radius..radius as int64, and each shifted left 32 bits."""
    offsets = np.arange(-radius, radius + 1, dtype=np.int64)
    return offsets, offsets << 32


def _neighborhood_keys(cx, cy, radius: int) -> np.ndarray:
    """`pack_coordinate` of every `neighborhood((cx, cy), radius)` cell, in
    the same order, as uint64.  ``cx`` and ``cy`` are ints, giving one row of
    (2*radius + 1)**2 keys, or (rows, 1) int64 arrays, giving one row per
    centre.  Every neighborhood must pass `_check_neighborhood`."""
    offsets, high_offsets = _offsets(radius)
    # On the grid, x << 32 fits int64 and has the bit pattern of
    # (x & 0xFFFFFFFF) << 32, so the uint64 view of the OR is the packed key.
    xs = (cx << 32) + high_offsets
    ys = (cy + offsets) & 0xFFFFFFFF
    keys = xs[..., :, None] | ys[..., None, :]
    return keys.reshape(keys.shape[:-2] + (-1,)).view(np.uint64)


class _Cells(NamedTuple):
    """A column of geospatial values as ``GeospatialEncoder._keys`` takes
    it: the cells' x and y as int64 arrays and, for (cell, speed) pairs,
    the speeds as an array of real numbers."""

    x: np.ndarray
    y: np.ndarray
    speed: np.ndarray | None = None


class GeospatialEncoder(_Encoder):
    """Grid-position encoder with fixed-neighborhood and top-w variants.

    Parameters
    ----------
    n : total bits.
    radius : base neighborhood radius R (cells); no radius above 2**31 - 1
        fits a neighborhood on the signed 32-bit grid.
    variant : "fixed" or "topw".
    w : bits to select (topw only; fixed derives w = (2R+1)**2).
    seed : 64-bit hash seed.
    speed_scale : cells of extra radius per unit of speed (topw; fixed
        takes only the default, 0).
    radius_min, radius_max : clamps for the speed-adaptive radius;
        both default to ``radius``, the only value fixed takes.
    """

    def __init__(
        self,
        n: int,
        radius: int = 2,
        *,
        variant: str = "fixed",
        w: int | None = None,
        seed: int = 0,
        speed_scale: float = 0.0,
        radius_min: int | None = None,
        radius_max: int | None = None,
    ):
        _check_n(n)
        if not is_integer(radius) or radius < 0:
            raise ConfigError(f"radius must be a non-negative integer, got {_shown(radius)}")
        if variant not in ("fixed", "topw"):
            raise ConfigError(f"variant must be 'fixed' or 'topw', got {_shown(variant)}")
        if not is_integer(seed):
            raise ConfigError(f"seed must be an integer, got {_shown(seed)}")
        for name, v in (("w", w), ("radius_min", radius_min), ("radius_max", radius_max)):
            if v is not None and not is_integer(v):
                raise ConfigError(f"{name} must be an integer, got {_shown(v)}")
        if not is_finite_number(speed_scale):
            raise ConfigError(f"speed_scale must be a finite number, got {_shown(speed_scale)}")

        self.n = n
        self.radius = radius
        self.variant = variant
        self.seed = seed
        self.speed_scale = float(speed_scale)
        self.radius_min = radius if radius_min is None else radius_min
        self.radius_max = radius if radius_max is None else radius_max

        if self.radius_min < 0 or self.radius_min > self.radius_max:
            raise ConfigError(f"need 0 <= radius_min <= radius_max, got "
                              f"[{_shown(self.radius_min)}, {_shown(self.radius_max)}]")
        if max(radius, self.radius_max) > _I32_MAX:
            raise ConfigError(f"radius {_shown(radius)} and radius_max "
                              f"{_shown(self.radius_max)} must be at most {_I32_MAX}: no "
                              "wider neighborhood fits on the signed 32-bit grid")

        full = (2 * radius + 1) ** 2
        if variant == "fixed":
            speed_keys = (self.speed_scale, self.radius_min, self.radius_max)
            if speed_keys != (0, radius, radius):
                raise ConfigError("the fixed variant has no speed-adaptive radius, so "
                                  "(speed_scale, radius_min, radius_max) must be their "
                                  f"defaults (0, {radius}, {radius}), got {speed_keys}")
            if w is not None and w != full:
                raise ConfigError(f"fixed variant at radius {radius} has w = {full}, "
                                  f"got w={_shown(w)}")
            self.w = full
        elif w is None:
            raise ConfigError("topw variant requires w")
        else:
            self.w = w
            min_pool = (2 * self.radius_min + 1) ** 2
            if not (1 <= w <= min_pool):
                raise ConfigError(f"topw requires 1 <= w <= (2*radius_min+1)**2 "
                                  f"= {min_pool}, got w={_shown(w)}")
        self.warnings = []  # w is at most (2**32 - 1)**2 here
        if self.w ** 2 / self.n > 1:
            self.warnings.append(f"w**2/n = {self.w ** 2 / self.n:.2f} > 1: expect "
                                 "noticeable bit-index collisions; increase n")

    def params(self) -> dict:
        """The encoder's config keys; w only for topw, as the radius fixes it."""
        params = {"n": self.n, "variant": self.variant, "radius": self.radius,
                  "seed": self.seed, "speed_scale": self.speed_scale,
                  "radius_min": self.radius_min, "radius_max": self.radius_max}
        if self.variant == "topw":
            params["w"] = self.w
        return params

    def radius_from_speed(self, speed: float) -> int:
        """Affine-then-clamp speed-to-radius map: radius grows by
        ``speed_scale`` cells per speed unit from ``radius_min`` and is
        clamped to [radius_min, radius_max].  Monotone in speed."""
        try:
            s = float(speed)
        except (TypeError, ValueError):
            raise InputError(f"expected a number for speed, got {_shown(speed)}") from None
        except OverflowError:  # an int past the float range
            raise InputError("speed must be finite, got an integer past the float "
                             "range") from None
        if math.isnan(s) or s < 0:
            raise InputError(f"speed must be non-negative, got {_shown(speed)}")
        if s == math.inf:
            raise InputError(f"speed must be finite, got {_shown(speed)}")
        # Clamp before flooring: a product past the float range is inf.
        extra = min(max(s * self.speed_scale, 0), self.radius_max - self.radius_min)
        return self.radius_min + math.floor(extra)

    def _key(self, value) -> tuple[int, int, int]:
        """The cell of an (x, y) value and its neighborhood radius R; topw also
        takes a (cell, speed) pair, as a ``speed_field`` binding yields it,
        at the speed's radius.  A neighborhood of more than
        `MAX_NEIGHBORHOOD_CELLS` cells raises InputError."""
        try:
            if not isinstance(value[0], (tuple, list)):
                cell, r = value, self.radius
            elif self.variant == "fixed":
                raise InputError("the fixed variant does not take a speed")
            else:
                cell, speed = value
                r = self.radius_from_speed(speed)
            cx, cy = map(operator.index, cell)
        except (TypeError, ValueError, LookupError):  # no cell of two integers
            raise InputError(f"expected an (x, y) cell of two integers, or a (cell, speed) "
                             f"pair, got {_shown(value)}") from None
        _check_neighborhood(cx, cy, r)
        if (2 * r + 1) ** 2 > MAX_NEIGHBORHOOD_CELLS:
            raise InputError(f"a radius-{r} neighborhood has {(2 * r + 1) ** 2} cells, more "
                             f"than MAX_NEIGHBORHOOD_CELLS ({MAX_NEIGHBORHOOD_CELLS})")
        # Only a bare cell can fall short: a speed's radius is at least
        # radius_min, whose pool the constructor checked against w.
        if self.variant == "topw" and (2 * r + 1) ** 2 < self.w:
            raise InputError(f"w={self.w} needs a speed: a bare cell encodes at "
                             f"radius {r}, whose neighborhood has only {(2 * r + 1) ** 2} "
                             "cells; encode a (cell, speed) pair")
        return cx, cy, r

    def _keys(self, cells: _Cells) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
        """``_key`` of each value of a column, as the cells' x and y and their
        radii: the same checks, on int64 and float64 arrays.  Speeds key only
        for topw, as a config binds a 'speed_field' to no other variant."""
        x, y, speed = cells
        if speed is None:
            r = np.full(len(x), self.radius, dtype=np.int64)
        else:
            s = _finite_floats(speed)
            if self.variant == "fixed" or (s < 0).any():
                raise _Unkeyed
            with np.errstate(over="ignore"):  # a product past the float range is inf
                extra = np.minimum(np.maximum(s * self.speed_scale, 0.0),
                                   self.radius_max - self.radius_min)
            r = self.radius_min + np.floor(extra).astype(np.int64)
        if ((2 * int(r.max()) + 1) ** 2 > MAX_NEIGHBORHOOD_CELLS
                or (self.variant == "topw" and (2 * int(r.min()) + 1) ** 2 < self.w)):
            raise _Unkeyed
        low, high = _I32_MIN + r, _I32_MAX - r  # the centres whose neighborhood fits
        if not ((low <= x) & (x <= high) & (low <= y) & (y <= high)).all():
            raise _Unkeyed
        return x, y, r

    def _cells(self, cx, cy, r: int) -> np.ndarray:
        """The packed keys of the cells that set bits, shaped as by
        `_neighborhood_keys`: all of them, or topw's w of largest order key."""
        keys = _neighborhood_keys(cx, cy, r)
        if self.variant == "fixed":
            return keys
        # Ascending ~order is descending order key; among ties the first in
        # enumeration order, which is ascending (x, y), goes first.
        ranks = ~order_keys_array(keys, self.seed)
        if keys.ndim == 1:  # one value: the stable sort is the faster
            return keys[np.argsort(ranks, kind="stable")[: self.w]]
        # A block: each row's cells below its w-th smallest rank, then as many
        # of the cells at that rank as are still wanted, first to last.  The
        # row holds the same cells as the stable sort's w, in their own order.
        kth = np.partition(ranks, self.w - 1, axis=1)[:, self.w - 1:self.w]
        keep = ranks <= kth
        if np.count_nonzero(keep) > len(keep) * self.w:  # some row ties at its kth
            ties = ranks == kth
            wanted = self.w - np.count_nonzero(keep & ~ties, axis=1)[:, None]
            keep &= ~ties | (np.cumsum(ties, axis=1) <= wanted)
        return keys[keep].reshape(-1, self.w)

    def _sdr(self, key) -> SDR:
        """Hash every cell of the neighborhood, or topw's w cells with the
        largest order keys."""
        return SDR._trusted(self.n, bit_indices(self._cells(*key), self.seed, self.n))

    def _bits(self, keys, out: np.ndarray, offset) -> None:
        x, y, radii = keys
        for r in sorted(set(radii.tolist())):  # np.unique would import numpy.ma
            (rows,) = np.nonzero(radii == r)
            block = max(1, _CHUNK_CELLS // (2 * r + 1) ** 2)
            for start in range(0, len(rows), block):
                at = rows[start:start + block]
                packed = self._cells(x[at, None], y[at, None], r)
                # The indices are non-negative, so the cast keeps their values.
                out[at] = np.add(_bit_indices_array(packed, self.seed, self.n), offset,
                                 dtype=out.dtype, casting="unsafe")


def gps_to_grid(lat: float, lon: float, cell_size: float) -> GridCoordinate:
    """Project (lat, lon) in degrees onto the spherical-mercator plane and
    quantize to ``cell_size``-meter grid cells.

    Uses y = R * atanh(sin(lat)), the algebraic twin of the usual
    log-tan form that is exact at the equator.  Latitudes at or beyond
    +-85.05113 degrees fall outside the projection.
    """
    for name, v in (("lat", lat), ("lon", lon)):
        if not is_finite_number(v):
            raise InputError(f"{name} must be a finite number, got {_shown(v)}")
    if not (is_finite_number(cell_size) and cell_size > 0):
        raise InputError(f"cell_size must be a positive number of meters, got {_shown(cell_size)}")
    if abs(lat) >= MAX_MERCATOR_LAT:
        raise ProjectionError(
            f"latitude {lat} is outside the mercator validity band "
            f"(|lat| < {MAX_MERCATOR_LAT})"
        )
    if abs(lon) > 180.0:
        raise ProjectionError(f"longitude {lon} must be within [-180, 180]")
    x_m = EARTH_RADIUS_M * math.radians(lon)
    y_m = EARTH_RADIUS_M * math.atanh(math.sin(math.radians(lat)))
    try:
        gx = math.floor(x_m / cell_size)
        gy = math.floor(y_m / cell_size)
    except OverflowError:  # a quotient past the float range is inf
        raise RangeError(f"the cell of ({lat}, {lon}) at cell_size {cell_size!r} exceeds "
                         "the signed 32-bit range") from None
    _check_i32(gx, "grid x")
    _check_i32(gy, "grid y")
    return GridCoordinate(gx, gy)


def _gps_to_grid_columns(lat: np.ndarray, lon: np.ndarray, cell_size: float) -> _Cells:
    """`gps_to_grid` of float64 arrays of latitudes and longitudes, bit for
    bit: the same float operations, with numpy's checks, products and floor
    and libm's sine and atanh through `math`, a value at a time (numpy's own
    may differ from libm in the last bit).  ``cell_size`` is a positive
    float; where any value fails a check of `gps_to_grid` it raises."""
    if not ((np.abs(lat) < MAX_MERCATOR_LAT).all() and (np.abs(lon) <= 180.0).all()):
        raise _Unkeyed  # NaN fails both comparisons, ±inf the band
    x_m = EARTH_RADIUS_M * (lon * (math.pi / 180))  # math.radians multiplies by pi/180
    y_m = EARTH_RADIUS_M * np.fromiter(
        map(math.atanh, map(math.sin, (lat * (math.pi / 180)).tolist())), np.float64, len(lat))
    with np.errstate(over="ignore"):  # a quotient past the float range is inf
        gx, gy = np.floor(x_m / cell_size), np.floor(y_m / cell_size)
    if not ((_I32_MIN <= gx) & (gx <= _I32_MAX) & (_I32_MIN <= gy) & (gy <= _I32_MAX)).all():
        raise _Unkeyed
    return _Cells(gx.astype(np.int64), gy.astype(np.int64))


__all__ = [
    "GridCoordinate",
    "GeospatialEncoder",
    "neighborhood",
    "gps_to_grid",
    "MAX_NEIGHBORHOOD_CELLS",
    "EARTH_RADIUS_M",
    "MAX_MERCATOR_LAT",
]
