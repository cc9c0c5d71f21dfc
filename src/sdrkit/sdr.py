"""Sparse distributed representation: a fixed-length bit vector stored as the
sorted indices of its one-bits.

The sparse index form is canonical because every encoder in this package
produces far fewer one-bits than total bits.  Dense strings ("010010...")
exist for display and interchange; index 0 is the leftmost character.

Validation happens once, at the boundary.  User construction (`SDR(...)`),
the parsers (`from_dense_string`, `from_sparse_string`) and `random_sdr`
validate fully: ``n`` must be a non-negative int, and every index must be
an integer (Python or numpy, never bool) in [0, n) and occur once.  The
encoders already produce sorted, in-range, duplicate-free indices, so they
build their results with the internal `SDR._trusted`, which skips those
checks; `concat` does too when every part is an `SDR`.
"""

from __future__ import annotations

import operator
import re
from dataclasses import dataclass

import numpy as np

from .errors import DimensionMismatch, InvalidSdr, ParseError


@dataclass(frozen=True)
class SDR:
    """Immutable bit vector of length ``n`` with ``active`` one-bit indices.

    ``active`` is normalized to a strictly increasing tuple of ints;
    non-integer (bool included), duplicate or out-of-range indices are
    rejected.  ``n == 0`` is permitted as the degenerate empty vector (it
    round-trips through the empty dense string) but cannot be used where
    sparsity is undefined.
    """

    n: int
    active: tuple[int, ...] = ()

    def __post_init__(self) -> None:
        if not isinstance(self.n, int) or isinstance(self.n, bool) or self.n < 0:
            raise InvalidSdr(f"total bit count must be a non-negative integer, got {self.n!r}")
        indices = _indices(self.active)
        if any(indices[k] >= indices[k + 1] for k in range(len(indices) - 1)):
            ordered = tuple(sorted(indices))
            if any(ordered[k] == ordered[k + 1] for k in range(len(ordered) - 1)):
                raise InvalidSdr("active indices contain duplicates")
            indices = ordered
        if indices and (indices[0] < 0 or indices[-1] >= self.n):
            raise InvalidSdr(
                f"active indices must lie in [0, {self.n}), got range "
                f"[{indices[0]}, {indices[-1]}]"
            )
        object.__setattr__(self, "active", indices)

    @classmethod
    def _trusted(cls, n: int, active: tuple[int, ...]) -> "SDR":
        """Internal constructor without validation, for encoders.

        The caller guarantees that ``n`` is a non-negative int and ``active``
        a strictly increasing tuple of Python ints in [0, n).
        """
        sdr = object.__new__(cls)
        fields = sdr.__dict__  # frozen blocks attribute assignment, not this
        fields["n"] = n
        fields["active"] = active
        return sdr

    @property
    def active_count(self) -> int:
        return len(self.active)


_BOOL_TYPES = frozenset((bool, np.bool_))


def _indices(active) -> tuple[int, ...]:
    """``active`` as a tuple of Python ints.  Anything but an integer (a bool,
    float or string) is rejected rather than truncated or parsed."""
    active = tuple(active)
    try:
        if _BOOL_TYPES.isdisjoint(map(type, active)):
            return tuple(map(operator.index, active))
    except TypeError:
        pass
    bad = next((i for i in active
                if type(i) in _BOOL_TYPES or not hasattr(type(i), "__index__")), active)
    raise InvalidSdr(f"active indices must be integers, got {bad!r}")


def overlap(a: SDR, b: SDR) -> int:
    """Number of one-bit positions shared by two same-length SDRs.

    SDRs of different lengths are incomparable and raise DimensionMismatch.
    """
    if a.n != b.n:
        raise DimensionMismatch(f"cannot compare SDRs of length {a.n} and {b.n}")
    return len(frozenset(a.active) & frozenset(b.active))


def sparsity(a: SDR) -> float:
    """Fraction of bits that are one; undefined (raises) for n == 0."""
    if a.n == 0:
        raise InvalidSdr("sparsity is undefined for a zero-length SDR")
    return len(a.active) / a.n


# Largest n that `sdrkit encode` writes as dense lines: each line holds n
# characters and is built for every row.
MAX_DENSE_N = 1 << 24


def to_dense_string(a: SDR) -> str:
    """Render as '0'/'1' characters, index 0 leftmost."""
    chars = ["0"] * a.n
    for i in a.active:
        chars[i] = "1"
    return "".join(chars)


def from_dense_string(s: str) -> SDR:
    """Inverse of to_dense_string; any character other than 0/1 is an error."""
    active = []
    for pos, ch in enumerate(s):
        if ch == "1":
            active.append(pos)
        elif ch != "0":
            raise ParseError(f"invalid character {ch!r} at position {pos}")
    return SDR(len(s), tuple(active))


def to_sparse_string(a: SDR, self_describing: bool = False) -> str:
    """Comma-separated ascending indices, e.g. "1,4"; empty string when no
    bits are set.  The self-describing form prefixes "n=<N>;"."""
    body = ",".join(str(i) for i in a.active)
    if self_describing:
        return f"n={a.n};{body}"
    return body


_NUMBER = "(?:0|[1-9][0-9]*)"
_SPARSE_TEXT = re.compile(f"(?:n=({_NUMBER});)?({_NUMBER}(?:,{_NUMBER})*)?")


def from_sparse_string(s: str, n: int | None = None) -> SDR:
    """Parse the sparse text form exactly as `to_sparse_string` writes it
    (ASCII decimals without sign or leading zero), surrounding whitespace
    aside.  ``n`` is required unless the string is self-describing
    ("n=<N>;...")."""
    match = _SPARSE_TEXT.fullmatch(s.strip())
    if match is None:
        raise ParseError(f"invalid sparse SDR text {s!r}")
    count, body = match.groups()
    if count is None and n is None:
        raise ParseError("total bit count required for non-self-describing form")
    try:  # int() refuses more digits than sys.get_int_max_str_digits()
        if count is not None:
            n = int(count)
        indices = tuple(map(int, body.split(","))) if body else ()
    except ValueError as exc:
        raise ParseError(f"invalid sparse SDR text: {exc}") from None
    return SDR(n, indices)


def to_dense_array(a: SDR, dtype=None) -> "object":
    """Dense numpy view (uint8 by default); convenience for array workflows."""
    out = np.zeros(a.n, dtype=dtype or np.uint8)
    if a.active:
        out[list(a.active)] = 1
    return out


def random_sdr(n: int, w: int, rng) -> SDR:
    """Uniformly random SDR with w one-bits; rng is a random.Random."""
    if w > n:
        raise InvalidSdr(f"cannot place {w} one-bits in {n} bits")
    return SDR(n, tuple(sorted(rng.sample(range(n), w))))


__all__ = [
    "SDR",
    "overlap",
    "sparsity",
    "to_dense_string",
    "from_dense_string",
    "to_sparse_string",
    "from_sparse_string",
    "to_dense_array",
    "random_sdr",
    "MAX_DENSE_N",
]
