"""Deterministic 64-bit hashing primitives.

These are normative: every hash-based encoder in the package derives its bit
indices from `mix64`, so outputs are bit-identical across platforms and
process restarts.  All arithmetic is modulo 2**64; signed inputs are
reinterpreted as two's-complement bit patterns before mixing.

`mix64_array`, `order_keys_array`, `bit_indices` and `counter_stream_array`
are numpy twins, each next to its scalar reference, for callers that hash
many keys at once; `_bit_indices_array` keeps the keys' shape, so a chunk of
rows hashes in one pass.  The scalar functions define the outputs, and no
other module applies a seed, `ORDER_STREAM_XOR` or the modulo by n.
"""

from __future__ import annotations

import numpy as np

MASK64 = (1 << 64) - 1
_GOLDEN = 0x9E3779B97F4A7C15
_MULT1 = 0xBF58476D1CE4E5B9
_MULT2 = 0x94D049BB133111EB

# XOR-ed into the key to derive a second, decorrelated output stream
# (the subsampling order key) from the same coordinate.
ORDER_STREAM_XOR = 0x5851F42D4C957F2D


def mix64(z: int) -> int:
    """Avalanche-mix a 64-bit value.

    z <- z + 9E3779B97F4A7C15
    z <- (z ^ (z >> 30)) * BF58476D1CE4E5B9
    z <- (z ^ (z >> 27)) * 94D049BB133111EB
    return z ^ (z >> 31)
    """
    z = (z + _GOLDEN) & MASK64
    z = ((z ^ (z >> 30)) * _MULT1) & MASK64
    z = ((z ^ (z >> 27)) * _MULT2) & MASK64
    return z ^ (z >> 31)


# Every operand is uint64: numpy 1.x promotes uint64 mixed with int64 to float64.
_GOLDEN_U64 = np.uint64(_GOLDEN)
_MULT1_U64 = np.uint64(_MULT1)
_MULT2_U64 = np.uint64(_MULT2)
_SHIFT30 = np.uint64(30)
_SHIFT27 = np.uint64(27)
_SHIFT31 = np.uint64(31)


def mix64_array(keys) -> np.ndarray:
    """`mix64` of every key, as a new uint64 array of the same shape.

    Keys must lie in [0, 2**64).  The steps run in place on the copy, so
    even a 0-d input stays in wrapping array arithmetic.
    """
    return _mix64_inplace(np.array(keys, dtype=np.uint64))


def _mix64_inplace(z: np.ndarray) -> np.ndarray:
    z += _GOLDEN_U64
    z ^= z >> _SHIFT30
    z *= _MULT1_U64
    z ^= z >> _SHIFT27
    z *= _MULT2_U64
    z ^= z >> _SHIFT31
    return z


def pack_coordinate(x: int, y: int) -> int:
    """Pack a signed 32-bit (x, y) pair into one 64-bit key: x in the high
    word, y in the low word, both as unsigned reinterpretations."""
    return ((x & 0xFFFFFFFF) << 32) | (y & 0xFFFFFFFF)


def coordinate_hash(coord, seed: int, n: int) -> tuple[int, int]:
    """Map a grid cell to its bit index in [0, n) and its 64-bit order key.

    The order key gives every cell a fixed pseudo-random rank used for
    top-w subsampling; dividing by 2**64 recovers a [0, 1) weight, but the
    integer form is canonical so that comparisons never tie by rounding.
    Values are computed on demand; nothing is stored.
    """
    x, y = coord
    key = pack_coordinate(x, y)
    bit_index = mix64((key ^ seed) & MASK64) % n
    order_key = mix64((key ^ seed ^ ORDER_STREAM_XOR) & MASK64)
    return bit_index, order_key


def order_keys_array(keys: np.ndarray, seed: int) -> np.ndarray:
    """`coordinate_hash` order keys of packed uint64 cell keys, as a new array."""
    return _mix64_inplace(keys ^ np.uint64((seed ^ ORDER_STREAM_XOR) & MASK64))


def bucket_bit_index(bucket: int, seed: int, n: int) -> int:
    """Bit index for an unbounded signed 64-bit bucket.

    The bucket's two's-complement 64-bit pattern is the hash key, so every
    bucket in the signed 64-bit range keys distinctly.
    """
    return mix64(((bucket & MASK64) ^ seed) & MASK64) % n


def _bit_indices_array(keys: np.ndarray, seed: int, n: int) -> np.ndarray:
    """`bucket_bit_index` of every uint64 key, as a new uint64 array of the
    same shape, unsorted and with repeats; for packed cell keys, the
    `coordinate_hash` bit indices."""
    bits = _mix64_inplace(keys ^ np.uint64(seed & MASK64))
    if n <= MASK64:  # a larger n already holds every 64-bit hash
        bits %= np.uint64(n)
    return bits


def bit_indices(keys: np.ndarray, seed: int, n: int) -> tuple[int, ...]:
    """Sorted distinct `_bit_indices_array` of uint64 keys."""
    return tuple(sorted(set(_bit_indices_array(keys, seed, n).tolist())))


def counter_stream(seed: int, k: int) -> int:
    """k-th value of the counter-based pseudo-random stream for ``seed``.

    Purely a function of (seed, k): partitions of a sampling loop can be
    computed independently and still agree.
    """
    return mix64((seed + k * _GOLDEN) & MASK64)


def counter_stream_array(seed: int, ks) -> np.ndarray:
    """`counter_stream(seed, k)` for every k in ``ks``, as a new uint64 array.

    ``seed`` is any Python int (taken modulo 2**64, as `counter_stream`
    does); every k must lie in [0, 2**64).
    """
    z = np.array(ks, dtype=np.uint64)
    z *= _GOLDEN_U64
    z += np.uint64(seed & MASK64)
    return _mix64_inplace(z)


__all__ = [
    "MASK64",
    "ORDER_STREAM_XOR",
    "mix64",
    "mix64_array",
    "pack_coordinate",
    "coordinate_hash",
    "order_keys_array",
    "bucket_bit_index",
    "bit_indices",
    "counter_stream",
    "counter_stream_array",
]
