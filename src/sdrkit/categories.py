"""Encoder for discrete, unrelated categories.

Each category owns a dedicated block of w bits; distinct labels never share
a bit, so downstream consumers see them as maximally dissimilar.  Related or
ordered categories belong in the cyclic/scalar encoders instead.
"""

from __future__ import annotations

from typing import Sequence

import numpy as np

from .errors import ConfigError, InputError, UnknownCategoryError, _shown
from .scalars import _WindowEncoder, _check_w

UNKNOWN_POLICIES = ("error", "catch_all")


class CategoryEncoder(_WindowEncoder):
    """Maps each label to its own disjoint block of w contiguous bits.

    Blocks follow the declared category order -- no hashing -- so a config is
    self-documenting and stable across runs.  Unknown labels raise by
    default; with ``unknown_policy="catch_all"`` an extra trailing block
    absorbs them (opting in, because silent remapping hides data problems).
    """

    def __init__(self, categories: Sequence[str], w: int, unknown_policy: str = "error"):
        if not isinstance(categories, (list, tuple)) or not all(
            isinstance(c, str) for c in categories
        ):
            raise ConfigError(f"categories must be a list of strings, got {_shown(categories)}")
        labels = list(categories)
        if not labels:
            raise ConfigError("at least one category is required")
        if len(set(labels)) != len(labels):
            raise ConfigError("category labels must be unique")
        _check_w(w)
        if unknown_policy not in UNKNOWN_POLICIES:
            raise ConfigError(
                f"unknown_policy must be one of {UNKNOWN_POLICIES}, got {_shown(unknown_policy)}"
            )
        self.categories = labels
        self.w = w
        self.unknown_policy = unknown_policy
        self._index = {label: i for i, label in enumerate(labels)}
        blocks = len(labels) + (1 if unknown_policy == "catch_all" else 0)
        self.n = blocks * w
        self.warnings: list[str] = []

    def params(self) -> dict:
        """The encoder's config keys."""
        return {"categories": list(self.categories), "w": self.w,
                "unknown_policy": self.unknown_policy}

    def block_index(self, label: str) -> int:
        try:
            idx = self._index.get(label)
        except TypeError:  # unhashable
            raise InputError(f"expected a category label, got {_shown(label)}") from None
        if idx is None:
            if self.unknown_policy == "catch_all":
                return len(self.categories)
            raise UnknownCategoryError(
                f"unknown category {_shown(label)}; known: {self.categories}"
            )
        return idx

    def _key(self, label: str) -> int:
        return self.block_index(label) * self.w

    def _keys(self, labels) -> np.ndarray:
        index = self._index
        if self.unknown_policy == "catch_all":
            other = len(self.categories)
            blocks = [index.get(label, other) for label in labels]
        else:
            blocks = [index[label] for label in labels]  # an unknown label is a KeyError
        return np.array(blocks, dtype=np.int64) * self.w


__all__ = ["CategoryEncoder", "UNKNOWN_POLICIES"]
