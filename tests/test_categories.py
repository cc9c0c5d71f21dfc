"""Category encoder: disjoint dedicated blocks."""

import pytest

from sdrkit.categories import CategoryEncoder
from sdrkit.errors import ConfigError, UnknownCategoryError
from sdrkit.sdr import overlap, sparsity


def test_binary_category_blocks():
    enc = CategoryEncoder(["weekday", "weekend"], w=50)
    assert enc.n == 100
    assert enc.encode("weekend").active == tuple(range(50, 100))
    assert enc.encode("weekday").active == tuple(range(0, 50))


def test_distinct_labels_never_overlap():
    enc = CategoryEncoder(["weekday", "weekend"], w=50)
    assert overlap(enc.encode("weekday"), enc.encode("weekend")) == 0


def test_part_of_speech_example():
    enc = CategoryEncoder(["noun", "verb", "adjective"], w=25)
    assert enc.encode("verb").active == tuple(range(25, 50))


def test_all_pairs_disjoint_and_constant_sparsity():
    labels = [f"sku-{i}" for i in range(8)]
    enc = CategoryEncoder(labels, w=21)
    codes = {lab: enc.encode(lab) for lab in labels}
    for a in labels:
        assert codes[a].active_count == 21
        assert sparsity(codes[a]) == 21 / enc.n
        for b in labels:
            if a != b:
                assert overlap(codes[a], codes[b]) == 0


def test_unknown_label_raises_by_default():
    enc = CategoryEncoder(["a", "b"], w=4)
    with pytest.raises(UnknownCategoryError):
        enc.encode("c")


def test_catch_all_block():
    enc = CategoryEncoder(["a", "b"], w=4, unknown_policy="catch_all")
    assert enc.n == 12  # one extra block for strays
    stray = enc.encode("zzz")
    assert stray.active == tuple(range(8, 12))
    assert stray == enc.encode("anything-else")
    assert overlap(stray, enc.encode("a")) == 0


def test_encoding_is_pure():
    enc = CategoryEncoder(["x", "y", "z"], w=10)
    assert enc.encode("y") == enc.encode("y")


@pytest.mark.parametrize("categories", ["abc", [1, 2], 0, ["a", None]], ids=repr)
def test_categories_must_be_a_list_of_strings(categories):
    # "abc" used to become three labels, and 0 a TypeError.
    with pytest.raises(ConfigError, match="categories must be a list of strings"):
        CategoryEncoder(categories, w=21)


def test_config_errors():
    with pytest.raises(ConfigError):
        CategoryEncoder([], w=5)
    with pytest.raises(ConfigError):
        CategoryEncoder(["a", "a"], w=5)
    with pytest.raises(ConfigError):
        CategoryEncoder(["a"], w=0)
    with pytest.raises(ConfigError):
        CategoryEncoder(["a"], w=5, unknown_policy="silently-drop")
