"""The Section 5 analytic model and its validation against built trees."""

import random

import pytest

from repro.constants import UNIX_FILE_SIZE_LIMIT
from repro.model import (
    FILL_FACTORS,
    PageModel,
    coincidence_fraction,
    file_pages,
    height_at_file_limit,
    height_table,
    keys_at_file_limit,
    max_keys_at_height,
    measure_tree,
    tree_height,
)
from repro.core.items import pack_leaf_item
from repro.core.keys import TID
from repro.storage.page import HEADER_SIZE, LINE_ENTRY_SIZE
from repro.workload import ascending, random_permutation


def test_shadow_fanout_strictly_lower():
    normal = PageModel("normal", key_size=4)
    shadow = PageModel("shadow", key_size=4)
    assert shadow.internal_capacity() < normal.internal_capacity()
    assert shadow.leaf_capacity() == normal.leaf_capacity()


def test_fanout_shrinks_with_key_size():
    caps = [PageModel("normal", key_size=k).internal_capacity()
            for k in (4, 8, 16, 64)]
    assert caps == sorted(caps, reverse=True)


def test_prevptr_overhead_ratio_drops_for_large_keys():
    """'When index keys are large, fewer keys fit on a page and less
    space is lost to prevPtr overhead.'"""
    def overhead(key_size):
        normal = PageModel("normal", key_size=key_size)
        shadow = PageModel("shadow", key_size=key_size)
        return 1 - shadow.internal_capacity() / normal.internal_capacity()
    assert overhead(4) > overhead(16) > overhead(64)


def test_height_monotone_in_keys():
    model = PageModel("normal", key_size=4)
    heights = [tree_height(n, model)
               for n in (1, 100, 10_000, 10**6, 10**8)]
    assert heights == sorted(heights)
    assert tree_height(0, model) == 0
    assert tree_height(1, model) == 1


def test_max_keys_at_height_inverse_of_height():
    model = PageModel("shadow", key_size=8)
    for h in (1, 2, 3, 4):
        boundary = max_keys_at_height(h, model)
        assert tree_height(boundary, model) == h
        assert tree_height(boundary + 1, model) == h + 1


def test_paper_claim_four_byte_keys_under_five_levels():
    """'a B-link-tree of either type storing four-byte keys would exceed
    the 2 GByte maximum size of a UNIX file before it reached five
    levels' — worst-case insertion order (fill 0.5)."""
    for kind in ("normal", "shadow", "reorg"):
        model = PageModel(kind, key_size=4, fill_factor=0.5)
        assert height_at_file_limit(model) < 5


def test_paper_claim_heights_coincide_mostly():
    """'the heights of larger normal and shadow B-link-trees will coincide
    for most index sizes'."""
    for key_size in (4, 8, 16, 64):
        assert coincidence_fraction(key_size) > 0.9


def test_file_pages_accounting():
    model = PageModel("normal", key_size=4)
    assert file_pages(0, model) == 1          # just the meta page
    n = 100_000
    pages = file_pages(n, model)
    assert pages * model.page_size < UNIX_FILE_SIZE_LIMIT
    assert pages > n / model.leaf_capacity()


def test_keys_at_file_limit_boundary():
    model = PageModel("normal", key_size=4)
    n = keys_at_file_limit(model)
    assert file_pages(n, model) * model.page_size <= UNIX_FILE_SIZE_LIMIT
    assert file_pages(n + n // 100, model) * model.page_size \
        > UNIX_FILE_SIZE_LIMIT


def test_height_table_shape():
    rows = height_table([4, 64], [10_000, 10**7])
    assert len(rows) == 4
    for row in rows:
        assert row["normal"] <= row["shadow"] <= row["normal"] + 1


# -- model vs measured -------------------------------------------------------

@pytest.mark.parametrize("kind", ["normal", "shadow", "reorg", "hybrid"])
def test_model_matches_built_tree_ascending(kind):
    measured = measure_tree(kind, ascending(3000), page_size=1024)
    assert measured.n_keys == 3000
    assert abs(measured.height - measured.model_height) <= 1
    # the model assumes half-full pages (Section 5's worst case); the
    # right-edge split leaves an ascending load's pages 4/5 full
    assert 0.4 < measured.leaf_fill < 1.01


@pytest.mark.parametrize("kind", ["normal", "shadow", "reorg", "hybrid"])
def test_ascending_load_fills_leaves_to_four_fifths(kind):
    """A split that appends to its level's rightmost page keeps four
    fifths of it on the left (DESIGN §5o), so an ascending load leaves
    its leaves about 80% full instead of half.  The fifth left free is
    what a later out-of-order key needs: a 10% random tail grows the
    leaf count by at most 15% (a 9/10 cut splits nearly every page it
    touches)."""
    n = 10_000
    loaded_keys = list(ascending(n, step=2))
    loaded = measure_tree(kind, loaded_keys, page_size=4096)
    assert loaded.leaf_fill >= 0.75
    # the same in pages, which a reorg leaf's unreclaimed backup keys
    # (counted as used bytes) cannot mask
    per_key = len(pack_leaf_item(bytes(4), TID(1, 0))) + LINE_ENTRY_SIZE
    assert loaded.leaf_pages <= n / (0.75 * ((4096 - HEADER_SIZE) // per_key))
    tail = random.Random(7).sample(range(1, 2 * n, 2), n // 10)
    grown = measure_tree(kind, loaded_keys + tail, page_size=4096)
    assert grown.leaf_pages <= 1.15 * loaded.leaf_pages


@pytest.mark.parametrize("kind", ["normal", "shadow"])
def test_model_matches_built_tree_random(kind):
    measured = measure_tree(kind, random_permutation(3000, seed=5),
                            page_size=1024)
    assert abs(measured.height - measured.model_height) <= 1
    # the classic ~ln 2 steady state
    assert 0.55 < measured.leaf_fill < 0.85


def test_fill_factor_constants():
    assert FILL_FACTORS["ascending"] == 0.5
    assert 0.65 < FILL_FACTORS["random"] < 0.72
    assert FILL_FACTORS["packed"] == 1.0


def test_measured_shadow_same_height_as_normal():
    # enough keys for three levels at an ascending load's 4/5 fill
    normal = measure_tree("normal", ascending(8000), page_size=1024)
    shadow = measure_tree("shadow", ascending(8000), page_size=1024)
    assert shadow.height == normal.height
    assert shadow.leaf_pages == pytest.approx(normal.leaf_pages, rel=0.1)
