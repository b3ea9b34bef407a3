"""``BLinkTree.check`` must *reject*: a planted-corruption matrix.

Every case damages one page of a healthy three-level tree through the
buffer layer and asserts that the page-granular walker — both as
``check()`` (pairs) and as ``verify()`` (count, what recovery calls) —
raises exactly what the per-key reference loop in ``reference_check.py``
raises on the same bytes.  The middle-of-the-page swap is the case a
validator that looked only at a page's end keys would miss.
"""

# corruption injection writes page bytes in helpers that leave the
# dirty-marking to their caller (``corrupt``), on purpose
# lint: disable=R012

import pytest
from hypothesis import HealthCheck, given, settings
from hypothesis import strategies as st

from repro import TREE_CLASSES, StorageEngine
from repro.core.keys import FULL_BOUNDS
from repro.core.nodeview import NodeView
from repro.errors import TreeError
from repro.storage import page as P

from ..conftest import ALL_KINDS, tid_for
from .reference_check import reference_check

PAGE = 512
N_KEYS = 1500          # three levels at 512-byte pages, every kind


def build(kind: str, n_keys: int = N_KEYS, seed: int = 7):
    """Keys go in descending, so every split cuts its page in the middle
    (an ascending load fills its pages to four fifths, DESIGN §5o) and
    each internal level has pages enough to damage one in the middle."""
    engine = StorageEngine.create(page_size=PAGE, seed=seed)
    tree = TREE_CLASSES[kind].create(engine, "ix", codec="uint32")
    for n, i in enumerate(reversed(range(n_keys)), 1):
        tree.insert(3 * i, tid_for(i))
        if n % 64 == 0:
            engine.sync()
    engine.sync()
    return tree


def reachable(tree) -> dict[int, list]:
    """``level -> [(page_no, bounds), ...]`` in key order, from the root."""
    out: dict[int, list] = {}
    stack = [(tree._root_page(), FULL_BOUNDS)]
    while stack:
        page_no, bounds = stack.pop()
        with tree.file.pinned(page_no) as buf:
            view = NodeView(buf.data, PAGE)
            out.setdefault(view.level, []).append((page_no, bounds))
            if not view.is_leaf:
                for slot in reversed(range(view.n_keys)):
                    stack.append((view.child_at(slot),
                                  tree._child_bounds(view, slot, bounds)))
    return out


def corrupt(tree, page_no: int, mutate) -> None:
    buf = tree.file.pin(page_no)
    try:
        mutate(buf.data, NodeView(buf.data, PAGE))
        tree.file.mark_dirty(buf)
    finally:
        tree.file.unpin(buf)


def set_key(data, view, slot: int, key: bytes) -> None:
    off = view.item_off(slot)
    assert len(view.key_at(slot)) == len(key) == 4
    data[off + 2: off + 6] = key


def swap_lines(data, a: int, b: int) -> None:
    la, lb = P.get_line(data, a), P.get_line(data, b)
    P.set_line(data, a, lb)
    P.set_line(data, b, la)


def below(key: bytes) -> bytes:
    return (int.from_bytes(key, "big") - 1).to_bytes(4, "big")


def key_of(tree, page_no: int, slot: int) -> bytes:
    with tree.file.pinned(page_no) as buf:
        view = NodeView(buf.data, PAGE)
        return view.key_at(slot % view.n_keys)


# -- the matrix ------------------------------------------------------------
# case -> (level of the page it damages, mutate(tree, pages_at_level),
#          a fragment the reference's error must contain, so a case cannot
#          rot into testing something else).  Pages are taken from the
#          middle of their level: not on the leftmost spine (whose low
#          bound is minus infinity) nor the rightmost (no high bound).

def _mid(pages):
    return pages[len(pages) // 2]


def swap_in_the_middle(tree, pages):
    page_no, _ = _mid(pages)
    corrupt(tree, page_no, lambda data, view: swap_lines(
        data, view.n_keys // 2, view.n_keys // 2 + 1))


def low_end_below_lo(tree, pages):
    page_no, bounds = _mid(pages)
    corrupt(tree, page_no, lambda data, view: set_key(
        data, view, 0 if view.is_leaf else 1, below(bounds.lo)))


def high_end_at_hi(tree, pages):
    page_no, bounds = _mid(pages)
    corrupt(tree, page_no, lambda data, view: set_key(
        data, view, view.n_keys - 1, bounds.hi))


def entry_zero_below_bounds(tree, pages):
    page_no, bounds = _mid(pages)
    corrupt(tree, page_no, lambda data, view: set_key(
        data, view, 0, below(bounds.lo)))


def wrong_level(tree, pages):
    page_no, _ = _mid(pages)
    corrupt(tree, page_no, lambda data, view: P.set_u16(
        data, P.OFF_LEVEL, view.level + 1))


def duplicate_across_leaves(tree, pages):
    i = len(pages) // 2
    last_of_left = key_of(tree, pages[i - 1][0], -1)
    corrupt(tree, pages[i][0], lambda data, view: set_key(
        data, view, 0, last_of_left))


def leaves_out_of_order(tree, pages):
    i = len(pages) // 2
    first_of_left = key_of(tree, pages[i - 1][0], 0)
    corrupt(tree, pages[i][0], lambda data, view: set_key(
        data, view, 0, first_of_left))


def undecodable(tree, pages):
    page_no, _ = _mid(pages)
    corrupt(tree, page_no, lambda data, view: P.set_line(
        data, view.n_keys // 2, PAGE - 1))


LEAF, INTERNAL = 0, 1
CASES = {
    "leaf-swap-in-the-middle": (LEAF, swap_in_the_middle, "out of order"),
    "internal-swap-in-the-middle":
        (INTERNAL, swap_in_the_middle, "out of order"),
    "leaf-low-end-below-lo": (LEAF, low_end_below_lo, "outside ["),
    "leaf-high-end-at-hi": (LEAF, high_end_at_hi, "outside ["),
    # slot 1 below lo is also at or below slot 0, and order is tested first
    "internal-low-end-below-lo": (INTERNAL, low_end_below_lo, "out of order"),
    "internal-high-end-at-hi": (INTERNAL, high_end_at_hi, "outside ["),
    "internal-entry-0-below-bounds":
        (INTERNAL, entry_zero_below_bounds, "entry-0 separator below"),
    "leaf-wrong-level": (LEAF, wrong_level, "level 1, expected 0"),
    "internal-wrong-level": (INTERNAL, wrong_level, "level 2, expected 1"),
    # containment sees both of these first: the promised ranges of two
    # leaves never overlap (the global tests get their own test below)
    "duplicate-across-leaves": (LEAF, duplicate_across_leaves, "outside ["),
    "leaves-out-of-order": (LEAF, leaves_out_of_order, "outside ["),
    "leaf-undecodable": (LEAF, undecodable, None),
    "internal-undecodable": (INTERNAL, undecodable, None),
}


def outcome(fn):
    try:
        return "returned", fn()
    # whatever the item decode of a garbage page raises is part of the
    # contract being compared
    except Exception as exc:  # lint: disable=R005
        return type(exc), str(exc)


def assert_walker_matches_reference(tree, *, reads_tids: bool = True,
                                    **relax):
    """``check`` is the reference, outcome for outcome; so is ``verify``
    with a count for the pairs — except, when *reads_tids* is false, on
    damage the reference only trips over while *collecting* a leaf's
    TIDs (not a :class:`TreeError`), which ``verify`` never reads."""
    expected = outcome(lambda: reference_check(tree, **relax))
    assert outcome(lambda: tree.check(**relax)) == expected
    counted = outcome(lambda: tree.verify(**relax))
    if expected[0] == "returned":
        assert counted == ("returned", len(expected[1]))
    elif reads_tids or expected[0] is TreeError:
        assert counted == expected
    elif counted[0] != "returned":
        assert counted[0] in (expected[0], TreeError)
    return expected


@pytest.mark.parametrize("case", CASES)
def test_planted_corruption_is_rejected_like_the_reference(tree_kind, case):
    tree = build(tree_kind)
    assert tree.height == 3
    assert_walker_matches_reference(tree)
    level, plant, fragment = CASES[case]
    pages = reachable(tree)[level]
    assert len(pages) >= 3
    plant(tree, pages)
    kind_of_error, text = assert_walker_matches_reference(tree)
    if fragment is None:
        assert kind_of_error not in ("returned", TreeError)
    else:
        assert kind_of_error is TreeError and fragment in text
    # recovery calls the validator with the post-crash relaxations
    assert assert_walker_matches_reference(
        tree, strict_tokens=False,
        require_peer_chain=False) == (kind_of_error, text)


@pytest.mark.parametrize("plant, text", [
    (duplicate_across_leaves, "duplicate keys present"),
    (leaves_out_of_order, "keys not globally sorted"),
])
def test_global_order_is_still_tested_across_leaves(monkeypatch, plant, text):
    """Containment makes the two whole-index tests unreachable on their
    own, so take it away: with every child promised the full range, the
    carried end keys are all that stands between two leaves."""
    tree = build("shadow")
    monkeypatch.setattr(type(tree), "_child_bounds",
                        lambda self, node, slot, bounds: bounds)
    assert_walker_matches_reference(tree)
    plant(tree, reachable(tree)[LEAF])
    assert assert_walker_matches_reference(tree) == (TreeError, text)


# -- differential: random damage ---------------------------------------------

@settings(max_examples=150, deadline=None,
          suppress_health_check=[HealthCheck.function_scoped_fixture])
@given(kind=st.sampled_from(ALL_KINDS), data=st.data())
def test_random_damage_is_judged_like_the_reference(kind, data):
    """Random byte damage to one page of a small tree: ``check`` raises
    iff the reference raises, with the same text, and returns the same
    pairs when neither does; ``verify`` gives every :class:`TreeError`
    verdict the reference gives and its key count otherwise."""
    tree = build(kind, n_keys=300)
    page_no = data.draw(st.integers(1, tree.file.n_pages - 1))
    damage = data.draw(st.lists(
        st.tuples(st.integers(0, PAGE - 1), st.integers(0, 255)),
        min_size=1, max_size=6))

    def scribble(buf, _view):
        for offset, byte in damage:
            buf[offset] = byte
    corrupt(tree, page_no, scribble)
    assert_walker_matches_reference(tree, reads_tids=False)
