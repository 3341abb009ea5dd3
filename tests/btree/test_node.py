"""Unit and property tests for in-page leaf/internal node algorithms.

Set ``REPRO_FUZZ_SEED=<n>`` to pin the property tests' example generation
(see ``tests/fuzz.py``).
"""

import pytest
from hypothesis import given
from hypothesis import strategies as st

from repro.btree.node import (
    InternalNode,
    LeafNode,
    internal_cell_size,
    leaf_cell_size,
    node_for_page,
)
from repro.btree.page import Page, PageType
from repro.errors import KeyNotFoundError, PageFormatError, PageFullError
from tests.fuzz import fuzz_settings, seed_strategy


def key(i: int) -> bytes:
    return i.to_bytes(8, "big")


@pytest.fixture
def leaf() -> LeafNode:
    return LeafNode.create(4096, page_id=1)


@pytest.fixture
def internal() -> InternalNode:
    return InternalNode.create(4096, page_id=2, level=1)


# ------------------------------------------------------------------- leaves


def test_leaf_put_get(leaf):
    assert leaf.put(key(1), b"one") is True
    assert leaf.get(key(1)) == b"one"
    assert leaf.get(key(2)) is None


def test_leaf_keys_stay_sorted(leaf):
    for i in [5, 1, 3, 2, 4]:
        leaf.put(key(i), b"v")
    assert leaf.keys() == [key(i) for i in [1, 2, 3, 4, 5]]


def test_leaf_update_same_size_in_place(leaf):
    leaf.put(key(1), b"aaaa")
    leaf.page.clear_dirty()
    assert leaf.put(key(1), b"bbbb") is False
    assert leaf.get(key(1)) == b"bbbb"
    # An in-place same-size update must not grow the cell area.
    assert leaf.page.dead_bytes == 0


def test_leaf_update_different_size(leaf):
    leaf.put(key(1), b"short")
    leaf.put(key(1), b"a much longer value than before")
    assert leaf.get(key(1)) == b"a much longer value than before"
    assert leaf.page.dead_bytes > 0  # old cell is dead until compaction


def test_leaf_delete(leaf):
    leaf.put(key(1), b"one")
    leaf.put(key(2), b"two")
    leaf.delete(key(1))
    assert leaf.get(key(1)) is None
    assert leaf.get(key(2)) == b"two"


def test_leaf_delete_missing_raises(leaf):
    with pytest.raises(KeyNotFoundError):
        leaf.delete(key(99))


def test_leaf_records_iteration(leaf):
    for i in range(10):
        leaf.put(key(i), bytes([i]))
    assert list(leaf.records()) == [(key(i), bytes([i])) for i in range(10)]


def test_leaf_records_from(leaf):
    for i in range(0, 10, 2):
        leaf.put(key(i), b"v")
    assert [k for k, _ in leaf.records_from(key(3), 10)] == [key(4), key(6), key(8)]
    assert leaf.records_from(key(4), 2) == [(key(4), b"v"), (key(6), b"v")]
    assert leaf.records_from(key(9), 10) == []
    assert leaf.records_from(key(0), 0) == []


def test_leaf_fills_then_rejects(leaf):
    value = b"x" * 64
    count = 0
    with pytest.raises(PageFullError):
        for i in range(10_000):
            leaf.put(key(i), value)
            count += 1
    assert count > 40  # sanity: a 4KB page holds dozens of 76-byte cells


def test_leaf_compaction_reclaims_dead_space(leaf):
    value = b"x" * 64
    inserted = 0
    try:
        for i in range(10_000):
            leaf.put(key(i), value)
            inserted += 1
    except PageFullError:
        pass
    for i in range(0, inserted, 2):
        leaf.delete(key(i))
    # Deleted space is reclaimable via compaction, so new puts succeed.
    for i in range(10_000, 10_000 + inserted // 4):
        leaf.put(key(i), value)
    assert leaf.get(key(10_000)) == value


def test_leaf_split_preserves_records(leaf):
    for i in range(40):
        leaf.put(key(i), b"v" * 16)
    right = LeafNode.create(4096, page_id=9)
    separator = leaf.split_into(right)
    left_keys = leaf.keys()
    right_keys = right.keys()
    assert left_keys + right_keys == [key(i) for i in range(40)]
    assert right_keys[0] == separator
    assert all(k < separator for k in left_keys)
    assert 10 < len(left_keys) < 30  # roughly balanced by bytes


def test_leaf_split_requires_two_records(leaf):
    leaf.put(key(1), b"v")
    with pytest.raises(PageFormatError):
        leaf.split_into(LeafNode.create(4096, page_id=9))


def test_leaf_used_bytes(leaf):
    leaf.put(key(1), b"abc")
    assert leaf.used_bytes() == leaf_cell_size(key(1), b"abc") + 2


def test_leaf_oversized_key_rejected(leaf):
    with pytest.raises(PageFormatError):
        leaf.put(b"k" * 70_000, b"v")


# ---------------------------------------------------------------- internals


def test_internal_first_child_and_routing(internal):
    internal.add_first_child(10)
    internal.insert_separator(key(100), 20)
    internal.insert_separator(key(200), 30)
    assert internal.child_for(key(0)) == 10
    assert internal.child_for(key(100)) == 20
    assert internal.child_for(key(150)) == 20
    assert internal.child_for(key(200)) == 30
    assert internal.child_for(key(999)) == 30


def test_internal_first_child_must_come_first(internal):
    internal.add_first_child(10)
    with pytest.raises(PageFormatError):
        internal.add_first_child(11)


def test_internal_empty_separator_rejected(internal):
    internal.add_first_child(10)
    with pytest.raises(PageFormatError):
        internal.insert_separator(b"", 20)


def test_internal_duplicate_separator_rejected(internal):
    internal.add_first_child(10)
    internal.insert_separator(key(5), 20)
    with pytest.raises(PageFormatError):
        internal.insert_separator(key(5), 21)


def test_internal_routing_on_empty_raises(internal):
    with pytest.raises(PageFormatError):
        internal.child_for(key(1))


def test_internal_children_listing(internal):
    internal.add_first_child(10)
    internal.insert_separator(key(1), 11)
    internal.insert_separator(key(2), 12)
    assert internal.children() == [10, 11, 12]


def test_internal_remove_separator(internal):
    internal.add_first_child(10)
    internal.insert_separator(key(1), 11)
    internal.remove_separator_at(1)
    assert internal.children() == [10]
    assert internal.child_for(key(5)) == 10


def test_internal_replace_child(internal):
    internal.add_first_child(10)
    internal.replace_child_at(0, 99)
    assert internal.child_for(key(1)) == 99


def test_internal_split(internal):
    internal.add_first_child(1)
    for i in range(1, 20):
        internal.insert_separator(key(i * 10), i + 1)
    right = InternalNode.create(4096, page_id=5, level=1)
    promoted = internal.split_into(right)
    # Promoted key routes to the right node; its leftmost child has key b"".
    assert right.key_at(0) == b""
    assert internal.nslots + right.nslots == 20
    assert all(k < promoted for k in internal.keys()[1:])
    assert all(k > promoted for k in right.keys()[1:])
    # Routing must be preserved: key(i*10) still reaches child i+1.
    for i in range(1, 20):
        probe = key(i * 10)
        node = right if probe >= promoted else internal
        assert node.child_for(probe) == i + 1


def test_internal_split_needs_three_cells(internal):
    internal.add_first_child(1)
    internal.insert_separator(key(1), 2)
    with pytest.raises(PageFormatError):
        internal.split_into(InternalNode.create(4096, page_id=5, level=1))


def test_internal_level_validation():
    with pytest.raises(PageFormatError):
        InternalNode.create(4096, page_id=1, level=0)


def test_internal_cell_size():
    assert internal_cell_size(key(1)) == 2 + 8 + 8


# -------------------------------------------------------------- dispatcher


def test_node_for_page_dispatch():
    assert isinstance(node_for_page(Page(4096, page_type=PageType.LEAF)), LeafNode)
    assert isinstance(
        node_for_page(Page(4096, page_type=PageType.INTERNAL, level=1)), InternalNode
    )
    with pytest.raises(PageFormatError):
        node_for_page(Page(4096, page_type=PageType.META))


# ----------------------------------------------------------------- property


@fuzz_settings(max_examples=30, deadline=None)
@given(st.data())
def test_property_leaf_matches_dict(data):
    """Random put/update/delete sequences agree with a dict reference."""
    leaf = LeafNode.create(8192, page_id=1)
    reference: dict[bytes, bytes] = {}
    keys = [key(i) for i in range(64)]
    for _ in range(data.draw(st.integers(1, 120))):
        action = data.draw(st.sampled_from(["put", "delete", "get"]))
        k = data.draw(st.sampled_from(keys))
        if action == "put":
            v = data.draw(st.binary(min_size=0, max_size=40))
            try:
                leaf.put(k, v)
                reference[k] = v
            except PageFullError:
                return  # page genuinely full; reference model diverges no further
        elif action == "delete":
            if k in reference:
                leaf.delete(k)
                del reference[k]
            else:
                with pytest.raises(KeyNotFoundError):
                    leaf.delete(k)
        else:
            assert leaf.get(k) == reference.get(k)
    assert dict(leaf.records()) == reference
    assert leaf.keys() == sorted(reference)


@fuzz_settings(max_examples=20, deadline=None)
@given(seed=seed_strategy(0, 10_000), n=st.integers(10, 60))
def test_property_split_is_partition(seed, n):
    import random

    rng = random.Random(seed)
    leaf = LeafNode.create(8192, page_id=1)
    inserted = {}
    for i in rng.sample(range(10_000), n):
        leaf.put(key(i), bytes([i % 256]) * rng.randint(1, 30))
        inserted[key(i)] = leaf.get(key(i))
    right = LeafNode.create(8192, page_id=2)
    separator = leaf.split_into(right)
    merged = dict(leaf.records())
    merged.update(dict(right.records()))
    assert merged == inserted
    assert max(leaf.keys()) < separator <= min(right.keys())


# ------------------------------------------- fast paths vs the slot accessors


def _accessor_records(leaf: LeafNode, first: int) -> list:
    return [(leaf.key_at(i), leaf.value_at(i)) for i in range(first, leaf.nslots)]


def _assert_leaf_fast_paths_match_accessors(leaf: LeafNode, probes: list) -> None:
    assert list(leaf.records()) == _accessor_records(leaf, 0)
    assert leaf.keys() == [leaf.key_at(i) for i in range(leaf.nslots)]
    for probe in probes:
        index, found = leaf._bisect(probe)
        expected = _accessor_records(leaf, index)
        assert leaf.records_from(probe, leaf.nslots) == expected
        assert leaf.records_from(probe, 3) == expected[:3]
        assert leaf.get(probe) == (leaf.value_at(index) if found else None)
    assert leaf.page.routing_keys in (None, leaf.keys())


@fuzz_settings(max_examples=40, deadline=None)
@given(st.data())
def test_property_leaf_fast_paths_match_slot_accessors(data):
    """``records`` / ``records_from`` / ``get`` / ``keys`` read the slot
    directory and cell headers in one pass, and ``get`` / ``put`` /
    ``records_from`` search the decoded key list once a leaf has one; ``key_at`` / ``value_at`` stay
    the reference, over histories that move cells every way a leaf can.
    Each edit meets the key list cold, searched once, or decoded."""
    leaf = LeafNode.create(4096, page_id=1)
    keys = [key(i) for i in range(0, 96, 2)]
    probes = [b"", key(1), key(95), key(200)]
    live: set = set()
    for _ in range(data.draw(st.integers(1, 80))):
        action = data.draw(st.sampled_from(
            ["insert", "update", "resize", "delete", "compact", "split"]))
        k = data.draw(st.sampled_from(keys))
        if data.draw(st.booleans()):
            leaf.page.drop_views()  # as a fresh load leaves the page
        index, found = leaf._bisect(k)
        expected = leaf.value_at(index) if found else None
        for _ in range(data.draw(st.integers(0, 2))):
            assert leaf.get(k) == expected
        try:
            if action == "insert":
                leaf.put(k, data.draw(st.binary(min_size=0, max_size=48)))
                live.add(k)
            elif action == "update" and k in live:
                leaf.put(k, bytes(len(leaf.get(k))))  # same size: in place
            elif action == "resize" and k in live:
                leaf.put(k, leaf.get(k) + b"+grown")
            elif action == "delete" and k in live:
                leaf.delete(k)
                live.discard(k)
            elif action == "compact":
                leaf._compact()
            elif action == "split" and leaf.nslots >= 2:
                right = LeafNode.create(4096, page_id=2)
                leaf.split_into(right)
                _assert_leaf_fast_paths_match_accessors(right, probes + [k])
                live = set(leaf.keys())
        except PageFullError:
            pass  # a resize deletes before it re-inserts: k may be gone now
        live = set(leaf.keys())
        _assert_leaf_fast_paths_match_accessors(leaf, probes + [k])
    assert leaf.records_from(key(200), leaf.nslots) == []


def _probes(keys: list) -> list:
    """Keys below, between, equal to and above every non-empty key in ``keys``."""
    probes = {b"", b"\x00", b"\xff" * 9}
    for k in keys:
        if k:
            number = int.from_bytes(k, "big")
            probes.update({k, key(number - 1), key(number + 1), k + b"\x00"})
    return sorted(probes)


def _assert_routing_matches_bisect(node: InternalNode) -> None:
    """``route`` (cached separator and child-id lists) against the uncached
    ``_bisect`` and ``child_at``."""
    separators = [node.key_at(i) for i in range(node.nslots)]
    for probe in _probes(separators):
        index, found = node._bisect(probe)
        expected = index if found else index - 1
        assert node.route(probe) == (expected, node.child_at(expected)), probe
    assert node.page.routing_keys == separators
    assert node.page.child_ids == [node.child_at(i) for i in range(node.nslots)]


def _assert_leaf_search_matches_bisect(leaf: LeafNode) -> None:
    """``_search`` (the decoded key list from the second search on) against
    the uncached ``_bisect``."""
    for probe in _probes(leaf.keys()):
        assert leaf._search(probe) == leaf._bisect(probe), probe
    assert leaf.page.routing_keys == [leaf.key_at(i) for i in range(leaf.nslots)]


def test_routing_cache_tracks_every_slot_directory_change():
    """A stale routing cache sends descents to the wrong child (seen as a
    scan that never ends, not as an error), and a stale leaf key list
    answers gets and places puts wrongly, so every edit is checked here."""
    node = InternalNode.create(4096, page_id=1, level=1)
    node.add_first_child(100)
    for i in range(10, 200, 10):
        node.insert_separator(key(i), 100 + i)
    assert node.page.routing_keys is None and node.page.child_ids is None
    _assert_routing_matches_bisect(node)  # warms the cache

    node.insert_separator(key(55), 999)
    assert node.page.routing_keys is None and node.page.child_ids is None
    _assert_routing_matches_bisect(node)
    assert node.child_for(key(57)) == 999

    node.remove_child(0)  # promotes the next entry to the empty minimum key
    _assert_routing_matches_bisect(node)
    assert node.child_for(key(1)) == 110

    node.remove_child(7)
    _assert_routing_matches_bisect(node)

    node.replace_child_at(3, 4242)  # changes a child id, not a key
    assert node.page.routing_keys is not None
    assert node.page.child_ids is None
    assert node.child_for(node.key_at(3)) == 4242
    _assert_routing_matches_bisect(node)

    node._compact()  # moves cells, not slots
    assert node.page.routing_keys is not None and node.page.child_ids is not None
    _assert_routing_matches_bisect(node)

    while node.nslots < 60:
        node.insert_separator(key(1000 + node.nslots), node.nslots)
    _assert_routing_matches_bisect(node)
    assert node.route(key(5000))[0] == node.nslots - 1  # warm before the split
    right = InternalNode.create(4096, page_id=2, level=1)
    promoted = node.split_into(right)
    assert node.page.routing_keys is None and node.page.child_ids is None
    _assert_routing_matches_bisect(node)
    _assert_routing_matches_bisect(right)
    assert node.route(promoted)[0] == node.nslots - 1
    assert right.route(promoted)[0] == 0

    leaf = LeafNode.create(4096, page_id=3)
    for i in range(10, 400, 10):
        leaf.put(key(i), b"v" * 8)
    _assert_leaf_search_matches_bisect(leaf)  # warms the key list

    leaf.put(key(55), b"new")
    assert leaf.page.routing_keys is None
    _assert_leaf_search_matches_bisect(leaf)

    leaf.put(key(55), b"NEW")  # same size: rewritten in place, keys unchanged
    assert leaf.page.routing_keys is not None

    leaf.put(key(55), b"resized")  # a new cell: slot removed and re-inserted
    assert leaf.page.routing_keys is None
    _assert_leaf_search_matches_bisect(leaf)

    leaf.delete(key(10))
    assert leaf.page.routing_keys is None
    _assert_leaf_search_matches_bisect(leaf)

    leaf._compact()  # moves cells, not slots
    assert leaf.page.routing_keys is not None
    _assert_leaf_search_matches_bisect(leaf)

    right_leaf = LeafNode.create(4096, page_id=4)
    leaf.split_into(right_leaf)
    assert leaf.page.routing_keys is None
    _assert_leaf_search_matches_bisect(leaf)
    _assert_leaf_search_matches_bisect(right_leaf)


def test_routing_cache_empty_node_still_raises():
    node = InternalNode.create(4096, page_id=1, level=1)
    with pytest.raises(PageFormatError):
        node.route(key(1))
    node.add_first_child(7)
    assert node.route(key(1)) == (0, 7)


def test_leaf_decodes_its_keys_on_its_second_search():
    """A cold leaf that is loaded, searched once and evicted pays for no
    decode; the second search decodes; a new key drops the list."""
    leaf = LeafNode.create(4096, page_id=1)
    for i in range(10, 400, 10):
        leaf.put(key(i), b"v" * 8)
    leaf.page.finalize(lsn=1)
    loaded = LeafNode(Page.from_bytes(leaf.page.image()))
    page = loaded.page
    assert page.routing_keys is None and not page.searched

    assert loaded.get(key(20)) == b"v" * 8
    assert page.routing_keys is None  # one search: the byte bisect only
    assert loaded.get(key(25)) is None
    assert page.routing_keys == loaded.keys()  # the second search decodes

    assert loaded.put(key(25), b"new") is True
    assert page.routing_keys is None and not page.searched
    assert loaded.get(key(25)) == b"new"
    assert page.routing_keys is None
    assert loaded.get(key(25)) == b"new"
    assert page.routing_keys == loaded.keys()

    page.verify_image(verify=False)  # what a delta overlay ends in
    assert page.routing_keys is None and not page.searched


def test_put_that_compacts_inserts_where_its_search_pointed():
    """Making room may compact the page, which rewrites cells in slot order,
    so a put inserts at the index its one search found."""
    leaf = LeafNode.create(4096, page_id=1)
    value = b"x" * 64
    stored = []
    with pytest.raises(PageFullError):
        for i in range(10, 10_000, 10):
            leaf.put(key(i), value)
            stored.append(key(i))
    for k in stored[::2]:
        leaf.delete(k)
    live = stored[1::2]
    compacted = False
    for new in [key(int.from_bytes(k, "big") + 1) for k in live]:
        compacted = leaf.page.free_space < leaf_cell_size(new, value) + 2
        assert leaf.get(new) is None and leaf.get(new) is None  # a decoded list
        leaf.put(new, value)
        live.append(new)
        assert leaf.page.routing_keys is None
        assert leaf.keys() == sorted(live)
        if compacted:
            break
    assert compacted and leaf.page.dead_bytes == 0
    assert all(leaf.get(k) == value for k in live)
