"""Negative tests: the invariant checker must actually catch corruption."""

import pytest

from repro.btree.buffer_pool import BufferPool
from repro.btree.node import InternalNode, LeafNode
from repro.btree.pager import make_pager
from repro.btree.tree import BTree
from repro.csd.device import CompressedBlockDevice
from repro.errors import TreeError


def key(i: int) -> bytes:
    return i.to_bytes(8, "big")


def make_tree(page_size=4096):
    device = CompressedBlockDevice(num_blocks=8192)
    pager = make_pager("det-shadow", device, page_size, 512, 1)
    pool = BufferPool(64 * page_size, page_size, pager.load, pager.flush)
    counter = iter(range(1, 10_000_000))
    return BTree(pool, pager, page_size, lambda: next(counter))


def grown_tree():
    tree = make_tree()
    for i in range(2000):
        tree.put(key(i), b"v" * 64)
    assert tree.depth() >= 2
    return tree


def test_clean_tree_passes():
    grown_tree().check_invariants()


def test_detects_unsorted_leaf():
    tree = grown_tree()
    root = tree.pool.get(tree.root_id)
    leaf_id = InternalNode(root).child_at(0)
    leaf = LeafNode(tree.pool.get(leaf_id))
    # Swap two slot pointers: keys now out of order.
    a = leaf.page.slot_offset(0)
    b = leaf.page.slot_offset(1)
    leaf.page.set_slot_offset(0, b)
    leaf.page.set_slot_offset(1, a)
    with pytest.raises(TreeError, match="unsorted"):
        tree.check_invariants()


def test_detects_key_outside_routing_bounds():
    tree = grown_tree()
    root = tree.pool.get(tree.root_id)
    node = InternalNode(root)
    assert node.nslots >= 2
    # Put a huge key into the leftmost leaf: violates its upper bound.
    leaf_id = node.child_at(0)
    leaf = LeafNode(tree.pool.get(leaf_id))
    leaf.put(key(10**9), b"intruder")
    with pytest.raises(TreeError, match="outside"):
        tree.check_invariants()


def test_detects_nonempty_first_separator():
    tree = grown_tree()
    root = tree.pool.get(tree.root_id)
    node = InternalNode(root)
    # Rewrite slot 0's key to be non-empty by re-inserting the first child
    # under a real key.
    child = node.child_at(0)
    node.remove_separator_at(0)
    node.insert_separator(b"\x00" * 7 + b"\x01", child)
    with pytest.raises(TreeError):
        tree.check_invariants()


@pytest.mark.parametrize("view", ["leaf keys", "routing keys", "child ids"])
def test_detects_stale_cached_view(view):
    tree = grown_tree()
    for _ in range(2):
        assert tree.get(key(5)) == b"v" * 64  # the second search decodes the leaf
    path, leaf, pinned = tree._descend(key(5))
    tree._unpin(pinned)
    root = path[0][0].page
    cached = {"leaf keys": leaf.page.routing_keys, "routing keys": root.routing_keys,
              "child ids": root.child_ids}[view]
    cached.pop()
    with pytest.raises(TreeError, match="stale"):
        tree.check_invariants()


def test_detects_depth_mismatch():
    tree = grown_tree()
    root = tree.pool.get(tree.root_id)
    node = InternalNode(root)
    # Route one separator directly at a *leaf of a deeper subtree's parent*,
    # creating leaves at different depths: simplest is to graft the root's
    # first leaf as a child of itself via a second internal level.
    from repro.btree.node import InternalNode as IN

    deep = IN.create(4096, tree.pager.allocate_page_id(), level=1)
    deep.add_first_child(node.child_at(0))
    tree.pool.add_new(deep.page)
    node.replace_child_at(0, deep.page.page_id)
    with pytest.raises(TreeError, match="depth"):
        tree.check_invariants()
