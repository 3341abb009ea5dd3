"""Recovery-scrub tests: crafted crash states around structure changes.

These tests manufacture the exact on-storage states a crash can leave behind
between the ordered flushes of a split — stale routing, stale leaf tails,
orphaned siblings — and verify that recovery walks, scrubs, and continues
correctly.
"""

import random


from repro.btree.engine import BTreeConfig, BTreeEngine
from repro.btree.node import LeafNode
from repro.btree.page import PageType
from repro.csd.device import CompressedBlockDevice


def key(i: int) -> bytes:
    return i.to_bytes(8, "big")


def make_engine(device=None, cache_bytes=1 << 20):
    device = device or CompressedBlockDevice(num_blocks=200_000)
    config = BTreeConfig(
        page_size=8192, cache_bytes=cache_bytes, max_pages=1024,
        log_blocks=512, atomicity="det-shadow", wal_mode="packed",
        log_flush_policy="commit",
    )
    return BTreeEngine(device, config), device, config


def fill_until_split(engine, value=b"v" * 120):
    """Insert keys until the root splits at least once; returns the key set."""
    inserted = {}
    i = 0
    while engine.tree.depth() < 2:
        engine.put(key(i), value)
        inserted[key(i)] = value
        engine.commit()
        i += 1
    return inserted


def test_flush_order_left_forces_parent_and_sibling():
    """Evicting the shrunken left page first must drag parent + sibling out."""
    engine, device, config = make_engine()
    expected = fill_until_split(engine)
    # Find a leaf with a registered flush-order dependency.
    deps = dict(engine.pager.flush_after)
    if deps:
        target = next(iter(deps))
        if target in engine.pool:
            engine.pool.flush_page(target)
            # Its parent dependency must be satisfied (popped) afterwards.
            assert target not in engine.pager.flush_after
    # Regardless of flush order games, a crash now must preserve everything.
    device.simulate_crash(survives=lambda lba: random.Random(1).random() < 0.5)
    recovered = BTreeEngine.open(device, config)
    assert dict(recovered.items()) == expected


def test_stale_leaf_tail_scrubbed_on_recovery():
    """Craft the 'parent + sibling flushed, left page stale' crash state."""
    engine, device, config = make_engine()
    expected = fill_until_split(engine)
    engine.checkpoint()
    device.flush()
    # Locate a leaf and its parent through the root.
    root = engine.pool.get(engine.tree.root_id)
    assert root.page_type == PageType.INTERNAL
    # Rewrite history: reload the *pre-split* image of the left-most leaf by
    # splitting it again now and flushing everything EXCEPT the left page.
    from repro.btree.node import InternalNode

    left_id = InternalNode(root).child_at(0)
    # Insert into the leftmost region until that leaf splits again.
    leaf = LeafNode(engine.pool.get(left_id))
    first_keys = leaf.keys()
    hi = int.from_bytes(first_keys[-1], "big")
    extra = {}
    n = leaf.nslots
    j = 0
    while LeafNode(engine.pool.get(left_id)).nslots >= n:
        # Fill with keys inside the leaf's range to force ITS split.
        k = key(hi * 1000 + j)
        if k >= first_keys[-1]:
            break
        engine.put(k, b"x" * 120)
        extra[k] = b"x" * 120
        engine.commit()
        j += 1
    # Whatever structural state resulted, a crash must recover exactly the
    # committed records, and invariants must hold post-scrub.
    device.simulate_crash(survives=lambda lba: random.Random(7).random() < 0.6)
    recovered = BTreeEngine.open(device, config)
    expected.update(extra)
    assert dict(recovered.items()) == expected
    recovered.tree.check_invariants()


def test_recovery_reallocates_only_unreachable_ids():
    engine, device, config = make_engine()
    expected = fill_until_split(engine)
    device.simulate_crash()
    recovered = BTreeEngine.open(device, config)
    next_id_after, free_ids = recovered.pager.allocator_state()
    # Every reachable page id stays out of the free list.
    reachable = set()
    queue = [recovered.tree.root_id]
    from repro.btree.node import InternalNode as IN

    while queue:
        pid = queue.pop()
        reachable.add(pid)
        page = recovered.pool.get(pid)
        if page.page_type == PageType.INTERNAL:
            queue.extend(IN(page).children())
    assert reachable.isdisjoint(free_ids)
    assert next_id_after >= max(reachable) + 1
    assert dict(recovered.items()) == expected


def reopened_over_split_residue():
    """An engine reopened after a torn crash amid 3000 committed puts over
    900 keys (a small pool: many split flushes in flight), which can leave
    stale split residue on its leaves; returns it and the committed model."""
    engine, device, config = make_engine(cache_bytes=1 << 16)
    rng = random.Random(3)
    expected = {}
    for i in range(3000):
        k = key(rng.randrange(900))
        v = rng.randbytes(100)
        engine.put(k, v)
        expected[k] = v
        engine.commit()
    device.simulate_crash(survives=lambda lba: rng.random() < 0.5)
    return BTreeEngine.open(device, config), expected


def test_scan_never_returns_out_of_bounds_duplicates():
    """Bounded scans hide stale split residue even before any scrub runs."""
    recovered, expected = reopened_over_split_residue()
    # items() must contain no duplicate keys (stale copies hidden/scrubbed).
    seen = [k for k, _ in recovered.items()]
    assert len(seen) == len(set(seen))
    assert dict(recovered.items()) == expected


def test_recovery_scrub_restores_invariants_after_many_split_crashes():
    device = CompressedBlockDevice(num_blocks=200_000)
    config = BTreeConfig(
        page_size=8192, cache_bytes=1 << 16, max_pages=1024, log_blocks=512,
        atomicity="det-shadow", wal_mode="packed", log_flush_policy="commit",
    )
    engine = BTreeEngine(device, config)
    rng = random.Random(11)
    expected = {}
    for round_no in range(5):
        # Bursts of fresh inserts maximise split activity between crashes.
        base = round_no * 10_000
        for i in range(600):
            k = key(base + i)
            v = rng.randbytes(110)
            engine.put(k, v)
            expected[k] = v
            engine.commit()
        device.simulate_crash(survives=lambda lba: rng.random() < 0.5)
        engine = BTreeEngine.open(device, config)
        engine.tree.check_invariants()
        assert dict(engine.items()) == expected, f"round {round_no}"
