"""The crash-safe shard split: manifest journal + migration protocol.

The exhaustive every-boundary crash schedule lives in the faultcheck
campaign (``ShardSplitSUT``); here the protocol's pieces are
pinned directly — journal framing and torn-tail recovery, rollback vs
roll-forward resolution, id burning, and content invariance of a split.
"""

import pytest

from repro.csd.device import BLOCK_SIZE, CompressedBlockDevice
from repro.errors import ShardManifestError, ShardMigrationError
from repro.shard.manifest import (
    RoutingManifest,
    STATE_ACTIVE,
    STATE_MIGRATING,
    pack_record,
    unpack_record,
)
from repro.shard.router import ShardConfig, ShardRouter


def _record(epoch, state=STATE_ACTIVE, **extra):
    base = {
        "epoch": epoch, "state": state, "partitioning": "hash",
        "table": [["", 0]], "stacks": 1, "migration": None,
    }
    base.update(extra)
    return base


# ----------------------------------------------------------------- manifest


def test_manifest_round_trips_records_in_order():
    manifest = RoutingManifest(CompressedBlockDevice(num_blocks=64))
    for epoch in range(5):
        manifest.append(_record(epoch))
    assert [r["epoch"] for r in manifest.scan()] == [0, 1, 2, 3, 4]
    last, history = manifest.latest()
    assert last["epoch"] == 4 and len(history) == 5


def test_manifest_record_framing_detects_corruption():
    record = _record(7)
    framed = pack_record(record)
    assert len(framed) % BLOCK_SIZE == 0
    assert unpack_record(framed) == record
    # Flip one payload byte: CRC must reject the frame.
    corrupt = bytearray(framed)
    corrupt[20] ^= 0xFF
    assert unpack_record(bytes(corrupt)) is None
    assert unpack_record(b"\x00" * BLOCK_SIZE) is None


def test_manifest_torn_tail_is_end_of_journal_not_an_error():
    device = CompressedBlockDevice(num_blocks=64)
    manifest = RoutingManifest(device)
    manifest.append(_record(0))
    manifest.append(_record(1))
    # A torn append: garbage where record 2 would start.
    device.write_blocks(manifest._cursor, b"\x13" * BLOCK_SIZE)
    device.flush()
    fresh = RoutingManifest(device)
    last, history = fresh.latest()
    assert last["epoch"] == 1 and len(history) == 2
    # The next append overwrites the torn tail.
    fresh.append(_record(2))
    assert [r["epoch"] for r in RoutingManifest(device).scan()] == [0, 1, 2]


def test_manifest_empty_device_raises():
    manifest = RoutingManifest(CompressedBlockDevice(num_blocks=8))
    with pytest.raises(ShardManifestError):
        manifest.latest()


def test_manifest_exhaustion_raises_instead_of_overwriting():
    manifest = RoutingManifest(CompressedBlockDevice(num_blocks=2))
    manifest.append(_record(0))
    manifest.append(_record(1))
    with pytest.raises(ShardManifestError):
        manifest.append(_record(2))
    assert [r["epoch"] for r in manifest.scan()] == [0, 1]


# -------------------------------------------------------------- split logic


def _populated_router(partitioning="hash", engine="bminus", n=2, ops=120):
    from repro.shard.sim import make_shard_workload

    config = ShardConfig(n_shards=n, partitioning=partitioning, engine=engine)
    router = ShardRouter.create(config)
    model = {}
    for kind, key, value in make_shard_workload(17, ops):
        if kind == "put":
            router.put(key, value)
            model[key] = value
        else:
            router.delete(key)
            model.pop(key, None)
    router.commit()
    return config, router, model


@pytest.mark.parametrize("engine", ("bminus", "lsm"))
def test_split_moves_the_range_and_changes_no_content(engine):
    config, router, model = _populated_router(engine=engine)
    victim = max(
        router.stacks, key=lambda s: sum(1 for _ in router.stacks[s].items())
    )
    before = sum(1 for _ in router.stacks[victim].items())
    new_id = router.split_shard(victim)
    assert router.n_shards == 3
    assert dict(router.items()) == model, "split changed KV content"
    # The new shard actually took keys, and the source shrank to match.
    moved = sum(1 for _ in router.stacks[new_id].items())
    assert moved > 0
    assert sum(1 for _ in router.stacks[victim].items()) == before - moved
    # Every key is served by the shard the table routes it to.
    for key, value in model.items():
        assert router.stacks[router.route(key)].get(key) == value
    # Journal history: create, migrating, commit, seal.
    states = [r["state"] for r in router.manifest.scan()]
    assert states == [STATE_ACTIVE, STATE_MIGRATING, STATE_ACTIVE, STATE_ACTIVE]
    router.close()


def test_split_rejects_bad_invocations():
    config, router, model = _populated_router()
    with pytest.raises(ShardMigrationError):
        router.split_shard(99)  # unknown shard
    low, _high = router.table.interval(0)
    with pytest.raises(ShardMigrationError):
        router.split_shard(0, token=low)  # token not inside the open interval
    router.close()


def test_split_of_empty_shard_needs_explicit_token():
    config = ShardConfig(n_shards=1)
    router = ShardRouter.create(config)
    with pytest.raises(ShardMigrationError):
        router.split_shard(0)
    new_id = router.split_shard(0, token=b"\x80")
    assert router.n_shards == 2 and new_id == 1
    router.close()


def test_interrupted_migration_rolls_back_and_burns_the_id():
    """A MIGRATING tail (crash before the commit point) must recover to the
    pre-split table, ignore the orphan destination, and never reuse its id."""
    config, router, model = _populated_router()
    pre_table = router.table
    victim = max(
        router.stacks, key=lambda s: sum(1 for _ in router.stacks[s].items())
    )
    # Simulate the crash window by appending the intent record only.
    router.stacks_created += 1
    router.manifest.append(
        router._record(
            STATE_MIGRATING,
            {"src": victim, "dst": 2, "token": "80", "high": None},
        )
    )
    recovered = ShardRouter.open(config, router.devices, router.meta_device)
    assert recovered.rolled_back_migrations == 1
    assert recovered.table == pre_table
    assert recovered.n_shards == 2
    assert dict(recovered.items()) == model
    # The burned id: a later split allocates 3, never 2.
    new_id = recovered.split_shard(
        max(recovered.stacks,
            key=lambda s: sum(1 for _ in recovered.stacks[s].items()))
    )
    assert new_id == 3
    recovered.close()
    router.close()


def test_committed_migration_resumes_cleanup_on_open():
    """An ACTIVE tail still carrying its migration descriptor (crash during
    cleanup) must keep the post-split table, finish deleting the migrated
    range from the source, and seal."""
    config, router, model = _populated_router()
    victim = max(
        router.stacks, key=lambda s: sum(1 for _ in router.stacks[s].items())
    )
    new_id = router.split_shard(victim)
    # Rewind the journal to just after the commit point: drop the seal.
    records = router.manifest.scan()
    assert records[-1]["state"] == STATE_ACTIVE and records[-2]["migration"]
    meta = CompressedBlockDevice(num_blocks=64)
    rewound = RoutingManifest(meta)
    for record in records[:-1]:
        rewound.append(record)
    # Undo the cleanup on the source: re-put one migrated key there directly.
    migrated_key = next(iter(dict(router.stacks[new_id].items())))
    router.stacks[victim].put(migrated_key, b"stale-straggler")
    router.stacks[victim].commit()
    recovered = ShardRouter.open(config, router.devices, meta)
    assert recovered.resumed_cleanups == 1
    assert recovered.n_shards == 3
    # The straggler was cleaned up; the owner serves the real value.
    assert dict(recovered.items()) == model
    assert recovered.get(migrated_key) == model[migrated_key]
    assert sum(
        1 for key, _ in recovered.stacks[victim].items()
        if recovered.route(key) != victim
    ) == 0
    assert RoutingManifest(meta).latest()[0]["migration"] is None
    recovered.close()
    router.close()
