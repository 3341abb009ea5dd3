"""Unit tests for the shadowed manifest."""

import pytest

from repro.btree.wal import LogPosition
from repro.csd.device import CompressedBlockDevice
from repro.errors import LsmError
from repro.lsm.manifest import Manifest, ManifestEntry


@pytest.fixture
def device():
    return CompressedBlockDevice(num_blocks=256)


def entry(i, level=0):
    return ManifestEntry(level, i, i * 100, 8)


def test_fresh_device_loads_none(device):
    assert Manifest(device, 0, 4).load() is None


def test_region_validation(device):
    with pytest.raises(LsmError):
        Manifest(device, 0, 0)


def test_persist_load_roundtrip(device):
    manifest = Manifest(device, 0, 4)
    entries = [entry(1), entry(2, level=3)]
    manifest.persist(entries, next_table_id=9, log_pos=LogPosition(5, 42),
                     extension=b"engine state")
    state = Manifest(device, 0, 4).load()
    assert state is not None
    assert state.next_table_id == 9
    assert state.log_pos == LogPosition(5, 42)
    assert state.entries == entries
    assert state.extension == b"engine state"


def test_generations_alternate_and_newest_wins(device):
    manifest = Manifest(device, 0, 4)
    for generation in range(1, 6):
        manifest.persist([entry(generation)], generation, LogPosition(0, 1),
                         b"%d" % generation)
    state = Manifest(device, 0, 4).load()
    assert state.generation == 5
    assert state.entries[0].table_id == 5
    assert state.extension == b"5"


def test_corrupt_copy_falls_back_to_other(device):
    manifest = Manifest(device, 0, 4)
    manifest.persist([entry(1)], 1, LogPosition(0, 1), b"")  # generation 1 -> copy B
    manifest.persist([entry(2)], 2, LogPosition(0, 1), b"")  # generation 2 -> copy A
    # Corrupt the newer copy (generation 2 lives at copy index 0).
    device.write_block(0, b"\xff" * 4096)
    device.flush()
    state = Manifest(device, 0, 4).load()
    assert state.generation == 1
    assert state.entries[0].table_id == 1


def test_torn_manifest_write_recovers_previous(device):
    manifest = Manifest(device, 0, 4)
    manifest.persist([entry(1)], 1, LogPosition(0, 1), b"")
    device.flush()
    # The next persist is torn: only its first block lands.
    first_lba_of_copy_a = 0  # generation 2 -> copy index 0
    manifest._generation = 1  # simulate by writing garbage at copy A
    device.write_block(first_lba_of_copy_a, b"\x11" * 4096)
    device.simulate_crash(survives=lambda lba: lba == first_lba_of_copy_a)
    state = Manifest(device, 0, 4).load()
    assert state is not None and state.generation == 1


def test_capacity_enforced(device):
    """Entries and extension share one region: either can overflow it."""
    manifest = Manifest(device, 0, 1)
    manifest.persist([], 1, LogPosition(0, 1), bytes(manifest.capacity_bytes))
    with pytest.raises(LsmError):
        manifest.persist([], 1, LogPosition(0, 1), bytes(manifest.capacity_bytes + 1))
    with pytest.raises(LsmError):
        manifest.persist([entry(1)], 1, LogPosition(0, 1), bytes(manifest.capacity_bytes))
    too_many = [entry(i) for i in range(manifest.capacity_bytes)]
    with pytest.raises(LsmError):
        manifest.persist(too_many, 1, LogPosition(0, 1), b"")


def test_write_accounting(device):
    manifest = Manifest(device, 0, 2)
    manifest.persist([entry(1)], 1, LogPosition(0, 1), b"")
    assert manifest.logical_bytes == 2 * 4096
    assert 0 < manifest.physical_bytes < manifest.logical_bytes
