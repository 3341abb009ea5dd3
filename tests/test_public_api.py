"""Top-level public-API integration tests.

Exercises the package the way the README tells a downstream user to use it:
everything importable from ``repro``, engines interchangeable behind the
same KV surface, documented on every public item.
"""

import inspect

import pytest

import repro
from repro import (
    BMinusConfig,
    BMinusTree,
    BTreeConfig,
    BTreeEngine,
    CompressedBlockDevice,
    LSMConfig,
    LSMEngine,
)


def test_version():
    assert repro.__version__


def test_all_exports_resolve():
    for name in repro.__all__:
        assert getattr(repro, name) is not None


def make_engines():
    device_a = CompressedBlockDevice(num_blocks=120_000)
    device_b = CompressedBlockDevice(num_blocks=120_000)
    device_c = CompressedBlockDevice(num_blocks=120_000)
    return [
        (BMinusTree(device_a, BMinusConfig(
            cache_bytes=1 << 17, max_pages=2048, log_blocks=512)), device_a),
        (BTreeEngine(device_b, BTreeConfig(
            cache_bytes=1 << 17, max_pages=2048, log_blocks=512)), device_b),
        (LSMEngine(device_c, LSMConfig(
            memtable_bytes=16 << 10, level_base_bytes=64 << 10,
            table_target_bytes=16 << 10, log_blocks=512)), device_c),
    ]


def test_engines_share_the_kv_surface():
    """put/get/delete/scan/items/commit/tick/traffic_snapshot on all three."""
    for engine, _ in make_engines():
        for i in range(500):
            engine.put(i.to_bytes(8, "big"), bytes([i % 256]) * 32)
            engine.commit()
        assert engine.get((7).to_bytes(8, "big")) == bytes([7]) * 32
        assert len(engine.scan((0).to_bytes(8, "big"), 10)) == 10
        assert sum(1 for _ in engine.items()) == 500
        engine.tick()
        snap = engine.traffic_snapshot()
        assert snap.user_bytes == 500 * 40
        assert snap.total_physical > 0


def test_engines_recover_via_open():
    for engine, device in make_engines():
        engine.put(b"survivor", b"value")
        engine.commit()
        if hasattr(engine, "close"):
            engine.close()
        device.simulate_crash()
        reopened = type(engine).open(device, engine.config)
        assert reopened.get(b"survivor") == b"value"


_PUBLIC_MODULES = [
    "repro.btree.buffer_pool", "repro.btree.engine", "repro.btree.node",
    "repro.btree.page", "repro.btree.pager", "repro.btree.tree",
    "repro.btree.wal", "repro.core.bminus", "repro.core.delta",
    "repro.csd.compression", "repro.csd.device", "repro.csd.ftl",
    "repro.csd.latency", "repro.csd.stats", "repro.lsm.bloom",
    "repro.lsm.compaction", "repro.lsm.engine", "repro.lsm.manifest",
    "repro.lsm.memtable", "repro.lsm.sstable", "repro.lsm.version",
    "repro.metrics.counters", "repro.sim.clock", "repro.sim.rng",
    "repro.workloads.generator", "repro.workloads.records",
    "repro.workloads.runner", "repro.bench.harness", "repro.bench.speed",
    "repro.bench.reporting", "repro.cli",
]


@pytest.mark.parametrize("module_name", _PUBLIC_MODULES)
def test_every_public_item_is_documented(module_name):
    """Module, classes, and public functions/methods all carry docstrings."""
    module = __import__(module_name, fromlist=["_"])
    assert module.__doc__, f"{module_name} lacks a module docstring"
    for name, obj in vars(module).items():
        if name.startswith("_") or getattr(obj, "__module__", None) != module_name:
            continue
        if inspect.isclass(obj) or inspect.isfunction(obj):
            assert obj.__doc__, f"{module_name}.{name} lacks a docstring"
