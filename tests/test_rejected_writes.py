"""A rejected write leaves no trace: nothing logged, nothing applied, no LSN.

Every write entry point validates before it frames a redo record.  When the
order was log-then-validate, a rejected put's record sat in the WAL buffer,
became durable with the next commit, and every later ``open`` raised the
same error from recovery; and a ``delete_batch`` that failed half-way had
already framed DELETEs for live keys it never reached, which recovery then
applied.  Each case here issues the bad write, keeps using the store,
crashes it, and requires recovery to reproduce exactly the pre-crash view.
"""

import pytest

from repro.btree.engine import BTreeConfig, BTreeEngine
from repro.core.bminus import BMinusConfig, BMinusTree
from repro.csd.device import CompressedBlockDevice
from repro.errors import ConfigError, KeyNotFoundError, LsmError, TreeError, WalError
from repro.lsm.engine import LSMConfig, LSMEngine


def key(i: int) -> bytes:
    return b"k%02d" % i


def _engine(name: str, page_size: int = 8192):
    """``(class, config)``: every class takes ``(device, config)`` and has
    an ``open(device, config)`` that runs recovery."""
    tree = dict(page_size=page_size, cache_bytes=1 << 17, max_pages=512,
                log_blocks=64, log_flush_policy="commit")
    lsm = dict(memtable_bytes=8 << 10, level_base_bytes=32 << 10,
               table_target_bytes=8 << 10, log_blocks=64,
               log_flush_policy="commit")
    return {
        "bminus": (BMinusTree, BMinusConfig(**tree)),
        "btree": (BTreeEngine, BTreeConfig(atomicity="shadow-table", **tree)),
        "lsm": (LSMEngine, LSMConfig(**lsm)),
        "lsm-vlog": (LSMEngine, LSMConfig(value_separation_threshold=64, **lsm)),
    }[name]


def _loaded(name: str, page_size: int = 8192):
    cls, config = _engine(name, page_size)
    device = CompressedBlockDevice(num_blocks=60_000)
    store = cls(device, config)
    for i in range(10):
        store.put(key(i), b"v%d" % i)
    store.commit()
    return cls, config, device, store


def _lsn(store) -> int:
    return getattr(store, "engine", store).wal.lsn


def _view_survives_crash(cls, config, device, store) -> dict:
    """Commit, write once more, crash, recover; return the agreed view."""
    store.commit()
    store.put(b"after", b"good")
    store.commit()
    view = dict(store.items())
    device.simulate_crash()
    assert dict(cls.open(device, config).items()) == view
    return view


#: id -> (engine, page size, rejected item, error).  The 16KB cells pass the
#: leaf check (a 4,086-byte cell limit) but not the 4,088-byte WAL block; the
#: LSM has no leaf limit, and with the value log on only the key and a
#: 16-byte pointer are logged, so its oversize case is a long key.
_REJECTED_PUTS = {
    "bminus-empty-key": ("bminus", 8192, (b"", b"x"), TreeError),
    "bminus-none-value": ("bminus", 8192, (b"none", None), TreeError),
    "bminus-over-leaf": ("bminus", 8192, (b"big", b"y" * 3000), TreeError),
    "bminus-16k-over-wal-block": ("bminus", 16384, (b"wide", b"y" * 4070), WalError),
    "btree-empty-key": ("btree", 8192, (b"", b"x"), TreeError),
    "btree-none-value": ("btree", 8192, (b"none", None), TreeError),
    "btree-over-leaf": ("btree", 8192, (b"big", b"y" * 3000), TreeError),
    "btree-16k-over-wal-block": ("btree", 16384, (b"wide", b"y" * 4070), WalError),
    "lsm-empty-key": ("lsm", 8192, (b"", b"x"), ConfigError),
    "lsm-none-value": ("lsm", 8192, (b"none", None), LsmError),
    "lsm-over-wal-block": ("lsm", 8192, (b"K" * 4060, b"y" * 100), WalError),
    "lsm-vlog-empty-key": ("lsm-vlog", 8192, (b"", b"x" * 100), ConfigError),
    "lsm-vlog-none-value": ("lsm-vlog", 8192, (b"none", None), LsmError),
    "lsm-vlog-over-wal-block": ("lsm-vlog", 8192, (b"K" * 4060, b"y" * 100), WalError),
}


@pytest.mark.parametrize("mid_batch", [False, True], ids=["single", "mid-batch"])
@pytest.mark.parametrize(
    "name, page_size, bad, error", _REJECTED_PUTS.values(), ids=_REJECTED_PUTS
)
def test_rejected_put_leaves_no_trace(name, page_size, bad, error, mid_batch):
    cls, config, device, store = _loaded(name, page_size)
    lsn = _lsn(store)
    wal_stats = getattr(store, "engine", store).wal.stats
    appended = wal_stats.records_appended
    with pytest.raises(error):
        if mid_batch:
            store.put_batch([(b"n1", b"v" * 100), bad, (b"n2", b"v" * 100)])
        else:
            store.put(*bad)
    assert _lsn(store) == lsn, "the rejected call consumed an LSN"
    assert wal_stats.records_appended == appended, "the rejected call was logged"
    view = _view_survives_crash(cls, config, device, store)
    assert view == {**{key(i): b"v%d" % i for i in range(10)}, b"after": b"good"}


@pytest.mark.parametrize("name", ["bminus", "btree"])
def test_failed_delete_batch_logs_only_what_it_applied(name):
    cls, config, device, store = _loaded(name)
    with pytest.raises(KeyNotFoundError):
        store.delete_batch([key(1), b"missing", key(5), key(6)])
    view = _view_survives_crash(cls, config, device, store)
    assert key(1) not in view
    assert view[key(5)] == b"v5" and view[key(6)] == b"v6"


@pytest.mark.parametrize("mid_batch", [False, True], ids=["single", "mid-batch"])
@pytest.mark.parametrize("name", ["lsm", "lsm-vlog"])
def test_lsm_rejected_delete_leaves_no_trace(name, mid_batch):
    cls, config, device, store = _loaded(name)
    lsn = _lsn(store)
    with pytest.raises(ConfigError):
        if mid_batch:
            store.delete_batch([key(1), b"", key(2)])
        else:
            store.delete(b"")
    assert _lsn(store) == lsn
    view = _view_survives_crash(cls, config, device, store)
    assert key(1) in view and key(2) in view
