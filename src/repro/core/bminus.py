"""The B⁻-tree public facade.

``BMinusTree`` is what a downstream user instantiates: a key-value store with
the API of :class:`repro.btree.engine.BTreeEngine` whose I/O module applies
all three of the paper's techniques.  The implementation is deliberately
thin — it builds a :class:`~repro.core.delta.DeltaShadowPager` and a sparse
redo log and hands them to the unmodified baseline engine, mirroring the
paper's point that the techniques required only ~1.2k LoC on their baseline
B-tree.

Example::

    from repro.core import BMinusConfig, BMinusTree
    from repro.csd import CompressedBlockDevice

    device = CompressedBlockDevice(num_blocks=1 << 20)
    store = BMinusTree(device, BMinusConfig(page_size=8192, threshold_t=2048))
    store.put(b"key", b"value")
    store.commit()
    print(store.get(b"key"))
    print(store.wa_report())
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Iterator, Optional

from repro.btree.engine import BTreeConfig, BTreeEngine
from repro.core.delta import DeltaShadowPager
from repro.csd.device import BlockDevice
from repro.errors import ConfigError
from repro.metrics.counters import TrafficSnapshot, WaReport, compute_wa
from repro.metrics.faults import FaultStats
from repro.sim.clock import SimClock


@dataclass
class BMinusConfig:
    """B⁻-tree configuration.

    Defaults match the paper's main evaluation point: 8KB pages, T = 2KB,
    D_s = 128B, sparse redo logging.
    """

    page_size: int = 8192
    cache_bytes: int = 4 << 20
    threshold_t: int = 2048  # the paper's T, in (0, 4KB]
    segment_size: int = 128  # the paper's D_s
    wal_mode: str = "sparse"  # sparse (the paper's B⁻) | packed | none
    log_flush_policy: str = "interval"  # commit | interval
    log_flush_interval: float = 60.0
    checkpoint_interval: float = 60.0
    max_pages: int = 1 << 16
    log_blocks: int = 4096
    #: Group-atomic commit windows (serving-layer group commit); see
    #: :class:`repro.btree.engine.BTreeConfig.group_atomic`.
    group_atomic: bool = False

    def to_btree_config(self) -> BTreeConfig:
        return BTreeConfig(
            page_size=self.page_size,
            cache_bytes=self.cache_bytes,
            atomicity="det-shadow",  # superseded by the delta pager instance
            wal_mode=self.wal_mode,
            log_flush_policy=self.log_flush_policy,
            log_flush_interval=self.log_flush_interval,
            checkpoint_interval=self.checkpoint_interval,
            max_pages=self.max_pages,
            log_blocks=self.log_blocks,
            group_atomic=self.group_atomic,
        )


class BMinusTree:
    """The paper's B⁻-tree: a crash-safe ordered key-value store."""

    def __init__(
        self,
        device: BlockDevice,
        config: Optional[BMinusConfig] = None,
        clock: Optional[SimClock] = None,
        _open_existing: bool = False,
    ) -> None:
        self.config = config or BMinusConfig()
        btree_config = self.config.to_btree_config()
        btree_config.validate()
        if self.config.threshold_t <= 0:
            raise ConfigError("threshold T must be positive")
        region_start = BTreeEngine.LOG_START + btree_config.log_blocks
        self.pager = DeltaShadowPager(
            device,
            btree_config.page_size,
            btree_config.max_pages,
            region_start,
            threshold=self.config.threshold_t,
            segment_size=self.config.segment_size,
        )
        if _open_existing:
            self.engine = BTreeEngine.open(device, btree_config, clock, pager=self.pager)
        else:
            self.engine = BTreeEngine(device, btree_config, clock, pager=self.pager)

    @classmethod
    def open(
        cls,
        device: BlockDevice,
        config: Optional[BMinusConfig] = None,
        clock: Optional[SimClock] = None,
    ) -> "BMinusTree":
        """Open an existing B⁻-tree (running crash recovery if needed)."""
        return cls(device, config, clock, _open_existing=True)

    # ------------------------------------------------------------- KV API

    def put(self, key: bytes, value: bytes) -> None:
        """Insert or update one record."""
        self.engine.put(key, value)

    def get(self, key: bytes) -> Optional[bytes]:
        """Point lookup; None if absent."""
        return self.engine.get(key)

    def delete(self, key: bytes) -> None:
        """Remove a record; raises ``KeyNotFoundError`` if absent."""
        self.engine.delete(key)

    def put_batch(self, items: list[tuple[bytes, bytes]]) -> None:
        """Insert/update many records in one call.

        Every item is validated before anything is logged or applied, so a
        bad item (empty key, oversize record) rejects the whole batch.
        Otherwise bit-identical to the equivalent ``put`` sequence — ``put``
        is this call on a list of one — with the fixed costs paid once per
        run of the batch; see
        :meth:`repro.btree.engine.BTreeEngine.put_batch`.
        """
        self.engine.put_batch(items)

    def get_batch(self, keys: list[bytes]) -> list[Optional[bytes]]:
        """Point-lookup many keys in one call (None for absent keys)."""
        return self.engine.get_batch(keys)

    def delete_batch(self, keys: list[bytes]) -> None:
        """Delete many records: ``for key in keys: delete(key)``.

        Raises ``KeyNotFoundError`` at the first absent key.  Every earlier
        delete is logged and applied, no later one is, so recovery
        reproduces exactly the state the caller saw.
        """
        self.engine.delete_batch(keys)

    def scan(self, start_key: bytes, count: int) -> list[tuple[bytes, bytes]]:
        """Ordered range scan of up to ``count`` records from ``start_key``."""
        return self.engine.scan(start_key, count)

    def items(self) -> Iterator[tuple[bytes, bytes]]:
        """Iterate all records in key order."""
        return self.engine.items()

    def commit(self) -> None:
        """Transaction commit point (group-commits everything appended)."""
        self.engine.commit()

    def tick(self) -> None:
        """Run clock-driven background work (periodic log flush/checkpoint)."""
        self.engine.tick()

    def checkpoint(self) -> None:
        self.engine.checkpoint()

    def close(self) -> None:
        self.engine.close()

    # ---------------------------------------------------------- accounting

    @property
    def clock(self) -> SimClock:
        return self.engine.clock

    @property
    def device(self) -> BlockDevice:
        return self.engine.device

    @property
    def write_stalled(self) -> bool:
        """True while writes should back off (see BTreeEngine.write_stalled)."""
        return self.engine.write_stalled

    def stall_relief_at(self) -> float:
        """Simulated time at which stall-relief work can run."""
        return self.engine.stall_relief_at()

    @property
    def fault_stats(self) -> FaultStats:
        """Merged fault detection/self-healing counters (see FaultStats)."""
        return self.engine.fault_stats

    def traffic_snapshot(self) -> TrafficSnapshot:
        return self.engine.traffic_snapshot()

    def wa_report(self) -> WaReport:
        """Write amplification accumulated so far, per the paper's Eq. (2)."""
        return compute_wa(self.traffic_snapshot())

    def beta(self) -> float:
        """Current storage usage overhead factor β (paper Eq. (4))."""
        return self.pager.beta()
