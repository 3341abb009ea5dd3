"""The B+-tree storage engine facade.

Ties the substrate together: device layout, buffer pool, pager, redo log,
checkpointing, crash recovery, and write-traffic accounting.  The B⁻-tree
(:mod:`repro.core`) reuses this engine unchanged and only swaps in its own
pager and sparse redo log — mirroring the paper's claim that the three
techniques confine to the I/O module (~1.2k LoC on their baseline).

Device layout::

    block 0                : meta page (root id, allocator, log cursor)
    blocks 1 .. 1+L        : redo-log ring (L = config.log_blocks)
    blocks 1+L ..          : pager region (journal/table/slots per strategy)

Durability contract: committed transactions survive a crash when the log
flush policy is ``commit``; under ``interval`` (the paper's
log-flush-per-minute) up to one interval of recent transactions may be lost,
but the store always recovers to a *consistent* state — page write atomicity
is the pager's job, replay idempotence is the tree's.
"""

from __future__ import annotations

import struct
import zlib
from dataclasses import dataclass
from typing import Iterator, Optional

from repro.btree.buffer_pool import BufferPool
from repro.btree.node import InternalNode
from repro.btree.page import Page, PageType
from repro.btree.pager import Pager, make_pager
from repro.btree.tree import BTree
from repro.btree.wal import LogOp, LogPosition, LogRecord, RedoLog, check_log_config
from repro.csd.device import BLOCK_SIZE, BlockDevice
from repro.csd.faults import read_block_retrying, write_block_retrying
from repro.errors import ConfigError, KeyNotFoundError, RecoveryError
from repro.metrics.counters import TrafficSnapshot
from repro.metrics.faults import FaultStats
from repro.sim.clock import SimClock

_META_MAGIC = b"BME1"
# magic, version, page_size, root, next_page, lsn, txid, log_index, log_seq,
# nfree, crc
_META_HDR = struct.Struct("<4sIIQQQQIIH4x")
_MAX_META_FREE_IDS = (BLOCK_SIZE - _META_HDR.size - 4) // 8


@dataclass
class BTreeConfig:
    """Engine configuration.

    The defaults describe the paper's main configuration: 8KB pages,
    deterministic shadowing, packed WAL flushed once a minute.
    """

    page_size: int = 8192
    cache_bytes: int = 4 << 20
    atomicity: str = "det-shadow"  # journal | shadow-table | det-shadow
    wal_mode: str = "packed"  # packed | sparse | none
    log_flush_policy: str = "interval"  # commit | interval
    log_flush_interval: float = 60.0
    checkpoint_interval: float = 60.0
    max_pages: int = 1 << 16
    log_blocks: int = 4096
    #: Group-atomic commit windows: every :meth:`BTreeEngine.commit` seals the
    #: window with a ``LogOp.COMMIT`` marker and recovery replays only
    #: marker-terminated windows, so an interrupted window rolls back whole
    #: instead of surfacing a partial prefix.  Requires a WAL flushed at
    #: commit (the marker must become durable with its window).
    group_atomic: bool = False

    def validate(self) -> None:
        if self.page_size % BLOCK_SIZE != 0 or self.page_size < BLOCK_SIZE:
            raise ConfigError("page_size must be a positive multiple of 4KB")
        if self.cache_bytes <= 0 or self.max_pages <= 0:
            raise ConfigError("cache_bytes/max_pages out of range")
        check_log_config(self)


class BTreeEngine:
    """A crash-safe key-value store over a B+-tree."""

    META_BLOCK = 0
    LOG_START = 1

    def __init__(
        self,
        device: BlockDevice,
        config: Optional[BTreeConfig] = None,
        clock: Optional[SimClock] = None,
        pager: Optional[Pager] = None,
        _recovering: bool = False,
    ) -> None:
        self.config = config or BTreeConfig()
        self.config.validate()
        self.device = device
        self.clock = clock or SimClock()
        region_start = self.LOG_START + self.config.log_blocks
        self.pager = pager or make_pager(
            self.config.atomicity, device, self.config.page_size,
            self.config.max_pages, region_start,
        )
        self.pool = BufferPool(
            self.config.cache_bytes,
            self.config.page_size,
            loader=self.pager.load,
            flusher=self._flush_with_dependencies,
            evicted=self.pager.keep_evicted,
        )
        self.wal = RedoLog.for_config(self.config, device, self.LOG_START, self.clock)
        #: Root-id change awaiting the group boundary (group_atomic mode).
        self._root_persist_pending = False
        #: Dirty-page flushes forced mid-window (evictions under cache
        #: pressure).  Group atomicity assumes a no-steal window — the
        #: commit window's working set fits the buffer pool — so a nonzero
        #: count flags a configuration that weakens the rollback guarantee.
        self.group_steal_flushes = 0
        self._fault_stats = FaultStats()  # engine-level (meta page) counters
        self.user_bytes = 0
        self.operations = 0
        self.meta_logical_bytes = 0
        self.meta_physical_bytes = 0
        self._flushing: set[int] = set()
        if not _recovering:
            self.tree = BTree(
                self.pool, self.pager, self.config.page_size, self.wal.next_lsn,
                on_root_change=self._on_root_change,
            )
            self.checkpoint()
        self.clock.set_alarm("checkpoint", self.config.checkpoint_interval)

    # ------------------------------------------------------------- open/close

    @classmethod
    def open(
        cls,
        device: BlockDevice,
        config: Optional[BTreeConfig] = None,
        clock: Optional[SimClock] = None,
        pager: Optional[Pager] = None,
    ) -> "BTreeEngine":
        """Open an existing store on ``device`` (running crash recovery), or
        create a fresh one if the device holds no valid meta page."""
        open_stats = FaultStats()
        meta = cls._read_meta(device, open_stats)
        if meta is None:
            engine = cls(device, config, clock, pager)
        else:
            engine = cls(device, config, clock, pager, _recovering=True)
            engine._recover(meta)
        engine._fault_stats = engine._fault_stats + open_stats
        return engine

    def close(self) -> None:
        """Flush everything and persist a clean checkpoint (a clean shutdown
        acknowledges the open window: it is sealed, not rolled back), then
        release the pager's host-side load caches."""
        self.wal.seal()
        self.checkpoint()
        self.pager.release_host_caches()

    # --------------------------------------------------------------- KV API

    def put(self, key: bytes, value: bytes) -> None:
        """Insert or update one record: a batch of one."""
        self.put_batch([(key, value)])

    def put_batch(self, items: list[tuple[bytes, bytes]]) -> None:
        """Insert/update a sequence of records — the engine's one put path.

        **Validate** every item first (key non-empty, record fits a leaf and
        a WAL block), so a rejected call frames no redo record, applies
        nothing and consumes no LSN.  Then, run by run: **frame** the redo
        records, **apply** them through the tree's leaf cursor, **account**,
        and **pace** with one checkpoint-pressure check.  A run is the
        longest stretch during which no per-op check could fire (each WAL
        append seals at most one block) and never shorter than one op, so
        how a caller cuts its puts into batches changes no WAL record, LSN,
        page mutation or device write (DESIGN.md §13).
        """
        if not isinstance(items, list):
            items = list(items)
        self.tree.validate_puts(items)
        wal = self.wal
        for key, value in items:
            wal.check_fits(len(key), len(value))
        start = 0
        while start < len(items):
            run = items[start : start + max(1, wal.blocks_before_relief())]
            wal.append_ahead(LogOp.PUT, run)  # the tree draws these LSNs
            self.tree.apply_puts(run)
            self.user_bytes += sum(len(key) + len(value) for key, value in run)
            self.operations += len(run)
            self._checkpoint_if_log_pressure()
            start += len(run)

    def get(self, key: bytes) -> Optional[bytes]:
        return self.tree.get(key)

    def get_batch(self, keys: list[bytes]) -> list[Optional[bytes]]:
        """Point-lookup a sequence of keys (one descent per same-leaf run)."""
        return self.tree.get_batch(keys)

    def delete(self, key: bytes) -> None:
        """Remove one record; raises :class:`KeyNotFoundError` if absent.

        The one write that can fail at apply time, so its redo record is
        framed immediately before it is applied and never ahead of an
        earlier op: a DELETE of an absent key replays as a no-op, but a
        pre-framed DELETE of a live key that a failing call never reached
        would remove an acknowledged record at recovery.
        """
        self.wal.append_ahead(LogOp.DELETE, ((key, b""),))
        self.tree.delete(key)
        self.user_bytes += len(key)
        self.operations += 1
        self._checkpoint_if_log_pressure()

    def delete_batch(self, keys: list[bytes]) -> None:
        """Delete a sequence of keys: ``for key in keys: delete(key)``.

        Raises :class:`KeyNotFoundError` at the first absent key.  Every
        earlier delete is logged and applied; no later one is logged or
        applied, so recovery reproduces exactly the state the caller saw.
        """
        for key in keys:
            self.delete(key)

    def scan(self, start_key: bytes, count: int) -> list[tuple[bytes, bytes]]:
        return self.tree.scan(start_key, count)

    def items(self) -> Iterator[tuple[bytes, bytes]]:
        return self.tree.items()

    # ---------------------------------------------------------- transactions

    def commit(self) -> None:
        """Commit point for the operations appended since the last commit.

        Under the ``commit`` flush policy this forces the redo log to storage
        (the workload runner calls it once per *group* of concurrent client
        commits, which is how group commit batches transactions).
        """
        wal = self.wal
        wal.commit()
        if self._root_persist_pending:
            # Deferred from _on_root_change: the marker is durable now, so
            # persisting pages/meta can no longer leak an unacknowledged
            # window past a crash.
            self._persist_root()
        if wal.relief_due():
            self.checkpoint()

    @property
    def write_stalled(self) -> bool:
        """True while the engine cannot absorb more writes without first
        doing recovery-critical background work (WAL ring nearly wrapped
        over the last checkpoint).  The serving layer polls this to drive
        its backpressure state machine; relief is a checkpoint, which
        :meth:`tick` performs at the next group boundary."""
        wal = self.wal
        return wal.blocks_since(wal.cursor) > (3 * self.config.log_blocks) // 4

    def stall_relief_at(self) -> float:
        """Simulated time at which stall-relief work can run (now: the
        B-tree checkpoints synchronously at the next boundary tick)."""
        return self.clock.now

    def tick(self) -> None:
        """Run clock-driven background work (periodic log flush, checkpoint).

        The workload runner calls this after advancing the simulated clock.
        """
        wal = self.wal
        wal.tick()
        # A due alarm or log pressure checkpoints, never inside an open
        # window (relief_due is log pressure outside one).
        if wal.relief_due() or (
            self.clock.alarm_due("checkpoint") and not wal.window_open
        ):
            self.checkpoint()

    def _checkpoint_if_log_pressure(self) -> None:
        """Checkpoint before the log ring wraps over un-checkpointed records.

        Never inside an open group-atomic window: the checkpoint would make
        the window's pages durable without its marker.  The commit boundary
        re-checks, so a window must stay well under half the ring (the
        serving layer's bounded commit windows do by orders of magnitude).
        """
        if self.wal.relief_due():
            self.checkpoint()

    # ------------------------------------------------------------ checkpoint

    def checkpoint(self) -> None:
        """Flush all dirty pages and persist the meta page."""
        self.wal.flush()
        self.pool.flush_all()
        # Parents that unlinked freed pages are durable now, so their storage
        # can be reclaimed and their ids recycled.
        self.pager.apply_deferred_frees()
        self.wal.advance_cursor()
        self._root_persist_pending = False
        self._write_meta()
        # The flushed meta page names the new cursor: the ring behind it is dead.
        self.wal.release()
        self.clock.set_alarm("checkpoint", self.config.checkpoint_interval)

    def _on_root_change(self) -> None:
        """Persist a root-id change immediately.

        The meta page is the only pointer to the root; leaving a stale root
        pointer until the next checkpoint would strand every record moved
        above it at a crash.  Flushing the new root first (which, through the
        dependency rules, flushes its never-written children) keeps the meta
        pointer valid at every instant.

        Group-atomic mode defers the persist to the commit boundary: writing
        the new root mid-window would make part of an unacknowledged window
        durable, and the *old* meta/root pair stays valid in the meantime
        because replay-from-checkpoint rebuilds the split in memory.
        """
        if self.config.group_atomic:
            self._root_persist_pending = True
            return
        self._persist_root()

    def _persist_root(self) -> None:
        self._root_persist_pending = False
        root_id = self.tree.root_id
        if root_id in self.pool:
            self.pool.flush_page(root_id)
        self._write_meta()

    def _write_meta(self) -> None:
        next_id, free_ids = self.pager.allocator_state()
        free_ids = free_ids[:_MAX_META_FREE_IDS]
        wal = self.wal
        block = bytearray(BLOCK_SIZE)
        _META_HDR.pack_into(
            block, 0, _META_MAGIC, 1, self.config.page_size, self.tree.root_id,
            next_id, wal.lsn, wal.txid, wal.cursor.block_index,
            wal.cursor.sequence, len(free_ids),
        )
        offset = _META_HDR.size
        for fid in free_ids:
            struct.pack_into("<Q", block, offset, fid)
            offset += 8
        struct.pack_into(
            "<I", block, len(block) - 4, zlib.crc32(memoryview(block)[:-4])
        )
        # checkpoint() flushes WAL and pool before calling here (the rule
        # cannot see that the branches correlate), and the __init__
        # bootstrap writes the first meta page onto an empty tree with
        # nothing earlier to order against; the trailing flush publishes.
        physical = write_block_retrying(  # repro: noqa[CRS008] callers flush first; bootstrap has no prior state
            self.device, self.META_BLOCK, bytes(block), self._fault_stats
        )
        self.device.flush()
        self.meta_logical_bytes += BLOCK_SIZE
        self.meta_physical_bytes += physical

    @staticmethod
    def _read_meta(
        device: BlockDevice, fault_stats: Optional[FaultStats] = None
    ) -> Optional[dict]:
        block = read_block_retrying(device, BTreeEngine.META_BLOCK, fault_stats)
        if block[:4] != _META_MAGIC:
            return None
        stored_crc, = struct.unpack_from("<I", block, len(block) - 4)
        if zlib.crc32(memoryview(block)[:-4]) != stored_crc:
            # One clean re-read heals transient (bus) corruption; persistent
            # meta corruption is fatal — the meta page has no replica.
            if fault_stats is not None:
                fault_stats.checksum_failures += 1
            block = read_block_retrying(device, BTreeEngine.META_BLOCK, fault_stats)
            stored_crc, = struct.unpack_from("<I", block, len(block) - 4)
            if zlib.crc32(memoryview(block)[:-4]) != stored_crc:
                raise RecoveryError("meta page failed checksum verification")
            if fault_stats is not None:
                fault_stats.reread_heals += 1
        (_, version, page_size, root_id, next_id, lsn, txid, log_index,
         log_seq, nfree) = _META_HDR.unpack_from(block, 0)
        if version != 1:
            raise RecoveryError(f"unsupported meta version {version}")
        free_ids = [
            struct.unpack_from("<Q", block, _META_HDR.size + 8 * i)[0]
            for i in range(nfree)
        ]
        return {
            "page_size": page_size,
            "root_id": root_id,
            "next_id": next_id,
            "lsn": lsn,
            "txid": txid,
            "log_pos": LogPosition(log_index, log_seq),
            "free_ids": free_ids,
        }

    # -------------------------------------------------------------- recovery

    def _recover(self, meta: dict) -> None:
        if meta["page_size"] != self.config.page_size:
            raise RecoveryError(
                f"on-storage page size {meta['page_size']} does not match "
                f"configured {self.config.page_size}"
            )
        self.pager.recover()
        self.wal.lsn = meta["lsn"]
        self.wal.txid = meta["txid"]
        self.tree = BTree(
            self.pool, self.pager, self.config.page_size, self.wal.next_lsn,
            root_id=meta["root_id"], on_root_change=self._on_root_change,
        )
        self._rebuild_allocator(meta)
        # The checkpoint advances the replay cursor past a rolled-back tail,
        # so a second crash can never resurrect it.
        self.wal.replay(meta["log_pos"], self._replay_record)
        self.checkpoint()

    def _replay_record(self, record: LogRecord) -> None:
        if record.op == LogOp.PUT:
            self.tree.put(record.key, record.value)
        elif record.op == LogOp.DELETE:
            try:
                self.tree.delete(record.key)
            except KeyNotFoundError:
                pass  # already applied before the crash

    def _rebuild_allocator(self, meta: dict) -> None:
        """Recompute the page allocator by walking the reachable tree, and
        scrub crash residue while doing so.

        Pages allocated after the last checkpoint are unknown to the meta
        page; reusing their ids would alias live pages, so the allocator
        resumes above every reachable id and unreachable lower ids become
        free.  The walk also carries routing bounds: cells whose key falls
        outside a page's bound are stale residue of a crash between split
        flushes (the live copies sit in the right sibling, which the parent
        already routes to) and are deleted so invariants hold again.
        """
        from repro.btree.node import LeafNode  # local: avoid import cycle noise

        reachable: set[int] = set()
        queue: list[tuple[int, bytes, Optional[bytes]]] = [(self.tree.root_id, b"", None)]
        while queue:
            page_id, lower, upper = queue.pop()
            if page_id in reachable:
                # Two paths to one page: stale routing from a torn split.
                # The bounded copy is the live one; nothing more to do here.
                continue
            reachable.add(page_id)
            page = self.pool.get(page_id, pin=True)
            try:
                node = LeafNode(page) if page.page_type == PageType.LEAF else InternalNode(page)
                self._scrub_stale_cells(node, upper)
                if page.page_type == PageType.INTERNAL:
                    inode = InternalNode(page)
                    for i in range(inode.nslots):
                        child_lower = inode.key_at(i) or lower
                        child_upper = (
                            inode.key_at(i + 1) if i + 1 < inode.nslots else upper
                        )
                        queue.append((inode.child_at(i), child_lower, child_upper))
            finally:
                self.pool.unpin(page_id)
        next_id = max(max(reachable) + 1, meta["next_id"])
        free_ids = [i for i in range(next_id) if i not in reachable]
        self.pager.restore_allocator_state(next_id, free_ids)

    def _scrub_stale_cells(self, node, upper: Optional[bytes]) -> None:
        """Delete cells at/above the routing bound ``upper`` (crash residue)."""
        if upper is None:
            return
        stale = [i for i in range(node.nslots) if node.key_at(i) >= upper]
        if not stale:
            return
        for index in reversed(stale):
            if node.page.page_type == PageType.LEAF:
                node.delete_at(index)
            else:
                node.remove_separator_at(index)
        node.page.lsn = self.wal.next_lsn()
        self.pool.mark_dirty(node.page.page_id)

    # ------------------------------------------------------------ internals

    def _flush_with_dependencies(self, page: Page) -> None:
        """Flush ``page`` after its crash-consistency prerequisites.

        Two ordering rules keep the on-storage tree navigable at every
        instant (both registered by the tree/pager, both no-ops in steady
        state):

        * an internal page is never written while referencing a child that
          has never been written (the child would be unreadable after a
          crash);
        * the shrunken left page of a split is never written before the
          parent holding the new separator (the moved records would be
          stranded).

        Recursion depth is bounded by the tree height; the ``_flushing``
        guard breaks the benign cycle between the two rules when both pages
        of a young split are still unwritten.
        """
        page_id = page.page_id
        if page_id in self._flushing:
            raise RecoveryError(f"re-entrant flush of page {page_id}")
        if self.wal.window_open:
            # A mid-window flush can only be an eviction under cache
            # pressure; it may persist part of the unacknowledged window
            # (a stolen page).  Counted so tests and the serving layer can
            # assert the no-steal sizing assumption held.
            self.group_steal_flushes += 1
        self._flushing.add(page_id)
        try:
            if page_id not in self.pager.never_flushed:
                # A never-written page has no stale on-storage copy, so the
                # split-ordering rule does not apply to it (and honouring it
                # would cycle with the child rule below).
                for dep_id in sorted(self.pager.flush_after.pop(page_id, ())):
                    if dep_id in self.pool and dep_id not in self._flushing:
                        self.pool.flush_page(dep_id)
            if page.page_type == PageType.INTERNAL:
                for child_id in InternalNode(page).children():
                    if (
                        child_id in self.pager.never_flushed
                        and child_id in self.pool
                        and child_id not in self._flushing
                    ):
                        self.pool.flush_page(child_id)
            self.pager.flush(page)
        finally:
            self._flushing.discard(page_id)

    # ------------------------------------------------------------ accounting

    @property
    def fault_stats(self) -> FaultStats:
        """Merged fault detection/repair counters across all components.

        Combines the pager's, the redo log's, and the engine's own (meta
        page) counters into one read-only snapshot; all zeros on a
        fault-free run.
        """
        return self._fault_stats + self.pager.fault_stats + self.wal.fault_stats

    def traffic_snapshot(self) -> TrafficSnapshot:
        """Current cumulative write traffic, categorised per the paper."""
        return TrafficSnapshot(
            user_bytes=self.user_bytes,
            log_logical=self.wal.stats.logical_bytes,
            log_physical=self.wal.stats.physical_bytes,
            page_logical=self.pager.stats.page_logical_bytes,
            page_physical=self.pager.stats.page_physical_bytes,
            extra_logical=self.pager.stats.extra_logical_bytes + self.meta_logical_bytes,
            extra_physical=self.pager.stats.extra_physical_bytes + self.meta_physical_bytes,
            operations=self.operations,
        )
