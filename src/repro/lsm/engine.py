"""The LSM-tree engine facade (RocksDB stand-in).

Device layout::

    block 0 ..                : manifest copies A and B
    next ..                   : WAL ring
    next ..                   : value-log segments (only when key-value
                                separation is enabled)
    rest                      : SSTable extent pool

Writes go WAL -> memtable; a full memtable flushes to a level-0 table; the
configured :mod:`~repro.lsm.strategy` (leveled by default) keeps the level
shape healthy.  With ``value_separation_threshold`` set, large values are
redirected at WAL time into the :mod:`~repro.lsm.vlog` region and only
16-byte pointers travel the flush/compaction path.  Reads consult the
memtable, then level-0 tables newest-first, then the deeper levels (one
table per level under leveled; every overlapping run under tiering), with
bloom filters suppressing pointless data-block reads — the same read path
the paper credits for RocksDB's good point-read TPS.

Write-traffic accounting maps onto the paper's categories: WAL plus
value-log bytes are ``W_log`` (separation happens at WAL time);
memtable-flush plus compaction bytes are the LSM's equivalent of ``W_pg``;
manifest writes are ``W_e``.
"""

from __future__ import annotations

import struct
from dataclasses import dataclass
from itertools import chain, islice
from typing import Iterator, Optional

from repro.btree.wal import LogOp, LogRecord, RedoLog, check_log_config
from repro.csd.device import BlockDevice
from repro.errors import ConfigError, KeyNotFoundError, LsmError
from repro.lsm.bloom import probe_sequence
from repro.lsm.compaction import merge_newest_first, merge_runs, sorted_runs, write_tables
from repro.lsm.manifest import Manifest, ManifestEntry
from repro.lsm.memtable import MemTable
from repro.lsm.sstable import ExtentAllocator, SSTableReader, SSTableWriter, encode_record
from repro.lsm.strategy import STRATEGIES, get_strategy
from repro.lsm.version import VersionSet
from repro.lsm.vlog import VREF_SIZE, ValueLog, ValueRef
from repro.metrics.counters import TrafficSnapshot
from repro.metrics.faults import FaultStats
from repro.sim.clock import SimClock

# Manifest-extension framing: strategy name + separation threshold (0 for
# none) + opaque vlog slot state; every snapshot carries it.
_EXT_HDR = struct.Struct("<BQI")  # strategy-name length, threshold, vlog-state length


def _encode_extension(strategy: str, threshold: int, vlog_state: bytes) -> bytes:
    name = strategy.encode("ascii")
    return _EXT_HDR.pack(len(name), threshold, len(vlog_state)) + name + vlog_state


def _decode_extension(blob: bytes) -> tuple[str, int, bytes]:
    name_len, threshold, state_len = _EXT_HDR.unpack_from(blob)
    offset = _EXT_HDR.size
    name = blob[offset : offset + name_len].decode("ascii")
    offset += name_len
    return name, threshold, bytes(blob[offset : offset + state_len])


@dataclass
class LSMConfig:
    """LSM-tree configuration; defaults are the paper's RocksDB setup scaled
    down ~1024x (64MB memtable -> 64KB, 256MB L1 -> 256KB, ratio 10)."""

    memtable_bytes: int = 64 << 10
    l0_compaction_trigger: int = 4
    level_base_bytes: int = 256 << 10
    level_size_ratio: float = 10.0
    max_levels: int = 7
    table_target_bytes: int = 64 << 10
    bits_per_key: float = 10.0
    wal_mode: str = "packed"  # packed | none (RocksDB's WAL packs records)
    log_flush_policy: str = "interval"  # commit | interval
    log_flush_interval: float = 60.0
    log_blocks: int = 4096
    manifest_blocks: int = 8  # per copy
    #: Group-atomic commit windows (see :class:`repro.btree.engine.BTreeConfig`
    #: for the protocol): commits seal a COMMIT marker, recovery replays only
    #: marker-terminated windows, and the memtable-flush decision moves from
    #: per-op to the commit boundary with a frozen-memtable handoff.
    group_atomic: bool = False
    #: Simulated seconds between freezing a full memtable and its background
    #: flush becoming due (RocksDB's immutable-memtable flush latency); the
    #: interval during which a second full memtable causes a write stall.
    flush_latency: float = 0.0
    #: Frozen memtables tolerated before writes stall (group_atomic mode).
    max_frozen_memtables: int = 2
    #: Compaction policy (see :mod:`repro.lsm.strategy`):
    #: leveled | tiered | lazy-leveled | partial.
    compaction_strategy: str = "leveled"
    #: L0 tables per job under the partial strategy (oldest-first slice).
    partial_slice_tables: int = 1
    #: Key-value separation: values of at least this many bytes go to the
    #: value log at WAL time; ``None`` disables separation entirely (no
    #: vlog region is laid out, keeping the device map unchanged).
    value_separation_threshold: Optional[int] = None
    #: Value-log geometry: fixed segments of ``vlog_segment_blocks`` blocks.
    vlog_segment_blocks: int = 16
    vlog_segments: int = 8
    #: GC a sealed segment once free segments drop to this many.
    vlog_gc_free_segments: int = 1

    def validate(self) -> None:
        if self.memtable_bytes <= 0 or self.table_target_bytes <= 0:
            raise ConfigError("memtable/table sizes must be positive")
        if self.l0_compaction_trigger < 1:
            raise ConfigError("l0_compaction_trigger must be >= 1")
        if self.level_size_ratio <= 1:
            raise ConfigError("level_size_ratio must exceed 1")
        check_log_config(self, modes=("packed", "none"))
        if self.flush_latency < 0 or self.max_frozen_memtables < 1:
            raise ConfigError("flush_latency/max_frozen_memtables out of range")
        if self.compaction_strategy not in STRATEGIES:
            known = ", ".join(sorted(STRATEGIES))
            raise ConfigError(
                f"unknown compaction_strategy {self.compaction_strategy!r} "
                f"(choose from: {known})"
            )
        if self.partial_slice_tables < 1:
            raise ConfigError("partial_slice_tables must be >= 1")
        if self.value_separation_threshold is not None:
            if self.value_separation_threshold <= 0:
                raise ConfigError("value_separation_threshold must be positive")
            if self.wal_mode == "none":
                raise ConfigError(
                    "value separation happens at WAL time and requires a WAL "
                    "(wal_mode='none' would let a crash orphan value-log "
                    "records whose pointers were never made durable)"
                )
            if self.vlog_segment_blocks < 1:
                raise ConfigError("vlog_segment_blocks must be >= 1")
            if self.vlog_segments < 2:
                raise ConfigError("vlog needs >= 2 segments (head + GC victim)")
            if not 1 <= self.vlog_gc_free_segments < self.vlog_segments:
                raise ConfigError(
                    "vlog_gc_free_segments must be in [1, vlog_segments)"
                )


class LSMEngine:
    """A crash-safe LSM-tree key-value store."""

    def __init__(
        self,
        device: BlockDevice,
        config: Optional[LSMConfig] = None,
        clock: Optional[SimClock] = None,
        _recovering: bool = False,
    ) -> None:
        self.config = config or LSMConfig()
        self.config.validate()
        self.device = device
        self.clock = clock or SimClock()
        self.manifest = Manifest(device, 0, self.config.manifest_blocks)
        log_start = self.manifest.total_blocks()
        self.wal = RedoLog.for_config(self.config, device, log_start, self.clock)
        pool_start = log_start + self.config.log_blocks
        self.vlog: Optional[ValueLog] = None
        if self.config.value_separation_threshold is not None:
            self.vlog = ValueLog(
                device, pool_start,
                self.config.vlog_segment_blocks, self.config.vlog_segments,
            )
            pool_start += self.vlog.total_blocks
        if pool_start >= device.num_blocks:
            raise ConfigError("device too small for manifest + log + vlog regions")
        self.allocator = ExtentAllocator(pool_start, device.num_blocks - pool_start)
        self.strategy = get_strategy(self.config.compaction_strategy)
        self.versions = VersionSet(
            self.config.max_levels, overlapping=self.strategy.overlapping_levels
        )
        self.memtable = MemTable()
        #: Frozen (immutable) memtables awaiting background flush, oldest
        #: first (group_atomic mode; always empty otherwise).
        self.frozen: list[MemTable] = []
        self._flush_due = 0.0
        self.memtable_freezes = 0
        self._next_table_id = 0
        self.user_bytes = 0
        self.operations = 0
        self.flush_logical = 0
        self.flush_physical = 0
        self.compact_logical = 0
        self.compact_physical = 0
        self.compactions_run = 0
        self.memtable_flushes = 0
        #: Compaction inputs ``(start_block, num_blocks)`` awaiting the
        #: manifest persist that stops naming them.
        self._retired: list[tuple[int, int]] = []
        if not _recovering:
            self._persist_manifest()

    # ------------------------------------------------------------ open/close

    @classmethod
    def open(
        cls,
        device: BlockDevice,
        config: Optional[LSMConfig] = None,
        clock: Optional[SimClock] = None,
    ) -> "LSMEngine":
        """Open an existing store (crash recovery), or create a fresh one."""
        engine = cls(device, config, clock, _recovering=True)
        state = engine.manifest.load()
        if state is None:
            engine._persist_manifest()
            return engine
        engine._next_table_id = state.next_table_id
        engine._adopt_extension(state.extension)
        for entry in state.entries:
            reader = SSTableReader.open(device, entry.start_block, entry.num_blocks)
            engine.allocator.mark_used(entry.start_block, entry.num_blocks)
            engine.versions.add_table(entry.level, reader)
        if engine.wal.replay(state.log_pos, engine._replay_record):
            # The resumed writer appends *after* the discarded tail; if the
            # cursor stayed behind it, a later marker would make a second
            # recovery replay the rolled-back records.  Draining makes the
            # replayed state durable and moves the cursor past the ghosts.
            engine.drain_memory()
        if engine.vlog is not None:
            # After replay (replayable head records must survive validation
            # first): re-TRIM free slots, closing the GC window between the
            # manifest commit point and the victim TRIM idempotently.
            engine.vlog.scrub_free_slots()
        return engine

    def _adopt_extension(self, blob: bytes) -> None:
        """Check and adopt the persisted strategy/vlog state at reopen."""
        name, threshold, vlog_state = _decode_extension(blob)
        if name != self.config.compaction_strategy:
            raise ConfigError(
                f"store was created with compaction_strategy={name!r}; "
                f"reopen with the same strategy, not "
                f"{self.config.compaction_strategy!r}"
            )
        if threshold != (self.config.value_separation_threshold or 0):
            raise ConfigError(
                f"store was created with value_separation_threshold="
                f"{threshold or None}; reopen with the same threshold, not "
                f"{self.config.value_separation_threshold!r}"
            )
        if vlog_state:
            assert self.vlog is not None  # threshold equality implies a vlog
            self.vlog.restore_state(vlog_state)

    def _replay_record(self, record: LogRecord) -> None:
        """Apply one replayed record to the memtable.

        A separated put is dropped if its value bytes died: the value
        record is written before the WAL record and both ride the same
        device flush, so a pointer whose value fails validation can only
        belong to an in-flight (unacknowledged) operation — dropping it is
        exactly the crash semantics of a torn in-flight write.
        """
        if record.op == LogOp.PUT:
            self.memtable.put(record.key, record.value)
        elif record.op == LogOp.DELETE:
            self.memtable.delete(record.key)
        elif record.op == LogOp.PUT_VPTR:
            if self.vlog is None:
                raise LsmError(
                    "WAL contains value-log pointers but separation is disabled"
                )
            ref = ValueRef.from_wire(record.value)
            if self.vlog.validate_record(record.key, ref):
                self.memtable.put(record.key, ref)
                self.vlog.note_replayed(record.key, ref)

    def close(self) -> None:
        """Flush the WAL and persist the manifest (memtable is replayable).

        Frozen memtables are replayable too — the replay cursor only moves
        past a record once it reaches an SSTable — so a clean close needs no
        drain, just a marker sealing the open window in group-atomic mode.
        """
        self.wal.seal()
        self._persist_manifest()

    # --------------------------------------------------------------- KV API

    def put(self, key: bytes, value: bytes) -> None:
        """Insert or update one record — the engine's one put path.

        The order is fixed: validate, log, apply to the memtable, account,
        pace (the memtable-flush decision).
        """
        separated = self._check_put(key, value)
        if separated:
            # WAL-time separation: the value goes to the vlog *before* its
            # pointer enters the WAL, so one flush covers both and a durable
            # pointer always has durable value bytes behind it.
            ref = self._separate(key, value)
            self.wal.append_next(LogOp.PUT_VPTR, key, ref)
            self.memtable.put(key, ref)
        else:
            self.wal.append_next(LogOp.PUT, key, value)
            self.memtable.put(key, value)
        self.user_bytes += len(key) + len(value)
        self.operations += 1
        self._maybe_flush_memtable()

    def delete(self, key: bytes) -> None:
        """Record a deletion (blind delete, RocksDB semantics)."""
        self._check_loggable(key, 0)
        self.wal.append_next(LogOp.DELETE, key, b"")
        self.memtable.delete(key)
        self.user_bytes += len(key)
        self.operations += 1
        self._maybe_flush_memtable()

    def delete_checked(self, key: bytes) -> None:
        """Delete that raises if the key is absent (B-tree-compatible API)."""
        if self.get(key) is None:
            raise KeyNotFoundError(repr(key))
        self.delete(key)

    def put_batch(self, items: list[tuple[bytes, bytes]]) -> None:
        """``for k, v in items: put(k, v)``, after validating every item.

        An invalid item rejects the whole batch with nothing logged or
        applied.  (Value-log exhaustion is not a validation failure: like a
        sequence of puts, it surfaces at the item that hits it, with every
        earlier item logged and applied in order.)
        """
        if not isinstance(items, list):
            items = list(items)
        for key, value in items:
            self._check_put(key, value)
        for key, value in items:
            self.put(key, value)

    def get_batch(self, keys: list[bytes]) -> list[Optional[bytes]]:
        """Point-lookup a sequence of keys (``[get(k) for k in keys]``)."""
        get = self.get
        return [get(key) for key in keys]

    def delete_batch(self, keys: list[bytes]) -> None:
        """``for k in keys: delete(k)``, after validating every key."""
        if not isinstance(keys, list):
            keys = list(keys)
        for key in keys:
            self._check_loggable(key, 0)
        for key in keys:
            self.delete(key)

    def _check_put(self, key: bytes, value: bytes) -> bool:
        """Validate one put; returns whether its value goes to the value log
        (in which case the WAL carries a pointer, not the value)."""
        if value is None:
            raise LsmError("None is reserved for tombstones; use delete()")
        separated = (
            self.vlog is not None
            and len(value) >= self.config.value_separation_threshold
        )
        self._check_loggable(key, VREF_SIZE if separated else len(value))
        return separated

    def _check_loggable(self, key: bytes, value_len: int) -> None:
        """Reject a write before any part of it is logged.

        Recovery replays every durable record through the memtable, so a
        logged record the memtable refuses (an empty key) would leave the
        store unopenable.
        """
        if not key:
            raise ConfigError("empty keys are not supported")
        self.wal.check_fits(len(key), value_len)

    def get(self, key: bytes) -> Optional[bytes]:
        found, value = self.memtable.get(key)
        if found:
            return self._resolve(key, value)
        for table in reversed(self.frozen):  # newest frozen first
            found, value = table.get(key)
            if found:
                return self._resolve(key, value)
        tables = self.versions.tables_for_get(key)
        if tables:
            probes = probe_sequence(key)  # once, for every table's filter
            for reader in tables:
                found, value = reader.get(key, probes)
                if found:
                    return self._resolve(key, value)
        return None

    def _resolve(self, key: bytes, value: Optional[bytes]) -> Optional[bytes]:
        """Follow a value-log pointer transparently (tombstones pass through)."""
        if isinstance(value, ValueRef):
            assert self.vlog is not None
            return self.vlog.read(key, value)
        return value

    def scan(self, start_key: bytes, count: int) -> list[tuple[bytes, bytes]]:
        """Ordered scan over the merged view of memtable + every level."""
        if count <= 0:
            return []  # before any source is opened: no block is read
        merged = self._merged_from(start_key)
        vlog = self.vlog
        if vlog is not None:  # each pointer is followed as the merge reaches it
            merged = (
                (key, vlog.read(key, value) if isinstance(value, ValueRef) else value)
                for key, value in merged
            )
        return list(islice(merged, count))

    def items(self) -> Iterator[tuple[bytes, bytes]]:
        for key, value in self._merged_from(b""):
            yield key, self._resolve(key, value)

    def _merged_from(self, start_key: bytes) -> Iterator[tuple[bytes, Optional[bytes]]]:
        """Newest-wins merge of all sorted sources: every live record with
        key >= ``start_key``, once (a tombstone hides the older versions
        beneath it and is dropped).

        Same source order as :meth:`get`: active memtable, frozen memtables
        newest first, then the version set's sorted runs newest first.  A
        run's tables are chained lazily, so a table is read only once the
        merge has consumed everything before it in its level.
        """
        sources = [self.memtable.items_from(start_key)]
        sources += [table.items_from(start_key) for table in reversed(self.frozen)]
        sources += [
            chain.from_iterable(reader.iter_from(start_key) for reader in run)
            for run in self.versions.runs_from(start_key)
        ]
        return merge_newest_first(sources, drop_tombstones=True)

    # ---------------------------------------------------------- transactions

    def commit(self) -> None:
        """Group-commit point (flushes the WAL under the commit policy).

        In group-atomic mode this is also where every memtable decision
        runs: seal the window with a COMMIT marker, make it durable, then
        flush a due frozen memtable, guard the WAL ring, and freeze the
        active memtable if it filled during the window.
        """
        self.wal.commit()
        if self.config.group_atomic:
            self._boundary_maintenance()

    def _boundary_maintenance(self) -> None:
        """Memtable lifecycle work, runnable only between commit windows."""
        if self.frozen and self.clock.now >= self._flush_due:
            self.flush_frozen()
        if self.wal.relief_due():
            # The ring is about to wrap over un-tabled records: drain
            # everything so the replay cursor can advance.
            self.drain_memory()
            return
        if (
            self.memtable.approximate_bytes >= self.config.memtable_bytes
            and len(self.frozen) < self.config.max_frozen_memtables
        ):
            self.freeze_memtable()
        # Value-log GC is boundary work too: its re-puts must form their own
        # sealed window, which is only possible between commit windows.
        self._maybe_gc_vlog()

    @property
    def write_stalled(self) -> bool:
        """True while the active memtable is full but cannot be frozen
        because the frozen-memtable backlog is at its limit — RocksDB's
        write-stall condition.  Relief is the oldest frozen table's flush,
        due at :meth:`stall_relief_at`."""
        return (
            len(self.frozen) >= self.config.max_frozen_memtables
            and self.memtable.approximate_bytes >= self.config.memtable_bytes
        )

    def stall_relief_at(self) -> float:
        """Simulated time when the oldest frozen memtable's flush is due."""
        return self._flush_due if self.frozen else self.clock.now

    def tick(self) -> None:
        """Clock-driven background work (periodic WAL flush, frozen flush)."""
        self.wal.tick()
        if self.config.group_atomic and self.frozen and self.clock.now >= self._flush_due:
            self.flush_frozen()

    # ---------------------------------------------------------- flush/compact

    def _maybe_flush_memtable(self) -> None:
        if self.config.group_atomic:
            # Mid-window flushes would persist part of an unacknowledged
            # window; all lifecycle decisions defer to the commit boundary.
            return
        if (
            self.memtable.approximate_bytes >= self.config.memtable_bytes
            or self.wal.relief_due()  # guard the WAL ring like the B-tree
        ):
            self.flush_memtable()

    def flush_memtable(self) -> None:
        """Write the memtable as a level-0 table and run due compactions."""
        if self.config.group_atomic:
            # Frozen tables hold strictly older data and must reach level 0
            # first; drain handles the ordering (and the replay cursor).
            self.drain_memory()
            return
        if len(self.memtable) == 0:
            return
        self._write_l0(self.memtable)
        self.memtable = MemTable()
        self.wal.advance_cursor()
        self._run_compactions()
        self._persist_manifest()
        self._maybe_gc_vlog()

    # ------------------------------------------------- frozen-memtable handoff

    def freeze_memtable(self) -> None:
        """Seal the active memtable as immutable and swap in a fresh one.

        The frozen table keeps serving reads (newest-frozen-first, after the
        active memtable) until its background flush — due ``flush_latency``
        simulated seconds after the *oldest* freeze — writes it to level 0.
        Nothing touches storage here, which is what makes the handoff cheap
        enough to run inside a commit window's latency budget.
        """
        if len(self.memtable) == 0:
            return
        self.frozen.append(self.memtable)
        self.memtable = MemTable()
        if len(self.frozen) == 1:
            self._flush_due = self.clock.now + self.config.flush_latency
        self.memtable_freezes += 1

    def flush_frozen(self) -> None:
        """Write the oldest frozen memtable as a level-0 table.

        The WAL's replay cursor only advances once *no* in-memory
        data remains — a frozen table's records stay covered by the WAL
        until then, so a crash between freeze and flush simply replays them.
        """
        if not self.frozen:
            return
        table = self.frozen.pop(0)
        self._write_l0(table)
        if not self.frozen and len(self.memtable) == 0:
            self.wal.advance_cursor()
        self._run_compactions()
        self._persist_manifest()
        self._maybe_gc_vlog()
        if self.frozen:
            self._flush_due = self.clock.now + self.config.flush_latency

    def drain_memory(self) -> None:
        """Flush every memtable (frozen and active) and advance the replay
        cursor — WAL-ring pressure relief and the recovery re-anchor path."""
        flushed_any = bool(self.frozen) or len(self.memtable) > 0
        while self.frozen:
            self.flush_frozen()
        self.freeze_memtable()
        while self.frozen:
            self.flush_frozen()
        if not flushed_any:
            # Nothing to table (e.g. a marker-only stream), but the ring can
            # still be reclaimed by re-anchoring the cursor at the tail.
            self.wal.flush()
            self.wal.advance_cursor()
            self._persist_manifest()

    def _write_l0(self, table: MemTable) -> None:
        """Write one memtable as a level-0 table — the flush both
        :meth:`flush_memtable` and :meth:`flush_frozen` run, in their spans."""
        self.wal.flush()  # everything in the table must be durable
        keys, values = table.sorted_items()
        meta, logical, physical = self._make_writer().write(
            keys, list(map(encode_record, keys, values))
        )
        self.flush_logical += logical
        self.flush_physical += physical
        reader = SSTableReader.open(self.device, meta.start_block, meta.num_blocks)
        self.versions.add_table(0, reader)
        self.memtable_flushes += 1

    def _make_writer(self) -> SSTableWriter:
        """A table writer under the next table id."""
        table_id = self._next_table_id
        self._next_table_id += 1
        return SSTableWriter(
            self.device, self.allocator, table_id, self.config.bits_per_key,
        )

    def _run_compactions(self) -> None:
        while True:
            jobs = self.strategy.plan(self.versions, self.config)
            if not jobs:
                return
            for job in jobs:
                self._execute(job)

    def _execute(self, job) -> None:
        chosen = {id(r) for r in job.inputs + job.overlaps}
        inputs = [r for r in self.versions.newest_first() if id(r) in chosen]
        bottom = job.output_level >= self.versions.deepest_nonempty_level()
        if bottom and self.versions.overlapping_runs:
            # Under tiering, runs excluded from the job may share the output
            # level *and* the merged key range while holding older versions;
            # dropping tombstones would resurrect those.  (Leveled levels
            # are disjoint, so exclusion there implies range-disjointness.)
            out_min = min(r.meta.min_key for r in inputs)
            out_max = max(r.meta.max_key for r in inputs)
            bottom = all(
                id(r) in chosen
                for r in self.versions.overlapping(job.output_level, out_min, out_max)
            )
        metas, logical, physical = write_tables(
            merge_runs(sorted_runs(inputs), drop_tombstones=bottom),
            self._make_writer, self.config.table_target_bytes,
        )
        self.compact_logical += logical
        self.compact_physical += physical
        self.compactions_run += 1
        self.versions.remove_tables(job.level, job.inputs)
        self.versions.remove_tables(job.output_level, job.overlaps)
        for meta in metas:
            self.versions.add_table(
                job.output_level,
                SSTableReader.open(self.device, meta.start_block, meta.num_blocks),
            )
        # The durable manifest still names the inputs, so their extents
        # are TRIMmed and freed only after the next persist (first-fit
        # would otherwise hand one to the next job of this loop).
        self._retired += [(r.meta.start_block, r.meta.num_blocks) for r in inputs]

    def _persist_manifest(self) -> None:
        """Publish the version set, then retire the extents it stopped naming.

        The barrier before the snapshot makes every table it names durable
        first; the WAL ring behind the snapshot's cursor and the retired
        compaction inputs are TRIMmed (and the inputs freed) only once no
        durable snapshot needs them.
        """
        entries = [
            ManifestEntry(level, r.meta.table_id, r.meta.start_block, r.meta.num_blocks)
            for level, tables in enumerate(self.versions.levels)
            for r in tables
        ]
        extension = _encode_extension(
            self.config.compaction_strategy,
            self.config.value_separation_threshold or 0,
            self.vlog.encode_state() if self.vlog is not None else b"",
        )
        self.device.flush()
        self.manifest.persist(entries, self._next_table_id, self.wal.cursor, extension)
        self.wal.release()
        for start, count in self._retired:
            self.device.trim(start, count)
            self.allocator.free(start, count)
        self._retired.clear()

    # -------------------------------------------------------------- value log

    def _separate(self, key: bytes, value: bytes) -> ValueRef:
        """Append a large value to the value log, reclaiming space if needed.

        A GC pass with one free segment always completes (rewrites fit in
        head remainder + one roll), so reclaiming while a free segment
        remains — which :meth:`ValueLog.has_room`'s two-segment reserve
        guarantees — makes forced GC safe.  The loop is bounded: every pass
        frees its victim, and passes stop once the reserve is rebuilt or no
        sealed victim remains.
        """
        vlog = self.vlog
        assert vlog is not None
        if not vlog.has_room(len(key), len(value)):
            if self.wal.window_open:
                raise LsmError(
                    "value log exhausted inside an open commit window; "
                    "enlarge the vlog region or lower vlog_gc_free_segments"
                )
            for _ in range(vlog.segments):
                if vlog.free_segments() >= 2:
                    break
                victim = vlog.oldest_sealed_slot()
                if victim is None:
                    break
                self._gc_vlog_segment(victim)
        return vlog.append(key, value)

    def _maybe_gc_vlog(self) -> None:
        """GC one sealed segment when free space runs low (flush boundary)."""
        vlog = self.vlog
        if vlog is None or vlog.free_segments() > self.config.vlog_gc_free_segments:
            return
        if self.wal.window_open:
            return  # defer to the next commit boundary
        victim = vlog.oldest_sealed_slot()
        if victim is not None:
            self._gc_vlog_segment(victim)

    def _gc_vlog_segment(self, victim: int) -> None:
        """Reclaim one sealed segment via the re-put protocol.

        Crash-ordering argument (each step leaves a recoverable state):

        1. *Sweep*: collect the newest-wins view's pointers into the victim
           — exactly the records still reachable.
        2. *Rewrite*: append each value to the head and re-put the new
           pointer through the normal WAL+memtable path.  The new records
           shadow the stale pointers by recency; a crash here recovers
           either copy consistently (newest durable pointer wins) and the
           pass simply re-runs.
        3. *Commit*: WAL flush (plus a COMMIT marker in group-atomic mode,
           making the re-puts a replayable group of their own), then the
           manifest persist — whose internal device flush barrier is what
           orders every rewrite before the commit point — publishing the
           victim as free.
        4. *TRIM*: only now is the victim destroyed; its pointers are all
           shadowed by durable re-puts.  A crash before the TRIM leaves
           garbage that reopen re-TRIMs (``scrub_free_slots``).
        """
        vlog = self.vlog
        assert vlog is not None
        live = [
            (key, value)
            for key, value in self._merged_from(b"")
            if isinstance(value, ValueRef) and vlog.slot_of(value) == victim
        ]
        for key, ref in live:
            value = vlog.read(key, ref)
            new_ref = vlog.append(key, value)
            self.wal.append_next(LogOp.PUT_VPTR, key, new_ref)
            self.memtable.put(key, new_ref)
            vlog.stats.gc_rewritten_records += 1
            vlog.stats.gc_rewritten_bytes += len(value)
        if live:
            self.wal.seal()
        vlog.retire(victim)
        vlog.stats.gc_passes += 1
        self._persist_manifest()
        self.device.trim(vlog.slot_lba(victim), vlog.segment_blocks)
        vlog.stats.segments_trimmed += 1

    # ------------------------------------------------------------ accounting

    @property
    def fault_stats(self) -> FaultStats:
        """Fault detection/repair counters: the WAL's retries, truncations
        and group rollbacks; all zeros on a fault-free run."""
        return self.wal.fault_stats

    def traffic_snapshot(self) -> TrafficSnapshot:
        # Value-log appends are WAL-time traffic, so they land in W_log.
        vlog_logical = self.vlog.stats.logical_bytes if self.vlog else 0
        vlog_physical = self.vlog.stats.physical_bytes if self.vlog else 0
        return TrafficSnapshot(
            user_bytes=self.user_bytes,
            log_logical=self.wal.stats.logical_bytes + vlog_logical,
            log_physical=self.wal.stats.physical_bytes + vlog_physical,
            page_logical=self.flush_logical + self.compact_logical,
            page_physical=self.flush_physical + self.compact_physical,
            extra_logical=self.manifest.logical_bytes,
            extra_physical=self.manifest.physical_bytes,
            operations=self.operations,
        )

    def level_shape(self) -> list[int]:
        """Bytes per level (diagnostics / level-count assertions)."""
        return [self.versions.level_bytes(level) for level in range(self.config.max_levels)]

    def vlog_occupancy(self) -> Optional[dict]:
        """Integer value-log occupancy counters plus the live sweep.

        All fields are exact integers; the live ratio
        (``live_bytes / data_bytes``) is a display-time division.  ``None`` when separation is disabled.
        """
        if self.vlog is None:
            return None
        occ = self.vlog.occupancy()
        live_records = 0
        live_bytes = 0
        for key, value in self._merged_from(b""):
            if isinstance(value, ValueRef):
                live_records += 1
                live_bytes += self.vlog.record_size(key, value.length)
        occ["live_records"] = live_records
        occ["live_bytes"] = live_bytes
        return occ
