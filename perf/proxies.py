"""Timing proxies around the public layer boundaries, and the span recorder.

The traced pass wraps three boundaries from the outside, without touching
the engines: the engine's KV API (:class:`TimingEngine`, at the driver's
call site), the block device (:class:`TimingDevice`, a delegating wrapper in
the style of ``repro.csd.faults.FaultInjectingDevice``) and the drive's
compression engine (:class:`TimingCompressor`, installed through the
device's public ``compressor`` attribute).  Spans nest driver -> engine call
-> device call -> compressor call; a layer's self time is its spans'
duration minus the part their child spans cover.

The device and compressor proxies pass calls straight through while their
``recorder`` is ``None``, so populate and verification record nothing.
"""

from __future__ import annotations

import json
from array import array
from time import perf_counter
from typing import Any, Optional

from repro.csd.compression import BytesLike, Compressor
from repro.csd.device import BLOCK_SIZE

REGIONS = ("meta", "wal", "data")


class SpanRecorder:
    """In-memory spans: name, start, end and the span that caused each.

    Spans live in four parallel arrays and are written out only when the
    run is over (:meth:`dump`).  ``current`` is the innermost open span.
    """

    def __init__(self) -> None:
        self.names: list[str] = []
        self._ids: dict[str, int] = {}
        self.name_ids = array("l")
        self.parents = array("l")
        self.starts = array("d")
        self.ends = array("d")
        self.current = -1

    def name_id(self, name: str) -> int:
        if name not in self._ids:
            self._ids[name] = len(self.names)
            self.names.append(name)
        return self._ids[name]

    def begin(self, name_id: int) -> int:
        index = len(self.starts)
        self.name_ids.append(name_id)
        self.parents.append(self.current)
        self.ends.append(0.0)
        self.current = index
        self.starts.append(perf_counter())
        return index

    def finish(self, index: int) -> float:
        """Close span ``index``; returns its duration in seconds."""
        end = perf_counter()
        self.ends[index] = end
        self.current = self.parents[index]
        return end - self.starts[index]

    def totals(self) -> dict[str, tuple[int, float, float]]:
        """Per span name: ``(count, total seconds, self seconds)``."""
        starts, ends, parents = self.starts, self.ends, self.parents
        covered = [0.0] * len(starts)  # time each span's children cover
        for index, parent in enumerate(parents):
            if parent >= 0:
                covered[parent] += ends[index] - starts[index]
        out = {name: [0, 0.0, 0.0] for name in self.names}
        for index, name_id in enumerate(self.name_ids):
            duration = ends[index] - starts[index]
            entry = out[self.names[name_id]]
            entry[0] += 1
            entry[1] += duration
            entry[2] += duration - covered[index]
        return {name: (e[0], e[1], e[2]) for name, e in out.items()}

    def dump(self, path: str) -> None:
        with open(path, "w", encoding="utf-8") as handle:
            json.dump(
                {
                    "names": self.names,
                    "spans": [
                        [self.name_ids[i], self.parents[i], self.starts[i], self.ends[i]]
                        for i in range(len(self.starts))
                    ],
                },
                handle,
            )


class TimingEngine:
    """An engine's KV API with every call wrapped in a span.

    Also counts the puts during which the LSM's ``memtable_flushes`` counter
    advanced (``bg_put_calls`` / ``bg_s``): those calls carried a memtable
    flush and the compactions it triggered in the foreground.
    """

    def __init__(self, inner: Any, recorder: SpanRecorder) -> None:
        self._inner = inner
        self._rec = recorder
        self._ids = {
            kind: recorder.name_id(f"engine.{kind}")
            for kind in ("put", "get", "scan", "commit", "tick")
        }
        self._has_flushes = hasattr(inner, "memtable_flushes")
        self.bg_put_calls = 0
        self.bg_s = 0.0

    def _timed(self, kind: str, fn, *args):
        span = self._rec.begin(self._ids[kind])
        try:
            return fn(*args)
        finally:
            self._rec.finish(span)

    def _timed_put(self, fn, *args) -> None:
        flushes = self._inner.memtable_flushes if self._has_flushes else 0
        span = self._rec.begin(self._ids["put"])
        try:
            fn(*args)
        finally:
            duration = self._rec.finish(span)
        if self._has_flushes and self._inner.memtable_flushes != flushes:
            self.bg_put_calls += 1
            self.bg_s += duration

    def put(self, key: bytes, value: bytes) -> None:
        self._timed_put(self._inner.put, key, value)

    def put_batch(self, items: list) -> None:
        self._timed_put(self._inner.put_batch, items)

    def get(self, key: bytes):
        return self._timed("get", self._inner.get, key)

    def get_batch(self, keys: list):
        return self._timed("get", self._inner.get_batch, keys)

    def scan(self, start_key: bytes, count: int):
        return self._timed("scan", self._inner.scan, start_key, count)

    def commit(self) -> None:
        self._timed("commit", self._inner.commit)

    def tick(self) -> None:
        self._timed("tick", self._inner.tick)


class RegionCounts:
    """What one LBA region saw while the recorder was on."""

    __slots__ = ("blocks_written", "blocks_read", "physical_bytes_written")

    def __init__(self) -> None:
        self.blocks_written = 0
        self.blocks_read = 0
        self.physical_bytes_written = 0


class TimingDevice:
    """A delegating block-device wrapper that records one span per I/O call.

    Every I/O is classified by LBA into the ``meta`` / ``wal`` / ``data``
    region (both engines lay the device out in that order, so two bounds
    taken from the engine config suffice), which attributes device time and
    bytes to the WAL, to pages/SSTables and to the meta page/manifest.
    Everything not intercepted (``stats``, ``ftl``, ``num_blocks``,
    ``physical_bytes_used`` ...) falls through to the wrapped device.
    """

    def __init__(self, inner: Any, wal_start: int, data_start: int) -> None:
        self.inner = inner
        self._wal_start = wal_start
        self._data_start = data_start
        self.recorder: Optional[SpanRecorder] = None
        self.regions = [RegionCounts() for _ in REGIONS]  # indexed like REGIONS
        self._write_ids: list[int] = []
        self._read_ids: list[int] = []
        self._trim_ids: list[int] = []
        self._flush_id = -1

    def __getattr__(self, name: str) -> Any:
        return getattr(self.inner, name)

    def attach(self, recorder: Optional[SpanRecorder]) -> None:
        """Start (or, with ``None``, stop) recording."""
        self.recorder = recorder
        if recorder is not None:
            for ids, op in (
                (self._write_ids, "write"), (self._read_ids, "read"), (self._trim_ids, "trim"),
            ):
                ids[:] = [recorder.name_id(f"csd.device.{r}.{op}") for r in REGIONS]
            self._flush_id = recorder.name_id("csd.device.flush")

    def _region(self, lba: int) -> int:
        return (lba >= self._wal_start) + (lba >= self._data_start)

    # The six I/O methods open their span inline on purpose: a span costs
    # ~1 us, a shared helper adds ~0.5 us per call, and that cost is the
    # tracing overhead the ledger reports.

    def write_block(self, lba: int, data: BytesLike) -> int:
        rec = self.recorder
        if rec is None:
            return self.inner.write_block(lba, data)
        region = self._region(lba)
        span = rec.begin(self._write_ids[region])
        try:
            physical = self.inner.write_block(lba, data)
        finally:
            rec.finish(span)
        counts = self.regions[region]
        counts.blocks_written += 1
        counts.physical_bytes_written += physical
        return physical

    def write_blocks(self, lba: int, data: BytesLike) -> int:
        rec = self.recorder
        if rec is None:
            return self.inner.write_blocks(lba, data)
        region = self._region(lba)
        span = rec.begin(self._write_ids[region])
        try:
            physical = self.inner.write_blocks(lba, data)
        finally:
            rec.finish(span)
        counts = self.regions[region]
        counts.blocks_written += len(data) // BLOCK_SIZE
        counts.physical_bytes_written += physical
        return physical

    def read_block(self, lba: int) -> bytes:
        rec = self.recorder
        if rec is None:
            return self.inner.read_block(lba)
        region = self._region(lba)
        span = rec.begin(self._read_ids[region])
        try:
            data = self.inner.read_block(lba)
        finally:
            rec.finish(span)
        self.regions[region].blocks_read += 1
        return data

    def read_blocks(self, lba: int, count: int) -> bytes:
        rec = self.recorder
        if rec is None:
            return self.inner.read_blocks(lba, count)
        region = self._region(lba)
        span = rec.begin(self._read_ids[region])
        try:
            data = self.inner.read_blocks(lba, count)
        finally:
            rec.finish(span)
        self.regions[region].blocks_read += count
        return data

    def trim(self, lba: int, count: int = 1) -> None:
        rec = self.recorder
        if rec is None:
            return self.inner.trim(lba, count)
        span = rec.begin(self._trim_ids[self._region(lba)])
        try:
            self.inner.trim(lba, count)
        finally:
            rec.finish(span)

    def flush(self) -> None:
        rec = self.recorder
        if rec is None:
            return self.inner.flush()
        span = rec.begin(self._flush_id)
        try:
            self.inner.flush()
        finally:
            rec.finish(span)


class TimingCompressor(Compressor):
    """Times every ``compressed_size`` call of the wrapped compressor."""

    def __init__(self, inner: Compressor) -> None:
        self.inner = inner
        self.recorder: Optional[SpanRecorder] = None
        self._span_id = -1
        self.calls = 0
        self.bytes_in = 0
        self.bytes_out = 0
        self._lookups_before = (0, 0)

    def attach(self, recorder: Optional[SpanRecorder]) -> None:
        self.recorder = recorder
        if recorder is not None:
            self._span_id = recorder.name_id("csd.compression.compressed_size")
            self._lookups_before = self._lookups()

    def _lookups(self) -> tuple[int, int]:
        """(hits, misses) of the wrapped size cache; zeros if it is not one."""
        return getattr(self.inner, "hits", 0), getattr(self.inner, "misses", 0)

    def cache_hit_rate(self) -> float:
        """Size-cache hit rate since recording started (0.0 once the cache
        has bypassed itself and stopped counting)."""
        hits, misses = (now - then for now, then in zip(self._lookups(), self._lookups_before))
        return hits / (hits + misses) if hits + misses else 0.0

    def compressed_size(self, block: BytesLike) -> int:
        rec = self.recorder
        if rec is None:
            return self.inner.compressed_size(block)
        span = rec.begin(self._span_id)
        try:
            size = self.inner.compressed_size(block)
        finally:
            rec.finish(span)
        self.calls += 1
        self.bytes_in += len(block)
        self.bytes_out += size
        return size
