"""Per-block compressor models for the in-storage compression engine.

The ScaleFlux drive compresses each 4KB block independently with a hardware
zlib engine.  :class:`ZlibCompressor` reproduces that behaviour exactly with
Python's zlib.  :class:`ZeroRunEstimator` is a fast analytic stand-in that
estimates the compressed size without running a real compressor; it is useful
for very large sweeps where zlib would dominate run time.  Both report sizes
through the common :class:`Compressor` interface, so the device and its
accounting are independent of which model is plugged in.

A device sizes each write request through one batch call,
:meth:`Compressor.compressed_sizes`, which by default sizes the blocks one at
a time.  :class:`ZlibCompressor` overrides it to use a second core: zlib
releases the interpreter lock while it compresses, so a request of
:data:`TWO_THREAD_MIN_BLOCKS` or more blocks is split in two halves, one
sized on the calling thread and one on a long-lived worker thread that the
compressor owns.  The sizes and their order are those of the one-block loop.

All compressors accept any bytes-like object (``bytes``, ``bytearray``,
``memoryview``) so the device's zero-copy write path can hand them buffer
slices directly.
"""

from __future__ import annotations

import os
import queue
import threading
import weakref
import zlib
from abc import ABC, abstractmethod
from typing import Callable, List, Optional, Sequence, Tuple, Union

from repro.errors import ConfigError

#: Anything the device layer may hand a compressor: the write paths pass
#: ``bytes`` or zero-copy ``memoryview`` slices; tests may pass ``bytearray``.
BytesLike = Union[bytes, bytearray, memoryview]

#: Size of a compressed all-zero 4KB block, in bytes.  zlib reduces a 4KB zero
#: block to ~20 bytes; the drive additionally keeps a tiny mapping entry.  We
#: fold both into this constant.
ZERO_BLOCK_COST = 24

#: An all-zero block of the drive's block size — the length every write path
#: hands a compressor — for the all-zero test.
_ZEROS = bytes(4096)

#: zlib level of :class:`ZlibCompressor`.  The hardware engine's ratios are
#: close to software zlib at its default level, but level 1 is materially
#: faster in Python and nearly identical on the half-zero/half-random record
#: contents the paper's workloads use.
ZLIB_LEVEL = 1

#: Smallest request :class:`ZlibCompressor` sizes on two threads, so that
#: each thread gets at least two blocks.  Below it the hand-off to the worker
#: costs about as much as the half it saves (a 2-block request sizes no
#: faster split), so the B-trees' 2-block page flushes stay serial.
TWO_THREAD_MIN_BLOCKS = 4

#: One job for a sizing worker: the sizing function and the blocks to size.
_Job = Tuple[Callable[[BytesLike], int], Sequence[BytesLike]]

#: What a sizing worker hands back: the sizes, or what sizing raised.
_Result = Union[List[int], BaseException]


class Compressor(ABC):
    """Models the drive's per-4KB-block hardware compression engine."""

    @abstractmethod
    def compressed_size(self, block: BytesLike) -> int:
        """Return the physical size, in bytes, of ``block`` after compression.

        ``block`` may be any bytes-like object.  The result is what the drive
        writes to flash for this block (excluding FTL metadata, which the
        device accounts separately).
        """

    def compressed_sizes(self, blocks: Sequence[BytesLike]) -> List[int]:
        """:meth:`compressed_size` of each of one request's ``blocks``, in
        order — the device's one batch entry point.  Sized one at a time
        unless a subclass knows a faster way to get the same list."""
        size = self.compressed_size
        return [size(block) for block in blocks]

    def ratio(self, block: BytesLike) -> float:
        """Compression ratio (compressed/original) in the paper's (0, 1] sense."""
        if len(block) == 0:
            return 1.0
        return self.compressed_size(block) / len(block)


class ZlibCompressor(Compressor):
    """Real zlib compression at :data:`ZLIB_LEVEL`, the same algorithm as the
    ScaleFlux engine."""

    def __init__(self) -> None:
        self._worker: Optional[_SizingWorker] = None

    def compressed_size(self, block: BytesLike) -> int:
        if len(block) == 0:
            return 0
        data = block if isinstance(block, bytes) else bytes(block)
        # All-zero test: a compare stops at the first non-zero byte and
        # copies nothing (rstrip copied every block that does not end in 0).
        if data == (_ZEROS if len(data) == len(_ZEROS) else bytes(len(data))):
            return ZERO_BLOCK_COST
        return min(len(data), len(zlib.compress(data, ZLIB_LEVEL)))

    def compressed_sizes(self, blocks: Sequence[BytesLike]) -> List[int]:
        """Sizes a request of :data:`TWO_THREAD_MIN_BLOCKS` or more blocks
        on two threads: the calling thread sizes the first half while this
        compressor's worker sizes the second.  An exception raised on either
        side is raised here, after both halves have finished.  Like the
        device it serves, a compressor takes one calling thread at a time."""
        size = self.compressed_size
        if len(blocks) < TWO_THREAD_MIN_BLOCKS:
            return [size(block) for block in blocks]
        worker = self._worker
        if worker is None or worker.pid != os.getpid():
            # First split, or a forked child holding its parent's worker,
            # whose thread did not survive the fork: start one here.
            worker = self._worker = _SizingWorker(self)
        half = len(blocks) // 2
        worker.jobs.put((size, blocks[half:]))
        try:
            head = [size(block) for block in blocks[:half]]
        finally:
            # Always collect the worker's half, so no result is left queued
            # for the next request.
            tail = worker.results.get()
        if isinstance(tail, BaseException):
            raise tail
        return head + tail


class _SizingWorker:
    """The one sizing thread of a :class:`ZlibCompressor`.

    Started on the owner's first split request and stopped when the owner is
    garbage-collected.  Each job carries the sizing function it runs and the
    thread drops it when done, so an idle worker keeps neither its owner nor
    any request buffer alive.  ``pid`` is the process that started the
    thread: a child forked later inherits this object but not the thread.
    """

    def __init__(self, owner: ZlibCompressor) -> None:
        self.pid = os.getpid()
        self.jobs: queue.SimpleQueue[Optional[_Job]] = queue.SimpleQueue()
        self.results: queue.SimpleQueue[_Result] = queue.SimpleQueue()
        # A daemon thread: exiting the interpreter (or a forked pool worker)
        # never waits for it.
        threading.Thread(
            target=_serve, args=(self.jobs, self.results), name="zlib-sizing", daemon=True
        ).start()
        weakref.finalize(owner, self.jobs.put, None)


def _serve(jobs: queue.SimpleQueue[Optional[_Job]], results: queue.SimpleQueue[_Result]) -> None:
    """A sizing worker's loop: size each job's blocks until told to stop."""
    while True:
        job = jobs.get()
        if job is None:
            return
        size, blocks = job
        try:
            results.put([size(block) for block in blocks])
        except BaseException as exc:  # handed to the caller, which raises it
            results.put(exc)
        del job, size, blocks  # idle without a reference to the owner or its blocks


class ZeroRunEstimator(Compressor):
    """Analytic compressed-size model: zeros are free, other bytes cost ~1.

    Estimates ``header + incompressible_bytes * entropy_factor`` where
    ``entropy_factor`` models the residual compressibility of the non-zero
    payload (the paper's records are half random bytes, which zlib cannot
    shrink, so the default factor is 1.0).  This is an upper-bound-ish model
    that is ~50x faster than zlib and preserves the sparse-data property the
    three techniques exploit.
    """

    def __init__(self, entropy_factor: float = 1.0, header_cost: int = ZERO_BLOCK_COST) -> None:
        if not 0.0 < entropy_factor <= 1.0:
            raise ConfigError("entropy_factor must be in (0, 1]")
        if header_cost < 0:
            raise ConfigError("header_cost must be non-negative")
        self.entropy_factor = entropy_factor
        self.header_cost = header_cost

    def compressed_size(self, block: BytesLike) -> int:
        if len(block) == 0:
            return 0
        if not isinstance(block, (bytes, bytearray)):
            block = bytes(block)
        nonzero = len(block) - block.count(0)
        estimate = self.header_cost + int(nonzero * self.entropy_factor)
        return min(len(block), estimate)


class NullCompressor(Compressor):
    """No compression: models a conventional SSD without the zlib engine."""

    def compressed_size(self, block: BytesLike) -> int:
        return len(block)
