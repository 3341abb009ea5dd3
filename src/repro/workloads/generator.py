"""Operation streams.

Each generator yields an endless stream of :class:`Op`; the runner draws as
many as the phase needs.  Streams are deterministic functions of the RNG they
are given, so per-client-thread streams come from labelled RNG splits and are
independent of each other and of consumption order.

Every stream checks its arguments when it is called, before the first op is
drawn, and sets up what its ops share (the value layout, bound RNG methods)
once; the per-op loop then only draws.  Which RNG calls a stream makes, and
in what order, is pinned across commits by ``tests/workloads/
test_stream_digests.py``.
"""

from __future__ import annotations

import enum
from typing import Iterable, Iterator, NamedTuple, Optional

from repro.errors import ConfigError
from repro.sim.rng import DeterministicRng
from repro.workloads.records import KEY_SIZE, KeySpace, value_layout


class OpKind(enum.Enum):
    """The three operation types of the paper's workloads."""

    PUT = "put"
    READ = "read"
    SCAN = "scan"


class Op(NamedTuple):
    """One operation: an immutable tuple."""

    kind: OpKind
    key: bytes
    value: Optional[bytes] = None
    scan_length: int = 0


def put_ops(
    keyspace: KeySpace, indexes: Iterable[int], rng: DeterministicRng
) -> Iterator[Op]:
    """One PUT per record index in ``indexes`` (each in ``[0, n_records)``),
    its value drawn from ``rng`` after the index: what
    ``record_value(rng, keyspace.record_size)`` would return."""
    random_half, zero_tail = value_layout(keyspace.record_size)
    bits = 8 * random_half
    getrandbits = rng.getrandbits
    put = OpKind.PUT
    for index in indexes:
        yield Op(
            put,
            index.to_bytes(KEY_SIZE, "big"),
            getrandbits(bits).to_bytes(random_half, "little") + zero_tail,
        )


def _uniform_indexes(n: int, rng: DeterministicRng) -> Iterator[int]:
    randrange = rng.randrange
    while True:
        yield randrange(n)


def random_write_ops(keyspace: KeySpace, rng: DeterministicRng) -> Iterator[Op]:
    """Uniform random updates over the populated key space (§4.1)."""
    return put_ops(keyspace, _uniform_indexes(keyspace.n_records, rng), rng)


def point_read_ops(keyspace: KeySpace, rng: DeterministicRng) -> Iterator[Op]:
    """Uniform random point lookups (Fig. 15)."""
    read = OpKind.READ
    for index in _uniform_indexes(keyspace.n_records, rng):
        yield Op(read, index.to_bytes(KEY_SIZE, "big"))


def range_scan_ops(
    keyspace: KeySpace, rng: DeterministicRng, scan_length: int = 100
) -> Iterator[Op]:
    """Random range scans of ``scan_length`` consecutive records (Fig. 16)."""
    if scan_length <= 0:
        raise ConfigError("scan length must be positive")
    return _scans(keyspace, rng, scan_length)


def _scans(keyspace: KeySpace, rng: DeterministicRng, scan_length: int) -> Iterator[Op]:
    scan = OpKind.SCAN
    starts = _uniform_indexes(max(1, keyspace.n_records - scan_length), rng)
    for start in starts:
        yield Op(scan, start.to_bytes(KEY_SIZE, "big"), None, scan_length)


def mixed_ops(
    keyspace: KeySpace,
    rng: DeterministicRng,
    write_fraction: float = 0.5,
    scan_fraction: float = 0.0,
    scan_length: int = 100,
) -> Iterator[Op]:
    """A read/write/scan mix (not used by the paper's figures, but handy for
    the examples and ablations)."""
    if not 0.0 <= write_fraction <= 1.0 or not 0.0 <= scan_fraction <= 1.0:
        raise ConfigError("fractions must lie in [0, 1]")
    if write_fraction + scan_fraction > 1.0:
        raise ConfigError("write and scan fractions exceed 1")
    return _mixed(
        rng,
        random_write_ops(keyspace, rng.split("w")),
        point_read_ops(keyspace, rng.split("r")),
        range_scan_ops(keyspace, rng.split("s"), scan_length),
        write_fraction,
        write_fraction + scan_fraction,
    )


def _mixed(
    rng: DeterministicRng,
    writes: Iterator[Op],
    reads: Iterator[Op],
    scans: Iterator[Op],
    write_below: float,
    scan_below: float,
) -> Iterator[Op]:
    random = rng.random
    while True:
        draw = random()
        if draw < write_below:
            yield next(writes)
        elif draw < scan_below:
            yield next(scans)
        else:
            yield next(reads)
