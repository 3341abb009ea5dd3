"""The five benchmark workloads: definitions, seeded op lists and the shadow model.

``--seed`` is the only source of randomness.  :func:`generate` turns a
workload and a seed into the populate list and the measured op list before
anything is timed; the engines only ever see the generated keys and values.
:class:`ShadowModel` is the plain-dict reference the timed results are
compared against after the phase.
"""

from __future__ import annotations

from bisect import bisect_left
from dataclasses import dataclass, replace
from itertools import islice

from repro.sim.rng import DeterministicRng
from repro.workloads.generator import OpKind, mixed_ops, random_write_ops
from repro.workloads.records import KeySpace, record_value
from repro.workloads.zipf import scattered_zipfian_write_ops

#: Op tuples are ``(kind, ...)``: ``(PUT, key, value)``, ``(GET, key)``,
#: ``(SCAN, start_key, count)``, ``(PUT_BATCH, [(key, value), ...])`` and
#: ``(GET_BATCH, [key, ...])``.
PUT, GET, SCAN, PUT_BATCH, GET_BATCH = range(5)

RECORD_SIZE = 128  # the paper's small-record point
SCAN_LENGTH = 100
BATCH_SIZE = 64
ZIPF_THETA = 0.99

#: Result slot of a read op that raised (keeps results aligned with ops).
FAILED = object()


@dataclass(frozen=True)
class Workload:
    """One benchmark workload.  ``n_records`` are populated during set-up;
    ``n_ops`` counts a 64-key batch as 64 and a scan as 1; ``cache_fraction``
    is cache bytes over dataset bytes before the harness's 64 KB (8-page)
    floor."""

    name: str
    why: str
    system: str
    mix: str  # update | insert | read | hot_batch
    n_records: int
    n_ops: int
    cache_fraction: float

    @property
    def final_records(self) -> int:
        """Records the store holds when the measured phase ends."""
        return self.n_records + (self.n_ops if self.mix == "insert" else 0)

    def scaled(self, size: float, duration: float = 1.0) -> "Workload":
        """Records and ops scaled together by ``size`` (``--smoke``; ratios
        unchanged), ops again by ``duration`` (``--seconds``)."""
        return replace(
            self,
            n_records=max(500, int(self.n_records * size)),
            n_ops=max(4 * BATCH_SIZE, int(self.n_ops * size * duration)),
        )


PAPER_CACHE_FRACTION = 1.0 / 150.0  # 1 GB cache : 150 GB dataset

WORKLOADS = (
    Workload(
        "bminus_update",
        "larger-than-cache uniform puts: page eviction, delta flush, sparse WAL and zlib do the work",
        "bminus", "update", 10_000, 40_000, PAPER_CACHE_FRACTION,
    ),
    Workload(
        "lsm_insert",
        "uniform inserts of new keys: memtable, flush, leveled compaction through L3, bloom build, zlib",
        "rocksdb", "insert", 5_000, 65_000, PAPER_CACHE_FRACTION,
    ),
    Workload(
        "bminus_read",
        "95% get / 5% scan on a dataset far larger than the cache: page load plus delta-block read",
        "bminus", "read", 10_000, 100_000, PAPER_CACHE_FRACTION,
    ),
    Workload(
        "lsm_read",
        "same 95/5 read mix on the LSM: bloom probes, SSTable lookups and the merge iterator, no writes",
        "rocksdb", "read", 10_000, 160_000, PAPER_CACHE_FRACTION,
    ),
    Workload(
        "bminus_hot_batch",
        "fits-in-cache Zipf 64-key put_batch/get_batch: tree descent, node edit, WAL framing; device idle",
        "bminus", "hot_batch", 5_000, 420_000, 4.0,
    ),
)

BY_NAME = {w.name: w for w in WORKLOADS}


@dataclass
class OpList:
    """Everything one run feeds an engine, fixed before timing starts."""

    populate: list  # (key, value) pairs in random order, every key once
    ops: list  # measured-phase op tuples

    def weight(self) -> int:
        return sum(op_weight(op) for op in self.ops)


def op_weight(op: tuple) -> int:
    """Operations an op tuple counts for (a batch counts its keys)."""
    return len(op[1]) if op[0] in (PUT_BATCH, GET_BATCH) else 1


def generate(workload: Workload, seed: int) -> OpList:
    keyspace = KeySpace(workload.final_records, RECORD_SIZE)
    rng = DeterministicRng(seed).split(workload.name)
    order = list(range(keyspace.n_records))
    populate_rng = rng.split("populate")
    populate_rng.shuffle(order)
    records = [
        (keyspace.key(i), record_value(populate_rng, RECORD_SIZE)) for i in order
    ]
    if workload.mix == "insert":
        # Populate and inserts share one shuffled key space: every key is
        # written exactly once, in uniformly random order.
        populate, inserts = records[: workload.n_records], records[workload.n_records :]
        return OpList(populate, [(PUT, key, value) for key, value in inserts])
    make_ops = {"update": _update_ops, "read": _read_ops, "hot_batch": _hot_batch_ops}
    return OpList(records, make_ops[workload.mix](keyspace, workload.n_ops, rng))


def _update_ops(keyspace: KeySpace, n_ops: int, rng: DeterministicRng) -> list:
    stream = random_write_ops(keyspace, rng.split("puts"))
    return [(PUT, op.key, op.value) for op in islice(stream, n_ops)]


def _read_ops(keyspace: KeySpace, n_ops: int, rng: DeterministicRng) -> list:
    stream = mixed_ops(
        keyspace, rng.split("reads"), write_fraction=0.0,
        scan_fraction=0.05, scan_length=SCAN_LENGTH,
    )
    return [
        (SCAN, op.key, op.scan_length) if op.kind is OpKind.SCAN else (GET, op.key)
        for op in islice(stream, n_ops)
    ]


def _hot_batch_ops(keyspace: KeySpace, n_ops: int, rng: DeterministicRng) -> list:
    """Alternating 64-key put_batch / get_batch calls, scattered-Zipf keys."""
    writes = scattered_zipfian_write_ops(keyspace, rng.split("puts"), ZIPF_THETA)
    reads = scattered_zipfian_write_ops(keyspace, rng.split("gets"), ZIPF_THETA)
    ops: list = []
    for batch in range(n_ops // BATCH_SIZE):
        if batch % 2 == 0:
            ops.append((PUT_BATCH, [(op.key, op.value) for op in islice(writes, BATCH_SIZE)]))
        else:
            ops.append((GET_BATCH, [op.key for op in islice(reads, BATCH_SIZE)]))
    return ops


class ShadowModel:
    """The latest value of every key, kept in a plain dict."""

    def __init__(self, populate: list) -> None:
        self.data = dict(populate)
        self.keys = sorted(self.data)

    def replay(self, ops: list, results: list) -> int:
        """Apply ``ops`` in order and count read results that differ.

        ``results`` holds one entry per read op (get, scan, get_batch), in
        op order.  Only the insert workload adds keys, and it has no scans,
        so scans are checked against the key list sorted beforehand.
        """
        data = self.data
        mismatches = 0
        outputs = iter(results)
        for op in ops:
            kind = op[0]
            if kind == PUT:
                data[op[1]] = op[2]
            elif kind == PUT_BATCH:
                data.update(op[1])
            elif kind == GET:
                mismatches += next(outputs) != data[op[1]]
            elif kind == GET_BATCH:
                mismatches += next(outputs) != [data[key] for key in op[1]]
            else:
                mismatches += next(outputs) != self.scan(op[1], op[2])
        if len(data) != len(self.keys):
            self.keys = sorted(data)
        return mismatches

    def scan(self, start_key: bytes, count: int) -> list:
        first = bisect_left(self.keys, start_key)
        return [(key, self.data[key]) for key in self.keys[first : first + count]]
