"""Op streams pinned by digest, so a stream that changes shows across commits.

The determinism tests elsewhere only compare two runs of one tree.  These
digests were recorded once and every later tree must reproduce them: a
SHA-256 over the first 5,000 ops of each stream (kind, key, value,
scan_length), for two seeds and three record sizes.  At record size 9 the
random half of a value is 0 bytes long and draws nothing from the RNG.

The ``wide`` cases run both Zipf streams over 2**52 keys with ``theta=0.5``.
There a one-ulp change in the per-draw Zipf expression moves the rank, so
a reordering of its operands shows.  The Zipf constants for that key space
come out the same whether ``sum`` adds floats plainly (Python < 3.12) or
with compensation (3.12+), so the recorded digests hold on both.

Print the table for the tree on ``PYTHONPATH`` with
``PYTHONPATH=src python tests/workloads/test_stream_digests.py``.
"""

from __future__ import annotations

import hashlib
from itertools import islice

import pytest

from repro.csd.stats import DeviceStats
from repro.metrics.counters import TrafficSnapshot
from repro.sim.clock import SimClock
from repro.sim.rng import DeterministicRng
from repro.workloads.generator import (
    mixed_ops,
    point_read_ops,
    random_write_ops,
    range_scan_ops,
)
from repro.workloads.records import KeySpace
from repro.workloads.runner import WorkloadRunner
from repro.workloads.zipf import scattered_zipfian_write_ops, zipfian_write_ops

N_OPS = 5_000
N_RECORDS = 12_345  # past the Zipf zeta cutoff, so its tail term is used too
WIDE_RECORDS = 2**52

STREAMS = {
    "random_write": random_write_ops,
    "point_read": point_read_ops,
    "range_scan": lambda ks, rng: range_scan_ops(ks, rng, scan_length=100),
    "mixed": lambda ks, rng: mixed_ops(ks, rng, write_fraction=0.5, scan_fraction=0.2),
    "zipfian_write": zipfian_write_ops,
    "scattered_zipfian_write": scattered_zipfian_write_ops,
    "wide_zipfian_write": lambda ks, rng: zipfian_write_ops(ks, rng, theta=0.5),
    "wide_scattered_zipfian_write": lambda ks, rng: scattered_zipfian_write_ops(
        ks, rng, theta=0.5
    ),
}

CASES = [
    (stream, seed, size)
    for stream in STREAMS
    for seed in (2022, 7)
    for size in (128, 16, 9)
]


def stream_digest(stream: str, seed: int, record_size: int) -> str:
    n_records = WIDE_RECORDS if stream.startswith("wide") else N_RECORDS
    ops = STREAMS[stream](KeySpace(n_records, record_size), DeterministicRng(seed))
    digest = hashlib.sha256()
    for op in islice(ops, N_OPS):
        digest.update(repr((op.kind.value, op.key, op.value, op.scan_length)).encode())
    return digest.hexdigest()


class _PutRecorder:
    """Engine and device stand-in for :class:`WorkloadRunner`: hashes every
    put in the order the runner issues it."""

    def __init__(self) -> None:
        self.digest = hashlib.sha256()
        self.stats = DeviceStats()

    def put(self, key: bytes, value: bytes) -> None:
        self.digest.update(repr((key, value)).encode())

    def commit(self) -> None:
        pass

    def tick(self) -> None:
        pass

    def traffic_snapshot(self) -> TrafficSnapshot:
        return TrafficSnapshot()


def populate_digest(seed: int) -> str:
    recorder = _PutRecorder()
    runner = WorkloadRunner(recorder, recorder, SimClock(), n_threads=3)
    runner.populate(KeySpace(3_000, 64), DeterministicRng(seed))
    return recorder.digest.hexdigest()


STREAM_DIGESTS = {
    ('random_write', 2022, 128): 'e0981d182e9d1f4602d918da98fe5ef59166e72b517a4ce95fc1343baca476f5',
    ('random_write', 2022, 16): '141bc1526baa4952ade2298626960a501245fd58588c19d97a979031c25921f4',
    ('random_write', 2022, 9): '89af83584fad4488990ae145a0c6f7a6d08e10f92a7b1f8bba62a90097f50d36',
    ('random_write', 7, 128): '6b0ee5bc6a59e090e46bd4fd40ff0d5458c4051cefc182ae35b00fd2b7315575',
    ('random_write', 7, 16): '87f70a55e6260b72eb854054ddf3ceaae1cb957905d616d822f56770770fc2ec',
    ('random_write', 7, 9): '7258e7c4003828ff01cf76452f88df9ae8c2bcd0705d23b90aadb8f88abbb9ff',
    ('point_read', 2022, 128): '4da81ffe0a52d4e4b8447e8f35a892b17ff74df7d5e7276129ccfe94b8f33af3',
    ('point_read', 2022, 16): '4da81ffe0a52d4e4b8447e8f35a892b17ff74df7d5e7276129ccfe94b8f33af3',
    ('point_read', 2022, 9): '4da81ffe0a52d4e4b8447e8f35a892b17ff74df7d5e7276129ccfe94b8f33af3',
    ('point_read', 7, 128): '4e853bf8f86025bb7c6e50a476f83185b8a0b6baad702722b5b7730e8a842888',
    ('point_read', 7, 16): '4e853bf8f86025bb7c6e50a476f83185b8a0b6baad702722b5b7730e8a842888',
    ('point_read', 7, 9): '4e853bf8f86025bb7c6e50a476f83185b8a0b6baad702722b5b7730e8a842888',
    ('range_scan', 2022, 128): '222bf00dde10542609477b1f4fdf4f55411fcfbd7b1fac627fa47c1bd5d9f7e8',
    ('range_scan', 2022, 16): '222bf00dde10542609477b1f4fdf4f55411fcfbd7b1fac627fa47c1bd5d9f7e8',
    ('range_scan', 2022, 9): '222bf00dde10542609477b1f4fdf4f55411fcfbd7b1fac627fa47c1bd5d9f7e8',
    ('range_scan', 7, 128): '206ce0fc6097e282c4aba32c3600eba94d24830bbf33c573e592adb5b4d53603',
    ('range_scan', 7, 16): '206ce0fc6097e282c4aba32c3600eba94d24830bbf33c573e592adb5b4d53603',
    ('range_scan', 7, 9): '206ce0fc6097e282c4aba32c3600eba94d24830bbf33c573e592adb5b4d53603',
    ('mixed', 2022, 128): '2102b51e63361de034c21c05a5093b6dfb2478b2ca846a9c3663d66f05901636',
    ('mixed', 2022, 16): 'd0ec51b964efb3b3bf409e3ad72017d408ed79ad12e3dfac2e5b96b1ad03546b',
    ('mixed', 2022, 9): '386798b9649879a0cf7e48aeeb4b45dd1a3d601937d5f77af24d14c8cf4fcf5a',
    ('mixed', 7, 128): '5521b207c3d7571b5abc8cc75378c107652a3a6bc0875160a3ba30454443521f',
    ('mixed', 7, 16): '79e8e6e60af362bcd2e788c1129d0df09a28fee8087b56e6729fe468f4ce837f',
    ('mixed', 7, 9): 'bacd472cbb38aae8e533890700b3dcd30f691b3ac8476b1d752efbf409ec3de4',
    ('zipfian_write', 2022, 128): '84afbb486cb3f3047a9662dbdb30c40a90c6358684c598ba2bc3a921582b9569',
    ('zipfian_write', 2022, 16): '44f64b6970e780f54a262ca420b012a73b4a4a62d06525b49d69fff5a9283672',
    ('zipfian_write', 2022, 9): '3e78fbc75a3cfc33895b1deb2cbba44fb52f3ba5d216b2b1f528eadb9cc643ff',
    ('zipfian_write', 7, 128): 'd3618fe50e0a1fb55299e9e72fa5f0b74fd5c23ba5c885953ffc485b7974701d',
    ('zipfian_write', 7, 16): 'bd5dd2920965afc9234dd642bff5cab0d5ab96d012c4108689aebb8d18e6fa3a',
    ('zipfian_write', 7, 9): '6c4bf1a3c79c50f13594e89ea9c473f9faf17c99d930e6ff779c424f3bdb7e54',
    ('scattered_zipfian_write', 2022, 128): '2e732eeee93c011200269820ddf55b3c81552c02e522ec47a376becde1eea4bc',
    ('scattered_zipfian_write', 2022, 16): 'b9117ceb8a9969113ef1c07021d040350472f819806b8a886fd6799ca02185fb',
    ('scattered_zipfian_write', 2022, 9): '182eeb454157ac1de4f1aa81450e811d33a17998408b4ca7e75408b8e1be2517',
    ('scattered_zipfian_write', 7, 128): '7c4a7302591480155272186f810461e614a5714896467471c313c03b6666b527',
    ('scattered_zipfian_write', 7, 16): '557bbb8d077575d416e5dd656eccf603bd8cb3c34566c36a5884c07c82e2176d',
    ('scattered_zipfian_write', 7, 9): 'f7a4103d8b93c74ebc9cd7bba309b839b2f3d184764ead921581a19dc4d82cc4',
    ('wide_zipfian_write', 2022, 128): '34a72ffb01557070dceb2bebce948a5f7ecd92623a1b46b49055fd0f9e9b12e5',
    ('wide_zipfian_write', 2022, 16): '39c271b16af04a3f511f38519236c4ff5536b0630612b366a7a60b7bc2428197',
    ('wide_zipfian_write', 2022, 9): 'ecd6641f20308f74aa2090b494cc54748b5f0d09b6cbb2d98fbfc0db20b919d2',
    ('wide_zipfian_write', 7, 128): 'dbde6dbe4e049746098d9392c6a4f24d8e51d721bac745ba6d5f6c16f166ef22',
    ('wide_zipfian_write', 7, 16): '3dcdfe39a7ea39340e048ed3744b36b441030389c30fc4776af376688630a9e6',
    ('wide_zipfian_write', 7, 9): '3ba75b81c52dca2bd12c1431fcfdf6dcdbb34699149879eb1d3260c37d0d71a7',
    ('wide_scattered_zipfian_write', 2022, 128): '983064783cb3041f1696835e22f868513dd397723f95ab5ad4d1113b57ed7548',
    ('wide_scattered_zipfian_write', 2022, 16): 'cf24af5af98a1d144b8d5dcd4577abeba371ead2f826ba6c17953f58635dd3c8',
    ('wide_scattered_zipfian_write', 2022, 9): '0626b7758c70a7fe1f35af238cf234c5ec3341e05cbc7f39126c1f92558a20dc',
    ('wide_scattered_zipfian_write', 7, 128): '34d8652afd33711bcd3049b31e5e1c0eb4c04083c14469c8f741136ffd3d4437',
    ('wide_scattered_zipfian_write', 7, 16): '09f29e8a70c4da0f5e989a2c600e10c18c99cc86d8fec9e5f69f2551eb0604e9',
    ('wide_scattered_zipfian_write', 7, 9): 'f48bbc7429b6cc83b08b75ddfdd280f3a1c59d1ff0eadc607a42e7d04ed03b97',
}

POPULATE_DIGESTS = {
    2022: '9b39a64695b60cabe9c2709be879875063ac2242e75e369e281f5dc2cbb75992',
    7: 'b0f856ee751f7316fd8ebb8fefbb5ec5128b8bafd1b67646877dc4a6bf334ba8',
}


@pytest.mark.parametrize("stream,seed,record_size", CASES)
def test_stream_matches_recorded_digest(stream, seed, record_size):
    assert stream_digest(stream, seed, record_size) == STREAM_DIGESTS[
        (stream, seed, record_size)
    ]


@pytest.mark.parametrize("seed", sorted(POPULATE_DIGESTS))
def test_populate_order_matches_recorded_digest(seed):
    assert populate_digest(seed) == POPULATE_DIGESTS[seed]


if __name__ == "__main__":
    print("STREAM_DIGESTS = {")
    for case in CASES:
        print(f"    {case!r}: {stream_digest(*case)!r},")
    print("}\n\nPOPULATE_DIGESTS = {")
    for seed in (2022, 7):
        print(f"    {seed}: {populate_digest(seed)!r},")
    print("}")
