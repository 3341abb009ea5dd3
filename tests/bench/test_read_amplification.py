"""Read-amplification shape tests (the mechanics behind Figs. 15-16).

Verifies the per-operation read volumes the paper's speed arguments rest on:

* a warm B⁻ point read transfers ``l_pg + 4KB`` (page + delta block) but
  fetches barely more *physical* bytes than the baseline (trimmed slots and
  delta padding are free);
* the baseline B-tree (the ``wiredtiger`` configuration) transfers ``l_pg``;
* an LSM point read touches one 4KB data block, barely more: the bloom
  filters turn away every table but the one holding the key, up to their
  ~1% false positives;
* an LSM scan reads from every level (read amplification scans can't avoid).
"""

import pytest

from repro.bench.harness import ExperimentSpec, build_engine
from repro.csd.device import BLOCK_SIZE
from repro.sim.rng import DeterministicRng
from repro.workloads.runner import WorkloadRunner

N_RECORDS = 12_000
READS = 600


@pytest.fixture(scope="module")
def read_phase():
    """``read_phase(system, workload)`` -> ``(phase, engine)``, each built
    once per module: several tests read the same phase, and building one
    (populate + reads) dominates this module's time."""
    phases = {}

    def build(system, workload="read", scan_length=100):
        key = (system, workload)
        if key not in phases:
            spec = ExperimentSpec(system=system, n_records=N_RECORDS,
                                  record_size=128, steady_ops=READS)
            engine, device, clock = build_engine(spec)
            rng = DeterministicRng(1)
            runner = WorkloadRunner(engine, device, clock)
            runner.populate(spec.keyspace, rng.split("p"))
            if workload == "read":
                phase = runner.run_point_reads(spec.keyspace, READS, rng.split("r"))
            else:
                phase = runner.run_range_scans(spec.keyspace, READS // 10,
                                               rng.split("s"), scan_length)
            phases[key] = (phase, engine)
        return phases[key]

    return build


def test_bminus_point_read_transfers_page_plus_delta(read_phase):
    phase, engine = read_phase("bminus")
    per_read = phase.device.logical_bytes_read / READS
    # ~one leaf miss per read (cold cache), each a contiguous l_pg + 4KB
    # request; internal pages stay cached, occasional hits pull it under.
    assert 0.85 * (8192 + BLOCK_SIZE) <= per_read < 1.3 * (8192 + BLOCK_SIZE)


def test_baseline_point_read_transfers_one_page(read_phase):
    phase, engine = read_phase("wiredtiger")
    per_read = phase.device.logical_bytes_read / READS
    assert 0.85 * 8192 <= per_read < 1.3 * 8192


def test_bminus_physical_reads_near_baseline(read_phase):
    """The extra 4KB logical transfer costs almost nothing physically."""
    bm_phase, _ = read_phase("bminus")
    base_phase, _ = read_phase("wiredtiger")
    bm = bm_phase.device.physical_bytes_read / READS
    base = base_phase.device.physical_bytes_read / READS
    assert bm < 1.4 * base


def test_lsm_point_reads_touch_few_blocks(read_phase):
    phase, engine = read_phase("rocksdb")
    blocks_per_read = (phase.device.logical_bytes_read / BLOCK_SIZE) / READS
    # The block that holds the key, plus one per false positive: each get
    # asks a few tables' filters (~0.8% each at 10 bits/key) before the
    # one that holds the key, not one block per level.
    assert blocks_per_read < 1.05


def test_lsm_scans_read_from_every_level(read_phase):
    read_phase_result, engine = read_phase("rocksdb", workload="scan")
    n_scans = read_phase_result.scans
    blocks_per_scan = (
        read_phase_result.device.logical_bytes_read / BLOCK_SIZE / max(1, n_scans)
    )
    levels = sum(1 for level in engine.versions.levels if level)
    # A scan must consult >= 1 block per populated level (plus continuation).
    assert blocks_per_scan >= levels


def test_btree_scans_amortise_page_loads(read_phase):
    phase, engine = read_phase("wiredtiger", workload="scan")
    per_record = phase.device.logical_bytes_read / max(1, phase.records_scanned)
    # ~45 records of 128B per 8KB leaf: far less than a page per record.
    assert per_record < 8192 / 10
