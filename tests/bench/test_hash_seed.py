"""A seeded run does not depend on the interpreter's hash seed.

``str``/``bytes`` hashing is salted per process by ``PYTHONHASHSEED``, so
an engine path that iterates a ``set`` (or anything else hash-ordered) of
keys into its output makes the same spec write different bytes in
different processes.  The same small specs run in two processes with
different hash seeds must report the same WA and device byte counts.
"""

import json
import os
import subprocess
import sys
from pathlib import Path

_RUN_SPECS = """
import dataclasses
import json
import sys

from repro.bench.harness import ExperimentSpec, run_experiment

SPECS = [
    ExperimentSpec(system="bminus", n_records=3000),
    ExperimentSpec(system="rocksdb", n_records=3000),
    # 300-byte records, so every value is large enough for the value log.
    ExperimentSpec(system="rocksdb", n_records=3000, record_size=300,
                   compaction_strategy="tiered", value_separation_threshold=256),
]
runs = []
for spec in SPECS:
    result = run_experiment(spec)
    runs.append({
        "spec": spec.label(),
        "wa": dataclasses.asdict(result.wa),
        "logical_bytes_written": result.device.stats.logical_bytes_written,
        "physical_bytes_written": result.device.stats.physical_bytes_written,
    })
json.dump({"hash": hash(b"repro"), "runs": runs}, sys.stdout)
"""


def test_results_do_not_depend_on_the_hash_seed():
    src = str(Path(__file__).resolve().parents[2] / "src")
    path = os.pathsep.join(filter(None, [src, os.environ.get("PYTHONPATH")]))
    procs = [
        subprocess.Popen(
            [sys.executable, "-c", _RUN_SPECS],
            stdout=subprocess.PIPE, stderr=subprocess.PIPE, text=True,
            env=dict(os.environ, PYTHONPATH=path, PYTHONHASHSEED=seed),
        )
        for seed in ("0", "1")
    ]
    reports = []
    for proc in procs:
        out, err = proc.communicate(timeout=300)
        assert proc.returncode == 0, err
        reports.append(json.loads(out))
    first, second = reports
    assert first["hash"] != second["hash"]  # the seeds really differ
    assert first["runs"] == second["runs"]
