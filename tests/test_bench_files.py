"""The committed benchmark records (``BENCH_*.json``) cover the benchmark that ``BENCHMARK.json`` declares.

Each record holds, per workload and seed, the number of parent/change run
pairs and the median and quartiles of every end-to-end metric on both
sides, as ``perfbench/run.py`` printed them.
"""

import json
from pathlib import Path

import pytest

ROOT = Path(__file__).resolve().parent.parent
SPEC = json.loads((ROOT / "BENCHMARK.json").read_text())
RECORDS = sorted(ROOT.glob("BENCH_*.json"))


def test_a_benchmark_record_is_committed():
    assert RECORDS


@pytest.mark.parametrize("path", RECORDS, ids=lambda p: p.name)
def test_record_names_every_workload_and_end_to_end_metric(path):
    record = json.loads(path.read_text())
    metrics = {m["name"] for m in SPEC["end_to_end"]}
    for workload in SPEC["workloads"]:
        seeds = record["workloads"][workload["name"]]
        assert seeds, workload["name"]
        for seed, entry in seeds.items():
            assert int(seed) >= 0 and entry["pairs"] >= 1, (workload["name"], seed)
            for side in ("parent", "change"):
                assert metrics <= set(entry[side]), (workload["name"], seed, side)
                for name in metrics:
                    stats = entry[side][name]
                    assert stats["q1"] <= stats["median"] <= stats["q3"], (workload["name"], seed, side, name)
