"""Tests of the benchmark itself: repeatability and the result contract.

Run from the repository root::

    python3 -m pytest perfbench/tests -q

The repeatability tests bring ``std160`` deployments up several times
and take about two minutes.
"""

from __future__ import annotations

import json
import shutil
import subprocess
import sys
from pathlib import Path

import pytest

HERE = Path(__file__).resolve().parents[1]
ROOT = HERE.parent
sys.path[:0] = [str(ROOT / "src"), str(HERE)]

import layers  # noqa: E402
import workloads  # noqa: E402

#: Per-layer counts that follow from the algorithm and the seed alone.
DETERMINISTIC_LAYER = ("sgx.crossings", "ec.msm.points", "pairing.pair.calls",
                       "ibbe.prepare.calls", "cloud.bytes_in",
                       "net.rpc.requests", "net.rpc.bytes_sent",
                       "net.rpc.bytes_received")
DETERMINISTIC_E2E = ("bytes_written_per_op", "meta_bytes_per_member")

SEED = 7


def _run(name: str, ops: int, scratch: Path, trace: bool):
    return workloads.run(workloads.SPECS[name], SEED, 0, ROOT, scratch,
                         trace=trace, ops=ops, setups=1)


@pytest.mark.parametrize("name, ops", [
    ("admin-churn", 6), ("member-refresh", 4), ("remote-mixed", 15)])
def test_fixed_seed_repeats_exactly(name, ops, tmp_path):
    plain = [_run(name, ops, tmp_path / f"plain{i}", False)
             for i in range(2)]
    traced = [_run(name, ops, tmp_path / f"traced{i}", True)
              for i in range(2)]
    for run in plain + traced:
        assert not run["window"].problems
        assert run["window"].failed == 0
    for metric in DETERMINISTIC_E2E:
        assert plain[0]["metrics"][metric] == plain[1]["metrics"][metric]
    for metric in DETERMINISTIC_LAYER:
        assert traced[0]["metrics"][metric] == traced[1]["metrics"][metric]
    # Tracing does not perturb what is stored.
    digests = {run["digest"] for run in plain + traced}
    assert len(digests) == 1


def test_worker_pool_stores_the_same_bytes(tmp_path):
    serial = _run("admin-churn", 6, tmp_path / "serial", False)
    pooled = _run("admin-churn-par", 6, tmp_path / "pooled", False)
    assert serial["digest"] == pooled["digest"]
    assert (serial["metrics"]["bytes_written_per_op"]
            == pooled["metrics"]["bytes_written_per_op"])


def test_in_process_window_has_no_wire_and_no_member_msm(tmp_path):
    metrics = _run("admin-churn", 6, tmp_path, True)["metrics"]
    assert metrics["net.rpc.requests"][0] == 0
    assert metrics["net.rpc.s"][0] == 0
    assert metrics["ibbe.prepare.calls"][0] == 0
    assert metrics["sgx.crossings"][0] > 0


def test_benchmark_json_matches_what_runs_report():
    spec = json.loads((ROOT / "BENCHMARK.json").read_text())
    assert ([w["name"] for w in spec["workloads"]]
            == [name for name, s in workloads.SPECS.items() if s.gated])
    assert ({m["name"]: m["unit"] for m in spec["end_to_end"]}
            == workloads.END_TO_END)
    reported = workloads.per_layer_metrics(layers.Recorder(), {}, {}, {},
                                           0.0, {})
    assert ({m["name"]: m["unit"] for m in spec["per_layer"]}
            == {name: unit for name, (_, unit, _) in reported.items()})


def test_percentile_interpolates():
    assert workloads.percentile([1.0, 2.0, 3.0, 4.0], 50) == 2.5
    assert workloads.percentile([5.0], 75) == 5.0


def test_without_sources_it_fails_without_a_result(tmp_path):
    shutil.copy(ROOT / "BENCHMARK.json", tmp_path)
    shutil.copytree(HERE, tmp_path / "perfbench",
                    ignore=shutil.ignore_patterns("__pycache__"))
    done = subprocess.run(
        [sys.executable, "perfbench/run.py", "--workload", "admin-churn",
         "--seed", "1", "--seconds", "1", "--trace", "0"],
        cwd=tmp_path, capture_output=True, text=True, timeout=60)
    assert done.returncode != 0
    assert "correct" not in done.stdout
