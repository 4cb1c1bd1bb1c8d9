"""Self-check of the benchmark harness at minimal sizes, with no timing gate.

Run from the repository root:

    python -m pytest bench/test_bench.py -q

Every workload runs once untraced and once traced with ``--tiny``; the
tests parse the result line and check that every declared metric is there.
"""

import json
import random
import shutil
import subprocess
import sys
from pathlib import Path

import pytest

BENCH = Path(__file__).resolve().parent
ROOT = BENCH.parent
sys.path.insert(0, str(BENCH))

from run import declared_units  # noqa: E402
from tracer import layer_stats  # noqa: E402
from workloads import WORKLOADS  # noqa: E402

END_TO_END_UNITS = declared_units("end_to_end")
PER_LAYER = declared_units("per_layer")

#: A per-layer counter that must be nonzero when the workload's main layer runs.
MAIN_LAYER = {
    "tomo-chsh": "special.erf_complex.calls",
    "pseudospin-fock": "states.density_matrix.calls",
    "radon-oracle": "tomography.radon_forward.grid_evals",
    "homodyne-sample": "sampling.sample_rejection.proposals",
}


def bench(workload: str, trace: int, cwd: Path = ROOT) -> subprocess.CompletedProcess:
    return subprocess.run(
        [sys.executable, "bench/run.py", "--workload", workload, "--seed", "7",
         "--seconds", "1", "--trace", str(trace), "--tiny"],
        cwd=cwd, capture_output=True, text=True, timeout=170,
    )


def result_of(proc: subprocess.CompletedProcess) -> dict:
    assert proc.returncode == 0, proc.stderr
    result = json.loads(proc.stdout.strip().splitlines()[-1])
    assert set(result) == {"correct", "attempted", "failed", "metrics"}
    assert result["correct"] and result["failed"] == 0, proc.stderr
    return result


@pytest.mark.parametrize("workload", sorted(WORKLOADS))
def test_tiny_run_reports_end_to_end_metrics(workload):
    result = result_of(bench(workload, 0))
    assert result["attempted"] == len(WORKLOADS[workload](random.Random(0), True))
    assert {k: v["unit"] for k, v in result["metrics"].items()} == END_TO_END_UNITS
    assert all(v["value"] > 0 for v in result["metrics"].values())


def test_traced_tiny_runs_cover_every_layer_metric():
    nonzero = set()
    for workload in WORKLOADS:
        metrics = result_of(bench(workload, 1))["metrics"]
        assert {k: v["unit"] for k, v in metrics.items()} == PER_LAYER
        assert metrics[MAIN_LAYER[workload]]["value"] > 0
        nonzero |= {k for k, v in metrics.items() if v["value"] != 0}
    assert nonzero == set(PER_LAYER)


def test_benchmark_json_names_the_workloads():
    with open(ROOT / "BENCHMARK.json") as fh:
        spec = json.load(fh)
    assert [w["name"] for w in spec["workloads"]] == list(WORKLOADS)
    assert set(END_TO_END_UNITS) == {"wall_s", "setup_s", "peak_rss_mb"}


def test_refuses_to_run_without_the_program(tmp_path):
    shutil.copy(ROOT / "BENCHMARK.json", tmp_path)
    shutil.copytree(BENCH, tmp_path / "bench", ignore=shutil.ignore_patterns("__pycache__"))
    proc = bench("homodyne-sample", 0, cwd=tmp_path)
    assert proc.returncode != 0
    assert '"correct"' not in proc.stdout


def test_layer_stats_self_time_and_grid_evals():
    spans = [
        ["tomography.radon_forward", 0.0, 10.0, -1, 0, {"points": 4}],
        ["states.wigner", 1.0, 4.0, 0, 0, {"points": 100}],
        ["states.wigner", 5.0, 9.0, 0, 0, {"points": 400}],
        ["special.laguerre", 6.0, 7.0, 2, 0, {}],
    ]
    other_op = [["states.wigner", 0.0, 3.0, -1, 1, {"points": 100}]]
    stats = layer_stats([spans, other_op])
    radon, wigner = stats["tomography.radon_forward"], stats["states.wigner"]
    assert radon["calls"] == 1 and radon["self_s"] == pytest.approx(3.0)
    assert radon["grid_evals"] == 2 and radon["points"] == 4
    assert wigner["calls"] == 3 and wigner["points"] == 600
    assert wigner["self_s"] == pytest.approx(3.0 + 3.0 + 3.0)
