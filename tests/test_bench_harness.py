"""Smoke test of the benchmark harness: every workload at its tiny sizes, no timing gate."""

import importlib
import importlib.util
import json
import math
import os
import subprocess
import sys
from pathlib import Path

import pytest

ROOT = Path(__file__).resolve().parents[1]
WORKLOADS = ["tomo-chsh", "pseudospin-fock", "radon-oracle", "homodyne-sample"]
THREADS = {name: "1" for name in ("OMP_NUM_THREADS", "OPENBLAS_NUM_THREADS", "MKL_NUM_THREADS")}


@pytest.mark.parametrize("workload", WORKLOADS)
def test_bench_tiny_run_has_no_failed_op(workload):
    proc = subprocess.run(
        [sys.executable, "bench/run.py", "--workload", workload, "--tiny", "--seed", "1",
         "--seconds", "0", "--trace", "0"],
        cwd=ROOT, env={**os.environ, **THREADS}, capture_output=True, text=True, timeout=170,
    )
    assert proc.returncode == 0, proc.stderr
    result = json.loads(proc.stdout.strip().splitlines()[-1])
    assert result["failed"] == 0, proc.stderr
    assert result["attempted"] > 0
    for name in ("wall_s", "setup_s", "peak_rss_mb"):
        value = result["metrics"][name]["value"]
        assert math.isfinite(value) and value > 0, (name, value)


def test_every_traced_name_exists():
    # a traced run looks each name up with getattr; untraced runs would not notice one gone
    spec = importlib.util.spec_from_file_location("bench_tracer", ROOT / "bench" / "tracer.py")
    tracer = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(tracer)
    missing = [f"{module}.{name}" for module, names in tracer.TARGETS.items()
               for name in names
               if not callable(getattr(importlib.import_module(f"tomobell.{module}"), name, None))]
    assert missing == []
