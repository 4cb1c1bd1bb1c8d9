"""tomobell benchmark: seeded CLI workloads, end-to-end and per-layer metrics.

Usage (from the repository root):

    python3 bench/run.py --workload tomo-chsh --seed 1 --seconds 30 --trace 0

Load model: a closed loop with one client.  Each op is one ``tomobell``
command run in its own fresh Python process, one at a time, as a CLI user
runs it.  A pass runs every op of the workload once and checks every
output; passes repeat while another one fits in ``--seconds`` (at least one
pass, two when traced).  Children get one BLAS/OpenMP thread each.

With ``--trace 0`` the last stdout line reports the end-to-end metrics:

* ``wall_s``: median over passes of the summed command times (CLI group
  call to return, import excluded);
* ``setup_s``: median over all ops of process spawn to ``tomobell.cli``
  imported;
* ``peak_rss_mb``: max over all ops of the child's ``ru_maxrss``.

The failure ratio (failed ops / attempted ops) is printed on the summary
line and carried by the ``failed`` and ``attempted`` fields.

With ``--trace 1`` passes alternate untraced and traced; the traced ones
record spans around tomobell's public functions (see ``tracer.py``) and
the last line reports the per-layer metrics that BENCHMARK.json declares.
"""

from __future__ import annotations

import argparse
import hashlib
import json
import os
import platform
import random
import re
import shutil
import statistics
import subprocess
import sys
import time
from importlib import metadata
from pathlib import Path

import workloads
from tracer import layer_stats

BENCH = Path(__file__).resolve().parent
ROOT = BENCH.parent
SRC = ROOT / "src"
WORK = ROOT / ".bench_work"

THREAD_ENV = {name: "1" for name in (
    "OMP_NUM_THREADS", "OPENBLAS_NUM_THREADS", "MKL_NUM_THREADS",
    "NUMEXPR_NUM_THREADS", "VECLIB_MAXIMUM_THREADS")}

#: A run stops starting ops past this many seconds, so it ends well inside 180 s.
RUN_LIMIT_S = 165.0


def declared_units(kind: str) -> dict[str, str]:
    """Metric name -> unit of BENCHMARK.json's ``kind`` list, in its order."""
    with open(ROOT / "BENCHMARK.json") as fh:
        return {m["name"]: m["unit"] for m in json.load(fh)[kind]}


_IMPORTTIME = re.compile(r"^import time:\s*\d+\s*\|\s*(\d+)\s*\|\s*(\S+)\s*$")


def clock() -> float:
    return time.clock_gettime(time.CLOCK_MONOTONIC)


def run_op(op: workloads.Op, index: int, pass_dir: Path, trace: bool, deadline: float) -> dict:
    """Run one op in a fresh process, check its outputs, return its record."""
    spec_path = pass_dir / f"op{index}.spec.json"
    result_path = pass_dir / f"op{index}.result.json"
    with open(spec_path, "w") as fh:
        json.dump({"argv": op.argv, "trace": trace, "op": index,
                   "result": str(result_path)}, fh)
    env = {**os.environ, **THREAD_ENV,
           "PYTHONPATH": os.pathsep.join(filter(None, [str(SRC), os.environ.get("PYTHONPATH")]))}
    cmd = [sys.executable, *(["-X", "importtime"] if trace else []),
           str(BENCH / "child.py"), str(spec_path)]
    record = {"argv": op.argv, "traced": trace, "ok": False, "error": None}
    with open(pass_dir / f"op{index}.stdout", "w") as out, \
            open(pass_dir / f"op{index}.stderr", "w+") as err:
        spawn = clock()
        proc = subprocess.Popen(cmd, cwd=pass_dir, env=env, stdout=out, stderr=err)
        try:
            proc.wait(timeout=max(1.0, deadline - clock()))
        except subprocess.TimeoutExpired:
            record["error"] = "timed out"
        finally:
            if proc.poll() is None:
                proc.kill()
            proc.wait()
        err.seek(0)
        stderr = err.read()
    if record["error"] is None and not result_path.exists():
        record["error"] = f"process exited {proc.returncode} without a result"
    if record["error"] is not None:
        record["stderr_tail"] = stderr[-2000:]
        return record

    with open(result_path) as fh:
        result = json.load(fh)
    record.update(exit_code=result["exit_code"], wall_s=result["wall_s"],
                  setup_s=result["ready"] - spawn, maxrss_kb=result["maxrss_kb"],
                  cpu_s=result["cpu_s"], spans=result["spans"])
    if Path(result["module"]).resolve().parent != SRC / "tomobell":
        record["error"] = f"imported tomobell from {result['module']}, not from {SRC}"
    elif result["exit_code"] != 0:
        record["error"] = f"exit code {result['exit_code']}"
    else:
        try:
            op.check(pass_dir)
        except (workloads.CheckFailed, OSError, KeyError, ValueError) as exc:
            record["error"] = f"check failed: {exc}"
    if trace:
        record["imports"] = parse_importtime(stderr)
    if record["error"] is not None:
        record["stderr_tail"] = stderr[-2000:]
    record["ok"] = record["error"] is None
    return record


def parse_importtime(stderr: str) -> dict[str, float]:
    """Cumulative seconds of `import tomobell.cli` and of `scipy.optimize`."""
    found = {}
    for line in stderr.splitlines():
        m = _IMPORTTIME.match(line)
        if m and m.group(2) in ("tomobell.cli", "scipy.optimize"):
            found.setdefault(m.group(2), int(m.group(1)) * 1e-6)
    return found


def run_passes(ops, seconds: float, trace: bool, run_dir: Path, started: float) -> list[list[dict]]:
    """Repeat the workload's ops while another pass fits in ``seconds``."""
    passes = []
    deadline = started + RUN_LIMIT_S
    while True:
        traced = trace and len(passes) % 2 == 1
        pass_dir = run_dir / f"pass{len(passes)}"
        pass_dir.mkdir()
        t0 = clock()
        records = []
        for i, op in enumerate(ops):
            records.append(run_op(op, i, pass_dir, traced, deadline))
            if records[-1]["error"] == "timed out":
                break
        passes.append(records)
        shutil.rmtree(pass_dir)
        took = clock() - t0
        if len(records) < len(ops) or clock() + took > deadline:
            break
        if (trace and len(passes) < 2) or clock() + took <= started + seconds:
            continue
        break
    return passes


def end_to_end(passes) -> dict[str, float]:
    ops = [rec for records in passes for rec in records if "wall_s" in rec]
    return {
        "wall_s": statistics.median(sum(rec.get("wall_s", 0.0) for rec in records)
                                    for records in passes),
        "setup_s": statistics.median(rec["setup_s"] for rec in ops),
        "peak_rss_mb": max(rec["maxrss_kb"] for rec in ops) / 1024.0,
    }


def per_layer(passes, names) -> dict[str, float]:
    traced = [p for p in passes if p and p[0]["traced"]]
    plain = [p for p in passes if p and not p[0]["traced"]]
    samples = []
    for records in traced:
        stats = layer_stats(rec["spans"] for rec in records if rec.get("spans"))
        values = {}
        for name in names:
            layer, _, field = name.rpartition(".")
            if layer in stats:
                values[name] = stats[layer].get(field, 0.0)
        rej = stats.get("sampling.sample_rejection", {})
        proposals = rej.get("proposals", 0.0)
        values["sampling.acceptance_rate"] = rej.get("accepted", 0.0) / proposals if proposals else 0.0
        for key, metric in (("tomobell.cli", "import.tomobell_s"),
                            ("scipy.optimize", "import.scipy_optimize_s")):
            found = [rec["imports"][key] for rec in records if key in rec.get("imports", {})]
            values[metric] = statistics.median(found) if found else 0.0
        samples.append(values)
    metrics = {name: statistics.median(s.get(name, 0.0) for s in samples) for name in names}
    metrics["process.cpu_s"] = statistics.median(
        sum(rec.get("cpu_s", 0.0) for rec in records) for records in plain)
    metrics["trace.overhead_s"] = (
        end_to_end(traced)["wall_s"] - end_to_end(plain)["wall_s"])
    return metrics


def environment(seed: int, workload: str, ops) -> dict:
    def version(dist):
        try:
            return metadata.version(dist)
        except metadata.PackageNotFoundError:
            return None

    git_sha = None
    if (ROOT / ".git").exists() and shutil.which("git"):
        proc = subprocess.run(["git", "-C", str(ROOT), "rev-parse", "HEAD"],
                              capture_output=True, text=True)
        git_sha = proc.stdout.strip() or None
    digest = hashlib.sha256()
    for path in sorted((SRC / "tomobell").glob("*.py")):
        digest.update(path.name.encode() + b"\0" + path.read_bytes())
    return {
        "git_sha": git_sha,
        "src_sha256": digest.hexdigest(),
        "python": platform.python_version(),
        "numpy": version("numpy"), "scipy": version("scipy"), "click": version("click"),
        "nproc": len(os.sched_getaffinity(0)),
        "threads": THREAD_ENV,
        "seed": seed,
        "workload": workload,
        "flags": [op.argv for op in ops],
    }


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload", required=True, choices=sorted(workloads.WORKLOADS))
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--tiny", action="store_true",
                        help="minimal op sizes, for the harness self-check")
    args = parser.parse_args(argv)

    if not (SRC / "tomobell" / "cli.py").is_file():
        print(f"error: no tomobell sources at {SRC}", file=sys.stderr)
        return 2
    started = clock()
    os.environ.update(THREAD_ENV)
    rng = random.Random(f"{args.workload}:{args.seed}")
    ops = workloads.WORKLOADS[args.workload](rng, args.tiny)
    env = environment(args.seed, args.workload, ops)
    print("environment", json.dumps(env, sort_keys=True))

    WORK.mkdir(exist_ok=True)
    run_dir = WORK / f"run-{os.getpid()}"
    run_dir.mkdir()
    try:
        passes = run_passes(ops, args.seconds, bool(args.trace), run_dir, started)
    finally:
        shutil.rmtree(run_dir, ignore_errors=True)

    records = [rec for records in passes for rec in records]
    failed = [rec for rec in records if not rec["ok"]]
    for rec in failed:
        print(f"FAILED tomobell {' '.join(rec['argv'])}: {rec['error']}", file=sys.stderr)
        print(rec.get("stderr_tail", ""), file=sys.stderr)
    measured = {rec["traced"] for rec in records if "wall_s" in rec}
    if measured != ({False, True} if args.trace else {False}):
        print("error: the run has no measured pass of each kind it reports", file=sys.stderr)
        return 1

    units = declared_units("per_layer" if args.trace else "end_to_end")
    if args.trace:
        values = per_layer(passes, units)
        spans = [{"pass": k, "argv": rec["argv"], "spans": rec["spans"]}
                 for k, recs in enumerate(passes) for rec in recs if rec.get("spans")]
        with open(WORK / f"{args.workload}.spans.json", "w") as fh:
            json.dump({"environment": env, "ops": spans}, fh)
    else:
        values = end_to_end(passes)
    with open(WORK / f"{args.workload}-seed{args.seed}-trace{args.trace}.json", "w") as fh:
        json.dump({"environment": env, "metrics": values,
                   "ops": [{k: v for k, v in rec.items() if k != "spans"} for rec in records]},
                  fh, indent=1)

    shown = ["trace.overhead_s"] if args.trace else list(values)
    summary = [f"{k} {values[k]:.6g} {units[k]}" for k in shown]
    summary.append(f"fail_ratio {len(failed) / len(records):.6g} ({len(failed)}/{len(records)} ops)")
    print(f"{args.workload} seed {args.seed}, {len(passes)} passes: " + " | ".join(summary))
    print(json.dumps({
        "correct": not failed,
        "attempted": len(records),
        "failed": len(failed),
        "metrics": {k: {"value": v, "unit": units[k]} for k, v in values.items()},
    }))
    return 0


if __name__ == "__main__":
    sys.exit(main())
