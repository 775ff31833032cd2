"""Benchmark runner for mfgplan.

Usage:
    python3 perfbench/run.py --workload NAME --seed N --seconds S --trace 0|1

NAME is one of ref1d, halfspace_ref, stress2d_jump, oracle2d, or all. Run it
from the root of a checkout (the directory holding src/ and configs/).

Every pass of a workload runs in a fresh child process (perfbench/child.py),
one at a time, with the BLAS thread count fixed to 1. Passes are started
until the next one would end after S seconds (at least MIN_PASSES of them).

--trace 0 reports the end-to-end metrics: medians over passes of the pass
wall time, peak resident memory of the pass's process, and set-up time.
--trace 1 alternates untraced and traced passes and reports the per-layer
metrics of the traced ones, plus the tracing overhead (median traced minus
median untraced wall time). Spans of each traced pass are written to
perfbench/traces/.

Lines before the last one are for people: environment, exact work counts,
errors. The last line is one JSON object with keys correct, attempted,
failed and metrics.
"""

import argparse
import json
import os
import platform
import random
import shutil
import statistics
import subprocess
import sys
import tempfile
import time
from pathlib import Path

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
TRACES = HERE / "traces"
WORKLOADS = ("ref1d", "halfspace_ref", "stress2d_jump", "oracle2d")
MIN_PASSES = {False: 3, True: 4}  # keyed by --trace; traced runs alternate
RUN_LIMIT_S = 170.0  # a run must end within 180 s
BLAS_ENV = {"OPENBLAS_NUM_THREADS": "1", "OMP_NUM_THREADS": "1", "MKL_NUM_THREADS": "1"}

# A typical host_probe time (see child.py) on the reference host: a 2-core VM
# with Python 3.11.7 and numpy 2.4.6. Times are scaled by PROBE_REF_S / probe.
PROBE_REF_S = 0.050
TIME_UNITS = ("s", "ms", "us", "ns")
E2E_UNITS = {"wall_s": "s", "peak_rss_mb": "MB", "setup_s": "s"}
LAYER_UNITS = {
    "grid_solver.steps": "count", "grid_solver.node_steps": "count",
    "grid_solver.march_self_s": "s", "grid_solver.march_us_per_step": "us",
    "grid_solver.march_ns_per_node_step": "ns", "grid_solver.gather_calls": "count",
    "grid_solver.gather_s": "s", "grid_solver.plan_builds": "count",
    "grid_solver.plan_build_s": "s", "grid_solver.query_s": "s",
    "grid_solver.csv_rows": "count", "grid_solver.csv_bytes": "bytes",
    "grid_solver.csv_us_per_row": "us", "grid_solver.retained_mb": "MB",
    "model.eval_calls": "count", "model.eval_s": "s", "model.eval_ns_per_node": "ns",
    "halfspace.straighten_calls": "count", "halfspace.straighten_s": "s",
    "planning.continuation_s": "s", "planning.extract_s": "s",
    "planning.certificate_s": "s", "planning.diagnostics_s": "s",
    "yosida.points": "count", "yosida.newton_us_per_point": "us",
    "yosida.transport_s": "s", "characteristics.points": "count",
    "characteristics.shoot_ms_per_point": "ms", "trajectories.steps": "count",
    "trajectories.us_per_step": "us", "cli.load_config_s": "s", "cli.write_s": "s",
    "trace.spans": "count", "trace.overhead_s": "s", "host.probe_s": "s",
}


def inputs(workload, seed):
    """Generated inputs of one workload; the program sees only these."""
    rng = random.Random(f"{workload}:{seed}")

    def points(count, lo, hi):
        return [[rng.uniform(lo, hi), rng.uniform(lo, hi)] for _ in range(count)]

    if workload == "stress2d_jump":
        return {"x0": points(1, 0.25, 0.75)[0]}
    if workload == "oracle2d":
        return {"probes": points(64, 0.0, 1.0), "starts": points(4, 0.0, 1.0)}
    return {}


def loadavg():
    try:
        return Path("/proc/loadavg").read_text().split()[:3]
    except OSError:
        return None


def run_child(spec, timeout):
    """Run one pass; returns the child's result dict, or None if it crashed."""
    env = dict(os.environ, PYTHONPATH=str(ROOT / "src"), **BLAS_ENV)
    try:
        proc = subprocess.run([sys.executable, str(HERE / "child.py"), json.dumps(spec)],
                              env=env, cwd=ROOT, capture_output=True, text=True,
                              timeout=timeout)
    except subprocess.TimeoutExpired:
        print(f"pass {spec['pass_id']}: timed out after {timeout:.0f} s", file=sys.stderr)
        return None
    if proc.returncode != 0:
        print(f"pass {spec['pass_id']}: exit code {proc.returncode}\n{proc.stderr}",
              file=sys.stderr)
        return None
    return json.loads(proc.stdout.strip().splitlines()[-1])


def measure(workload, seed, seconds, trace, tmp, deadline):
    """Run passes of one workload; returns (passes, number of crashed passes)."""
    base = {"workload": workload, "seed": seed, "root": str(ROOT), **inputs(workload, seed)}
    if trace:
        TRACES.mkdir(exist_ok=True)
        for old in TRACES.glob(f"{workload}-pass*.npz"):
            old.unlink()
    passes, crashed, took = [], 0, {False: [], True: []}
    start = time.perf_counter()
    while True:
        k = len(passes) + crashed
        traced = trace and k % 2 == 1
        spec = dict(base, pass_id=k, trace=traced, out=str(tmp / f"pass{k}"),
                    spans=str(TRACES / f"{workload}-pass{k}.npz"))
        t0 = time.perf_counter()
        res = run_child(spec, max(1.0, deadline - t0))
        took[traced].append(time.perf_counter() - t0)
        shutil.rmtree(tmp / f"pass{k}", ignore_errors=True)
        if res is None:
            crashed += 1
        else:
            res["traced"] = traced
            passes.append(res)
        now = time.perf_counter()
        nxt = trace and (k + 1) % 2 == 1
        estimate = statistics.median(took[nxt] or took[not nxt])
        enough = len(passes) + crashed >= MIN_PASSES[trace]
        if now + estimate > deadline or (enough and now - start + estimate > seconds):
            return passes, crashed


def scaled(p, seconds):
    """A time measured in pass p, scaled to the reference host speed."""
    return seconds * PROBE_REF_S / p["probe_s"]


def summarize(workload, seed, trace, passes, crashed):
    """Print the workload line; returns (metrics, attempted, failed)."""
    attempted = sum(p["attempted"] for p in passes) + crashed
    failed = sum(len(p["errors"]) for p in passes) + crashed
    for p in passes:
        for name, why in p["errors"].items():
            print(f"{workload} pass error: {name}: {why}", file=sys.stderr)
    first = passes[0] if passes else None
    for p in passes[1:]:
        # a deterministic program repeats its counts and outputs exactly
        if p["counts"] != first["counts"] or p["digests"] != first["digests"]:
            print(f"{workload}: counts or outputs differ between passes:\n"
                  f"  {first['counts']} {first['digests']}\n  {p['counts']} {p['digests']}",
                  file=sys.stderr)
            failed += p["attempted"]
    info = {"workload": workload, "seed": seed, "passes": len(passes), "crashed": crashed,
            "numpy": first and first["numpy"], "counts": first and first["counts"],
            "digests": first and first["digests"]}
    untraced = [p for p in passes if not p["traced"]]
    traced = [p for p in passes if p["traced"]]
    metrics = {}
    if not trace and untraced:
        for name, unit in E2E_UNITS.items():
            raw = [p[name] for p in untraced]
            vals = [scaled(p, p[name]) for p in untraced] if unit in TIME_UNITS else raw
            metrics[name] = {"value": statistics.median(vals), "unit": unit}
            info[name] = {"median": statistics.median(vals), "n": len(vals), "unit": unit,
                          "raw_median": statistics.median(raw),
                          "raw_passes": [round(v, 4) for v in raw]}
        info["probe_s"] = [round(p["probe_s"], 4) for p in untraced]
    elif traced and untraced:
        for name, unit in LAYER_UNITS.items():
            if name in traced[0]["layers"]:
                vals = [scaled(p, p["layers"][name]) if unit in TIME_UNITS
                        else p["layers"][name] for p in traced]
                metrics[name] = {"value": statistics.median(vals), "unit": unit}
        overhead = statistics.median(scaled(p, p["wall_s"]) for p in traced) \
            - statistics.median(scaled(p, p["wall_s"]) for p in untraced)
        metrics["trace.overhead_s"] = {"value": overhead, "unit": "s"}
        metrics["host.probe_s"] = {"value": statistics.median(p["probe_s"] for p in traced),
                                   "unit": "s"}
        info["self_s"] = {k: statistics.median(scaled(p, p["self_s"].get(k, 0.0))
                                               for p in traced)
                          for k in traced[0]["self_s"]}
    info["attempted"], info["failed"] = attempted, failed
    info["fail_rate"] = f"{failed}/{attempted}"
    print(json.dumps(info))
    return metrics, attempted, failed


def main():
    ap = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    ap.add_argument("--workload", required=True, choices=WORKLOADS + ("all",))
    ap.add_argument("--seed", type=int, required=True)
    ap.add_argument("--seconds", type=float, required=True)
    ap.add_argument("--trace", type=int, choices=(0, 1), required=True)
    args = ap.parse_args()
    missing = [p for p in ("src/mfgplan/__init__.py", "configs/lq0.cfg",
                           "configs/halfspace.cfg") if not (ROOT / p).is_file()]
    if missing:
        print(f"not an mfgplan checkout ({ROOT}): missing {', '.join(missing)}",
              file=sys.stderr)
        return 2
    workloads = WORKLOADS if args.workload == "all" else (args.workload,)
    deadline = time.perf_counter() + RUN_LIMIT_S
    print(json.dumps({"env": {
        "nproc": os.cpu_count(), "affinity": len(os.sched_getaffinity(0)),
        "python": platform.python_version(), "blas_threads": BLAS_ENV,
        "loadavg_start": loadavg(), "seed": args.seed, "seconds": args.seconds,
        "trace": args.trace}}))
    metrics, attempted, failed = {}, 0, 0
    tmp = Path(tempfile.mkdtemp(prefix=".perfbench-", dir=ROOT))
    try:
        for w in workloads:
            share = (deadline - time.perf_counter()) / (len(workloads) - workloads.index(w))
            passes, crashed = measure(w, args.seed, args.seconds, args.trace, tmp,
                                      time.perf_counter() + share)
            m, a, f = summarize(w, args.seed, args.trace, passes, crashed)
            prefix = f"{w}." if len(workloads) > 1 else ""
            metrics.update({prefix + k: v for k, v in m.items()})
            attempted += a
            failed += f
    finally:
        shutil.rmtree(tmp, ignore_errors=True)
    print(json.dumps({"env": {"loadavg_end": loadavg()}}))
    print(json.dumps({"correct": failed == 0 and attempted > 0, "attempted": attempted,
                      "failed": failed, "metrics": metrics}))
    return 0


if __name__ == "__main__":
    sys.exit(main())
