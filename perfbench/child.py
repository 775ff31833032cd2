"""One pass of one workload, in a fresh process.

Usage: python3 perfbench/child.py '<json spec>'

run.py starts this script once per pass, with PYTHONPATH pointing at the
checkout's src and the BLAS thread count fixed to 1. The spec holds the
workload name, the inputs run.py generated from the seed, the output
directory, and whether to record spans. The script prints one JSON line:
set-up and pass times, peak memory, operations attempted and failed with
their errors, exact work counts, output digests and, when traced, per-layer
metrics.

Only standard-library modules are imported before the set-up clock starts,
so set-up covers importing mfgplan (and numpy with it) plus building the
configs, models and boxes the pass uses.
"""

import hashlib
import json
import resource
import statistics
import sys
import time
from pathlib import Path

T0 = time.perf_counter()

import mfgplan  # noqa: E402
import numpy as np  # noqa: E402
from mfgplan import characteristics, cli, grid_solver, planning, trajectories, yosida  # noqa: E402

HERE = Path(__file__).resolve().parent
REFERENCE = json.loads((HERE / "reference.json").read_text())

# Grid vs. shooting on oracle2d: first-order upwind, so the tolerance scales
# with the cell width (0.0375 at n=80; the largest error seen is 6.8e-3).
SHOOT_TOL_CELLS = 0.25
ROUTE_TOL = 1e-8

# host_probe runs this many times just before the pass and again just after.
# One probe is short enough that its own jitter matters; the median of all of
# them follows the host speed around the pass.
PROBES = 3


def host_probe():
    """Seconds taken by a fixed mix of interpreter, formatting and numpy work.

    It never calls mfgplan, so its time follows only the speed of the host,
    which on a shared VM drifts over tens of seconds.
    """
    t = time.perf_counter()
    x = 0
    for j in range(100000):
        x += j * j
    ",".join(f"{v:.12g}" for v in np.linspace(0.0, 1.0, 10000).tolist())
    a = np.linspace(0.0, 1.0, 30000)
    for _ in range(100):
        a = np.abs(np.where(a > 0.5, a * 1.5, a - 0.25)) % 1.0
    b = a[:256]
    for _ in range(1000):
        b = np.abs(b - 0.5)
    return time.perf_counter() - t


def sha256(path):
    return hashlib.sha256(Path(path).read_bytes()).hexdigest()


def digest12(*arrays):
    """Digest of arrays rendered at 12 significant digits, like the CSV files."""
    h = hashlib.sha256()
    for a in arrays:
        h.update(",".join(f"{v:.12g}" for v in np.ravel(a)).encode() + b"\n")
    return h.hexdigest()


class Pass:
    """Operations of one pass: each is attempted once and fails at most once."""

    def __init__(self):
        self.errors = {}
        self.attempted = 0

    def attempt(self, name, fn, *args, **kwargs):
        self.attempted += 1
        try:
            return fn(*args, **kwargs)
        except Exception as exc:  # a failed operation is counted, the pass goes on
            self.errors[name] = f"{type(exc).__name__}: {exc}"
            return None

    def check(self, name, ok, why):
        if not ok and name not in self.errors:
            self.errors[name] = why


def affine_2d(Mx, Mp):
    return mfgplan.FieldSpec.affine(Mx, Mp, d=2)


def square_box(n):
    return mfgplan.Box(np.full(2, -1.0), np.full(2, 2.0), np.full(2, n))


def coupled_model(x0, lam, S):
    """F = p, G = x on R^2, with relabeling x -> S x at rate lam."""
    return mfgplan.ModelSpec(d=2, F=affine_2d(0.0, 1.0), G=affine_2d(1.0, 0.0), lam=lam,
                             noise=mfgplan.AffineNoiseMap(S * np.eye(2), np.zeros(2)),
                             x0=np.asarray(x0, float), alpha=1.0, lip_Fp=1.0, lip_Gx=1.0)


# Each workload is (setup, run, check). setup builds what the pass needs and
# counts as set-up time; run is the timed pass; check inspects its outputs.

def cli_setup(config):
    def setup(spec):
        cfg = Path(spec["root"]) / "configs" / config
        cli.load_config(cfg)
        return {"cfg": str(cfg)}
    return setup


def cli_run(*commands):
    def run(p, spec, st):
        for cmd in commands:
            code = p.attempt(cmd, cli.main, [cmd, "--config", st["cfg"],
                                             "--out", str(Path(spec["out"]) / cmd),
                                             "--seed", str(spec["seed"]), "--quiet"])
            p.check(cmd, code == 0, f"exit code {code}")
    return run


def file_digests(p, spec):
    """sha256 of each output file the reference lists, checked against it."""
    found = {}
    for cmd, files in REFERENCE[spec["workload"]]["files"].items():
        for name, want in files.items():
            path = Path(spec["out"]) / cmd / name
            found[f"{cmd}/{name}"] = got = sha256(path) if path.exists() else None
            p.check(cmd, got == want, f"{name} differs from the reference output")
    return found


def report(spec, cmd):
    return json.loads((Path(spec["out"]) / cmd / "report.json").read_text())


def ref1d_check(p, spec, st):
    if "verify" not in p.errors:
        checks = report(spec, "verify")["checks"]
        p.check("verify", all(checks.values()), f"checks {checks}")
    if "plan" not in p.errors:
        p.check("plan", report(spec, "plan")["converged"] is True, "plan did not converge")
    return file_digests(p, spec)


def halfspace_check(p, spec, st):
    if "halfspace" not in p.errors:
        p.check("halfspace", report(spec, "halfspace") == REFERENCE["halfspace_ref"]["report"],
                "report.json differs from the reference")
    return file_digests(p, spec)


STRESS_EPS = (0.2, 0.1, 0.05)
STRESS_TIMES = (0.8, 0.4, 0.2)


def stress_setup(spec):
    return {"model": coupled_model(spec["x0"], lam=1.0, S=0.5), "box": square_box(80),
            "params": grid_solver.SolverParams(t_end=1.0, n_rec=101)}


def stress_run(p, spec, st):
    m = st["model"]
    run = p.attempt("continuation", planning.run_penalization, m, st["box"], STRESS_EPS,
                    st["params"], t_min=0.2, delta=0.25)
    st["run"] = run
    if run is None:
        return
    if run.failed_eps is not None:
        p.check("continuation", False, f"marcher failed: {run.failure}")
        return
    st["limits"] = [p.attempt(f"extract t={t}", planning.extract_limit, run, t)
                    for t in STRESS_TIMES]
    st["cert"] = p.attempt("certificate", planning.estimate_certificate, m,
                           run.smallest_eps_solution, STRESS_TIMES)


def stress_check(p, spec, st):
    if "limits" not in st:
        return {}
    for t, lim in zip(STRESS_TIMES, st["limits"]):
        if lim is not None:
            bad = int(np.sum(lim.failed))
            p.check(f"extract t={t}", bad == 0, f"{bad} nodes failed to invert")
    cert = st["cert"]
    if cert is not None:
        p.check("certificate", cert.applicable, "certificate not applicable")
    if p.errors:
        return {}
    return {"results": digest12(st["run"].gaps, *(lim.values for lim in st["limits"]),
                                np.nan_to_num(cert.measured))}


ORACLE_EPS = 0.1
ORACLE_T = 0.4


def oracle_setup(spec):
    return {"model": coupled_model((0.5, 0.5), lam=0.0, S=1.0), "box": square_box(80),
            "params": grid_solver.SolverParams(t_end=0.5, n_rec=51),
            "probes": np.asarray(spec["probes"]), "starts": np.asarray(spec["starts"])}


def route_gap(u, box):
    """Largest gap between the Newton and the transport regularization of u."""
    newton = yosida.yosida_apply(u, 0.25, box.node_list())
    transport = yosida.yosida_by_transport(u, 0.25, burgers_steps=4)
    return float(np.max(np.abs(newton - transport.values.reshape(newton.shape))))


def oracle_run(p, spec, st):
    m, box = st["model"], st["box"]
    sol = p.attempt("solve", grid_solver.solve_master, m,
                    planning.penalized_slice(m, box, ORACLE_EPS), st["params"])
    if sol is None:
        return
    field = sol.field()
    u0 = characteristics.penalized_data(m.x0, ORACLE_EPS)
    st["probe_gaps"] = gaps = []
    for i, x in enumerate(st["probes"]):
        grid = field.eval(ORACLE_T, x)
        char = p.attempt(f"probe {i}", characteristics.solve_by_shooting, m, u0, ORACLE_T, x)
        gaps.append(np.nan if char is None else float(np.max(np.abs(grid - char))))
    st["route_gap"] = p.attempt("regularization", route_gap, sol.slice_at(ORACLE_T), box)
    st["paths"] = [p.attempt(f"trajectory {i}", trajectories.integrate_backward, field, m, x,
                             0.5, 0.05, steps=200) for i, x in enumerate(st["starts"])]
    st["sol"] = sol


def oracle_check(p, spec, st):
    if "sol" not in st:
        return {}
    tol = SHOOT_TOL_CELLS * float(np.max(st["box"].dx))
    for i, gap in enumerate(st["probe_gaps"]):
        if not np.isnan(gap):
            p.check(f"probe {i}", gap <= tol, f"grid vs. shooting gap {gap:.3e} > {tol:.3e}")
    gap = st["route_gap"]
    if gap is not None:
        p.check("regularization", gap <= ROUTE_TOL, f"route gap {gap:.3e}")
    if p.errors:
        return {}
    return {"results": digest12(st["sol"].values, st["probe_gaps"],
                                *(path.states for path in st["paths"]))}


WORKLOADS = {
    "ref1d": (cli_setup("lq0.cfg"), cli_run("verify", "plan"), ref1d_check),
    "halfspace_ref": (cli_setup("halfspace.cfg"), cli_run("halfspace"), halfspace_check),
    "stress2d_jump": (stress_setup, stress_run, stress_check),
    "oracle2d": (oracle_setup, oracle_run, oracle_check),
}


def main(spec):
    setup, run, check = WORKLOADS[spec["workload"]]
    st = setup(spec)
    t_setup = time.perf_counter()
    from tracing import Recorder  # after the set-up clock, which covers only mfgplan
    recorder = Recorder(spans=spec["trace"])
    p = Pass()
    probes = [host_probe() for _ in range(PROBES)]
    t_start = time.perf_counter()
    run(p, spec, st)
    t_end = time.perf_counter()
    peak_rss_mb = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024
    probes += [host_probe() for _ in range(PROBES)]
    digests = check(p, spec, st)
    result = {"setup_s": t_setup - T0, "wall_s": t_end - t_start, "peak_rss_mb": peak_rss_mb,
              "probe_s": statistics.median(probes),
              "attempted": p.attempted, "errors": p.errors, "counts": recorder.exact_counts(),
              "digests": digests, "numpy": np.__version__}
    if spec["trace"]:
        result["layers"], result["self_s"] = recorder.layer_metrics()
        recorder.save_spans(spec["spans"], workload=spec["workload"], seed=spec["seed"],
                            pass_id=spec["pass_id"])
    print(json.dumps(result))


if __name__ == "__main__":
    main(json.loads(sys.argv[1]))
