"""Command line front end.

One sectioned config file drives every subcommand; see the README for the
full key reference. Exit codes: 0 success, 1 numerical failure, 2 bad
configuration, 3 I/O failure. All numeric file output uses 12 significant
digits, so identical configs reproduce byte-identical files.
"""

from __future__ import annotations

import argparse
import configparser
import json
import sys
from dataclasses import dataclass
from pathlib import Path

import numpy as np

from .characteristics import penalized_data, solve_by_shooting
from .errors import (BlowupError, ConfigError, IntegrationError, NewtonError,
                     PlanningError, TrajectoryExitError)
from .grid_solver import (Box, SolverParams, lipschitz_norm, meta_record,
                          write_meta_jsonl, write_solution_csv)
from .halfspace import (HalfspaceModel, chain_rule_defect, check_factorization,
                        check_inward_flow, check_log_blowup, solve_halfspace)
from .model import (ModelSpec, _parse_field, check_couple_monotone, load_model,
                    model_from_items)
from .planning import (cross_monotonicity, estimate_certificate, extracted_field,
                       graph_limit_diagnostic, run_penalization)
from .trajectories import (check_planning_convergence, check_value_consistency,
                           integrate_backward)
from .yosida import eqV_residual, yosida_field


def _floats(text):
    try:
        return [float(v) for v in text.split(",") if v.strip() != ""]
    except ValueError:
        raise ConfigError(f"expected comma-separated numbers, got '{text}'")


def _points(text, d):
    pts = []
    for chunk in text.split(";"):
        if not chunk.strip():
            continue
        vals = _floats(chunk)
        if len(vals) != d:
            raise ConfigError(f"point '{chunk.strip()}' does not have {d} coordinates")
        pts.append(vals)
    if not pts:
        raise ConfigError("no points given")
    return np.asarray(pts)


@dataclass
class RunConfig:
    """Everything a command needs: model, grids, controls, output location."""

    model: ModelSpec
    box: Box
    params: SolverParams
    eps_schedule: tuple
    delta: float
    t_min: float
    conv_tol: float
    seed: int
    out: Path
    quiet: bool
    cp: configparser.ConfigParser

    def section(self, name) -> dict:
        return dict(self.cp[name]) if self.cp.has_section(name) else {}

    def say(self, msg):
        if not self.quiet:
            print(msg)


def load_config(path, out_override=None, seed_override=None, quiet=False) -> RunConfig:
    cp = configparser.ConfigParser(inline_comment_prefixes=("#",))
    cp.optionxform = str
    if not cp.read(path):
        raise ConfigError(f"cannot read config file '{path}'")
    base_dir = Path(path).resolve().parent

    if not cp.has_section("model"):
        raise ConfigError("config needs a [model] section (inline keys or file = path)")
    msec = dict(cp["model"])
    if "file" in msec:
        model = load_model((base_dir / msec["file"]).resolve()
                           if not Path(msec["file"]).is_absolute() else msec["file"])
    else:
        model = model_from_items(msec)

    bsec = dict(cp["box"]) if cp.has_section("box") else {}
    try:
        lo = np.asarray(_floats(bsec.get("lo", "-1")))
        hi = np.asarray(_floats(bsec.get("hi", "2")))
        n = np.asarray([int(v) for v in bsec.get("n", "400").split(",") if v.strip()])
    except ValueError as exc:
        raise ConfigError(f"bad value in [box]: {exc}") from None
    if lo.size == 1 and model.d > 1:
        lo = np.full(model.d, lo[0])
    if hi.size == 1 and model.d > 1:
        hi = np.full(model.d, hi[0])
    box = Box(lo, hi, n)

    ssec = dict(cp["solver"]) if cp.has_section("solver") else {}
    try:
        params = SolverParams(
            cfl=float(ssec.get("cfl", "0.75")),
            visc=float(ssec.get("visc", "0")),
            t_end=float(ssec.get("t_end", "1.0")),
            dt_max=float(ssec.get("dt_max", "0.01")),
            n_rec=int(ssec.get("n_rec", "101")),
        )
    except ValueError as exc:
        raise ConfigError(f"bad value in [solver]: {exc}") from None

    psec = dict(cp["planning"]) if cp.has_section("planning") else {}
    try:
        eps_schedule = tuple(_floats(psec.get("eps", "0.4, 0.2, 0.1")))
        delta = float(psec.get("delta", "0.25"))
        t_min = float(psec.get("t_min", "0.2"))
        conv_tol = float(psec.get("conv_tol", "1e-2"))
    except ValueError as exc:
        raise ConfigError(f"bad value in [planning]: {exc}") from None

    rsec = dict(cp["run"]) if cp.has_section("run") else {}
    seed = int(rsec.get("seed", "0")) if seed_override is None else seed_override
    out = Path(rsec.get("out", "out")) if out_override is None else Path(out_override)
    return RunConfig(model=model, box=box, params=params, eps_schedule=eps_schedule,
                     delta=delta, t_min=t_min, conv_tol=conv_tol, seed=seed,
                     out=out, quiet=quiet, cp=cp)


def _jsonable(obj):
    if isinstance(obj, dict):
        return {k: _jsonable(v) for k, v in obj.items()}
    if isinstance(obj, (list, tuple)):
        return [_jsonable(v) for v in obj]
    if isinstance(obj, np.ndarray):
        return [_jsonable(v) for v in obj.tolist()]
    if isinstance(obj, (np.floating, float)):
        v = float(obj)
        return v if np.isfinite(v) else None
    if isinstance(obj, (np.integer,)):
        return int(obj)
    if isinstance(obj, (np.bool_,)):
        return bool(obj)
    return obj


def _write_json(obj, path):
    with open(path, "w") as fh:
        fh.write(json.dumps(_jsonable(obj), sort_keys=True, indent=2) + "\n")


def _outdir(cfg: RunConfig) -> Path:
    cfg.out.mkdir(parents=True, exist_ok=True)
    return cfg.out


def _single_solve(cfg: RunConfig, eps=None):
    from .planning import penalized_slice
    from .grid_solver import solve_master
    if eps is None:
        eps = cfg.eps_schedule[-1]
        sec = cfg.section("solve")
        if "eps" in sec:
            eps = float(sec["eps"])
    return float(eps), solve_master(cfg.model, penalized_slice(cfg.model, cfg.box, eps),
                                    cfg.params)


def cmd_solve(cfg: RunConfig, args) -> int:
    eps, sol = _single_solve(cfg)
    out = _outdir(cfg)
    write_solution_csv(sol, out / "solution.csv")
    rec = meta_record(sol)
    rec["eps"] = eps
    write_meta_jsonl(rec, out / "meta.json")
    cfg.say(f"solved to t={cfg.params.t_end:.12g} with eps={eps:.12g} "
            f"({sol.meta['steps']} steps)")
    cfg.say(f"wrote {out / 'solution.csv'} and {out / 'meta.json'}")
    return 0


def cmd_plan(cfg: RunConfig, args) -> int:
    if len(cfg.eps_schedule) == 1:
        cfg.say("warning: one-element eps schedule, no Cauchy gap is computable")
    run = run_penalization(cfg.model, cfg.box, cfg.eps_schedule, cfg.params,
                           t_min=cfg.t_min, delta=cfg.delta, conv_tol=cfg.conv_tol)
    out = _outdir(cfg)
    if run.failed_eps is not None:
        # keep whatever finished, then surface the numerical failure
        for k, sol in enumerate(run.solutions):
            write_solution_csv(sol, out / f"solution_eps_{k}.csv")
        raise run.failure
    sol = run.smallest_eps_solution
    write_solution_csv(sol, out / "solution.csv")
    write_meta_jsonl([dict(meta_record(s), eps=e) for e, s in
                      zip(run.eps_schedule, run.solutions)], out / "meta.json")
    with open(out / "convergence.csv", "w") as fh:
        fh.write("eps_coarse,eps_fine,gap\n")
        for (e1, e2), g in zip(zip(run.eps_schedule, run.eps_schedule[1:]), run.gaps):
            fh.write(f"{e1:.12g},{e2:.12g},{g:.12g}\n")
    _write_json({"eps": list(run.eps_schedule), "gaps": run.gaps,
                 "t_min": run.t_min, "conv_tol": run.conv_tol,
                 "converged": run.converged}, out / "report.json")
    for (e1, e2), g in zip(zip(run.eps_schedule, run.eps_schedule[1:]), run.gaps):
        cfg.say(f"gap eps {e1:.12g} -> {e2:.12g}: {g:.12g}")
    cfg.say(f"converged: {run.converged}")
    return 0


def cmd_yosida(cfg: RunConfig, args) -> int:
    sec = cfg.section("yosida")
    delta = float(sec.get("delta", str(cfg.delta)))
    eps, sol = _single_solve(cfg)
    if "times" in sec:
        wanted = _floats(sec["times"])
    else:
        k = len(sol.times) // 2
        wanted = [sol.times[k - 1], sol.times[k], sol.times[k + 1]]
    times = [float(sol.times[int(np.argmin(np.abs(sol.times - t)))]) for t in wanted]
    V = yosida_field(sol, delta, times=times)
    res = eqV_residual(cfg.model, V, times[len(times) // 2])
    out = _outdir(cfg)
    write_solution_csv(V.sol, out / "v_slices.csv")
    with open(out / "eqv_residual.csv", "w") as fh:
        dim = cfg.box.dim
        fh.write(",".join(f"x_{a+1}" for a in range(dim)) + ",residual,excluded\n")
        nodes = cfg.box.node_list()
        vals = res.values.reshape(-1)
        exc = res.excluded.reshape(-1)
        for i in range(nodes.shape[0]):
            row = [f"{v:.12g}" for v in nodes[i]] + [f"{vals[i]:.12g}", str(int(exc[i]))]
            fh.write(",".join(row) + "\n")
    _write_json({"delta": delta, "eps": eps, "times": times,
                 "residual_max": res.max(),
                 "excluded_nodes": int(np.sum(res.excluded))}, out / "report.json")
    cfg.say(f"regularized {len(times)} slices at delta={delta:.12g}; "
            f"defect max {res.max():.6g} ({int(np.sum(res.excluded))} nodes excluded)")
    return 0


def cmd_traject(cfg: RunConfig, args) -> int:
    sec = cfg.section("trajectories")
    t1 = float(sec.get("t1", str(cfg.params.t_end)))
    t_min = float(sec.get("t_min", "0.05"))
    steps = int(sec.get("steps", "200"))
    starts = _points(sec.get("starts", "1.0"), cfg.model.d)
    eps, sol = _single_solve(cfg)
    field = sol.field()
    out = _outdir(cfg)
    report = []
    for k, x1 in enumerate(starts):
        traj = integrate_backward(field, cfg.model, x1, t1, t_min, steps=steps)
        with open(out / f"trajectory_{k}.csv", "w") as fh:
            d = cfg.model.d
            fh.write("t," + ",".join(f"x_{a+1}" for a in range(d)) + ","
                     + ",".join(f"u_{a+1}" for a in range(d)) + "\n")
            for i in range(len(traj.times)):
                row = [f"{traj.times[i]:.12g}"]
                row += [f"{v:.12g}" for v in traj.states[i]]
                row += [f"{v:.12g}" for v in traj.values[i]]
                fh.write(",".join(row) + "\n")
        conv = check_planning_convergence(traj, cfg.model.x0)
        defect = check_value_consistency(traj, cfg.model)
        report.append({"start": x1.tolist(), "distance_at_t_min": conv.distance,
                       "slope": conv.slope, "converging": conv.passed,
                       "value_defect": defect})
        cfg.say(f"trajectory {k}: |x({t_min:g}) - x0| = {conv.distance:.6g}, "
                f"value defect {defect:.3g}")
    _write_json({"eps": eps, "t1": t1, "t_min": t_min, "trajectories": report},
                out / "report.json")
    return 0


def cmd_halfspace(cfg: RunConfig, args) -> int:
    sec = cfg.section("halfspace")
    ftilde = _parse_field(sec, "ftilde", cfg.model.d)
    hm = HalfspaceModel(base=cfg.model, ftilde=ftilde)
    fact = check_factorization(hm, rng_seed=cfg.seed)
    inflow = check_inward_flow(cfg.model, rng_seed=cfg.seed)
    hsol = solve_halfspace(hm, cfg.box, cfg.eps_schedule, cfg.params,
                           t_min=cfg.t_min, delta=cfg.delta, conv_tol=cfg.conv_tol)
    if hsol.run.failed_eps is not None:
        raise hsol.run.failure
    t_fit = float(sec.get("t_fit", "0.25"))
    x1_lo = float(sec.get("x1_min", "0.02"))
    x1_hi = float(sec.get("x1_max", "0.9"))
    n_tail = int(sec.get("n_tail", "12"))
    x_rest = cfg.model.x0[1:]
    tail = np.geomspace(x1_lo, x1_hi, n_tail)
    fit = check_log_blowup(hsol.u_field().eval, t_fit, tail, x_rest)
    probes = np.column_stack([np.geomspace(max(x1_lo, 0.05), x1_hi, 10),
                              np.tile(x_rest, (10, 1))]) if cfg.model.d > 1 \
        else np.geomspace(max(x1_lo, 0.05), x1_hi, 10)[:, None]
    chain = chain_rule_defect(hsol, t_fit, probes)
    out = _outdir(cfg)
    write_solution_csv(hsol.run.smallest_eps_solution, out / "halfspace_y.csv")
    _write_json({"factorization_defect": fact, "inward_flow_min": inflow,
                 "log_fit": {"t": t_fit, "a": fit.a, "b": fit.b,
                             "residual": fit.residual},
                 "chain_rule_defect": chain,
                 "gaps": hsol.run.gaps, "converged": hsol.run.converged},
                out / "report.json")
    cfg.say(f"factorization defect {fact:.3g}, wall flux min {inflow:.3g}")
    cfg.say(f"log fit at t={t_fit:g}: a={fit.a:.6g} (rms {fit.residual:.3g}); "
            f"chain-rule defect {chain:.3g}")
    return 0


def cmd_verify(cfg: RunConfig, args) -> int:
    sec = cfg.section("verify")
    M = float(sec.get("M", "2.0"))
    n_pairs = int(sec.get("n_pairs", "2000"))
    tol_mono = float(sec.get("tol_mono", "1e-4"))
    cross_tol = float(sec.get("cross_tol", "1e-3"))
    times = _floats(sec.get("times", "0.8, 0.4, 0.2"))
    times = [t for t in times if cfg.t_min - 1e-12 <= t <= cfg.params.t_end + 1e-12]
    if not times:
        raise ConfigError("[verify] times must intersect [t_min, t_end]")

    mono = check_couple_monotone(cfg.model, cfg.box, rng_seed=cfg.seed)
    run = run_penalization(cfg.model, cfg.box, cfg.eps_schedule, cfg.params,
                           t_min=cfg.t_min, delta=cfg.delta, conv_tol=cfg.conv_tol)
    if run.failed_eps is not None:
        raise run.failure
    sol = run.smallest_eps_solution
    snap = [float(sol.times[int(np.argmin(np.abs(sol.times - t)))]) for t in times]
    cert = estimate_certificate(cfg.model, sol, snap)
    ext = extracted_field(run, snap)
    diag = graph_limit_diagnostic(ext.field(), cfg.model.x0, M, snap)
    cross = cross_monotonicity(sol.field(), ext.field(), max(snap),
                               n_pairs=n_pairs, rng_seed=cfg.seed)
    checks = {
        "couple_monotonicity": mono.min_pairing >= -tol_mono,
        "penalization_cauchy": run.converged,
        "certificate": bool(cert.passed) if cert.applicable else None,
        "graph_limit": diag.passed,
        "cross_monotonicity": cross >= -cross_tol,
    }
    out = _outdir(cfg)
    _write_json({
        "couple_monotonicity": {"min_pairing": mono.min_pairing,
                                "min_second_modulus": mono.min_second_modulus,
                                "alpha": mono.alpha},
        "penalization": {"eps": list(run.eps_schedule), "gaps": run.gaps,
                         "converged": run.converged},
        "certificate": {"applicable": cert.applicable, "t_f": cert.t_f,
                        "times": cert.times, "bound": cert.bound,
                        "measured": cert.measured, "checked": cert.checked,
                        "ok": cert.ok},
        "graph_limit": {"M": diag.M, "times": diag.times,
                        "diameters": diag.diameters, "slope": diag.slope,
                        "halving_ratios": diag.halving_ratios,
                        "passed": diag.passed},
        "cross_monotonicity": {"min": cross, "n_pairs": n_pairs,
                               "t": max(snap)},
        "checks": checks,
    }, out / "report.json")
    with open(out / "curves.csv", "w") as fh:
        fh.write("t,lipschitz,bound,diameter\n")
        order = np.argsort(diag.times)
        for i in order:
            t = diag.times[i]
            j = int(np.argmin(np.abs(cert.times - t)))
            lip = lipschitz_norm(sol, t)
            fh.write(f"{t:.12g},{lip:.12g},{cert.bound[j]:.12g},"
                     f"{diag.diameters[i]:.12g}\n")
    failed = [k for k, v in checks.items() if v is False]
    for k, v in checks.items():
        status = "skipped" if v is None else ("pass" if v else "FAIL")
        cfg.say(f"{k}: {status}")
    return 1 if failed else 0


def cmd_probe(cfg: RunConfig, args) -> int:
    sec = cfg.section("probe")
    t = float(args.t) if args.t is not None else float(sec.get("t", "0.4"))
    x_text = args.x if args.x is not None else sec.get("x", None)
    if x_text is None:
        raise ConfigError("probe needs x (flag --x or [probe] x)")
    x = np.asarray(_floats(x_text))
    if x.shape != (cfg.model.d,):
        raise ConfigError(f"probe x must have {cfg.model.d} coordinates")
    if cfg.model.lam > 0:
        raise ConfigError("probe compares against characteristics; lambda must be 0")
    eps, sol = _single_solve(cfg)
    grid_val = sol.field().eval(t, x)
    char_val = solve_by_shooting(cfg.model, penalized_data(cfg.model.x0, eps), t, x)
    diff = float(np.max(np.abs(grid_val - char_val)))
    cfg.say(f"grid value at (t={t:g}, x={x_text.strip()}): "
            + ",".join(f"{v:.12g}" for v in np.atleast_1d(grid_val)))
    cfg.say("characteristics value:          "
            + ",".join(f"{v:.12g}" for v in np.atleast_1d(char_val)))
    cfg.say(f"max component difference: {diff:.6g}")
    return 0


_COMMANDS = {
    "solve": cmd_solve,
    "plan": cmd_plan,
    "yosida": cmd_yosida,
    "traject": cmd_traject,
    "halfspace": cmd_halfspace,
    "verify": cmd_verify,
    "probe": cmd_probe,
}


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(
        prog="mfgplan",
        description="Penalized planning solver and diagnostics")
    sub = parser.add_subparsers(dest="command", required=True)
    for name in _COMMANDS:
        sp = sub.add_parser(name)
        sp.add_argument("--config", required=True, help="sectioned config file")
        sp.add_argument("--out", default=None, help="output directory")
        sp.add_argument("--seed", type=int, default=None, help="rng seed override")
        sp.add_argument("--quiet", action="store_true", help="suppress summary lines")
        if name == "probe":
            sp.add_argument("--t", default=None, help="probe time")
            sp.add_argument("--x", default=None, help="probe point, comma separated")
    args = parser.parse_args(argv)
    try:
        cfg = load_config(args.config, out_override=args.out,
                          seed_override=args.seed, quiet=args.quiet)
        return _COMMANDS[args.command](cfg, args)
    except ConfigError as exc:
        print(f"config error: {exc}", file=sys.stderr)
        return 2
    except (BlowupError, NewtonError, IntegrationError, TrajectoryExitError) as exc:
        extra = f" (last stable time {exc.t_last:.6g})" if isinstance(exc, BlowupError) else ""
        print(f"numerical failure: {exc}{extra}", file=sys.stderr)
        return 1
    except PlanningError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 1
    except OSError as exc:
        print(f"i/o error: {exc}", file=sys.stderr)
        return 3


def entry():
    sys.exit(main())
