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
from .grid_solver import (Box, SolverParams, lipschitz_norm, meta_record, solve_master,
                          write_meta_jsonl, write_solution_csv, write_table)
from .halfspace import (HalfspaceModel, chain_rule_defect, check_factorization,
                        check_inward_flow, check_log_blowup, solve_halfspace)
from .model import (ModelSpec, _parse_field, check_couple_monotone, load_model,
                    model_from_items, parse_number, parse_numbers)
from .planning import (cross_monotonicity, estimate_certificate, extracted_field,
                       graph_limit_diagnostic, penalized_slice, run_penalization)
from .trajectories import (check_planning_convergence, check_value_consistency,
                           integrate_backward)
from .yosida import eqV_residual, yosida_field


def _points(text, d):
    pts = []
    for chunk in text.split(";"):
        if not chunk.strip():
            continue
        vals = parse_numbers(chunk, "[trajectories] starts")
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
    lo = np.asarray(parse_numbers(bsec.get("lo", "-1"), "[box] lo"))
    hi = np.asarray(parse_numbers(bsec.get("hi", "2"), "[box] hi"))
    n = np.asarray(parse_numbers(bsec.get("n", "400"), "[box] n", int))
    box = Box(*(np.full(model.d, v[0]) if v.size == 1 else v for v in (lo, hi)), n)

    ssec = dict(cp["solver"]) if cp.has_section("solver") else {}
    params = SolverParams(
        cfl=parse_number(ssec.get("cfl", "0.75"), "[solver] cfl"),
        visc=parse_number(ssec.get("visc", "0"), "[solver] visc"),
        t_end=parse_number(ssec.get("t_end", "1.0"), "[solver] t_end"),
        dt_max=parse_number(ssec.get("dt_max", "0.01"), "[solver] dt_max"),
        n_rec=parse_number(ssec.get("n_rec", "101"), "[solver] n_rec", int),
    )

    psec = dict(cp["planning"]) if cp.has_section("planning") else {}
    eps_schedule = tuple(parse_numbers(psec.get("eps", "0.4, 0.2, 0.1"), "[planning] eps"))
    delta = parse_number(psec.get("delta", "0.25"), "[planning] delta")
    t_min = parse_number(psec.get("t_min", "0.2"), "[planning] t_min")
    conv_tol = parse_number(psec.get("conv_tol", "1e-2"), "[planning] conv_tol")

    rsec = dict(cp["run"]) if cp.has_section("run") else {}
    seed = parse_number(rsec.get("seed", "0"), "[run] seed", int) if seed_override is None \
        else seed_override
    if seed < 0:
        raise ConfigError(f"[run] seed (or --seed) must be >= 0, got {seed}")
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


def _time(cfg: RunConfig, text, name) -> float:
    """The time in text, which must lie in [0, t_end]: no field is recorded outside it."""
    t = parse_number(text, name)
    if not 0.0 <= t <= cfg.params.t_end:
        raise ConfigError(f"{name} = {t:.12g} lies outside [0, t_end = {cfg.params.t_end:.12g}]")
    return t


def _outdir(cfg: RunConfig) -> Path:
    cfg.out.mkdir(parents=True, exist_ok=True)
    return cfg.out


def _single_solve(cfg: RunConfig, eps=None):
    if eps is None:
        eps = cfg.eps_schedule[-1]
        sec = cfg.section("solve")
        if "eps" in sec:
            eps = parse_number(sec["eps"], "[solve] eps")
    return float(eps), solve_master(cfg.model, penalized_slice(cfg.model, cfg.box, eps),
                                    cfg.params)


def cmd_solve(cfg: RunConfig, args) -> int:
    eps, sol = _single_solve(cfg)
    out = _outdir(cfg)
    write_solution_csv(sol, out / "solution.csv")
    write_meta_jsonl([dict(meta_record(sol), eps=eps)], out / "meta.json")
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
    write_table(out / "convergence.csv", "eps_coarse,eps_fine,gap",
                run.eps_schedule[:-1], run.eps_schedule[1:], run.gaps)
    _write_json({"eps": list(run.eps_schedule), "gaps": run.gaps,
                 "t_min": run.t_min, "conv_tol": run.conv_tol,
                 "converged": run.converged}, out / "report.json")
    for (e1, e2), g in zip(zip(run.eps_schedule, run.eps_schedule[1:]), run.gaps):
        cfg.say(f"gap eps {e1:.12g} -> {e2:.12g}: {g:.12g}")
    cfg.say(f"converged: {run.converged}")
    return 0


def cmd_yosida(cfg: RunConfig, args) -> int:
    sec = cfg.section("yosida")
    delta = parse_number(sec.get("delta", cfg.delta), "[yosida] delta")
    if "times" not in sec and cfg.params.n_rec < 3:
        raise ConfigError("[solver] n_rec must be >= 3 for yosida without [yosida] times")
    eps, sol = _single_solve(cfg)
    if "times" in sec:
        wanted = parse_numbers(sec["times"], "[yosida] times")
    else:
        k = len(sol.times) // 2
        wanted = [sol.times[k - 1], sol.times[k], sol.times[k + 1]]
    snapped = sol.snap(wanted)
    times = sorted(set(snapped))
    if len(times) < 3:
        raise ConfigError(f"[yosida] times must snap to at least 3 distinct recorded "
                          f"times, got {', '.join(f'{t:.12g}' for t in snapped)}")
    V = yosida_field(sol, delta, times=times)
    res = eqV_residual(cfg.model, V, times[len(times) // 2])
    out = _outdir(cfg)
    write_solution_csv(V.sol, out / "v_slices.csv")
    header = [f"x_{a+1}" for a in range(cfg.box.dim)] + ["residual", "excluded"]
    write_table(out / "eqv_residual.csv", ",".join(header), cfg.box.node_list(),
                res.values.reshape(-1), res.excluded.reshape(-1))
    _write_json({"delta": delta, "eps": eps, "times": times,
                 "residual_max": res.max(),
                 "excluded_nodes": int(np.sum(res.excluded))}, out / "report.json")
    cfg.say(f"regularized {len(times)} slices at delta={delta:.12g}; "
            f"defect max {res.max():.6g} ({int(np.sum(res.excluded))} nodes excluded)")
    return 0


def cmd_traject(cfg: RunConfig, args) -> int:
    sec = cfg.section("trajectories")
    t1 = _time(cfg, sec.get("t1", cfg.params.t_end), "[trajectories] t1")
    t_min = parse_number(sec.get("t_min", "0.05"), "[trajectories] t_min")
    steps = parse_number(sec.get("steps", "200"), "[trajectories] steps", int)
    starts = _points(sec.get("starts", "1.0"), cfg.model.d)
    eps, sol = _single_solve(cfg)
    paths = integrate_backward(sol.field(), cfg.model, starts, t1, t_min, steps=steps)
    out = _outdir(cfg)
    d = cfg.model.d
    header = ",".join(["t"] + [f"x_{a+1}" for a in range(d)] + [f"u_{a+1}" for a in range(d)])
    report = []
    for k, x1 in enumerate(starts):
        traj = paths.path(k)
        write_table(out / f"trajectory_{k}.csv", header, traj.times, traj.states, traj.values)
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
    t_fit = _time(cfg, sec.get("t_fit", "0.25"), "[halfspace] t_fit")
    x1_lo = parse_number(sec.get("x1_min", "0.02"), "[halfspace] x1_min")
    x1_hi = parse_number(sec.get("x1_max", "0.9"), "[halfspace] x1_max")
    n_tail = parse_number(sec.get("n_tail", "12"), "[halfspace] n_tail", int)
    if not (0.0 < x1_lo < x1_hi < 1.0 and n_tail >= 2):
        raise ConfigError("[halfspace] tail needs 0 < x1_min < x1_max < 1 and n_tail >= 2")
    ftilde = _parse_field(sec, "ftilde", cfg.model.d)
    hm = HalfspaceModel(base=cfg.model, ftilde=ftilde)
    fact = check_factorization(hm, rng_seed=cfg.seed)
    inflow = check_inward_flow(cfg.model, rng_seed=cfg.seed)
    hsol = solve_halfspace(hm, cfg.box, cfg.eps_schedule, cfg.params,
                           t_min=cfg.t_min, delta=cfg.delta, conv_tol=cfg.conv_tol)
    if hsol.run.failed_eps is not None:
        raise hsol.run.failure
    x_rest = cfg.model.x0[1:]
    tail = np.geomspace(x1_lo, x1_hi, n_tail)
    fit = check_log_blowup(hsol.u_field().eval, t_fit, tail, x_rest)
    probes = np.column_stack([np.geomspace(max(x1_lo, 0.05), x1_hi, 10), np.tile(x_rest, (10, 1))])
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
    M = parse_number(sec.get("M", "2.0"), "[verify] M")
    n_pairs = parse_number(sec.get("n_pairs", "2000"), "[verify] n_pairs", int)
    if n_pairs < 1:
        raise ConfigError(f"[verify] n_pairs must be >= 1, got {n_pairs}")
    tol_mono = parse_number(sec.get("tol_mono", "1e-4"), "[verify] tol_mono")
    cross_tol = parse_number(sec.get("cross_tol", "1e-3"), "[verify] cross_tol")
    times = parse_numbers(sec.get("times", "0.8, 0.4, 0.2"), "[verify] times")
    times = [t for t in times if cfg.t_min - 1e-12 <= t <= cfg.params.t_end + 1e-12]
    if not times:
        raise ConfigError("[verify] times must intersect [t_min, t_end]")

    mono = check_couple_monotone(cfg.model, cfg.box, rng_seed=cfg.seed, tol_mono=tol_mono)
    run = run_penalization(cfg.model, cfg.box, cfg.eps_schedule, cfg.params,
                           t_min=cfg.t_min, delta=cfg.delta, conv_tol=cfg.conv_tol)
    if run.failed_eps is not None:
        raise run.failure
    sol = run.smallest_eps_solution
    snap = list(dict.fromkeys(sol.snap(times)))  # distinct records, in the order given
    cert = estimate_certificate(cfg.model, sol, snap)
    ext = extracted_field(run, snap)
    diag = graph_limit_diagnostic(ext.field(), cfg.model.x0, M, snap)
    cross = cross_monotonicity(sol.field(), ext.field(), max(snap),
                               n_pairs=n_pairs, rng_seed=cfg.seed)
    checks = {
        "couple_monotonicity": mono.passed,
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
    order = np.argsort(diag.times)
    ts = diag.times[order]
    nearest = np.argmin(np.abs(cert.times[None, :] - ts[:, None]), axis=1)
    write_table(out / "curves.csv", "t,lipschitz,bound,diameter", ts,
                [lipschitz_norm(sol, t) for t in ts], cert.bound[nearest],
                diag.diameters[order])
    failed = [k for k, v in checks.items() if v is False]
    for k, v in checks.items():
        status = "skipped" if v is None else ("pass" if v else "FAIL")
        cfg.say(f"{k}: {status}")
    return 1 if failed else 0


def cmd_probe(cfg: RunConfig, args) -> int:
    sec = cfg.section("probe")
    t = _time(cfg, args.t, "--t") if args.t is not None \
        else _time(cfg, sec.get("t", "0.4"), "[probe] t")
    x_text = args.x if args.x is not None else sec.get("x", None)
    if x_text is None:
        raise ConfigError("probe needs x (flag --x or [probe] x)")
    x = np.asarray(parse_numbers(x_text, "probe x"))
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


if __name__ == "__main__":
    entry()
