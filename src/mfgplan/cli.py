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
import math
import sys
from dataclasses import dataclass
from pathlib import Path

import numpy as np

from .characteristics import penalized_data, solve_by_shooting
from .errors import BlowupError, ConfigError, PlanningError
from .grid_solver import (TIME_MATCH_TOL, Box, SolverParams, lipschitz_norm, meta_record,
                          solve_master, write_meta_jsonl, write_solution_csv, write_table)
from .halfspace import (LOG_FIT_POINTS, LOG_FIT_X1_MAX, LOG_FIT_X1_MIN, HalfspaceModel,
                        PullbackField, chain_rule_defect, check_factorization,
                        check_inward_flow, check_log_blowup, transformed_model)
from .model import (FIELD_KEYS, ModelSpec, _parse_field, check_couple_monotone, check_keys,
                    load_model, model_from_items, parse_number, parse_numbers, read_ini)
from .planning import (CROSS_PAIRS, CROSS_TOL, SUBLEVEL_M, PenalizationRun,
                       check_eps_schedule, cross_monotonicity, estimate_certificate,
                       graph_limit_diagnostic, penalized_slice, run_penalization)
from .trajectories import (check_planning_convergence, check_value_consistency,
                           integrate_backward)
from .yosida import eqV_residual, yosida_field


# The keys of each section but [model]; any other key or section is a ConfigError.
_SECTION_KEYS = {
    "run": ("seed", "out"), "box": ("lo", "hi", "n"), "solve": ("eps",),
    "solver": ("cfl", "t_end", "dt_max", "n_rec"),
    "planning": ("eps", "t_min", "conv_tol"), "yosida": ("delta", "times"),
    "trajectories": ("starts", "t1", "t_min", "steps"), "probe": ("t", "x"),
    "verify": ("times",), "halfspace": ("t_fit", *(f"ftilde.{k}" for k in FIELD_KEYS)),
}


class _Section(dict):
    """The keys of one config section, none if it is absent. number, numbers and
    time read a key, or its default, and name it '[section] key' in errors."""

    def __init__(self, cp, name):
        super().__init__(cp[name] if cp.has_section(name) else {})
        self.name = name

    def label(self, key) -> str:
        return f"[{self.name}] {key}"

    def number(self, key, default=None, kind=float):
        return parse_number(self.get(key, default), self.label(key), kind)

    def numbers(self, key, default=None, kind=float) -> list:
        return parse_numbers(self.get(key, default), self.label(key), kind)

    def nonneg(self, key, default) -> float:
        """A finite number >= 0: a nan passes or fails every check."""
        v = self.number(key, default)
        if not (math.isfinite(v) and v >= 0):
            raise ConfigError(f"{self.label(key)} must be finite and >= 0, got {v:.12g}")
        return v

    def time(self, key, default, t_end) -> float:
        return _in_horizon(self.number(key, default), self.label(key), t_end)


def _in_horizon(t, name, t_end) -> float:
    """t, which must lie in [0, t_end]: no field is recorded outside it."""
    if not 0.0 <= t <= t_end:
        raise ConfigError(f"{name} = {t:.12g} lies outside [0, t_end = {t_end:.12g}]")
    return t


def _check_in_box(x, box, name):
    """ConfigError naming name unless the point x lies in the box, a face included: off it
    a grid value is an extrapolation. A nan coordinate lies outside."""
    if not np.all((box.lo <= x) & (x <= box.hi)):
        faces = " x ".join(f"[{lo:.12g}, {hi:.12g}]" for lo, hi in zip(box.lo, box.hi))
        point = ",".join(f"{v:.12g}" for v in x)
        raise ConfigError(f"{name} = {point} lies outside the box {faces}")


def _points(sec, key, default, d):
    pts = []
    for chunk in sec.get(key, default).split(";"):
        if not chunk.strip():
            continue
        vals = parse_numbers(chunk, sec.label(key))
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
    t_min: float
    conv_tol: float
    seed: int
    out: Path
    quiet: bool
    cp: configparser.ConfigParser

    def say(self, msg):
        if not self.quiet:
            print(msg)


def load_config(path, out_override=None, seed_override=None, quiet=False) -> RunConfig:
    cp = read_ini(path, "config")
    base_dir = Path(path).resolve().parent

    check_keys(cp.defaults(), (), "DEFAULT")  # configparser copies these into every section
    for name in cp.sections():
        if name == "model":
            continue  # its keys are checked below
        if name not in _SECTION_KEYS:
            raise ConfigError(f"[{name}] is not a known section")
        check_keys(cp[name], _SECTION_KEYS[name], name)
    if not cp.has_section("model"):
        raise ConfigError("config needs a [model] section (inline keys or file = path)")
    msec = dict(cp["model"])
    if "file" in msec:
        check_keys(msec, ("file",), "model")  # the model file holds every model key
        model = load_model((base_dir / msec["file"]).resolve()
                           if not Path(msec["file"]).is_absolute() else msec["file"])
    else:
        model = model_from_items(msec)

    bsec = _Section(cp, "box")
    lo = np.asarray(bsec.numbers("lo", "-1"))
    hi = np.asarray(bsec.numbers("hi", "2"))
    n = np.asarray(bsec.numbers("n", "400", int))
    box = Box(*(np.full(model.d, v[0]) if v.size == 1 else v for v in (lo, hi)), n)

    ssec = _Section(cp, "solver")
    params = SolverParams(
        cfl=ssec.number("cfl", "0.75"),
        t_end=ssec.number("t_end", "1.0"),
        dt_max=ssec.number("dt_max", "0.01"),
        n_rec=ssec.number("n_rec", "101", int),
    )

    psec = _Section(cp, "planning")
    # every command solves at least the schedule's last, smallest eps
    eps_schedule = check_eps_schedule(psec.numbers("eps", "0.4, 0.2, 0.1"))
    t_min = psec.time("t_min", "0.2", params.t_end)
    conv_tol = psec.nonneg("conv_tol", "1e-2")

    rsec = _Section(cp, "run")
    seed = rsec.number("seed", "0", int) if seed_override is None else seed_override
    if seed < 0:
        raise ConfigError(f"[run] seed (or --seed) must be >= 0, got {seed}")
    out = Path(rsec.get("out", "out")) if out_override is None else Path(out_override)
    return RunConfig(model=model, box=box, params=params, eps_schedule=eps_schedule,
                     t_min=t_min, conv_tol=conv_tol, seed=seed, out=out, quiet=quiet, cp=cp)


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


def _single_solve(cfg: RunConfig):
    """Solve for [solve] eps, by default the schedule's smallest; returns (eps, solution)."""
    eps = _Section(cfg.cp, "solve").number("eps", cfg.eps_schedule[-1])
    return eps, solve_master(cfg.model, penalized_slice(cfg.model, cfg.box, eps), cfg.params)


def _continuation(cfg: RunConfig, model: ModelSpec) -> PenalizationRun:
    """The penalization run of model on the config's box, schedule and controls."""
    return run_penalization(model, cfg.box, cfg.eps_schedule, cfg.params,
                            t_min=cfg.t_min, conv_tol=cfg.conv_tol)


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
    run = _continuation(cfg, cfg.model)
    out = _outdir(cfg)
    if run.failed_eps is not None:
        # keep whatever finished, then surface the numerical failure
        for k, sol in enumerate(run.solutions):
            write_solution_csv(sol, out / f"solution_eps_{k}.csv")
        raise run.failure
    sol = run.smallest_eps_solution
    write_solution_csv(sol, out / "solution.csv")
    # every eps shares the box, record times and d of the smallest eps's solution
    write_meta_jsonl([dict(meta_record(sol), **meta, eps=e) for e, meta in
                      zip(run.eps_schedule, run.metas)], out / "meta.json")
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
    sec = _Section(cfg.cp, "yosida")
    delta = sec.nonneg("delta", "0.25")
    if "times" in sec:
        wanted = [_in_horizon(t, sec.label("times"), cfg.params.t_end)
                  for t in sec.numbers("times")]
    elif cfg.params.n_rec < 3:
        raise ConfigError("[solver] n_rec must be >= 3 for yosida without [yosida] times")
    eps, sol = _single_solve(cfg)
    if "times" not in sec:
        k = len(sol.times) // 2
        wanted = [sol.times[k - 1], sol.times[k], sol.times[k + 1]]
    snapped = sol.snap(wanted)
    times = sorted(set(snapped))
    if len(times) < 3:
        raise ConfigError(f"[yosida] times must snap to at least 3 distinct recorded "
                          f"times, got {', '.join(f'{t:.12g}' for t in snapped)}")
    V = yosida_field(sol, delta, times)
    res = eqV_residual(cfg.model, V, delta, times[len(times) // 2])
    out = _outdir(cfg)
    write_solution_csv(V, out / "v_slices.csv")
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
    sec = _Section(cfg.cp, "trajectories")
    t1 = sec.time("t1", cfg.params.t_end, cfg.params.t_end)
    t_min = sec.number("t_min", "0.05")
    if not 0.0 <= t_min < t1:  # checked here too, so that a bad value costs no solve
        raise ConfigError(f"{sec.label('t_min')} = {t_min:.12g} must lie in [0, t1 = {t1:.12g})")
    steps = sec.number("steps", "200", int)
    if steps < 1:
        raise ConfigError(f"{sec.label('steps')} must be >= 1, got {steps}")
    starts = _points(sec, "starts", "1.0", cfg.model.d)
    for x in starts:
        _check_in_box(x, cfg.box, sec.label("starts"))
    if cfg.model.lam > 0:
        raise ConfigError("trajectories follow characteristics; [model] lambda must be 0")
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
    if not cfg.cp.has_section("halfspace"):
        raise ConfigError("the halfspace command needs a [halfspace] section: it names the "
                          "straightened drift ftilde, and [box] is read in straightened coordinates")
    sec = _Section(cfg.cp, "halfspace")
    t_fit = sec.time("t_fit", "0.25", cfg.params.t_end)
    ftilde = _parse_field(sec, "ftilde", cfg.model.d)
    hm = HalfspaceModel(base=cfg.model, ftilde=ftilde)
    fact = check_factorization(hm, rng_seed=cfg.seed)
    inflow = check_inward_flow(cfg.model, rng_seed=cfg.seed)
    run = _continuation(cfg, transformed_model(hm))
    if run.failed_eps is not None:
        raise run.failure
    u = PullbackField(run.smallest_eps_solution.field())
    x_rest = cfg.model.x0[1:]
    tail = np.geomspace(LOG_FIT_X1_MIN, LOG_FIT_X1_MAX, LOG_FIT_POINTS)
    fit = check_log_blowup(u.eval, t_fit, tail, x_rest)
    probes = np.column_stack([np.geomspace(0.05, LOG_FIT_X1_MAX, 10), np.tile(x_rest, (10, 1))])
    chain = chain_rule_defect(u, t_fit, probes)
    out = _outdir(cfg)
    write_solution_csv(run.smallest_eps_solution, out / "halfspace_y.csv")
    _write_json({"factorization_defect": fact, "inward_flow_min": inflow,
                 "log_fit": {"t": t_fit, "a": fit.a, "b": fit.b,
                             "residual": fit.residual},
                 "chain_rule_defect": chain,
                 "gaps": run.gaps, "converged": run.converged},
                out / "report.json")
    cfg.say(f"factorization defect {fact:.3g}, wall flux min {inflow:.3g}")
    cfg.say(f"log fit at t={t_fit:g}: a={fit.a:.6g} (rms {fit.residual:.3g}); "
            f"chain-rule defect {chain:.3g}")
    return 0


def cmd_verify(cfg: RunConfig, args) -> int:
    sec = _Section(cfg.cp, "verify")
    times = [_in_horizon(t, sec.label("times"), cfg.params.t_end)
             for t in sec.numbers("times", "0.8, 0.4, 0.2")]
    times = [t for t in times if cfg.t_min - 1e-12 <= t]
    if not times:
        raise ConfigError("[verify] times must intersect [t_min, t_end]")

    mono = check_couple_monotone(cfg.model, cfg.box, rng_seed=cfg.seed)
    run = _continuation(cfg, cfg.model)
    if run.failed_eps is not None:
        raise run.failure
    sol = run.smallest_eps_solution
    snap = list(dict.fromkeys(sol.snap(times)))  # distinct records, in the order given
    cert = estimate_certificate(cfg.model, sol, snap)
    field = sol.field()
    diag = graph_limit_diagnostic(field, cfg.model.x0, SUBLEVEL_M, snap)
    cross = cross_monotonicity(field, field, max(snap), rng_seed=cfg.seed)
    checks = {
        "couple_monotonicity": mono.passed,
        "penalization_cauchy": run.converged,
        "certificate": bool(cert.passed) if cert.applicable else None,
        "graph_limit": diag.passed,
        "cross_monotonicity": cross >= -CROSS_TOL,
    }
    out = _outdir(cfg)
    _write_json({
        "couple_monotonicity": {"min_pairing": mono.min_pairing,
                                "min_second_modulus": mono.min_second_modulus,
                                "alpha": cfg.model.consts.alpha},
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
        "cross_monotonicity": {"min": cross, "n_pairs": CROSS_PAIRS,
                               "t": max(snap)},
        "checks": checks,
    }, out / "report.json")
    order = np.argsort(diag.times)
    ts = diag.times[order]
    nearest = np.argmin(np.abs(cert.times[None, :] - ts[:, None]), axis=1)
    # the certificate measured the norm at its checked times already
    lipschitz = [cert.measured[k] if cert.checked[k] else lipschitz_norm(sol, t)
                 for t, k in zip(ts, nearest)]
    write_table(out / "curves.csv", "t,lipschitz,bound,diameter", ts, lipschitz,
                cert.bound[nearest], diag.diameters[order])
    failed = [k for k, v in checks.items() if v is False]
    for k, v in checks.items():
        status = "skipped" if v is None else ("pass" if v else "FAIL")
        cfg.say(f"{k}: {status}")
    return 1 if failed else 0


def cmd_probe(cfg: RunConfig, args) -> int:
    sec = _Section(cfg.cp, "probe")
    t = _in_horizon(parse_number(args.t, "--t"), "--t", cfg.params.t_end) \
        if args.t is not None else sec.time("t", "0.4", cfg.params.t_end)
    x_text = args.x if args.x is not None else sec.get("x", None)
    if x_text is None:
        raise ConfigError("probe needs x (flag --x or [probe] x)")
    x = np.asarray(parse_numbers(x_text, "probe x"))
    if x.shape != (cfg.model.d,):
        raise ConfigError(f"probe x must have {cfg.model.d} coordinates")
    _check_in_box(x, cfg.box, "probe x")
    if cfg.model.lam > 0:
        raise ConfigError("probe compares against characteristics; lambda must be 0")
    eps, sol = _single_solve(cfg)
    field = sol.field()
    grid_val = field.eval(t, x)
    char_val = solve_by_shooting(cfg.model, penalized_data(cfg.model.x0, eps), t, x)
    diff = float(np.max(np.abs(grid_val - char_val)))

    def text(vals):
        return ",".join(f"{v:.12g}" for v in np.atleast_1d(vals))

    cfg.say(f"grid value at (t={t:g}, x={x_text.strip()}): {text(grid_val)}")
    cfg.say(f"characteristics value:          {text(char_val)}")
    cfg.say(f"max component difference: {diff:.6g}")
    if np.min(np.abs(sol.times - t)) > TIME_MATCH_TOL:  # the grid value blends two records
        k = int(np.searchsorted(sol.times, t))
        cfg.say("grid value between records, linear in t: " + ", ".join(
            f"{text(field.eval(s, x))} at t={s:g}" for s in sol.times[k - 1:k + 1]))
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
        if cfg.cp.has_section("halfspace") and args.command != "halfspace":
            raise ConfigError(f"a config with a [halfspace] section reads [box] in straightened "
                              f"coordinates: run it with the halfspace command, not {args.command}")
        return _COMMANDS[args.command](cfg, args)
    except ConfigError as exc:
        print(f"config error: {exc}", file=sys.stderr)
        return 2
    except PlanningError as exc:  # every one but ConfigError is a numerical failure
        extra = f" (last stable time {exc.t_last:.6g})" if isinstance(exc, BlowupError) else ""
        print(f"numerical failure: {exc}{extra}", file=sys.stderr)
        return 1
    except OSError as exc:
        print(f"i/o error: {exc}", file=sys.stderr)
        return 3


def entry():
    sys.exit(main())


if __name__ == "__main__":
    entry()
