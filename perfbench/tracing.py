"""Counters and spans recorded around mfgplan's public functions.

Nothing in the package is edited. Each target is wrapped where its callers
look it up: the module attribute for functions (in every mfgplan module that
imported the same object, so ``mfgplan.cli.run_penalization`` is wrapped
together with ``mfgplan.planning.run_penalization``) and the class attribute
for methods.

A Recorder in count mode wraps only the functions that carry exact work counts
(a handful of calls per pass, so the untraced timings are not disturbed). In
span mode it wraps every target and keeps one span per call in compact arrays:
name, parent span, start and end. Spans stay in memory until the pass ends.
"""

from __future__ import annotations

import functools
import importlib
import os
import time
from array import array

import numpy as np

import mfgplan

MODULES = ("grid_solver", "model", "halfspace", "planning", "yosida",
           "characteristics", "trajectories", "cli")


def _count_solve(rec, args, kwargs, sol):
    steps = int(sol.meta["steps"])
    rec.counts["grid_solver.steps"] += steps
    rec.counts["grid_solver.node_steps"] += steps * int(np.prod(sol.box.shape))
    rec.retained_bytes = max(rec.retained_bytes, sol.values.nbytes)


def _count_run(rec, args, kwargs, run):
    rec.retained_bytes = max(rec.retained_bytes,
                             sum(s.values.nbytes for s in run.solutions))


def _count_csv(rec, args, kwargs, result):
    sol, path = args[0], args[1]
    rec.counts["grid_solver.csv_rows"] += len(sol.times) * int(np.prod(sol.box.shape))
    rec.counts["grid_solver.csv_bytes"] += os.path.getsize(path)


def _count_resolvent(rec, args, kwargs, result):
    rec.counts["yosida.points"] += np.atleast_2d(args[2]).shape[0]


def _count_shoot(rec, args, kwargs, result):
    rec.counts["characteristics.points"] += 1


def _count_traject(rec, args, kwargs, traj):
    rec.counts["trajectories.steps"] += len(traj.times) - 1


def _count_eval(rec, args, kwargs, result):
    rec.eval_nodes += np.size(args[1]) // args[0].d


# (module, attribute path, count hook or None). The order fixes the span codes.
TARGETS = (
    ("grid_solver", "solve_master", _count_solve),
    ("grid_solver", "InterpPlan.__init__", None),
    ("grid_solver", "InterpPlan.apply", None),
    ("grid_solver", "GridField.eval", None),
    ("grid_solver", "Slice.eval", None),
    ("grid_solver", "write_solution_csv", _count_csv),
    ("model", "ModelSpec.eval_F", _count_eval),
    ("model", "ModelSpec.eval_G", _count_eval),
    ("halfspace", "from_log_coordinates", None),
    ("planning", "run_penalization", _count_run),
    ("planning", "extract_limit", None),
    ("planning", "estimate_certificate", None),
    ("planning", "graph_limit_diagnostic", None),
    ("planning", "cross_monotonicity", None),
    ("yosida", "resolvent", _count_resolvent),
    ("yosida", "invert_shift", _count_resolvent),
    ("yosida", "yosida_by_transport", None),
    ("characteristics", "solve_by_shooting", _count_shoot),
    ("trajectories", "integrate_backward", _count_traject),
    ("cli", "load_config", None),
    ("cli", "main", None),
)
NAMES = tuple(f"{mod}.{attr}" for mod, attr, _ in TARGETS)
CODE = {name: code for code, name in enumerate(NAMES)}

# Exact counts that every pass reports, traced or not.
COUNT_KEYS = ("grid_solver.steps", "grid_solver.node_steps", "grid_solver.csv_rows",
              "grid_solver.csv_bytes", "yosida.points", "characteristics.points",
              "trajectories.steps")


class Recorder:
    """Installs the wrappers and holds what they record for one pass."""

    def __init__(self, spans: bool):
        self.spans = spans
        self.counts = dict.fromkeys(COUNT_KEYS, 0)
        self.retained_bytes = 0
        self.eval_nodes = 0
        self.names = array("B")
        self.parents = array("i")
        self.starts = array("d")
        self.ends = array("d")
        self._stack = [-1]
        modules = [importlib.import_module(f"mfgplan.{m}") for m in MODULES]
        for mod, attr, count in TARGETS:
            # Model evaluations run up to 200k times a pass, so they are
            # wrapped only when traced.
            if not spans and count in (None, _count_eval):
                continue
            owner_name, _, name = attr.rpartition(".")
            home = importlib.import_module(f"mfgplan.{mod}")
            if owner_name:
                owner = getattr(home, owner_name)
                setattr(owner, name, self._wrap(getattr(owner, name), attr, mod, count))
                continue
            original = getattr(home, name)
            wrapped = self._wrap(original, attr, mod, count)
            for where in [mfgplan, *modules]:
                if getattr(where, name, None) is original:
                    setattr(where, name, wrapped)

    def _wrap(self, fn, attr, mod, count):
        if not self.spans:
            @functools.wraps(fn)
            def counted(*args, **kwargs):
                result = fn(*args, **kwargs)
                count(self, args, kwargs, result)
                return result
            return counted

        code = CODE[f"{mod}.{attr}"]
        names, parents, starts, ends = self.names, self.parents, self.starts, self.ends
        stack = self._stack
        clock = time.perf_counter

        @functools.wraps(fn)
        def traced(*args, **kwargs):
            sid = len(names)
            names.append(code)
            parents.append(stack[-1])
            ends.append(0.0)
            stack.append(sid)
            starts.append(clock())
            try:
                result = fn(*args, **kwargs)
            finally:
                ends[sid] = clock()
                stack.pop()
            if count is not None:
                count(self, args, kwargs, result)
            return result
        return traced

    def exact_counts(self) -> dict:
        out = dict(self.counts)
        out["grid_solver.retained_mb"] = self.retained_bytes / 2 ** 20
        return out

    def save_spans(self, path, **labels):
        """Write the spans as arrays (name code, parent index, start, end)."""
        np.savez(path, name=np.frombuffer(self.names, np.uint8),
                 parent=np.frombuffer(self.parents, np.int32),
                 start=np.frombuffer(self.starts), end=np.frombuffer(self.ends),
                 names=np.asarray(NAMES), **labels)

    def layer_metrics(self) -> tuple[dict, dict]:
        """Per-layer metrics of the pass, and self seconds per wrapped name.

        A span's self time is its duration minus the durations of its direct
        children.
        """
        k = len(NAMES)
        code = np.frombuffer(self.names, np.uint8).astype(np.intp)
        parent = np.frombuffer(self.parents, np.int32).astype(np.intp)
        dur = np.frombuffer(self.ends) - np.frombuffer(self.starts)
        nested = parent >= 0
        self_t = dur - np.bincount(parent[nested], weights=dur[nested], minlength=code.size)
        calls = np.bincount(code, minlength=k)
        total = np.bincount(code, weights=dur, minlength=k)
        own = np.bincount(code, weights=self_t, minlength=k)
        parent_code = np.where(nested, code[np.maximum(parent, 0)], -1)

        def c(name):
            return int(calls[CODE[name]])

        def t(name):
            return float(total[CODE[name]])

        def s(name):
            return float(own[CODE[name]])

        def per(seconds, count, scale):
            return seconds / count * scale if count else 0.0

        gather = (code == CODE["grid_solver.InterpPlan.apply"]) \
            & (parent_code == CODE["grid_solver.solve_master"])
        queries = (CODE["grid_solver.GridField.eval"], CODE["grid_solver.Slice.eval"])
        top_query = np.isin(code, queries) & ~np.isin(parent_code, queries)
        cnt = self.exact_counts()
        steps, node_steps = cnt["grid_solver.steps"], cnt["grid_solver.node_steps"]
        march = s("grid_solver.solve_master")
        evals = c("model.ModelSpec.eval_F") + c("model.ModelSpec.eval_G")
        eval_s = s("model.ModelSpec.eval_F") + s("model.ModelSpec.eval_G")
        newton_s = t("yosida.resolvent") + t("yosida.invert_shift")
        metrics = dict(cnt)
        metrics.update({
            "grid_solver.march_self_s": march,
            "grid_solver.march_us_per_step": per(march, steps, 1e6),
            "grid_solver.march_ns_per_node_step": per(march, node_steps, 1e9),
            "grid_solver.gather_calls": int(np.sum(gather)),
            "grid_solver.gather_s": float(np.sum(dur[gather])),
            "grid_solver.plan_builds": c("grid_solver.InterpPlan.__init__"),
            "grid_solver.plan_build_s": t("grid_solver.InterpPlan.__init__"),
            "grid_solver.query_s": float(np.sum(dur[top_query])),
            "grid_solver.csv_us_per_row": per(t("grid_solver.write_solution_csv"),
                                              cnt["grid_solver.csv_rows"], 1e6),
            "model.eval_calls": evals,
            "model.eval_s": eval_s,
            "model.eval_ns_per_node": per(eval_s, self.eval_nodes, 1e9),
            "halfspace.straighten_calls": c("halfspace.from_log_coordinates"),
            "halfspace.straighten_s": t("halfspace.from_log_coordinates"),
            "planning.continuation_s": t("planning.run_penalization"),
            "planning.extract_s": t("planning.extract_limit"),
            "planning.certificate_s": t("planning.estimate_certificate"),
            "planning.diagnostics_s": t("planning.graph_limit_diagnostic")
            + t("planning.cross_monotonicity"),
            "yosida.newton_us_per_point": per(newton_s, cnt["yosida.points"], 1e6),
            "yosida.transport_s": t("yosida.yosida_by_transport"),
            "characteristics.shoot_ms_per_point": per(
                t("characteristics.solve_by_shooting"), cnt["characteristics.points"], 1e3),
            "trajectories.us_per_step": per(t("trajectories.integrate_backward"),
                                            cnt["trajectories.steps"], 1e6),
            "cli.load_config_s": t("cli.load_config"),
            "cli.write_s": s("cli.main"),
            "trace.spans": int(code.size),
        })
        return metrics, {name: float(own[i]) for i, name in enumerate(NAMES) if calls[i]}
