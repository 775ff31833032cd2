"""The names the benchmark in perfbench/ looks up in mfgplan all exist,
every name mfgplan exports and every function it defines has a caller in the
package or the benchmark, and the package imports nothing but numpy and the
standard library.

perfbench/tracing.py wraps its targets by module and attribute name, and
perfbench/child.py calls mfgplan attributes directly; a renamed or deleted
name fails every benchmark pass. Both files are only read here, apart from
the count hooks of tracing.py, which run on real results without wrapping
anything, and one span-mode Recorder, whose wrappers are taken off after its
test.
"""

import ast
import importlib
import inspect
import math
import sys
from pathlib import Path
from types import SimpleNamespace

import numpy as np
import pytest

import mfgplan
from mfgplan import (Box, FieldSpec, HalfspaceModel, ModelSpec, SolverParams, extract_limit,
                     penalized_slice, run_penalization, solve_master, transformed_model,
                     yosida_apply)
from conftest import baseline_model, box1d, identity_noise

PERFBENCH = Path(__file__).resolve().parent.parent / "perfbench"
# names child.py binds to mfgplan or one of its modules
MODULES = ("mfgplan", "characteristics", "cli", "grid_solver", "planning", "trajectories",
           "yosida")


def _module(name):
    return importlib.import_module(name if name == "mfgplan" else f"mfgplan.{name}")


def _resolve(obj, dotted):
    for part in dotted.split("."):
        obj = getattr(obj, part)
    return obj


@pytest.fixture(scope="module")
def tracing():
    sys.path.insert(0, str(PERFBENCH))
    try:
        yield importlib.import_module("tracing")
    finally:
        sys.path.remove(str(PERFBENCH))


def test_tracing_targets_resolve(tracing):
    assert tracing.TARGETS
    for mod, attr, _ in tracing.TARGETS:
        assert callable(_resolve(_module(mod), attr)), f"{mod}.{attr}"


def _chain(node):
    """'root.a.b' for an attribute chain on a bare name, else None."""
    parts = []
    while isinstance(node, ast.Attribute):
        parts.append(node.attr)
        node = node.value
    return ".".join([node.id, *reversed(parts)]) if isinstance(node, ast.Name) else None


def test_child_attributes_resolve():
    tree = ast.parse((PERFBENCH / "child.py").read_text())
    used = {c for c in map(_chain, ast.walk(tree))
            if c and "." in c and c.partition(".")[0] in MODULES}
    assert "characteristics.solve_by_shooting" in used
    for name in sorted(used):
        root, _, attr = name.partition(".")
        _resolve(_module(root), attr)


def _mfgplan_calls(tree):
    """(name, positional args, keyword names) of every mfgplan call in tree.

    p.attempt(label, fn, *args, **kwargs) counts as the call fn(*args, **kwargs).
    """
    for call in ast.walk(tree):
        if not isinstance(call, ast.Call):
            continue
        name, args = _chain(call.func), call.args
        if name and name.endswith(".attempt") and len(args) >= 2:
            name, args = _chain(args[1]), args[2:]
        if name and "." in name and name.partition(".")[0] in MODULES:
            yield name, args, [k.arg for k in call.keywords]


def test_child_calls_bind_to_signatures():
    tree = ast.parse((PERFBENCH / "child.py").read_text())
    checked = set()
    for name, args, keywords in _mfgplan_calls(tree):
        root, _, attr = name.partition(".")
        fn = _resolve(_module(root), attr)
        inspect.signature(fn).bind(*args, **dict.fromkeys(keywords))
        checked.add(name)
    # the direct calls as well as the ones made through p.attempt
    assert {"yosida.yosida_apply", "yosida.yosida_by_transport", "cli.load_config",
            "planning.extract_limit", "cli.main"} <= checked


def test_every_export_has_a_caller():
    # a name is called when it is an ast Name or Attribute in the package's
    # modules (its __init__.py aside) or in perfbench/; test oracles live in
    # tests/conftest.py, not in the package
    files = [p for p in (PERFBENCH.parent / "src" / "mfgplan").glob("*.py")
             if p.name != "__init__.py"] + list(PERFBENCH.glob("*.py"))
    used = set()
    for path in files:
        for node in ast.walk(ast.parse(path.read_text())):
            if isinstance(node, ast.Name):
                used.add(node.id)
            elif isinstance(node, ast.Attribute):
                used.add(node.attr)
    assert sorted(set(mfgplan.__all__) - used) == []


def _registered(fn):
    return any(isinstance(dec, ast.Call) and getattr(dec.func, "id", None) == "register_field"
               for dec in fn.decorator_list)


def test_every_function_has_a_caller():
    # every def in the package (dunders and register_field evaluators, which a
    # model file names, aside) is named as an ast Name or Attribute in the
    # package or in perfbench/; a helper only tests call lives in tests/conftest.py
    package = list((PERFBENCH.parent / "src" / "mfgplan").glob("*.py"))
    defined, used = {}, set()
    for path in package + list(PERFBENCH.glob("*.py")):
        for node in ast.walk(ast.parse(path.read_text())):
            if isinstance(node, ast.Name):
                used.add(node.id)
            elif isinstance(node, ast.Attribute):
                used.add(node.attr)
            elif isinstance(node, (ast.FunctionDef, ast.AsyncFunctionDef)) \
                    and path in package and not _registered(node) \
                    and not (node.name.startswith("__") and node.name.endswith("__")):
                defined[node.name] = f"{path.name}:{node.lineno}"
    assert sorted(f"{name} ({where})" for name, where in defined.items()
                  if name not in used) == []


def test_package_imports_only_numpy_and_the_standard_library():
    # numpy is the only runtime dependency: every absolute import in the
    # package's modules names numpy or a standard-library module
    imported = set()
    for path in (PERFBENCH.parent / "src" / "mfgplan").glob("*.py"):
        for node in ast.walk(ast.parse(path.read_text())):
            if isinstance(node, ast.Import):
                imported.update(alias.name.split(".")[0] for alias in node.names)
            elif isinstance(node, ast.ImportFrom) and node.level == 0:
                imported.add(node.module.split(".")[0])
    assert "numpy" in imported
    assert sorted(imported - set(sys.stdlib_module_names) - {"numpy"}) == []


# The parameter each count hook in tracing.py reads by position: (target, slot) -> name.
HOOK_SLOTS = {
    ("yosida.resolvent", 2): "x",
    ("yosida.invert_shift", 2): "targets",
    ("grid_solver.write_solution_csv", 0): "sol",
    ("grid_solver.write_solution_csv", 1): "path",
    ("model.ModelSpec.eval_F", 0): "self",
    ("model.ModelSpec.eval_F", 1): "x",
    ("model.ModelSpec.eval_G", 0): "self",
    ("model.ModelSpec.eval_G", 1): "x",
}


def _slots_read(hook):
    """The indices i of every args[i] the hook reads."""
    tree = ast.parse(inspect.getsource(hook))
    return {node.slice.value for node in ast.walk(tree)
            if isinstance(node, ast.Subscript) and isinstance(node.value, ast.Name)
            and node.value.id == "args" and isinstance(node.slice, ast.Constant)}


def test_count_hooks_read_the_parameters_they_count(tracing):
    read = {(f"{mod}.{attr}", i) for mod, attr, hook in tracing.TARGETS if hook
            for i in _slots_read(hook)}
    assert read == set(HOOK_SLOTS)
    for (target, i), want in HOOK_SLOTS.items():
        root, _, attr = target.partition(".")
        params = list(inspect.signature(_resolve(_module(root), attr)).parameters.values())
        assert params[i].name == want, f"{target} slot {i}"
        assert params[i].kind == inspect.Parameter.POSITIONAL_OR_KEYWORD, f"{target} slot {i}"
    # the package's own calls pass those slots by position
    funcs = {}  # function name -> highest slot read
    for target, i in HOOK_SLOTS:
        if target.count(".") == 1:
            name = target.rpartition(".")[2]
            funcs[name] = max(i, funcs.get(name, i))
    for path in (PERFBENCH.parent / "src" / "mfgplan").glob("*.py"):
        for call in ast.walk(ast.parse(path.read_text())):
            if isinstance(call, ast.Call) and getattr(call.func, "id", None) in funcs:
                assert len(call.args) > funcs[call.func.id], f"{path.name}:{call.lineno}"


def test_count_hooks_run_on_real_results(tracing):
    # the hooks read meta["steps"], box.shape and values.nbytes of each
    # solve_master result and the values of each run's solutions; a recorder
    # stand-in takes their counts, so nothing in the package is wrapped
    rec = SimpleNamespace(counts=dict.fromkeys(tracing.COUNT_KEYS, 0), retained_bytes=0)
    m, box, params = baseline_model(), box1d(n=60), SolverParams(t_end=0.3, n_rec=7)
    slices = [penalized_slice(m, box, e) for e in (0.4, 0.2)]
    single = solve_master(m, slices[1], params)
    keep_all = solve_master(m, slices, params)
    hooked = solve_master(m, slices, params, on_record=lambda e, k, row: None)
    for result in (single, keep_all, hooked):
        tracing._count_solve(rec, (m, slices, params), {}, result)
    steps = single.meta["steps"] + 2 * keep_all.meta["steps"]
    assert hooked.meta == keep_all.meta
    assert rec.counts["grid_solver.steps"] == steps
    assert rec.counts["grid_solver.node_steps"] == steps * math.prod(box.shape)
    assert rec.retained_bytes == keep_all.values.nbytes == 2 * hooked.values.nbytes
    for eps in ((0.4, 0.2), (0.4, 1e-15)):  # the second fails on its initial data
        run = run_penalization(m, box, eps, params)
        rec.retained_bytes = 0
        tracing._count_run(rec, (m, box, eps, params), {}, run)
        assert rec.retained_bytes == single.values.nbytes
        assert (run.failed_eps is None) == (eps[-1] == 0.2)


@pytest.fixture
def span_recorder(tracing, monkeypatch):
    """A span-mode Recorder; monkeypatch takes its wrappers off after the test."""
    homes = [mfgplan, *map(_module, tracing.MODULES)]
    for mod, attr, _ in tracing.TARGETS:
        owner_name, _, name = attr.rpartition(".")
        for owner in [_resolve(_module(mod), owner_name)] if owner_name else homes:
            if hasattr(owner, name):
                monkeypatch.setattr(owner, name, getattr(owner, name))
    return tracing.Recorder(spans=True)


def test_traced_straightening_is_seen(span_recorder):
    # tracing.py counts halfspace.straighten_calls by rebinding the module's
    # from_log_coordinates, which transformed_model must read when called
    base = ModelSpec(d=2, F=FieldSpec.registered("capped_x1_burgers"),
                     G=FieldSpec.affine(0.0, 0.0, d=2), lam=0.0,
                     noise=identity_noise(2), x0=np.array([0.5, 0.0]))
    m = transformed_model(HalfspaceModel(base=base, ftilde=FieldSpec.affine(0.0, 1.0, d=2)))
    box = Box(np.array([-3.0, -1.0]), np.array([2.0, 1.0]), np.array([50, 20]))
    solve_master(m, penalized_slice(m, box, 0.1), SolverParams(t_end=0.05, n_rec=3))
    metrics, _ = span_recorder.layer_metrics()
    assert metrics["halfspace.straighten_calls"] >= 1


def test_resolvent_points_counted_per_node(span_recorder):
    # yosida.points counts the rows of each resolvent and shift inversion:
    # an extraction inverts every node twice, a regularization its rows once
    m, box = baseline_model(), box1d(n=60)
    run = run_penalization(m, box, (0.4, 0.2), SolverParams(t_end=0.3, n_rec=7), t_min=0.2)
    nodes = box.node_list()
    extract_limit(run, 0.25)
    assert span_recorder.exact_counts()["yosida.points"] == 2 * len(nodes)
    span_recorder.counts["yosida.points"] = 0
    yosida_apply(run.smallest_eps_solution.slice_at(0.25), run.delta, nodes[::3])
    assert span_recorder.exact_counts()["yosida.points"] == len(nodes[::3])


def test_one_point_field_query_is_one_query_span(tracing, span_recorder):
    # a one-point GridField.eval builds no InterpPlan, yet grid_solver.query_s,
    # the time of the outermost query spans, still takes it as one query
    m, box = baseline_model(), box1d(n=60)
    sol = solve_master(m, penalized_slice(m, box, 0.2), SolverParams(t_end=0.3, n_rec=7))
    rec, first = span_recorder, len(span_recorder.names)
    sol.field().eval(0.25, np.array([0.4]))
    assert [tracing.NAMES[c] for c in rec.names[first:]] == ["grid_solver.GridField.eval"]
    assert rec.parents[first] == -1
    metrics, _ = rec.layer_metrics()
    assert metrics["grid_solver.plan_builds"] == 0
    assert metrics["grid_solver.query_s"] == rec.ends[first] - rec.starts[first]
