"""The names the benchmark in perfbench/ looks up in mfgplan all exist.

perfbench/tracing.py wraps its targets by module and attribute name, and
perfbench/child.py calls mfgplan attributes directly; a renamed or deleted
name fails every benchmark pass. Both files are only read here.
"""

import ast
import importlib
import inspect
import sys
from pathlib import Path

import pytest

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


def test_child_calls_bind_to_signatures():
    # p.attempt(label, fn, *args, **kwargs) calls fn(*args, **kwargs)
    tree = ast.parse((PERFBENCH / "child.py").read_text())
    checked = 0
    for call in ast.walk(tree):
        if not (isinstance(call, ast.Call) and isinstance(call.func, ast.Attribute)
                and call.func.attr == "attempt" and len(call.args) >= 2):
            continue
        name = _chain(call.args[1])
        if not name or name.partition(".")[0] not in MODULES:
            continue
        root, _, attr = name.partition(".")
        fn = _resolve(_module(root), attr)
        inspect.signature(fn).bind(*call.args[2:], **{k.arg: None for k in call.keywords})
        checked += 1
    assert checked
