"""The benchmark calls molflow at fixed names and patches molflow functions
at fixed module attributes (``perfbench/``); a refactor that renames, drops
or changes the signature of one of them must fail here, not only in the
benchmark's own self-test."""

import ast
import importlib
import importlib.util
import inspect
import sys
from pathlib import Path

import pytest

PERFBENCH = Path(__file__).resolve().parents[1] / "perfbench"
TRACING = PERFBENCH / "tracing.py"


def test_every_traced_site_resolves(monkeypatch):
    spec = importlib.util.spec_from_file_location("perfbench_tracing", TRACING)
    tracing = importlib.util.module_from_spec(spec)
    monkeypatch.setitem(sys.modules, spec.name, tracing)  # its dataclasses look it up
    spec.loader.exec_module(tracing)
    missing = []
    for target in tracing.TARGETS:
        for owner, attr in target.sites:
            module, _, cls = owner.partition(":")
            obj = importlib.import_module(f"molflow.{module}")
            if cls:
                obj = getattr(obj, cls, None)
            if not callable(getattr(obj, attr, None)):
                missing.append(f"{owner}.{attr}")
    assert not missing, f"traced sites missing from molflow: {missing}"


def _molflow_names(tree: ast.Module) -> dict:
    """Every name the file binds with ``from molflow[.m] import x``, mapped
    to the molflow object it names."""
    names = {}
    for node in ast.walk(tree):
        if isinstance(node, ast.ImportFrom) and (node.module or "").startswith("molflow"):
            module = importlib.import_module(node.module)
            for alias in node.names:
                obj = getattr(module, alias.name, None)
                if obj is None:  # a submodule: from molflow import dataset
                    obj = importlib.import_module(f"{node.module}.{alias.name}")
                names[alias.asname or alias.name] = obj
    return names


def _resolve(expr, names):
    if isinstance(expr, ast.Name):
        return names.get(expr.id)
    if isinstance(expr, ast.Attribute):
        base = _resolve(expr.value, names)
        return None if base is None else getattr(base, expr.attr, AttributeError)
    return None


@pytest.mark.parametrize("script", ["run.py", "fixture.py", "make_fixture.py"])
def test_benchmark_calls_bind_to_molflow_signatures(script):
    # every molflow call in the benchmark, e.g. pipeline.generate_similar(...)
    # or init_flow(...), must still accept the arguments it passes
    tree = ast.parse((PERFBENCH / script).read_text())
    names = _molflow_names(tree)
    bad = []
    checked = 0
    for node in ast.walk(tree):
        if not isinstance(node, ast.Call):
            continue
        func = _resolve(node.func, names)
        if func is None:
            continue
        where = f"{script}:{node.lineno} {ast.unparse(node.func)}"
        if func is AttributeError or not callable(func):
            bad.append(f"{where}: not a molflow callable")
            continue
        if any(isinstance(a, ast.Starred) for a in node.args) or any(
                k.arg is None for k in node.keywords):
            continue
        try:
            inspect.signature(func).bind(*node.args, **{k.arg: None for k in node.keywords})
        except TypeError as exc:
            bad.append(f"{where}: {exc}")
        checked += 1
    assert checked > 0 and not bad, bad
