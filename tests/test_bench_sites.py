"""The benchmark's tracer patches molflow functions at fixed module
attributes (``perfbench/tracing.py``); a refactor that renames or drops one
of them must fail here, not only in the benchmark's own self-test."""

import importlib
import importlib.util
import sys
from pathlib import Path

TRACING = Path(__file__).resolve().parents[1] / "perfbench" / "tracing.py"


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
