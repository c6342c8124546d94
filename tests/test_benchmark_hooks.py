"""The benchmark's tracer wraps functions of the program by name.

``perfbench/spans.py`` looks up every name in its ``TRACED`` table with
no default, so a function renamed or removed here breaks every traced
benchmark run.  This test keeps the two in step.
"""

import importlib
import importlib.util
import sys
from pathlib import Path

SPANS = Path(__file__).resolve().parents[1] / "perfbench" / "spans.py"


def test_every_traced_name_resolves(monkeypatch):
    spec = importlib.util.spec_from_file_location("perfbench_spans", SPANS)
    spans = importlib.util.module_from_spec(spec)
    # dataclasses look their module up in sys.modules while it executes
    monkeypatch.setitem(sys.modules, spec.name, spans)
    spec.loader.exec_module(spans)
    missing = [f"{layer}.{name}"
               for layer, names in spans.TRACED.items()
               for name in names
               if not callable(getattr(
                   importlib.import_module(f"pidestab.{layer}"), name, None))]
    assert not missing
