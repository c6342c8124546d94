"""The benchmark calls into the program; these tests keep the two in step.

``perfbench/spans.py`` looks up every name in its ``TRACED`` table with
no default, so a function renamed or removed here breaks every traced
benchmark run.  ``perfbench/workloads.py`` calls the library by position
and drives ``cli.main``, so a changed signature or exit code breaks every
run of its workloads; one warm-up scenario of each, with the benchmark's
own checks, catches that here, and so does the one forced scenario of
``closed_loop_cli``.
"""

import importlib
import importlib.util
import sys
from pathlib import Path

import pytest

PERFBENCH = Path(__file__).resolve().parents[1] / "perfbench"
SPANS = PERFBENCH / "spans.py"


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


@pytest.mark.parametrize("name", ["design", "closed_loop_cli"])
def test_benchmark_warm_up_runs_and_checks(name, tmp_path, monkeypatch):
    monkeypatch.syspath_prepend(str(PERFBENCH))
    workloads = importlib.import_module("workloads")
    workloads.WORKLOADS[name](0, tmp_path).warm_up()


def test_benchmark_forced_scenario_runs_and_checks(tmp_path, monkeypatch):
    # the closed-loop warm-up has no forcing; the Jeffreys scenario is the
    # benchmark's one forced closed loop
    monkeypatch.syspath_prepend(str(PERFBENCH))
    workloads = importlib.import_module("workloads")
    bench = workloads.ClosedLoopCli(0, tmp_path)
    sc = bench.scenarios[2]
    assert sc["doc"]["name"] == "jeffreys_forced"
    bench.check(sc, bench.run(sc))
