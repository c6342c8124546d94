"""One spectral pass per design and per command.

The partition carries the degeneracy report and the root pair of every
mode, so no later stage scans the spectrum again.  These tests count the
calls of the three spectral routines, wrapped wherever a ``pidestab``
module holds them, over the library design sequence and over each
command that designs or loads a controller.
"""

import collections
import importlib
import math

import numpy as np
import pytest

from pidestab import cli, fluids, riccati, spectral, synthesis
from test_cli import headline_config

COUNTED = ("partition_spectrum", "check_degeneracy", "modal_roots")
MODULES = ("cli", "fluids", "riccati", "serialize", "simulate", "spectral",
           "synthesis")


@pytest.fixture
def calls(monkeypatch):
    counts = collections.Counter()

    def counted(name, fn):
        def wrapper(*args, **kwargs):
            counts[name] += 1
            return fn(*args, **kwargs)
        return wrapper

    for name in COUNTED:
        fn = getattr(spectral, name)
        wrapper = counted(name, fn)
        for mod in MODULES:
            module = importlib.import_module(f"pidestab.{mod}")
            if getattr(module, name, None) is fn:
                monkeypatch.setattr(module, name, wrapper)
    return counts


ONE_PASS = {"partition_spectrum": 1, "check_degeneracy": 1, "modal_roots": 3}


def test_library_design_makes_one_pass(calls):
    kernel = spectral.MemoryKernel(b=1.0, delta=4.0)
    spectrum = fluids.model_spectrum("dirichlet_1d", 1.0 / math.pi ** 2, 16)
    part = spectral.partition_spectrum(spectrum, kernel, 2.0)
    acts = synthesis.default_actuators(part)
    companion = synthesis.build_companion(part, kernel, acts, spectrum)
    transformed = synthesis.transform_and_group(companion, part)
    assert synthesis.rank_conditions(transformed, part).passed
    assert synthesis.kalman_observability_check(transformed)
    x0 = np.concatenate([np.ones(1), -part.lambdas])
    synthesis.min_energy_control(companion, x0, 1.0)
    riccati.solve_are(riccati.build_shifted(spectrum, kernel, 2.0, acts))
    assert dict(calls) == ONE_PASS


def test_each_command_makes_one_pass(tmp_path, calls):
    out = tmp_path / "out"
    cfg = headline_config(tmp_path, out, t_max=4.0)
    for argv in (["synthesize", "--config", cfg],
                 ["certify", "--config", cfg],
                 ["simulate", "--config", cfg,
                  "--controller", str(out / "controller.json")]):
        calls.clear()
        assert cli.main(argv) == 0
        assert dict(calls) == ONE_PASS, argv[0]
