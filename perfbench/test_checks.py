"""Each correctness check accepts a correct output and rejects a corrupted one.

Run from the repository root:  python3 -m pytest perfbench -q
"""

import json
import math
import sys
from pathlib import Path

import numpy as np
import pytest

ROOT = Path(__file__).resolve().parent.parent
sys.path[:0] = [str(ROOT / "src"), str(ROOT / "perfbench")]

from pidestab import (fluids, riccati, serialize, simulate,  # noqa: E402
                      spectral, synthesis)

import checks  # noqa: E402
import spans  # noqa: E402
import workloads  # noqa: E402
from checks import CheckError  # noqa: E402

KERNEL = spectral.MemoryKernel(b=1.0, delta=4.0)
HEADLINE = fluids.model_spectrum("dirichlet_1d", 1.0 / math.pi ** 2, 16)


@pytest.fixture(scope="module")
def design():
    part = spectral.partition_spectrum(HEADLINE, KERNEL, 2.0)
    acts = synthesis.default_actuators(part)
    comp = synthesis.build_companion(part, KERNEL, acts, HEADLINE)
    x0 = np.array([1.0, -1.0])
    null = synthesis.min_energy_control(comp, x0, 1.0)
    sol = riccati.solve_are(riccati.build_shifted(HEADLINE, KERNEL, 2.0, acts))
    return {"part": part, "comp": comp, "x0": x0, "null": null, "sol": sol}


@pytest.fixture(scope="module")
def open_loop():
    grid = np.linspace(0.0, 10.0, 101)
    y0 = np.linspace(1.5, 0.5, 16)
    traj = simulate.simulate_exact(HEADLINE, KERNEL, y0,
                                   simulate.ZeroSignal(16), grid)
    return {"grid": grid, "y0": y0, "traj": traj}


def analysis_modes(lams):
    modes = []
    for i, lam in enumerate(lams):
        pair = spectral.modal_roots(lam, KERNEL)
        modes.append({"label": str(i + 1), "lambda": lam,
                      "mu_plus": [pair.mu_plus.real, pair.mu_plus.imag],
                      "mu_minus": [pair.mu_minus.real, pair.mu_minus.imag],
                      "real_roots": pair.is_real})
    return modes


def test_inputs_must_be_the_generated_ones():
    lams, _ = HEADLINE.expanded()
    expected = np.arange(1, 17) ** 2.0
    checks.check_inputs(lams, 1.0, 4.0, expected, 1.0, 4.0)
    moved = expected.copy()
    moved[5] *= 1.0 + 1e-9
    with pytest.raises(CheckError):
        checks.check_inputs(lams, 1.0, 4.0, moved, 1.0, 4.0)
    with pytest.raises(CheckError):
        checks.check_inputs(lams, 1.0, 4.0, expected[:-1], 1.0, 4.0)
    with pytest.raises(CheckError):
        checks.check_inputs(lams, 1.0, 4.0, expected, 1.0, 3.9)


# ---------------------------------------------------------------------------
# design


def test_partition_count_off_by_one(design):
    lams, _ = HEADLINE.expanded()
    n = design["part"].n_total
    checks.check_partition(lams, 1.0, 4.0, 2.0, n)
    for wrong in (n - 1, n + 1):
        with pytest.raises(CheckError):
            checks.check_partition(lams, 1.0, 4.0, 2.0, wrong)


def test_pbh_disagreement(design):
    comp = design["comp"]
    checks.check_pbh(comp.p_2n, comp.q_2nm, True)
    with pytest.raises(CheckError):
        checks.check_pbh(comp.p_2n, comp.q_2nm, False)
    # a multiplicity-two level with one actuator is not steerable
    square = fluids.model_spectrum("square_2d", 0.025, 6)
    part = spectral.partition_spectrum(square, KERNEL, 2.0)
    acts = synthesis.default_actuators(part, count=1)
    comp1 = synthesis.build_companion(part, KERNEL, acts, square)
    with pytest.raises(CheckError):
        checks.check_pbh(comp1.p_2n, comp1.q_2nm, True)


def test_steering_rejects_weak_control_and_bad_amplitude(design):
    comp, null = design["comp"], design["null"]
    args = (comp.p_2n, comp.q_2nm, design["x0"], null.grid)
    checks.check_steering(*args, null.w, null.v, 4.0)
    with pytest.raises(CheckError):
        checks.check_steering(*args, 0.99 * null.w, null.v, 4.0)
    with pytest.raises(CheckError):
        checks.check_steering(*args, null.w, null.v + 1e-3, 4.0)


def test_riccati_rejects_perturbed_gain(design):
    sol = design["sol"]
    sh = sol.system
    args = (sh.p_2k_shifted, sh.q_2km, sh.weight, sol.r_matrix)
    checks.check_riccati(*args, sol.gain)
    with pytest.raises(CheckError):
        checks.check_riccati(*args, sol.gain * (1.0 + 1e-3))


# ---------------------------------------------------------------------------
# closed loop


def test_decay_rate_below_target():
    t = np.linspace(0.0, 6.0, 601)
    checks.check_decay_rate(t, -2.0 * t, 2.0)
    with pytest.raises(CheckError):
        checks.check_decay_rate(t, -1.9 * t, 2.0)


def test_cross_route_one_sample_moved(open_loop):
    alpha = open_loop["traj"].alpha
    checks.check_cross_route(alpha.copy(), alpha, rtol=1e-5)
    moved = alpha.copy()
    moved[40, 0] += 1e-4
    with pytest.raises(CheckError):
        checks.check_cross_route(moved, alpha, rtol=1e-5)


def test_certificate_mismatch(design):
    sol = design["sol"]
    xi0 = riccati.embed_initial(sol, np.ones(16))
    quad = float(xi0 @ sol.r_matrix @ xi0)
    checks.check_certificate({"quadratic_form": quad,
                              "weighted_integral": 0.9 * quad},
                             sol.r_matrix, xi0)
    for bad in ({"quadratic_form": quad * (1 + 1e-6),
                 "weighted_integral": 0.9 * quad},
                {"quadratic_form": quad, "weighted_integral": 1.02 * quad}):
        with pytest.raises(CheckError):
            checks.check_certificate(bad, sol.r_matrix, xi0)


# ---------------------------------------------------------------------------
# wide spectrum


def test_vieta_broken_root_pair():
    modes = analysis_modes([1.0, 4.0, 30.0, 900.0])
    checks.check_vieta(modes, 1.0, 4.0)
    modes[2]["mu_minus"][0] *= 1.0 + 1e-9
    with pytest.raises(CheckError):
        checks.check_vieta(modes, 1.0, 4.0)


def test_slow_root_below_growth_bound():
    modes = analysis_modes([900.0, 1e4])
    checks.check_slow_roots(modes, 1.0, 4.0)
    modes[1]["mu_minus"][0] = 4.99
    with pytest.raises(CheckError):
        checks.check_slow_roots(modes, 1.0, 4.0)


def test_degeneracy_report_must_match_scan():
    double = 6.0 - 2.0 * math.sqrt(5.0)   # fused roots for b=1, delta=4
    modes = analysis_modes([0.5, double, 30.0])
    found = [{"kind": "double_root", "labels": ["2"]}]
    checks.check_degeneracy_report(modes, found)
    checks.check_degeneracy_report(analysis_modes([0.5, 30.0]), [])
    with pytest.raises(CheckError):
        checks.check_degeneracy_report(analysis_modes([0.5, 30.0]), found)
    modes[1]["mu_minus"] = list(modes[1]["mu_plus"])
    with pytest.raises(CheckError):
        checks.check_degeneracy_report(modes, [])
    collide = analysis_modes([0.5, 30.0])
    collide[1]["mu_plus"] = list(collide[0]["mu_minus"])
    with pytest.raises(CheckError):
        checks.check_degeneracy_report(collide, [])
    checks.check_degeneracy_report(
        collide, [{"kind": "branch_collision", "labels": ["2", "1"]}])


def test_exact_route_perturbed(open_loop):
    traj, y0, grid = open_loop["traj"], open_loop["y0"], open_loop["grid"]
    checks.check_exact_route(traj.alpha, traj.lambdas, 1.0, 4.0, y0, grid)
    moved = traj.alpha.copy()
    moved[10, 0] *= 1.0 + 1e-6
    with pytest.raises(CheckError):
        checks.check_exact_route(moved, traj.lambdas, 1.0, 4.0, y0, grid)


def test_late_decay_wrong_rate(open_loop):
    traj, grid = open_loop["traj"], open_loop["grid"]
    checks.check_late_decay(grid, traj.alpha, traj.lambdas, 1.0, 4.0)
    slowed = traj.alpha * np.exp(0.1 * grid)[:, None]
    with pytest.raises(CheckError):
        checks.check_late_decay(grid, slowed, traj.lambdas, 1.0, 4.0)


def test_csv_truncated(open_loop, tmp_path):
    traj = open_loop["traj"]
    paths = (tmp_path / "trajectory.csv", tmp_path / "decay_curve.csv")
    serialize.trajectory_csv(paths[0], traj)
    serialize.decay_curve_csv(paths[1], traj)
    args = (traj.grid, traj.alpha, traj.z, traj.controls, traj.norms)
    checks.check_csv_roundtrip(*paths, *args)
    text = paths[0].read_text()
    for cut in (text[:text.rindex("\n", 0, -1) + 1], text[:-40] + "\n"):
        paths[0].write_text(cut)
        with pytest.raises(CheckError):
            checks.check_csv_roundtrip(*paths, *args)


# ---------------------------------------------------------------------------
# generation and tracing


def test_scenarios_depend_only_on_seed(tmp_path):
    for cls in workloads.WORKLOADS.values():
        a = cls(7, tmp_path / "a").scenarios
        b = cls(7, tmp_path / "b").scenarios
        c = cls(8, tmp_path / "c").scenarios

        def plain(scs):
            return json.dumps(scs, sort_keys=True, default=lambda o: (
                o.tolist() if isinstance(o, np.ndarray) else str(o)))

        assert plain(a) == plain(b).replace("/b/", "/a/")
        assert plain(a) != plain(c).replace("/c/", "/a/")


def test_layer_metrics_busy_and_self():
    s = [spans.Span(0, "cli.main", 0.0, 10.0, None, 0),
         spans.Span(1, "spectral.partition_spectrum", 1.0, 5.0, 0, 0),
         spans.Span(2, "spectral.check_degeneracy", 2.0, 4.0, 1, 0),
         spans.Span(3, "serialize.json_dump", 6.0, 7.0, 0, 0)]
    m = spans.layer_metrics(s, {"serialize.calls": 1})
    assert m["spectral.busy_s"] == 4.0
    assert m["spectral.check_degeneracy.busy_s"] == 2.0
    assert m["cli.self_s"] == 5.0
    assert m["spectral.self_s"] == 4.0
    assert m["serialize.calls"] == 1
