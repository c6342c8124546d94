"""Acceptance sweep: every release gate in one file, one verdict line each.

Each test prints ``[accept NN] <label>: PASS/FAIL`` together with its
wall-clock time (visible under ``pytest -s`` or in captured output).
The budgets are asserted too, so a performance regression fails the
gate just like a wrong number.
"""

import json
import math
import time

import numpy as np
import pytest
from scipy.integrate import solve_ivp
from scipy.interpolate import CubicSpline

from pidestab import cli
from pidestab.exceptions import DegenerateSpectrumError
from pidestab.fluids import (
    JeffreysParams,
    OldroydParams,
    PI_SQ,
    jeffreys_reduce,
    model_spectrum,
    oldroyd_to_abstract,
)
from pidestab.riccati import build_shifted, certify_decay, embed_initial, \
    simulate_closed_loop, solve_are
from pidestab.simulate import (
    ForcingField,
    ZeroSignal,
    fit_decay_rate,
    simulate_exact,
    simulate_ode,
    steady_state,
)
from pidestab.spectral import MemoryKernel, Spectrum, modal_roots, \
    partition_spectrum
from pidestab.synthesis import (
    ActuatorSet,
    build_companion,
    default_actuators,
    kalman_observability_check,
    min_energy_control,
    rank_conditions,
    transform_and_group,
)

from test_riccati import headline_solution, synthetic_system
from test_simulate import shift_signal, smooth_control
from test_synthesis import _steerability_instance

OPEN_LOOP_RATE = (5.0 - math.sqrt(5.0)) / 2.0


class verdict:
    """Context manager printing one pass/fail line per gate."""

    def __init__(self, idx, label, budget):
        self.idx = idx
        self.label = label
        self.budget = budget

    def __enter__(self):
        self.t0 = time.perf_counter()
        return self

    def __exit__(self, exc_type, exc, tb):
        elapsed = time.perf_counter() - self.t0
        ok = exc_type is None and elapsed < self.budget
        print(f"[accept {self.idx:02d}] {self.label}: "
              f"{'PASS' if ok else 'FAIL'} "
              f"({elapsed:.2f}s, budget {self.budget:g}s)")
        if exc_type is None and not ok:
            raise AssertionError(
                f"gate {self.idx} exceeded its {self.budget:g}s budget "
                f"({elapsed:.2f}s)")
        return False


def test_01_modal_root_algebra():
    rng = np.random.default_rng(101)
    with verdict(1, "modal root closed form (Vieta + quadratic)", 1.0):
        for _ in range(1000):
            lam = float(10.0 ** rng.uniform(-4.0, 4.0))
            kernel = MemoryKernel(b=float(rng.uniform(0.05, 4.0)),
                                  delta=float(rng.uniform(0.05, 4.0)))
            pair = modal_roots(lam, kernel)
            s = lam + kernel.delta
            p = lam * (kernel.b + kernel.delta)
            assert abs(pair.mu_plus + pair.mu_minus - s) <= 1e-12 * s
            assert abs(pair.mu_plus * pair.mu_minus - p) <= 1e-12 * p
            direct = np.roots([1.0, -s, p])
            got = sorted((pair.mu_plus, pair.mu_minus),
                         key=lambda z: (z.real, z.imag))
            ref = sorted(direct, key=lambda z: (z.real, z.imag))
            np.testing.assert_allclose(got, ref, rtol=1e-9, atol=1e-12)


def test_02_slow_branch_limit():
    rng = np.random.default_rng(202)
    with verdict(2, "slow root approaches b + delta", 1.0):
        for _ in range(100):
            kernel = MemoryKernel(b=float(rng.uniform(0.05, 5.0)),
                                  delta=float(rng.uniform(0.05, 5.0)))
            omega0 = kernel.b + kernel.delta
            pair = modal_roots(1e6 * (omega0 + 1.0), kernel)
            assert abs(pair.mu_minus.real - omega0) < 1e-2


def test_03_companion_spectrum():
    rng = np.random.default_rng(303)
    with verdict(3, "companion eigenvalues negate the modal roots", 5.0):
        built = 0
        while built < 100:
            kernel = MemoryKernel(b=float(rng.uniform(0.2, 3.0)),
                                  delta=float(rng.uniform(0.3, 3.0)))
            gamma = float(rng.uniform(0.2, 0.9)) * (kernel.b + kernel.delta)
            values = np.sort(10.0 ** rng.uniform(-2.0, 1.7,
                                                 size=int(rng.integers(1, 11))))
            spectrum = Spectrum.from_values(values.tolist())
            try:
                part = partition_spectrum(spectrum, kernel, gamma)
                if not 1 <= part.n_total <= 8:
                    continue
                comp = build_companion(part, kernel,
                                       default_actuators(part), spectrum)
            except DegenerateSpectrumError:
                continue
            eigs = np.linalg.eigvals(comp.p_2n)
            expected = []
            for lam in part.lambdas:
                pair = modal_roots(lam, kernel)
                expected.extend([-pair.mu_plus, -pair.mu_minus])
            expected = np.asarray(expected)
            np.testing.assert_allclose(
                eigs[np.lexsort((eigs.imag, eigs.real))],
                expected[np.lexsort((expected.imag, expected.real))],
                atol=1e-9)
            built += 1


def test_04_rank_gramian_equivalence():
    rng = np.random.default_rng(404)
    with verdict(4, "rank conditions match the Gramian test", 10.0):
        instances = []
        while len(instances) < 96:
            out = _steerability_instance(rng)
            if out is not None:
                instances.append(out)

        # one exactly defective (chain) block, steerable and not
        kernel = MemoryKernel(b=1.0, delta=1.0)
        lam_dbl = 3.0 - 2.0 * math.sqrt(2.0)
        forced = []
        for coeff, want in (([[1.0]], True), ([[0.0]], False)):
            spectrum = Spectrum.from_values([lam_dbl])
            part = partition_spectrum(spectrum, kernel, 0.7,
                                      check_degenerate=False)
            acts = default_actuators(part, coefficients=coeff)
            comp = build_companion(part, kernel, acts, spectrum,
                                   allow_degenerate=True)
            instances.append((transform_and_group(comp, part), part))
            forced.append(want)

        # the underactuated multiplicity-2 level and its repair
        kern_sq = MemoryKernel(b=1.0, delta=4.0)
        spec_sq = model_spectrum("square_2d", 0.025, 6)
        part_sq = partition_spectrum(spec_sq, kern_sq, 2.0)
        for count, want in ((1, False), (2, True)):
            acts = default_actuators(part_sq, count=count)
            comp = build_companion(part_sq, kern_sq, acts, spec_sq)
            instances.append((transform_and_group(comp, part_sq), part_sq))
            forced.append(want)

        assert len(instances) == 100
        results = []
        for tr, part in instances:
            by_rank = rank_conditions(tr, part).passed
            assert by_rank == kalman_observability_check(tr)
            results.append(by_rank)
        assert results[-4:] == forced
        assert any(results) and not all(results)


def test_05_minimum_energy_steering():
    with verdict(5, "null control steers the slow block to zero", 1.0):
        kernel = MemoryKernel(b=1.0, delta=1.0)
        spectrum = model_spectrum("dirichlet_1d", 1.0 / PI_SQ, 8)
        part = partition_spectrum(spectrum, kernel, 1.9)
        assert part.n_total == 1
        comp = build_companion(part, kernel, default_actuators(part),
                               spectrum)
        nc = min_energy_control(comp, np.array([1.0, -0.5]), 1.0)
        assert nc.terminal_error <= 1e-6
        assert np.all(nc.v[:, -1] == 0.0)
        # independent route: integrate v' = w - delta v from v(0) and
        # compare against the recovered amplitudes
        w_spline = CubicSpline(nc.grid, nc.w[0])
        ivp = solve_ivp(lambda t, x: w_spline(t) - kernel.delta * x,
                        (0.0, 1.0), [nc.v[0, 0]], t_eval=nc.grid,
                        rtol=1e-10, atol=1e-12)
        assert np.max(np.abs(ivp.y[0] - nc.v[0])) <= 1e-6


def test_06_uniform_eigenvalue_shift():
    rng = np.random.default_rng(606)
    with verdict(6, "rate shift translates the whole spectrum", 5.0):
        for _ in range(100):
            kernel = MemoryKernel(b=float(rng.uniform(0.1, 3.0)),
                                  delta=float(rng.uniform(0.5, 5.0)))
            gamma = float(rng.uniform(0.05, 0.95)) * kernel.delta
            k = int(rng.integers(1, 6))
            values = np.sort(rng.uniform(0.05, 30.0, size=k))
            spectrum = Spectrum.from_values(values.tolist())
            acts = ActuatorSet(count=1, modal_coefficients=np.ones((k, 1)))
            shifted = build_shifted(spectrum, kernel, gamma, acts,
                                    truncation_k=k)
            base = build_shifted(spectrum, kernel, 0.0, acts,
                                 truncation_k=k)
            e1 = np.linalg.eigvals(shifted.p_2k_shifted)
            e0 = np.linalg.eigvals(base.p_2k_shifted) + gamma
            np.testing.assert_allclose(
                e1[np.lexsort((e1.imag, e1.real))],
                e0[np.lexsort((e0.imag, e0.real))], atol=1e-10)


def test_07_riccati_value_function():
    with verdict(7, "Riccati closed form and optimal cost", 10.0):
        # x' = x + u with state weight 2: R = 1 + sqrt(3)
        scalar = solve_are(synthetic_system([[1.0]], [[1.0]], [[2.0]]))
        assert scalar.r_matrix[0, 0] == \
            pytest.approx(1.0 + math.sqrt(3.0), abs=1e-10)
        assert scalar.residual <= 1e-8

        _, _, _, sol = headline_solution(truncation_k=4, n_modes=4)
        assert sol.residual <= 1e-8
        y0 = np.array([1.0, 0.3, -0.2, 0.1])
        run = simulate_closed_loop(sol, y0, t_max=20.0 / sol.gamma,
                                   samples=4001)
        xi0 = embed_initial(sol, y0)
        # the 1/2 is the shared convention between the value function
        # and the cost integral, so it cancels in the comparison
        value = 0.5 * float(xi0 @ sol.r_matrix @ xi0)
        assert 0.5 * run.shifted_cost() == pytest.approx(value, rel=0.01)


def test_08_headline_decay_rates():
    with verdict(8, "open and closed loop rates at the headline point", 30.0):
        spectrum = model_spectrum("dirichlet_1d", 1.0 / PI_SQ, 16)
        kernel = MemoryKernel(b=1.0, delta=4.0)
        grid = np.linspace(0.0, 10.0, 1001)
        free = simulate_exact(spectrum, kernel, np.ones(16),
                              ZeroSignal(16), grid)
        fit = fit_decay_rate(free, "y", window=(5.0, 10.0))
        assert abs(fit.rate - OPEN_LOOP_RATE) <= 0.02 * OPEN_LOOP_RATE

        _, _, _, sol = headline_solution()
        y0 = np.zeros(16)
        y0[0], y0[1] = 1.0, 0.4
        cert = certify_decay(sol, spectrum, kernel, 2.0, y0, 6.0)
        assert cert.fitted_rate >= 1.96
        assert math.isfinite(cert.weighted_integral)
        assert cert.integral_ok


def test_09_cross_method_simulation():
    rng = np.random.default_rng(909)
    with verdict(9, "closed-form and matrix-exponential routes agree",
                 30.0):
        grid = np.linspace(0.0, 5.0, 251)
        done = 0
        while done < 50:
            k = int(rng.integers(1, 5))
            kernel = MemoryKernel(b=float(rng.uniform(0.0, 2.0)),
                                  delta=float(rng.uniform(0.3, 3.0)))
            values = np.sort(rng.uniform(0.3, 12.0, size=k))
            spectrum = Spectrum.from_values(values.tolist())
            y0 = rng.normal(size=k)
            control = smooth_control(k, rng)
            try:
                exact = simulate_exact(spectrum, kernel, y0, control, grid)
            except DegenerateSpectrumError:
                continue
            ode = simulate_ode(spectrum, kernel, y0, control, grid)
            scale = max(1.0, float(np.max(np.abs(exact.alpha))))
            assert np.max(np.abs(exact.alpha - ode.alpha)) <= 1e-12 * scale
            assert np.max(np.abs(exact.z - ode.z)) <= 1e-12 * scale
            done += 1


def test_10_forcing_translation():
    with verdict(10, "constant forcing shifts to a fixed point", 10.0):
        spectrum = Spectrum.from_values([1.0, 2.0])
        kernel = MemoryKernel(b=1.0, delta=1.0)
        lams = np.array([1.0, 2.0])
        f_e = np.array([2.0, 1.0])
        forcing = ForcingField.constant(f_e)
        y_e = steady_state(forcing, spectrum, kernel)
        np.testing.assert_allclose(
            y_e, f_e / (lams * (1.0 + kernel.b / kernel.delta)), rtol=1e-12)
        modal = shift_signal(forcing, spectrum, kernel)
        gamma_nominal = 1.0
        grid = np.linspace(0.0, 20.0 / gamma_nominal, 801)
        traj = simulate_ode(spectrum, kernel, [0.0, 0.0], modal, grid,
                            forcing=forcing)
        assert np.max(np.abs(traj.alpha[-1] - y_e)) <= 1e-4
        pinned = simulate_exact(spectrum, kernel, y_e, modal, grid,
                                forcing=forcing)
        assert np.max(np.abs(pinned.alpha - y_e[None, :])) <= 1e-8


def test_11_fluid_reductions():
    with verdict(11, "viscoelastic models reduce to the kernel form", 1.0):
        mu, kernel = oldroyd_to_abstract(
            OldroydParams(nu=1.0, kappa=0.5, lambda_relax=1.0))
        assert (mu, kernel.b, kernel.delta) == (1.0, 1.0, 1.0)
        assert kernel.b + kernel.delta == 2.0

        jeff_kernel, _ = jeffreys_reduce(
            JeffreysParams(mu_visc=2.0, kappa=1.0, lambda_relax=3.0))
        assert (jeff_kernel.b, jeff_kernel.delta) == (0.5, 3.0)

        _, old_kernel = oldroyd_to_abstract(
            OldroydParams(nu=3.5, kappa=1.0, lambda_relax=1.0 / 3.0))
        spectrum = Spectrum.from_values([1.0, 4.0])
        grid = np.linspace(0.0, 3.0, 121)
        a = simulate_exact(spectrum, jeff_kernel, [1.0, -0.3],
                           ZeroSignal(2), grid)
        b = simulate_exact(spectrum, old_kernel, [1.0, -0.3],
                           ZeroSignal(2), grid)
        assert np.max(np.abs(a.alpha - b.alpha)) <= 1e-12


def test_12_multiplicity_pipeline(tmp_path):
    with verdict(12, "repeated level needs two actuators end to end", 10.0):
        out = tmp_path / "out"
        doc = {
            "spectrum": {"kind": "square_2d", "scale": 0.025, "n_modes": 6},
            "kernel": {"b": 1.0, "delta": 4.0},
            "gamma": 2.0,
            "actuators": {"kind": "default", "count": 1},
            "out": str(out),
        }
        single = tmp_path / "m1.json"
        single.write_text(json.dumps(doc))
        assert cli.main(["synthesize", "--config", str(single)]) == 3

        doc["actuators"]["count"] = 2
        double = tmp_path / "m2.json"
        double.write_text(json.dumps(doc))
        assert cli.main(["synthesize", "--config", str(double)]) == 0
        assert cli.main(["certify", "--config", str(double)]) == 0
        with open(out / "certificate.json", "r", encoding="utf-8") as fh:
            cert = json.load(fh)
        assert cert["pass"] is True
        assert cert["fitted_rate"] >= 1.96


def test_13_stiff_oldroyd_command_line(tmp_path):
    # the 24th Oldroyd-B mode has a root near 3,456 while the slowest
    # roots sit near 3.5: the cost must not follow the largest root
    with verdict(13, "stiff Oldroyd-B scenario through the command line",
                 10.0):
        out = tmp_path / "out"
        doc = {
            "spectrum": {"kind": "dirichlet_1d", "scale": 1.0 / PI_SQ,
                         "n_modes": 24},
            "fluid": {"model": "oldroyd", "nu": 3.5, "kappa": 1.0,
                      "lambda_relax": 1.0 / 3.0},
            "gamma": 1.5,
            "out": str(out),
        }
        cfg = tmp_path / "oldroyd.json"
        cfg.write_text(json.dumps(doc))
        assert cli.main(["synthesize", "--config", str(cfg)]) == 0
        assert cli.main(["certify", "--config", str(cfg)]) == 0
        assert cli.main(["simulate", "--config", str(cfg), "--controller",
                         str(out / "controller.json")]) == 0
        with open(out / "certificate.json", "r", encoding="utf-8") as fh:
            assert json.load(fh)["pass"] is True
