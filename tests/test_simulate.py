"""Trajectory routes, forcing translation and decay fitting.

The two simulation routes share only the kernel/spectrum types and the
Gauss nodes of each cell, so their agreement doubles as an oracle;
closed-form single-mode solutions pin each route on its own.  Norm
weights and fits are checked on synthetic trajectories built directly
from analytic samples.
"""

import math
import re

import numpy as np
import pytest
import scipy.linalg

from pidestab import (
    ActuatorControl,
    DegenerateRootError,
    ForcingField,
    MemoryKernel,
    Spectrum,
    StepInstabilityError,
    Trajectory,
    WindowTooShortError,
    ZeroSignal,
    fit_decay_rate,
    shift_control_for_forcing,
    simulate_exact,
    simulate_ode,
    steady_state,
    translate_system,
)
from pidestab.exceptions import ForcingRangeError
from pidestab.simulate import (
    ActuatorModalSignal,
    CallableModalSignal,
    ConstantModalSignal,
    _width_classes,
    attach_actuator_preimage,
)
from pidestab.synthesis import ActuatorSet


def grid_to(t_max, n=401):
    return np.linspace(0.0, t_max, n)


# ---------------------------------------------------------------------------
# exact route against closed forms


def test_exact_memoryless_single_mode():
    # b = 0 decouples the memory: alpha(t) = e^{-lam t}, the delta
    # branch of the formula is killed by alpha'(0) = -lam alpha(0)
    spectrum = Spectrum.from_values([2.0])
    kernel = MemoryKernel(b=0.0, delta=1.0)
    grid = grid_to(3.0)
    traj = simulate_exact(spectrum, kernel, [1.0], ZeroSignal(1), grid)
    np.testing.assert_allclose(traj.alpha[:, 0], np.exp(-2.0 * grid),
                               atol=1e-12)


def test_exact_damped_oscillation_single_mode():
    # lam=1, b=1, delta=1: alpha'' + 2 alpha' + 2 alpha = 0 from
    # alpha(0)=1, alpha'(0)=-1 solves to e^{-t} cos t
    spectrum = Spectrum.from_values([1.0])
    kernel = MemoryKernel(b=1.0, delta=1.0)
    grid = grid_to(5.0)
    traj = simulate_exact(spectrum, kernel, [1.0], ZeroSignal(1), grid)
    np.testing.assert_allclose(traj.alpha[:, 0],
                               np.exp(-grid) * np.cos(grid), atol=1e-10)


def test_exact_constant_control_equilibrium():
    # alpha(inf) = c delta / (lam (delta + b)) from the augmented balance
    spectrum = Spectrum.from_values([1.0])
    kernel = MemoryKernel(b=1.0, delta=1.0)
    c = 0.8
    grid = grid_to(20.0, 801)
    traj = simulate_exact(spectrum, kernel, [0.0],
                          ConstantModalSignal([c]), grid)
    target = c * 1.0 / (1.0 * (1.0 + 1.0))
    assert traj.alpha[-1, 0] == pytest.approx(target, rel=1e-8)
    ode = simulate_ode(spectrum, kernel, [0.0], ConstantModalSignal([c]),
                       grid)
    assert ode.alpha[-1, 0] == pytest.approx(target, rel=1e-8)


def test_ode_stiff_mode_input_equilibrium():
    # lam h = 200: the kernel e^{A (h - tau)} has decayed long before the
    # last Gauss node of a cell, and its fast part carries twice the
    # equilibrium, so a quadrature of the convolution misses it
    lam = 4000.0
    spectrum = Spectrum.from_values([lam])
    kernel = MemoryKernel(b=1.0, delta=1.0)
    c = 0.8
    grid = grid_to(20.0, 401)
    target = c * 1.0 / (lam * (1.0 + 1.0))
    signal = simulate_ode(spectrum, kernel, [0.0], ConstantModalSignal([c]),
                          grid)
    assert signal.alpha[-1, 0] == pytest.approx(target, rel=1e-8)
    forced = simulate_ode(spectrum, kernel, [0.0], ZeroSignal(1), grid,
                          forcing=ForcingField.constant([c]))
    assert forced.alpha[-1, 0] == pytest.approx(target, rel=1e-8)


def test_exact_memory_variable_definition():
    # z_n(t) = int_0^t e^{-delta (t-s)} alpha_n(s) ds, checked on the
    # known alpha(t) = e^{-t} cos t against the analytic integral
    spectrum = Spectrum.from_values([1.0])
    kernel = MemoryKernel(b=1.0, delta=1.0)
    grid = grid_to(4.0)
    traj = simulate_exact(spectrum, kernel, [1.0], ZeroSignal(1), grid)
    # int_0^t e^{-(t-s)} e^{-s} cos s ds = e^{-t} sin t
    np.testing.assert_allclose(traj.z[:, 0], np.exp(-grid) * np.sin(grid),
                               atol=1e-8)


def test_exact_rejects_double_roots():
    b, delta = 1.0, 1.0
    lam = 2.0 * b + delta + 2.0 * math.sqrt(b * (b + delta))
    spectrum = Spectrum.from_values([lam])
    with pytest.raises(DegenerateRootError):
        simulate_exact(spectrum, MemoryKernel(b=b, delta=delta), [1.0],
                       ZeroSignal(1), grid_to(1.0))
    # the ODE route has no such restriction
    traj = simulate_ode(spectrum, MemoryKernel(b=b, delta=delta), [1.0],
                        ZeroSignal(1), grid_to(1.0))
    assert np.all(np.isfinite(traj.alpha))


def test_exact_evaluates_the_source_once():
    # the source is evaluated on the nodes of every cell in one call, so
    # the number of signal calls does not grow with the number of samples
    class CountingSignal:
        def __init__(self):
            self.calls = 0

        def value(self, t):
            self.calls += 1
            return np.cos(np.atleast_1d(np.asarray(t, dtype=float)))[None]

        def derivative(self, t):
            self.calls += 1
            return -np.sin(np.atleast_1d(np.asarray(t, dtype=float)))[None]

    calls = []
    for n in (11, 101, 1001):
        signal = CountingSignal()
        simulate_exact(Spectrum.from_values([2.0]),
                       MemoryKernel(b=1.0, delta=1.5), [1.0], signal,
                       grid_to(1.0, n))
        calls.append(signal.calls)
    assert calls[0] == calls[1] == calls[2]


def test_grid_validation():
    spectrum = Spectrum.from_values([1.0])
    kernel = MemoryKernel(b=1.0, delta=1.0)
    with pytest.raises(ValueError):
        simulate_exact(spectrum, kernel, [1.0], ZeroSignal(1), [1.0, 2.0])
    with pytest.raises(ValueError):
        simulate_ode(spectrum, kernel, [1.0], ZeroSignal(1),
                     [0.0, 1.0, 1.0])


# ---------------------------------------------------------------------------
# matrix-exponential route


def test_ode_memoryless_accuracy():
    spectrum = Spectrum.from_values([1.0, 3.0, 7.0])
    kernel = MemoryKernel(b=0.0, delta=1.0)
    grid = grid_to(2.0, 201)
    y0 = np.array([1.0, -0.5, 0.25])
    traj = simulate_ode(spectrum, kernel, y0, ZeroSignal(3), grid)
    expected = y0[None, :] * np.exp(-np.outer(grid, [1.0, 3.0, 7.0]))
    assert np.max(np.abs(traj.alpha - expected)) <= 1e-10


def test_ode_memory_variable_residual():
    # finite differences of z must track z' = alpha - delta z
    spectrum = Spectrum.from_values([1.0, 4.0])
    kernel = MemoryKernel(b=1.0, delta=2.0)
    h = 0.01
    grid = np.arange(0.0, 3.0 + h / 2.0, h)
    traj = simulate_ode(spectrum, kernel, [1.0, 0.5], ZeroSignal(2), grid)
    dz = (traj.z[2:] - traj.z[:-2]) / (2.0 * h)
    rhs = traj.alpha[1:-1] - 2.0 * traj.z[1:-1]
    assert np.max(np.abs(dz - rhs)) <= 5.0 * h ** 2


def test_ode_step_instability_detected():
    # positive feedback u = 60 alpha on x = (alpha, z) drives the loop
    # unstable; the run refuses rather than returning garbage, and names
    # the first sample above the bound, found here by a plain loop
    class RunawayFeedback:
        aux0 = np.zeros(0)
        input_matrix = np.array([[60.0, 0.0]])
        aux_matrix = np.zeros((0, 2))

    spectrum = Spectrum.from_values([1.0])
    kernel = MemoryKernel(b=1.0, delta=1.0)
    grid = grid_to(2.0, 21)
    # alpha' = (60 - lam) alpha - b lam z, z' = alpha - delta z
    step = scipy.linalg.expm(np.array([[59.0, -1.0], [1.0, -1.0]])
                             * (grid[1] - grid[0]))
    x = np.array([1.0, 0.0])
    for t in grid[1:]:
        x = step @ x
        if np.linalg.norm(x) > 1e6 * (1.0 + 1.0):
            break
    with pytest.raises(StepInstabilityError,
                       match=re.escape(f"at t={t:.6g}") + "$"):
        simulate_ode(spectrum, kernel, [1.0], RunawayFeedback(), grid)


# ---------------------------------------------------------------------------
# cross-method agreement


def smooth_control(k, rng):
    amps = rng.normal(size=k)
    rates = rng.uniform(0.2, 1.0, size=k)
    freqs = rng.uniform(0.5, 3.0, size=k)

    def fn(t):
        return amps * np.exp(-rates * t) * np.cos(freqs * t)

    def dfn(t):
        e = np.exp(-rates * t)
        return amps * e * (-rates * np.cos(freqs * t)
                           - freqs * np.sin(freqs * t))

    return CallableModalSignal(fn=fn, k=k, derivative_fn=dfn)


def test_cross_method_open_loop_sweep():
    rng = np.random.default_rng(20240819)
    grid = grid_to(5.0, 251)
    for _ in range(8):
        k = int(rng.integers(1, 5))
        kernel = MemoryKernel(b=float(rng.uniform(0.0, 2.0)),
                              delta=float(rng.uniform(0.3, 3.0)))
        values = np.sort(rng.uniform(0.3, 12.0, size=k))
        spectrum = Spectrum.from_values(values.tolist())
        if any(np.isclose(values, kernel.delta, rtol=1e-3)) and kernel.b == 0:
            continue
        y0 = rng.normal(size=k)
        control = smooth_control(k, rng)
        exact = simulate_exact(spectrum, kernel, y0, control, grid)
        ode = simulate_ode(spectrum, kernel, y0, control, grid)
        scale = max(1.0, float(np.max(np.abs(exact.alpha))))
        assert np.max(np.abs(exact.alpha - ode.alpha)) <= 1e-6 * scale
        assert np.max(np.abs(exact.z - ode.z)) <= 1e-6 * scale


def test_cross_method_nonuniform_grid():
    # four cell widths: each width gets its own step map and input
    # weights, and the cells must still chain into one trajectory
    grid = np.concatenate([np.linspace(0.0, 1.0, 51),
                           np.linspace(1.0, 3.0, 41)[1:],
                           3.0 + np.cumsum([0.3, 0.7, 0.3, 0.7])])
    spectrum = Spectrum.from_values([0.8, 3.0])
    kernel = MemoryKernel(b=1.0, delta=2.0)
    control = smooth_control(2, np.random.default_rng(7))
    exact = simulate_exact(spectrum, kernel, [1.0, -0.4], control, grid)
    ode = simulate_ode(spectrum, kernel, [1.0, -0.4], control, grid)
    assert np.max(np.abs(exact.alpha - ode.alpha)) <= 1e-8


def test_long_uniform_grids_share_one_step_map():
    # cell widths of long grids differ by the rounding of t, which
    # grows with t; they must still share one step map, and its width
    # must keep the samples on their times
    for grid in (np.linspace(0.0, 200.0, 20001),
                 np.arange(0.0, 100.0005, 0.001),
                 np.arange(0.0, 1000.0, 0.01)):
        labels, widths = _width_classes(grid)
        assert widths.size == 1 and not labels.any()
        assert abs(widths[0] * (grid.size - 1) - grid[-1]) <= 1e-12
    split = np.concatenate([np.linspace(0.0, 1.0, 51),
                            1.0 + 1e-9 * np.arange(1, 4)])
    assert _width_classes(split)[1].size == 2


def test_cross_method_with_forcing():
    spectrum = Spectrum.from_values([1.0, 4.0])
    kernel = MemoryKernel(b=1.0, delta=2.0)
    forcing = ForcingField.exponential([1.0, -0.5], rate=0.7)
    grid = grid_to(4.0, 161)
    exact = simulate_exact(spectrum, kernel, [0.2, 0.1], ZeroSignal(2),
                           grid, forcing=forcing)
    ode = simulate_ode(spectrum, kernel, [0.2, 0.1], ZeroSignal(2), grid,
                       forcing=forcing)
    assert np.max(np.abs(exact.alpha - ode.alpha)) <= 1e-6


# ---------------------------------------------------------------------------
# open-loop structural properties


def test_open_loop_global_energy_bound():
    # the integrated energy identity bounds |y(t)| by |y0| for all t;
    # pointwise monotonicity fails for oscillatory modes, the global
    # bound is what the kernel positivity actually buys
    rng = np.random.default_rng(99)
    grid = grid_to(8.0, 401)
    for _ in range(10):
        k = int(rng.integers(1, 5))
        kernel = MemoryKernel(b=float(rng.uniform(0.0, 2.0)),
                              delta=float(rng.uniform(0.3, 3.0)))
        spectrum = Spectrum.from_values(
            np.sort(rng.uniform(0.3, 9.0, size=k)).tolist())
        y0 = rng.normal(size=k)
        traj = simulate_ode(spectrum, kernel, y0, ZeroSignal(k), grid)
        norms = traj.norms["y"]
        assert np.max(norms) <= norms[0] * (1.0 + 1e-9)


def test_open_loop_linearity():
    spectrum = Spectrum.from_values([1.0, 3.0])
    kernel = MemoryKernel(b=0.7, delta=1.3)
    grid = grid_to(4.0, 201)
    a = simulate_ode(spectrum, kernel, [1.0, 0.0], ZeroSignal(2), grid)
    b = simulate_ode(spectrum, kernel, [0.0, 1.0], ZeroSignal(2), grid)
    ab = simulate_ode(spectrum, kernel, [1.0, 1.0], ZeroSignal(2), grid)
    assert np.max(np.abs(ab.alpha - a.alpha - b.alpha)) <= 1e-10


# ---------------------------------------------------------------------------
# steady states and forcing translation


def test_steady_state_values():
    spectrum = Spectrum.from_values([1.0, 2.0])
    assert steady_state(ForcingField.constant([2.0, 0.0]), spectrum,
                        MemoryKernel(b=1.0, delta=1.0))[0] == \
        pytest.approx(1.0, rel=1e-15)
    np.testing.assert_array_equal(
        steady_state(ForcingField.constant([0.0, 0.0]), spectrum,
                     MemoryKernel(b=1.0, delta=1.0)), [0.0, 0.0])
    np.testing.assert_allclose(
        steady_state(ForcingField.constant([3.0, 4.0]), spectrum,
                     MemoryKernel(b=0.0, delta=1.0)), [3.0, 2.0],
        rtol=1e-15)


def test_translate_constant_forcing_residual():
    spectrum = Spectrum.from_values([1.0, 2.0])
    kernel = MemoryKernel(b=1.0, delta=2.0)
    f_e = np.array([2.0, 1.0])
    forcing = ForcingField.constant(f_e)
    y_e = steady_state(forcing, spectrum, kernel)
    translated = translate_system(forcing, y_e, kernel)
    np.testing.assert_allclose(translated.translate_initial([2.0, 1.0]),
                               np.array([2.0, 1.0]) - y_e, rtol=1e-15)
    ts = np.array([0.0, 0.5, 2.0, 10.0])
    residual = translated.forcing.modal_at(ts)
    lams = np.array([1.0, 2.0])
    expected = (kernel.b / kernel.delta) * (lams * y_e)[:, None] \
        * np.exp(-kernel.delta * ts)[None, :]
    np.testing.assert_allclose(residual, expected, rtol=1e-12)
    assert np.max(np.abs(translated.forcing.modal_at(30.0))) < 1e-12


def test_shift_control_requires_preimages():
    forcing = ForcingField.constant([1.0])
    with pytest.raises(ForcingRangeError):
        shift_control_for_forcing(forcing, MemoryKernel(b=1.0, delta=1.0),
                                  ActuatorControl.zero(1))


def test_attach_preimage_detects_unreachable_forcing():
    acts = ActuatorSet(count=1, modal_coefficients=np.array([[1.0], [0.0]]))
    with pytest.raises(ForcingRangeError):
        attach_actuator_preimage(ForcingField.constant([1.0, 1.0]), acts, 2)
    ok = attach_actuator_preimage(ForcingField.constant([1.5, 0.0]), acts, 2)
    assert ok.in_actuator_range
    np.testing.assert_allclose(ok.preimage_e, [1.5], rtol=1e-12)


def test_shift_control_zero_forcing_is_identity():
    acts = ActuatorSet(count=1, modal_coefficients=np.array([[1.0]]))
    forcing = attach_actuator_preimage(ForcingField.constant([0.0]), acts, 1)
    base = ActuatorControl(m=1, value_fn=lambda t: np.array([math.sin(t)]),
                           derivative_fn=lambda t: np.array([math.cos(t)]))
    shifted = shift_control_for_forcing(forcing,
                                        MemoryKernel(b=1.0, delta=1.0), base)
    for t in (0.0, 0.7, 2.0):
        np.testing.assert_allclose(shifted.value(t), base.value(t),
                                   atol=1e-15)


def test_shift_control_constant_forcing_closed_form():
    # with zero base control and f identically f_e the shift reduces to
    # u1(t) = -(b/(b+delta)) e^{-delta t} p_e, the transient that
    # cancels the memory mismatch of the constant part
    kernel = MemoryKernel(b=1.0, delta=1.0)
    acts = ActuatorSet(count=1, modal_coefficients=np.array([[1.0]]))
    forcing = attach_actuator_preimage(ForcingField.constant([2.0]), acts, 1)
    shifted = shift_control_for_forcing(forcing, kernel,
                                        ActuatorControl.zero(1))
    for t in (0.0, 0.4, 1.3, 5.0):
        expected = -0.5 * math.exp(-t) * 2.0
        assert shifted.value(t)[0] == pytest.approx(expected, rel=1e-12)
        assert shifted.derivative(t)[0] == pytest.approx(-expected,
                                                         rel=1e-12)


def test_forced_fixed_point_is_stationary():
    # y0 = y_e with the shifted control must stay put on both routes
    spectrum = Spectrum.from_values([1.0, 2.0])
    kernel = MemoryKernel(b=1.0, delta=1.0)
    acts = ActuatorSet(count=2, modal_coefficients=np.eye(2))
    forcing = attach_actuator_preimage(ForcingField.constant([2.0, 1.0]),
                                       acts, 2)
    y_e = steady_state(forcing, spectrum, kernel)
    u1 = shift_control_for_forcing(forcing, kernel, ActuatorControl.zero(2))
    modal = ActuatorModalSignal(c_rows=acts.rows(2), control=u1)
    grid = grid_to(8.0, 321)
    ode = simulate_ode(spectrum, kernel, y_e, modal, grid, forcing=forcing)
    assert np.max(np.abs(ode.alpha - y_e[None, :])) <= 1e-8
    exact = simulate_exact(spectrum, kernel, y_e, modal, grid,
                           forcing=forcing)
    assert np.max(np.abs(exact.alpha - y_e[None, :])) <= 1e-8


def test_forced_run_converges_to_steady_state():
    spectrum = Spectrum.from_values([1.0, 2.0])
    kernel = MemoryKernel(b=1.0, delta=1.0)
    acts = ActuatorSet(count=2, modal_coefficients=np.eye(2))
    forcing = attach_actuator_preimage(ForcingField.constant([2.0, 1.0]),
                                       acts, 2)
    y_e = steady_state(forcing, spectrum, kernel)
    u1 = shift_control_for_forcing(forcing, kernel, ActuatorControl.zero(2))
    modal = ActuatorModalSignal(c_rows=acts.rows(2), control=u1)
    grid = grid_to(12.0, 481)
    traj = simulate_ode(spectrum, kernel, [0.0, 0.0], modal, grid,
                        forcing=forcing)
    assert np.max(np.abs(traj.alpha[-1] - y_e)) <= 1e-4


# ---------------------------------------------------------------------------
# trajectory norms and decay fits


def synthetic_trajectory(grid, alpha, lambdas, frac_alpha=0.5):
    alpha = np.asarray(alpha, dtype=float)
    return Trajectory(grid=grid, alpha=alpha, z=np.zeros_like(alpha),
                      lambdas=lambdas, frac_alpha=frac_alpha)


def test_sobolev_norm_weights():
    grid = np.array([0.0, 1.0])
    traj = synthetic_trajectory(grid, [[1.0, 2.0], [0.5, 0.1]], [1.0, 4.0])
    np.testing.assert_allclose(traj.norms["y"],
                               [math.sqrt(5.0),
                                math.sqrt(0.26)], rtol=1e-12)
    np.testing.assert_allclose(traj.norms["a_alpha"],
                               [math.sqrt(1.0 + 16.0),
                                math.sqrt(0.25 + 0.04)], rtol=1e-12)
    np.testing.assert_allclose(traj.norms["a_alpha_minus_half"],
                               traj.norms["y"], rtol=1e-12)


def test_weighted_energy_quadrature():
    grid = np.linspace(0.0, 10.0, 2001)
    traj = synthetic_trajectory(grid, np.exp(-grid)[:, None], [1.0])
    value = traj.weighted_energy(0.5, rate=0.5)
    assert value == pytest.approx(1.0 - math.exp(-10.0), rel=1e-8)


def test_fit_decay_rate_exact_exponential():
    grid = np.linspace(0.0, 5.0, 501)
    traj = synthetic_trajectory(grid, 3.0 * np.exp(-2.0 * grid)[:, None],
                                [1.0])
    fit = fit_decay_rate(traj)
    assert fit.rate == pytest.approx(2.0, abs=1e-6)
    assert fit.constant == pytest.approx(3.0, rel=1e-6)
    assert not fit.oscillation


def test_fit_decay_rate_oscillatory_envelope():
    grid = np.linspace(0.0, 6.0, 1201)
    alpha = (np.exp(-grid) * np.abs(np.cos(grid)))[:, None]
    traj = synthetic_trajectory(grid, alpha, [1.0])
    fit = fit_decay_rate(traj, "y", window=(1.8, 4.5))
    assert fit.rate == pytest.approx(1.0, abs=0.1)
    assert fit.oscillation


def test_fit_decay_rate_zero_trajectory_sentinel():
    grid = np.linspace(0.0, 2.0, 101)
    traj = synthetic_trajectory(grid, np.zeros((101, 1)), [1.0])
    fit = fit_decay_rate(traj)
    assert fit.rate == math.inf


def test_fit_decay_rate_window_guard():
    grid = np.linspace(0.0, 2.0, 101)
    traj = synthetic_trajectory(grid, np.exp(-grid)[:, None], [1.0])
    with pytest.raises(WindowTooShortError):
        fit_decay_rate(traj, "y", window=(1.9, 1.95))
