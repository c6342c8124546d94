"""Trajectory routes, forcing translation and decay fitting.

The two simulation routes share only the kernel/spectrum types and the
exponential-sum input type, so their agreement doubles as an oracle;
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
    ConfigError,
    DegenerateRootError,
    DimensionMismatchError,
    ForcingField,
    MemoryKernel,
    Spectrum,
    StepInstabilityError,
    Trajectory,
    WindowTooShortError,
    ZeroSignal,
    control_shift,
    fit_decay_rate,
    simulate_exact,
    simulate_ode,
    steady_state,
    translate_system,
)
from pidestab.exceptions import ForcingRangeError
from pidestab.simulate import _width_classes
from pidestab.spectral import modal_roots


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
                          ForcingField.constant([c]), grid)
    target = c * 1.0 / (1.0 * (1.0 + 1.0))
    assert traj.alpha[-1, 0] == pytest.approx(target, rel=1e-8)
    ode = simulate_ode(spectrum, kernel, [0.0], ForcingField.constant([c]),
                       grid)
    assert ode.alpha[-1, 0] == pytest.approx(target, rel=1e-8)


def stiff_equilibrium(route):
    # lam h = 200 on the 0.05 grid: the kernel e^{A (h - tau)} has
    # decayed long before the last Gauss node of a cell, and its fast
    # part carries twice the equilibrium, so any quadrature of the
    # convolution misses it
    lam = 4000.0
    spectrum = Spectrum.from_values([lam])
    kernel = MemoryKernel(b=1.0, delta=1.0)
    c = 0.8
    grid = grid_to(20.0, 401)
    target = c * 1.0 / (lam * (1.0 + 1.0))
    signal = route(spectrum, kernel, [0.0], ForcingField.constant([c]), grid)
    assert signal.alpha[-1, 0] == pytest.approx(target, rel=1e-10)
    forced = route(spectrum, kernel, [0.0], ZeroSignal(1), grid,
                   forcing=ForcingField.constant([c]))
    assert forced.alpha[-1, 0] == pytest.approx(target, rel=1e-10)


def test_ode_stiff_mode_input_equilibrium():
    stiff_equilibrium(simulate_ode)


def test_exact_stiff_mode_input_equilibrium():
    # the exact route's 8-node cell rule was 4e-4 off here
    stiff_equilibrium(simulate_exact)


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


@pytest.mark.parametrize("route", [simulate_exact, simulate_ode])
def test_memory_state_keeps_the_fast_transient(route):
    # mode 100 (lam = 6000) moves z within the first cell; a spline of
    # the sampled alpha lost it (9% of max |z|).  Closed form of
    # z' = alpha - delta z, z(0) = 0, from alpha(0) = 1, alpha'(0) = -lam:
    # z = (e^{-mu- t} - e^{-mu+ t}) / (mu+ - mu-)
    n = 100
    lams = 0.6 * np.arange(1, n + 1) ** 2
    spectrum = Spectrum.from_values(lams.tolist())
    kernel = MemoryKernel(b=1.0, delta=4.0)
    grid = grid_to(10.0, 201)
    roots = modal_roots(lams, kernel)
    mu_p, mu_m = roots.mu_plus[None, :], roots.mu_minus[None, :]
    t = grid[:, None]
    z = ((np.exp(-mu_m * t) - np.exp(-mu_p * t)) / (mu_p - mu_m)).real
    traj = route(spectrum, kernel, np.ones(n), ZeroSignal(n), grid)
    assert np.max(np.abs(traj.z - z)) <= 1e-10 * np.max(np.abs(z))


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
    """a_n e^{-r_n t} cos(w_n t) on mode n: one conjugate pair per mode,
    a_n / 2 (e^{-(r_n + i w_n) t} + e^{-(r_n - i w_n) t})."""
    amps = rng.normal(size=k)
    rates = rng.uniform(0.2, 1.0, size=k)
    freqs = rng.uniform(0.5, 3.0, size=k)
    n = np.arange(k)
    coef = np.zeros((k, 2 * k))
    coef[n, 2 * n] = coef[n, 2 * n + 1] = 0.5 * amps
    pairs = np.stack([rates + 1j * freqs, rates - 1j * freqs], axis=1)
    return ForcingField(coef, pairs.reshape(-1))


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
        assert np.max(np.abs(exact.alpha - ode.alpha)) <= 1e-12 * scale
        assert np.max(np.abs(exact.z - ode.z)) <= 1e-12 * scale


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
    assert np.max(np.abs(exact.alpha - ode.alpha)) <= 1e-12
    assert np.max(np.abs(exact.z - ode.z)) <= 1e-12


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
    assert np.max(np.abs(exact.alpha - ode.alpha)) <= 1e-12
    assert np.max(np.abs(exact.z - ode.z)) <= 1e-12


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
    ts = np.array([0.0, 0.5, 2.0, 10.0])
    residual = translated.forcing.value(ts)
    lams = np.array([1.0, 2.0])
    expected = (kernel.b / kernel.delta) * (lams * y_e)[:, None] \
        * np.exp(-kernel.delta * ts)[None, :]
    np.testing.assert_allclose(residual, expected, rtol=1e-12)
    assert np.max(np.abs(translated.forcing.value(30.0))) < 1e-12


def shift_signal(forcing, spectrum, kernel):
    """The control shift as an open-loop input: minus the residual that
    ``translate_system`` leaves, the samples ``control_shift`` returns."""
    y_e = steady_state(forcing, spectrum, kernel)
    residual = translate_system(forcing, y_e, kernel).forcing
    return ForcingField(-residual.coefficients, residual.rates)


def test_control_shift_refuses_unreachable_forcing():
    kernel = MemoryKernel(b=1.0, delta=1.0)
    grid = grid_to(2.0, 81)
    e1 = np.array([[1.0], [0.0]])

    def residual(values):
        return translate_system(ForcingField.constant(values),
                                np.zeros(2), kernel).forcing

    with pytest.raises(ForcingRangeError, match="relative residual"):
        control_shift(residual([1.0, 1.0]), e1, grid)
    shift, worst = control_shift(residual([1.5, 0.0]), e1, grid)
    assert worst <= 1e-15
    np.testing.assert_array_equal(shift[:, 1], 0.0)
    # in range at t = 0 only, and the off-range part e^{-t} - e^{-2t}
    # outlives the in-range e^{-3t}: the error names the worst sample,
    # the last
    leaving = ForcingField([[1.0, 0.0, 0.0], [0.0, 0.5, -0.5]],
                           [3.0, 1.0, 2.0])
    with pytest.raises(ForcingRangeError, match=r"t=2 .*residual 9\.99"):
        control_shift(leaving, e1, grid)
    with pytest.raises(DimensionMismatchError):
        control_shift(residual([1.5, 0.0]), np.ones((3, 1)), grid)


def test_shift_control_zero_forcing_is_identity():
    kernel = MemoryKernel(b=1.0, delta=1.0)
    residual = translate_system(ForcingField.constant([0.0, 0.0]),
                                np.zeros(2), kernel).forcing
    shift, worst = control_shift(residual, np.eye(2)[:, :1], grid_to(3.0))
    np.testing.assert_array_equal(shift, 0.0)
    assert worst == 0.0


def test_shift_control_constant_forcing_closed_form():
    # with f identically f_e the shift is -(b/(b+delta)) e^{-delta t} f_e,
    # the transient that cancels the memory mismatch of the constant part
    spectrum = Spectrum.from_values([1.0])
    kernel = MemoryKernel(b=1.0, delta=1.0)
    forcing = ForcingField.constant([2.0])
    signal = shift_signal(forcing, spectrum, kernel)
    ts = np.array([0.0, 0.4, 1.3, 5.0])
    expected = -0.5 * np.exp(-ts) * 2.0
    np.testing.assert_allclose(signal.value(ts)[0], expected, rtol=1e-12)
    np.testing.assert_allclose(signal.derivative(ts)[0], -expected,
                               rtol=1e-12)
    residual = translate_system(forcing, [1.0], kernel).forcing
    shift, _ = control_shift(residual, [[1.0]], ts)
    np.testing.assert_array_equal(shift[:, 0], signal.value(ts)[0])


def test_forced_fixed_point_is_stationary():
    # y0 = y_e with the shifted control must stay put on both routes
    spectrum = Spectrum.from_values([1.0, 2.0])
    kernel = MemoryKernel(b=1.0, delta=1.0)
    forcing = ForcingField.constant([2.0, 1.0])
    y_e = steady_state(forcing, spectrum, kernel)
    shift = shift_signal(forcing, spectrum, kernel)
    grid = grid_to(8.0, 321)
    ode = simulate_ode(spectrum, kernel, y_e, shift, grid, forcing=forcing)
    assert np.max(np.abs(ode.alpha - y_e[None, :])) <= 1e-8
    exact = simulate_exact(spectrum, kernel, y_e, shift, grid,
                           forcing=forcing)
    assert np.max(np.abs(exact.alpha - y_e[None, :])) <= 1e-8


def test_forced_run_converges_to_steady_state():
    spectrum = Spectrum.from_values([1.0, 2.0])
    kernel = MemoryKernel(b=1.0, delta=1.0)
    forcing = ForcingField.constant([2.0, 1.0])
    y_e = steady_state(forcing, spectrum, kernel)
    shift = shift_signal(forcing, spectrum, kernel)
    grid = grid_to(12.0, 481)
    traj = simulate_ode(spectrum, kernel, [0.0, 0.0], shift, grid,
                        forcing=forcing)
    assert np.max(np.abs(traj.alpha[-1] - y_e)) <= 1e-4


@pytest.mark.parametrize("route", [simulate_exact, simulate_ode])
def test_inputs_must_cover_the_state_modes(route):
    spectrum = Spectrum.from_values([1.0, 4.0, 9.0])
    kernel = MemoryKernel(b=1.0, delta=2.0)
    grid = grid_to(1.0, 11)
    with pytest.raises(DimensionMismatchError, match="forcing covers 1"):
        route(spectrum, kernel, np.ones(3), ZeroSignal(3), grid,
              forcing=ForcingField.constant([1.0]))
    with pytest.raises(DimensionMismatchError, match="control covers 2"):
        route(spectrum, kernel, np.ones(3), ForcingField.constant([1.0, 2.0]),
              grid)


def test_input_rates_must_decay_and_pair():
    with pytest.raises(ConfigError, match="growing input"):
        ForcingField.exponential([1.0], rate=-1.0)
    with pytest.raises(ConfigError, match="conjugate pairs"):
        ForcingField([[1.0]], [0.5 + 1.0j])
    with pytest.raises(ConfigError, match="conjugate pairs"):
        ForcingField([[1.0, 2.0]], [0.5 + 1.0j, 0.5 - 1.0j])
    with pytest.raises(DimensionMismatchError):
        ForcingField([[1.0, 2.0]], [0.5])
    pair = ForcingField([[1.0, 1.0], [0.5, 0.5]], [0.5 + 1.0j, 0.5 - 1.0j])
    ts = np.array([0.0, 0.7, 2.0])
    np.testing.assert_allclose(
        pair.value(ts),
        np.array([[1.0], [0.5]]) * 2.0 * np.exp(-0.5 * ts) * np.cos(ts),
        rtol=1e-14)
    np.testing.assert_array_equal(pair.f_e, [0.0, 0.0])
    np.testing.assert_array_equal(
        ForcingField([[1.0, 2.0, 3.0]], [0.0, 1.0, 0.0]).f_e, [4.0])


def resonant_runs(rates):
    # lam = 0.6 and 3.0 with b = 1, delta = 4: real roots on mode 1
    spectrum = Spectrum.from_values([0.6, 3.0])
    kernel = MemoryKernel(b=1.0, delta=4.0)
    grid = grid_to(6.0, 241)
    control = ForcingField([[0.7, -0.4], [0.3, 0.9]], rates)
    y0 = [0.2, -0.1]
    exact = simulate_exact(spectrum, kernel, y0, control, grid)
    ode = simulate_ode(spectrum, kernel, y0, control, grid)
    return exact, ode


@pytest.mark.parametrize("which", ["delta", "slow_root", "fast_root"])
def test_exact_route_at_resonance(which):
    # an input rate equal to delta meets z' = alpha - delta z, as every
    # translated constant forcing and Jeffreys stress does; one equal to
    # a modal root meets alpha itself.  Neither is refused.
    roots = modal_roots(0.6, MemoryKernel(b=1.0, delta=4.0))
    assert roots.is_real
    rate = {"delta": 4.0, "slow_root": roots.mu_minus.real,
            "fast_root": roots.mu_plus.real}[which]
    exact, ode = resonant_runs([rate, 1.3])
    for a, b in ((exact.alpha, ode.alpha), (exact.z, ode.z)):
        assert np.all(np.isfinite(a))
        assert np.max(np.abs(a - b)) <= 1e-10 * np.max(np.abs(b))


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
