"""Rate-shifted design: companion assembly, ARE solve, certification.

The scalar Riccati oracle R = (a + sqrt(a^2 + q)) for unit input and the
shift identity eig(shifted) = eig(original) + gamma are worked out by
hand; the dynamic-programming check compares the quadratic form of R
against a cost integral computed by a solver-independent route.
"""

import dataclasses
import math
import re

import numpy as np
import pytest
import scipy.linalg
from scipy.integrate import solve_ivp

import pidestab.riccati as riccati
from pidestab import (
    ActuatorSet,
    AlphaRangeError,
    DecayViolationError,
    DimensionMismatchError,
    GammaExceedsDeltaError,
    GammaOutOfRangeError,
    MemoryKernel,
    NotStabilizableError,
    ShiftedSystem,
    SolverFailureError,
    Spectrum,
    build_shifted,
    certify_decay,
    default_actuators,
    embed_initial,
    make_closed_loop,
    modal_roots,
    partition_spectrum,
    rayleigh_bounds,
    shifted_coefficients,
    simulate_closed_loop,
    simulate_ode,
    solve_are,
)
from pidestab.fluids import indicator_actuators_1d, model_spectrum
from pidestab.synthesis import pbh_rank_loss

HEADLINE_RATE = 2.0
OPEN_LOOP_RATE = (5.0 - math.sqrt(5.0)) / 2.0


def dirichlet_spectrum(n):
    return Spectrum.from_values([float(j * j) for j in range(1, n + 1)])


def headline_solution(truncation_k=16, alpha=0.5, n_modes=None):
    spectrum = dirichlet_spectrum(n_modes or truncation_k)
    kernel = MemoryKernel(b=1.0, delta=4.0)
    part = partition_spectrum(spectrum, kernel, HEADLINE_RATE)
    acts = default_actuators(part)
    shifted = build_shifted(spectrum, kernel, HEADLINE_RATE, acts,
                            truncation_k=truncation_k, alpha=alpha)
    return spectrum, kernel, acts, solve_are(shifted)


def synthetic_system(p, q, w, gamma=0.0, alpha=0.5):
    """Wrap raw matrices so solve_are can be exercised on hand-built data."""
    p = np.atleast_2d(np.asarray(p, dtype=float))
    q = np.atleast_2d(np.asarray(q, dtype=float))
    w = np.atleast_2d(np.asarray(w, dtype=float))
    k = p.shape[0]
    return ShiftedSystem(gamma=gamma, alpha=alpha,
                         kernel_tilde=MemoryKernel(b=1.0, delta=1.0),
                         truncation_k=k, lambdas=np.ones(k),
                         p_2k_shifted=p, q_2km=q, weight=w,
                         c_km=np.ones((k, q.shape[1])))


# ---------------------------------------------------------------------------
# shifted companion assembly


def test_shifted_coefficients_formula():
    k = MemoryKernel(b=1.3, delta=3.1)
    s, p = shifted_coefficients(2.0, k, 0.8)
    assert s == pytest.approx(2.0 + 3.1 - 1.6, rel=1e-15)
    assert p == pytest.approx(2.0 * (1.3 + 3.1 - 0.8) - 0.8 * (3.1 - 0.8),
                              rel=1e-15)


def test_shifted_quadratic_roots_are_translated():
    # roots of x^2 + s x + p must be the unshifted ones moved by +gamma
    k = MemoryKernel(b=0.9, delta=2.4)
    for lam, gamma in [(0.7, 0.5), (3.0, 1.1), (12.0, 2.2)]:
        s, p = shifted_coefficients(lam, k, gamma)
        shifted = np.sort_complex(np.roots([1.0, s, p]))
        pair = modal_roots(lam, k)
        base = np.sort_complex(np.array([-pair.mu_plus + gamma,
                                         -pair.mu_minus + gamma]))
        np.testing.assert_allclose(shifted, base, atol=1e-10)


def test_build_shifted_single_mode_eigenvalues():
    # lam=1, b=1, delta=1: roots 1 +- i, shifted by 0.5 to -0.5 +- i
    spectrum = Spectrum.from_values([1.0])
    kernel = MemoryKernel(b=1.0, delta=1.0)
    acts = ActuatorSet(count=1, modal_coefficients=np.array([[1.0]]))
    sys = build_shifted(spectrum, kernel, 0.5, acts, truncation_k=1)
    eigs = np.sort_complex(np.linalg.eigvals(sys.p_2k_shifted))
    np.testing.assert_allclose(
        eigs, np.sort_complex(np.array([-0.5 - 1.0j, -0.5 + 1.0j])),
        atol=1e-12)
    assert sys.kernel_tilde.delta == pytest.approx(0.5)
    assert sys.kernel_tilde.b == pytest.approx(1.0)


def test_build_shifted_zero_gamma_is_unshifted():
    spectrum = Spectrum.from_values([1.0, 3.0, 7.0])
    kernel = MemoryKernel(b=0.8, delta=2.0)
    acts = ActuatorSet(count=1, modal_coefficients=np.ones((3, 1)))
    sys = build_shifted(spectrum, kernel, 0.0, acts, truncation_k=3)
    lams = np.array([1.0, 3.0, 7.0])
    expected = np.zeros((6, 6))
    expected[:3, 3:] = np.eye(3)
    expected[3:, :3] = -np.diag(lams * (kernel.b + kernel.delta))
    expected[3:, 3:] = -np.diag(lams + kernel.delta)
    np.testing.assert_array_equal(sys.p_2k_shifted, expected)
    assert sys.kernel_tilde is kernel


def test_build_shifted_weight_matrix():
    spectrum = Spectrum.from_values([1.0, 4.0])
    kernel = MemoryKernel(b=1.0, delta=4.0)
    acts = ActuatorSet(count=1, modal_coefficients=np.ones((2, 1)))
    sys = build_shifted(spectrum, kernel, 2.0, acts, truncation_k=2,
                        alpha=0.5)
    np.testing.assert_allclose(sys.weight,
                               np.diag([1.0, 4.0, 0.0, 0.0]), atol=0.0)
    quarter = build_shifted(spectrum, kernel, 2.0, acts, truncation_k=2,
                            alpha=0.25)
    np.testing.assert_allclose(np.diag(quarter.weight)[:2], [1.0, 2.0],
                               rtol=1e-15)


def test_build_shifted_guards():
    spectrum = dirichlet_spectrum(4)
    kernel = MemoryKernel(b=1.0, delta=4.0)
    acts = ActuatorSet(count=1, modal_coefficients=np.ones((4, 1)))
    with pytest.raises(GammaOutOfRangeError):
        build_shifted(spectrum, kernel, -0.1, acts)
    with pytest.raises(GammaExceedsDeltaError):
        build_shifted(spectrum, kernel, 4.0, acts)
    with pytest.raises(AlphaRangeError):
        build_shifted(spectrum, kernel, 2.0, acts, alpha=0.8)
    with pytest.raises(AlphaRangeError):
        build_shifted(spectrum, kernel, 2.0, acts, alpha=-0.01)
    with pytest.raises(DimensionMismatchError):
        build_shifted(spectrum, kernel, 2.0, acts, truncation_k=0)
    with pytest.raises(DimensionMismatchError):
        build_shifted(spectrum, kernel, 2.0, acts, truncation_k=5)


def test_build_shifted_default_truncation():
    kernel = MemoryKernel(b=1.0, delta=4.0)
    acts = ActuatorSet(count=1, modal_coefficients=np.ones((1, 1)))
    wide = build_shifted(dirichlet_spectrum(24), kernel, 2.0, acts)
    assert wide.truncation_k == 16      # max(2 N, 16) with N = 1
    short = build_shifted(dirichlet_spectrum(6), kernel, 2.0, acts)
    assert short.truncation_k == 6      # clamped to the modes available


def test_eigenvalue_shift_random_sweep():
    rng = np.random.default_rng(20240818)
    for _ in range(25):
        kernel = MemoryKernel(b=float(rng.uniform(0.1, 3.0)),
                              delta=float(rng.uniform(0.5, 5.0)))
        gamma = float(rng.uniform(0.0, 0.95)) * kernel.delta
        k = int(rng.integers(1, 6))
        values = np.sort(rng.uniform(0.05, 30.0, size=k))
        spectrum = Spectrum.from_values(values.tolist())
        acts = ActuatorSet(count=1, modal_coefficients=np.ones((k, 1)))
        shifted = build_shifted(spectrum, kernel, gamma, acts,
                                truncation_k=k)
        base = build_shifted(spectrum, kernel, 0.0, acts, truncation_k=k)
        e1 = np.linalg.eigvals(shifted.p_2k_shifted)
        e0 = np.linalg.eigvals(base.p_2k_shifted) + gamma
        order = np.lexsort((e1.imag, e1.real))
        order0 = np.lexsort((e0.imag, e0.real))
        np.testing.assert_allclose(e1[order], e0[order0], atol=1e-10)


# ---------------------------------------------------------------------------
# Riccati solve


def test_solve_are_scalar_oracle():
    # x' = x + u, cost q = 2: 2R - R^2 + 2 = 0 gives R = 1 + sqrt(3)
    sol = solve_are(synthetic_system([[1.0]], [[1.0]], [[2.0]]))
    r_exact = 1.0 + math.sqrt(3.0)
    assert sol.r_matrix[0, 0] == pytest.approx(r_exact, rel=1e-10)
    assert sol.gain[0, 0] == pytest.approx(r_exact, rel=1e-10)
    assert sol.residual <= 1e-8
    assert sol.closed_loop_eigs[0].real == pytest.approx(-math.sqrt(3.0),
                                                         rel=1e-10)


def test_solve_are_zero_weight_stable_system():
    sol = solve_are(synthetic_system([[-1.0]], [[1.0]], [[0.0]]))
    assert sol.r_matrix[0, 0] == 0.0
    assert np.all(sol.gain == 0.0)


def test_solve_are_no_actuators_stable_lyapunov():
    # empty input matrix: value function of the uncontrolled stable flow
    sol = solve_are(synthetic_system([[-2.0]], np.zeros((1, 0)), [[4.0]]))
    assert sol.gain.shape == (0, 1)
    assert sol.r_matrix[0, 0] == pytest.approx(1.0, rel=1e-12)


def test_solve_are_no_actuators_unstable_raises():
    with pytest.raises(NotStabilizableError):
        solve_are(synthetic_system([[0.5]], np.zeros((1, 0)), [[1.0]]))


def test_solve_are_single_mode_properties():
    spectrum = Spectrum.from_values([1.0])
    kernel = MemoryKernel(b=1.0, delta=1.0)
    acts = ActuatorSet(count=1, modal_coefficients=np.array([[1.0]]))
    shifted = build_shifted(spectrum, kernel, 0.5, acts, truncation_k=1)
    sol = solve_are(shifted)
    assert sol.residual <= 1e-8
    np.testing.assert_allclose(sol.r_matrix, sol.r_matrix.T, atol=1e-12)
    assert np.linalg.eigvalsh(sol.r_matrix)[0] >= -1e-10
    assert np.all(sol.closed_loop_eigs.real < 0.0)


def test_solve_are_residual_recomputes():
    _, _, _, sol = headline_solution(truncation_k=8, n_modes=8)
    p = sol.system.p_2k_shifted
    q = sol.system.q_2km
    w = sol.system.weight
    r = sol.r_matrix
    res = p.T @ r + r @ p - r @ q @ q.T @ r + w
    assert np.linalg.norm(res) <= 1e-8 * np.linalg.norm(r)
    np.testing.assert_allclose(sol.gain, q.T @ r, atol=1e-12)


def test_solve_are_unreachable_unstable_mode():
    # lam=1 under (b=1, delta=4) sits below gamma=2 but the actuator
    # projection on it is zero, so the shifted system is not stabilizable
    spectrum = Spectrum.from_values([1.0])
    kernel = MemoryKernel(b=1.0, delta=4.0)
    acts = ActuatorSet(count=1, modal_coefficients=np.array([[0.0]]))
    shifted = build_shifted(spectrum, kernel, 2.0, acts, truncation_k=1)
    with pytest.raises(NotStabilizableError):
        solve_are(shifted)


def test_solve_are_imaginary_axis_mode_not_stabilizable():
    # x' = 0 with no input reach: the Hamiltonian has its eigenvalues on
    # the imaginary axis, so its ordered Schur form has no stable block
    with pytest.raises(NotStabilizableError, match="eigenvalue 0"):
        solve_are(synthetic_system([[0.0]], [[0.0]], [[1.0]]))


def test_solve_are_two_actuators_unreachable_unstable_mode():
    # both actuators vanish on mode 1, the one slow mode at gamma=2,
    # whose shifted eigenvalue is 2 - (5 - sqrt 5)/2 = 0.618
    spectrum = dirichlet_spectrum(4)
    kernel = MemoryKernel(b=1.0, delta=4.0)
    c = np.array([[0.0, 0.0], [1.0, 0.0], [0.0, 1.0], [1.0, 1.0]])
    acts = ActuatorSet(count=2, modal_coefficients=c)
    shifted = build_shifted(spectrum, kernel, 2.0, acts, truncation_k=4)
    with pytest.raises(NotStabilizableError, match="0.618"):
        solve_are(shifted)


def test_solvable_design_runs_no_pbh_test(monkeypatch):
    # a solve that passes the residual, semidefiniteness and closed-loop
    # checks has proven stabilizability: the PBH SVDs run on failure only
    calls = []

    def counting(p, q, eigenvalues):
        calls.append(len(eigenvalues))
        return pbh_rank_loss(p, q, eigenvalues)

    monkeypatch.setattr(riccati, "pbh_rank_loss", counting)
    headline_solution()
    assert calls == []
    with pytest.raises(NotStabilizableError):
        solve_are(synthetic_system([[0.0]], [[0.0]], [[1.0]]))
    assert calls == [1]


def dirichlet_design(scale, n_modes, gamma, truncation_k=None):
    spectrum = model_spectrum("dirichlet_1d", scale / math.pi ** 2, n_modes)
    kernel = MemoryKernel(b=1.0, delta=4.0)
    acts = default_actuators(partition_spectrum(spectrum, kernel, gamma))
    return build_shifted(spectrum, kernel, gamma, acts, truncation_k)


def test_solve_are_ill_posed_reports_conditioning():
    # N=10 slow modes at K=20: the stable-subspace basis is singular in
    # double precision, and the error gives its condition number
    shifted = dirichlet_design(0.02, 128, 3.0, truncation_k=20)
    with pytest.raises(SolverFailureError) as info:
        solve_are(shifted)
    message = str(info.value)
    assert float(re.search(r"cond\(U11\) (\S+),", message)[1]) >= 1e14
    assert re.search(r"raw residual \S+ before Newton", message)


@pytest.mark.parametrize("scale,n_modes,gamma,truncation_k", [
    (1.0, 128, 2.0, 16), (1.0, 128, 2.0, 64), (1.0, 128, 2.0, 128),
    (0.05, 64, 3.0, None), (0.1, 64, 3.0, None), (0.07, 64, 3.5, None)])
def test_solve_are_matches_scipy_qz_oracle(scale, n_modes, gamma,
                                           truncation_k):
    # scipy's QZ route on the extended pencil is the reference; where the
    # stable-subspace basis is ill-conditioned both routes lose digits
    # (largest gap seen 2.7e-5, at cond(U11) 6.2e9)
    shifted = dirichlet_design(scale, n_modes, gamma, truncation_k)
    p, q, w = shifted.p_2k_shifted, shifted.q_2km, shifted.weight
    sol = solve_are(shifted)
    assert sol.residual <= 1e-8
    assert sol.closed_loop_eigs[0].real < 0.0
    ref = scipy.linalg.solve_continuous_are(p, q, w, np.eye(q.shape[1]))
    gap = np.linalg.norm(sol.r_matrix - ref) / np.linalg.norm(ref)
    u11 = riccati._stable_subspace(p, q, w)[0]
    assert gap <= (1e-9 if np.linalg.cond(u11) < 1e6 else 1e-4)


def test_closed_loop_eigs_sorted_and_consistent():
    _, _, _, sol = headline_solution(truncation_k=6, n_modes=6)
    sys = sol.system
    direct = np.linalg.eigvals(sys.p_2k_shifted - sys.q_2km @ sol.gain)
    assert np.all(np.diff(sol.closed_loop_eigs.real) <= 1e-12)
    np.testing.assert_allclose(np.sort(direct.real),
                               np.sort(sol.closed_loop_eigs.real), atol=1e-9)


def test_truncation_stability_of_the_gain():
    # tail modes are gamma-stable, so widening K leaves the leading
    # gain block essentially untouched
    _, _, _, sol16 = headline_solution(truncation_k=16, n_modes=32)
    _, _, _, sol32 = headline_solution(truncation_k=32, n_modes=32)
    g16 = sol16.gain
    g32 = sol32.gain
    lead = np.hstack([g32[:, :16], g32[:, 32:48]])
    assert np.max(np.abs(lead - g16)) < 1e-6


def test_embed_initial_layout():
    _, _, _, sol = headline_solution(truncation_k=4, n_modes=4)
    xi = embed_initial(sol, [1.0, -2.0])
    lams = sol.system.lambdas
    np.testing.assert_allclose(xi[:4], [1.0, -2.0, 0.0, 0.0], atol=0.0)
    np.testing.assert_allclose(
        xi[4:], (sol.gamma - lams) * np.array([1.0, -2.0, 0.0, 0.0]),
        rtol=1e-15)
    with pytest.raises(DimensionMismatchError):
        embed_initial(sol, np.ones(5))


# ---------------------------------------------------------------------------
# value function and Rayleigh bounds


def test_dynamic_programming_cost_consistency():
    # half the quadratic form of R is the optimal cost; a long
    # closed-loop run must recover it through the cost integral
    _, _, _, sol = headline_solution(truncation_k=4, n_modes=4)
    y0 = np.array([1.0, 0.3, -0.2, 0.1])
    run = simulate_closed_loop(sol, y0, t_max=20.0 / sol.gamma, samples=4001)
    xi0 = embed_initial(sol, y0)
    quad = float(xi0 @ sol.r_matrix @ xi0)
    assert run.shifted_cost() == pytest.approx(quad, rel=0.01)


def test_rayleigh_bounds_bracket_the_quadratic_form():
    _, _, _, sol = headline_solution(truncation_k=6, n_modes=6)
    a1, a2 = rayleigh_bounds(sol)
    assert 0.0 < a1 <= a2 < math.inf
    rng = np.random.default_rng(4)
    lams = sol.system.lambdas
    for _ in range(20):
        y0 = rng.normal(size=6)
        xi = embed_initial(sol, y0)
        quad = float(xi @ sol.r_matrix @ xi)
        base = float(np.sum(lams ** (2.0 * sol.alpha - 1.0) * y0 ** 2))
        assert a1 * base * (1.0 - 1e-9) <= quad <= a2 * base * (1.0 + 1e-9)


def test_rayleigh_bounds_low_alpha_upper_only():
    _, _, _, sol = headline_solution(truncation_k=6, n_modes=6, alpha=0.25)
    a1, a2 = rayleigh_bounds(sol)
    assert math.isfinite(a2) and a2 > 0.0
    assert a1 <= a2


# ---------------------------------------------------------------------------
# closed-loop runs and certification


def test_certify_headline_decay():
    spectrum, kernel, _, sol = headline_solution(truncation_k=16)
    y0 = np.zeros(16)
    y0[0] = 1.0
    y0[1] = 0.4
    cert = certify_decay(sol, spectrum, kernel, HEADLINE_RATE, y0,
                         t_max=6.0)
    assert cert.passed
    assert cert.fitted_rate >= 0.98 * HEADLINE_RATE
    assert math.isfinite(cert.weighted_integral)
    assert cert.weighted_integral <= cert.quadratic_form * 1.01
    assert cert.quadratic_form <= cert.a2 * cert.initial_weighted_norm_sq \
        * (1.0 + 1e-9)


def test_certify_zeroed_gain_reports_open_loop_rate():
    spectrum, kernel, _, sol = headline_solution(truncation_k=16)
    broken = dataclasses.replace(sol, gain=np.zeros_like(sol.gain))
    y0 = np.zeros(16)
    y0[0] = 1.0
    with pytest.raises(DecayViolationError) as err:
        certify_decay(broken, spectrum, kernel, HEADLINE_RATE, y0,
                      t_max=6.0)
    cert = err.value.certificate
    assert cert is not None and not cert.passed
    assert cert.fitted_rate == pytest.approx(OPEN_LOOP_RATE, rel=0.02)


def test_certify_open_loop_when_no_slow_modes():
    # all modes decay faster than gamma; zero actuators, zero control
    spectrum = Spectrum.from_values([12.0, 20.0])
    kernel = MemoryKernel(b=1.0, delta=4.0)
    assert partition_spectrum(spectrum, kernel, 2.0).n_total == 0
    acts = ActuatorSet(count=0, modal_coefficients=np.zeros((2, 0)))
    shifted = build_shifted(spectrum, kernel, 2.0, acts, truncation_k=2)
    sol = solve_are(shifted)
    cert = certify_decay(sol, spectrum, kernel, 2.0, [1.0, -0.5],
                         t_max=4.0)
    assert cert.passed
    assert np.max(np.abs(cert.trajectory.controls)) == 0.0


def test_certify_rejects_mismatched_rate():
    spectrum, kernel, _, sol = headline_solution(truncation_k=4, n_modes=4)
    with pytest.raises(GammaOutOfRangeError):
        certify_decay(sol, spectrum, kernel, 1.5, np.ones(4), t_max=4.0)


def test_certify_rejects_initial_data_beyond_the_design_modes():
    # a K = 16 design on 32 modes: initial data on all 32 modes cannot
    # seed the design-mode loop, and the error names both sizes
    spectrum, kernel, _, sol = headline_solution(truncation_k=16, n_modes=32)
    with pytest.raises(DimensionMismatchError, match="32 modes.*retains 16"):
        certify_decay(sol, spectrum, kernel, HEADLINE_RATE, np.ones(32),
                      t_max=4.0)


def test_exponential_route_matches_simulate_ode():
    # with the design modes only (n = K) the original-frame propagation
    # of certify_decay and the shifted-frame run are the same linear
    # flow, so they agree to rounding
    spectrum, kernel, _, sol = headline_solution()
    y0 = np.linspace(1.0, -0.5, 16)
    t_max = 6.0
    cert = certify_decay(sol, spectrum, kernel, HEADLINE_RATE, y0,
                         t_max=t_max, samples=601)
    run = simulate_closed_loop(sol, y0, t_max=t_max, samples=601)
    # back to the original frame: every shifted state times e^{-gamma t}
    decay = np.exp(-sol.gamma * run.grid)[:, None]
    theirs_by_field = {
        "alpha": decay * run.xi[:, :sol.truncation_k],
        "z": decay * run.z_tilde,
        "controls": (decay * run.v_tilde) @ sol.system.c_km.T,
    }
    for field, theirs in theirs_by_field.items():
        ours = getattr(cert.trajectory, field)
        assert np.max(np.abs(ours - theirs)) <= \
            1e-10 * np.max(np.abs(theirs))


def test_simulate_ode_spillover_matches_solve_ivp():
    # a K = 4 design run on 10 modes: the indicator actuator also drives
    # the six undesigned modes.  The augmented ODE is written out here
    # and integrated by DOP853.
    n, k = 10, 4
    spectrum = dirichlet_spectrum(n)
    kernel = MemoryKernel(b=1.0, delta=4.0)
    acts = indicator_actuators_1d([(0.1, 0.4)], n)
    sol = solve_are(build_shifted(spectrum, kernel, HEADLINE_RATE, acts,
                                  truncation_k=k))
    lam = np.arange(1.0, n + 1.0) ** 2
    c = acts.rows(n)
    b, delta, gamma = kernel.b, kernel.delta, HEADLINE_RATE

    def rhs(t, x):
        alpha, z, v = x[:n], x[n:2 * n], x[2 * n:]
        d_alpha = -lam * alpha - b * lam * z + c @ v
        a = alpha[:k]
        w = -(sol.gain @ np.concatenate([a, d_alpha[:k] + gamma * a]))
        return np.concatenate([d_alpha, alpha - delta * z, w - delta * v])

    y0 = np.linspace(1.0, 0.1, n)
    grid = np.linspace(0.0, 4.0, 401)
    ref = solve_ivp(rhs, (0.0, 4.0), np.concatenate([y0, np.zeros(n + 1)]),
                    method="DOP853", t_eval=grid, rtol=1e-12, atol=1e-14)
    assert ref.success
    traj = simulate_ode(spectrum, kernel, y0,
                        make_closed_loop(sol, acts, kernel, n), grid)
    assert np.max(np.abs(c[k:])) > 0.05
    for ours, theirs in ((traj.alpha, ref.y[:n].T),
                         (traj.z, ref.y[n:2 * n].T),
                         (traj.controls, ref.y[2 * n:].T @ c.T)):
        assert np.max(np.abs(ours - theirs)) <= \
            1e-9 * np.max(np.abs(theirs))
