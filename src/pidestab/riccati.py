"""Rate-shifted Riccati design and decay certification.

To enforce a decay rate gamma, the state is rescaled by e^{gamma t}:
the rescaled modal system keeps the same structure with kernel decay
delta - gamma and a per-mode second-order form whose companion matrix
has every eigenvalue shifted by exactly +gamma.  A standard LQR design
on the truncated shifted system then yields a feedback whose closed
loop, mapped back, decays faster than gamma.  Its Riccati equation is
solved by the ordered real Schur form of the balanced Hamiltonian
(Laub 1979).

The quadratic state cost weights positions by lambda^{2 alpha}, so the
value function controls the weighted integral of |A^alpha y| and the
Rayleigh bounds of the solution matrix tie it to |A^{alpha-1/2} y_0|.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np
import scipy.linalg

from . import quadrature
from .exceptions import (
    AlphaRangeError,
    DecayViolationError,
    DimensionMismatchError,
    GammaExceedsDeltaError,
    GammaOutOfRangeError,
    NotStabilizableError,
    SolverFailureError,
)
from .spectral import MemoryKernel, Spectrum, partition_spectrum
from .simulate import Trajectory, fit_decay_rate, simulate_ode
from .synthesis import ActuatorSet, pbh_rank_loss

ALPHA_MAX = 0.75
RESIDUAL_TOL = 1e-8
DEFAULT_MIN_K = 16


@dataclass(frozen=True, eq=False)
class ShiftedSystem:
    """Truncated companion form of the rate-shifted dynamics."""

    gamma: float
    alpha: float
    kernel_tilde: MemoryKernel
    truncation_k: int
    lambdas: np.ndarray
    p_2k_shifted: np.ndarray
    q_2km: np.ndarray
    weight: np.ndarray
    c_km: np.ndarray

    @property
    def m_actuators(self) -> int:
        return self.q_2km.shape[1]


def shifted_coefficients(lam, kernel: MemoryKernel, gamma: float) -> tuple:
    """Second-order coefficients ``(s, p)`` of rate-shifted modes.

    ``lam`` is one eigenvalue or an array of them (elementwise).  The
    shifted mode obeys a'' + (lam + delta - 2 gamma) a' +
    (lam (b + delta - gamma) - gamma (delta - gamma)) a = w, with
    w = u' + (delta - gamma) u.
    """
    b, delta = kernel.b, kernel.delta
    s = lam + delta - 2.0 * gamma
    p = lam * (b + delta - gamma) - gamma * (delta - gamma)
    return s, p


def build_shifted(spectrum: Spectrum, kernel: MemoryKernel, gamma: float,
                  actuators: ActuatorSet, truncation_k: int | None = None,
                  alpha: float = 0.5) -> ShiftedSystem:
    """Assemble the shifted companion system for the first K modes.

    Requires 0 <= gamma < delta so the shifted kernel still decays
    (gamma = 0 reproduces the unshifted companion), and the cost
    exponent alpha in [0, 3/4].  K defaults to max(2N, 16) where N is
    the number of modes at or below rate gamma, clamped to the modes
    the spectrum provides; explicit K must cover all N slow modes.
    """
    if not 0.0 <= alpha <= ALPHA_MAX:
        raise AlphaRangeError(
            f"cost exponent alpha={alpha:g} outside [0, {ALPHA_MAX:g}]")
    if gamma < 0.0:
        raise GammaOutOfRangeError(f"target rate gamma={gamma:g} is negative")
    if gamma >= kernel.delta:
        raise GammaExceedsDeltaError(
            f"target rate gamma={gamma:g} must stay below the kernel decay "
            f"delta={kernel.delta:g}")
    if gamma == 0.0:
        n_slow = 0
    else:
        part = partition_spectrum(spectrum, kernel, gamma,
                                  check_degenerate=False)
        n_slow = part.n_total
    total = spectrum.n_modes
    if truncation_k is None:
        k = min(max(2 * n_slow, DEFAULT_MIN_K), total)
        k = max(k, n_slow)
    else:
        k = int(truncation_k)
        if k < n_slow:
            raise DimensionMismatchError(
                f"truncation K={k} drops slow modes (need at least {n_slow})")
        if k > total:
            raise DimensionMismatchError(
                f"truncation K={k} exceeds the {total} modes available")
    lams, _ = spectrum.expanded(k)
    kernel_tilde = MemoryKernel(b=kernel.b, delta=kernel.delta - gamma) \
        if gamma > 0.0 else kernel

    s_diag, p_diag = shifted_coefficients(lams, kernel, gamma)
    p = np.zeros((2 * k, 2 * k))
    p[:k, k:] = np.eye(k)
    p[k:, :k] = -np.diag(p_diag)
    p[k:, k:] = -np.diag(s_diag)

    c = actuators.rows(k)
    q = np.zeros((2 * k, actuators.count))
    q[k:, :] = c

    w = np.zeros((2 * k, 2 * k))
    w[:k, :k] = np.diag(lams ** (2.0 * alpha))

    return ShiftedSystem(gamma=gamma, alpha=alpha, kernel_tilde=kernel_tilde,
                         truncation_k=k, lambdas=lams, p_2k_shifted=p,
                         q_2km=q, weight=w, c_km=c)


@dataclass(frozen=True, eq=False)
class RiccatiSolution:
    """Stabilizing solution of the shifted-system Riccati equation.

    ``raw_residual`` is the relative residual before Newton polishing
    and ``newton_steps`` the number of accepted Newton steps; both are
    ``None`` for a solution rebuilt from a controller file.
    """

    r_matrix: np.ndarray
    gain: np.ndarray
    residual: float
    alpha: float
    gamma: float
    closed_loop_eigs: np.ndarray
    system: ShiftedSystem
    raw_residual: float | None = None
    newton_steps: int | None = None

    @property
    def truncation_k(self) -> int:
        return self.system.truncation_k


def _are_residual(p, q, w, r) -> float:
    res = p.T @ r + r @ p - r @ q @ q.T @ r + w
    return float(np.linalg.norm(res) / max(np.linalg.norm(r), 1e-300))


def _failure(p, q, reason: str, u11=None,
             raw_residual: float | None = None) -> SolverFailureError:
    """Typed error for a solve that failed a check.

    A PBH rank loss raises ``NotStabilizableError`` naming the mode;
    otherwise the returned error reports the conditioning of the
    stable-subspace basis and the residual before Newton polishing.
    A solve that passes every check proves stabilizability, so the PBH
    test runs here only.
    """
    eigs = np.linalg.eigvals(p)
    ev = pbh_rank_loss(p, q, eigs[eigs.real >= -1e-12])
    if ev is not None:
        raise NotStabilizableError(
            f"mode at eigenvalue {ev:.6g} cannot be moved by the "
            "actuators; the shifted system is not stabilizable")
    notes = []
    if u11 is not None:
        notes.append(f"cond(U11) {np.linalg.cond(u11):.3e}")
    if raw_residual is not None:
        notes.append(f"raw residual {raw_residual:.3e} before Newton")
    return SolverFailureError(
        reason + (f" ({', '.join(notes)})" if notes else ""))


def _stable_subspace(p, q, w) -> tuple:
    """Stable invariant subspace of the balanced Hamiltonian.

    Scales H = [[P, -Q Q'], [-W, -P']] by diag(D, D^-1), with D the
    power-of-two diagonal that balances |H| off its diagonal (the
    symplectic balancing of Benner), and sorts its real Schur form to
    the open left half-plane.  Returns (U11, U21, sdim, D): the leading
    ``sdim`` Schur vectors span the stable subspace, and the solution
    of the unbalanced equation is D U21 U11^-1 D.
    """
    dim = p.shape[0]
    ham = np.block([[p, -(q @ q.T)], [-w, -p.T]])
    mag = np.abs(ham)
    np.fill_diagonal(mag, 0.0)
    _, (sca, _) = scipy.linalg.matrix_balance(mag, permute=False,
                                              separate=True)
    log_sca = np.log2(sca)
    d = 2.0 ** np.round((log_sca[dim:] - log_sca[:dim]) / 2.0)
    scale = np.concatenate([d, 1.0 / d])
    ham *= scale[:, None] / scale
    _, z, sdim = scipy.linalg.schur(ham, output="real", sort="lhp",
                                    overwrite_a=True)
    return z[:dim, :dim], z[dim:, :dim], sdim, d


def solve_are(shifted: ShiftedSystem) -> RiccatiSolution:
    """Stabilizing Riccati solution, gain and closed-loop spectrum.

    Solves P~' R + R P~ - R Q~ Q~' R + W = 0 with unit input cost by
    Laub's Schur method: the Hamiltonian is balanced by a symplectic
    diagonal scaling, its real Schur form is sorted to the open left
    half-plane, and R = U21 U11^-1 is read off the stable block, then
    scaled back.  Newton steps (each a Lyapunov solve) polish R while
    the relative residual exceeds 1e-8; R must then be positive
    semidefinite with a stable closed loop.  The PBH stabilizability
    test runs only when one of these checks fails, so that a rank loss
    is reported as ``NotStabilizableError``; any other failure raises
    ``SolverFailureError`` with the condition number of U11 and the
    residual before Newton.  With no actuators the equation degenerates
    to a Lyapunov equation, which only has the required interpretation
    when the shifted system is already stable.
    """
    p = shifted.p_2k_shifted
    q = shifted.q_2km
    w = shifted.weight
    dim = p.shape[0]
    m = q.shape[1]

    if dim == 0:
        return RiccatiSolution(
            r_matrix=np.zeros((0, 0)), gain=np.zeros((m, 0)), residual=0.0,
            alpha=shifted.alpha, gamma=shifted.gamma,
            closed_loop_eigs=np.zeros(0, complex), system=shifted,
            raw_residual=0.0, newton_steps=0)

    zero_weight = np.linalg.norm(w) == 0.0
    stable_open = (m == 0 or zero_weight) and \
        bool(np.all(np.linalg.eigvals(p).real < 0.0))

    u11 = None
    if zero_weight and stable_open:
        r = np.zeros((dim, dim))
    elif m == 0:
        if not stable_open:
            raise NotStabilizableError(
                "no actuators and the shifted system has non-decaying modes")
        r = scipy.linalg.solve_continuous_lyapunov(p.T, -w)
    else:
        u11, u21, sdim, d = _stable_subspace(p, q, w)
        if sdim < dim:
            raise _failure(
                p, q, f"only {sdim} of {dim} Hamiltonian eigenvalues lie "
                "in the open left half-plane; no stabilizing solution")
        try:
            r = np.linalg.solve(u11.T, u21.T).T
        except np.linalg.LinAlgError as exc:
            raise _failure(p, q, "stable-subspace basis U11 is singular: "
                           f"{exc}", u11) from exc
        r *= d[:, None] * d

    r = 0.5 * (r + r.T)
    residual = raw_residual = _are_residual(p, q, w, r)
    steps = 0
    for _ in range(15):
        if residual <= RESIDUAL_TOL:
            break
        a_cl = p - q @ (q.T @ r)
        rhs = -(w + r @ q @ q.T @ r)
        try:
            r_new = scipy.linalg.solve_continuous_lyapunov(a_cl.T, rhs)
        except np.linalg.LinAlgError as exc:
            raise _failure(p, q, f"Newton refinement failed: {exc}", u11,
                           raw_residual) from exc
        r_new = 0.5 * (r_new + r_new.T)
        new_residual = _are_residual(p, q, w, r_new)
        if not new_residual < residual:
            break
        r, residual = r_new, new_residual
        steps += 1
    if residual > RESIDUAL_TOL:
        raise _failure(p, q, f"Riccati residual {residual:.3e} above "
                       f"{RESIDUAL_TOL:.1e} after refinement", u11,
                       raw_residual)

    scale = float(np.linalg.norm(r))
    min_eig = float(np.linalg.eigvalsh(r)[0]) if dim else 0.0
    if min_eig < -1e-10 * max(scale, 1.0):
        raise _failure(p, q, "Riccati solution indefinite (min eigenvalue "
                       f"{min_eig:.3e})", u11, raw_residual)

    gain = q.T @ r
    cl_eigs = np.linalg.eigvals(p - q @ gain)
    cl_eigs = cl_eigs[np.argsort(-cl_eigs.real)]
    if cl_eigs.size and cl_eigs[0].real >= 1e-10:
        raise _failure(p, q, "closed loop not stable: leading eigenvalue "
                       f"{cl_eigs[0]:.6g}", u11, raw_residual)
    return RiccatiSolution(r_matrix=r, gain=gain, residual=residual,
                           alpha=shifted.alpha, gamma=shifted.gamma,
                           closed_loop_eigs=cl_eigs, system=shifted,
                           raw_residual=raw_residual, newton_steps=steps)


def feedback_gain_to_control(solution: RiccatiSolution, state,
                             actuators: ActuatorSet | None = None) -> np.ndarray:
    """Actuator amplitudes of the feedback law at one (shifted) state."""
    state = np.asarray(state, dtype=float).reshape(-1)
    if state.size != solution.gain.shape[1]:
        raise DimensionMismatchError(
            f"state has dimension {state.size}, gain expects "
            f"{solution.gain.shape[1]}")
    if actuators is not None and actuators.count != solution.gain.shape[0]:
        raise DimensionMismatchError(
            f"gain drives {solution.gain.shape[0]} actuators, "
            f"set provides {actuators.count}")
    return -(solution.gain @ state)


class ShiftedStateFeedback:
    """Linear realization of the gain in original variables.

    The design returns w~ = -K xi in shifted coordinates; undoing the
    exponential rescaling leaves a time-invariant law on the original
    state: w = -K (alpha, alpha' + gamma alpha), fed through the
    actuator dynamics v' = w - delta v, u = C v.  On the simulated state
    x = (alpha, z, v) both are linear, u = U x (``input_matrix``) and
    v' = V x (``aux_matrix``), which is the form ``simulate_ode``
    propagates exactly, so the closed loop can be simulated and
    certified without leaving the original frame (actuator spillover
    onto the simulated tail modes included).
    """

    def __init__(self, solution: RiccatiSolution, actuators: ActuatorSet,
                 kernel: MemoryKernel, n_modes_sim: int):
        k = solution.truncation_k
        n = n_modes_sim
        if n < k:
            raise DimensionMismatchError(
                f"simulation carries {n} modes, the design needs {k}")
        m = actuators.count
        c_rows = actuators.rows(n)
        lam = solution.system.lambdas
        dim = 2 * n + m
        # xi = (alpha, alpha' + gamma alpha) on the design modes, with
        # alpha' = -lam alpha - b lam z + C v read off the modal equation
        xi_map = np.zeros((2 * k, dim))
        xi_map[:k, :k] = np.eye(k)
        xi_map[k:, :k] = np.diag(solution.gamma - lam)
        xi_map[k:, n:n + k] = -kernel.b * np.diag(lam)
        xi_map[k:, 2 * n:] = c_rows[:k]
        self.input_matrix = np.zeros((n, dim))
        self.input_matrix[:, 2 * n:] = c_rows
        self.aux_matrix = -(solution.gain @ xi_map)
        self.aux_matrix[:, 2 * n:] -= kernel.delta * np.eye(m)
        self.aux0 = np.zeros(m)


def make_closed_loop(solution: RiccatiSolution, actuators: ActuatorSet,
                     kernel: MemoryKernel,
                     n_modes_sim: int | None = None) -> ShiftedStateFeedback:
    """Linear feedback controller on ``n_modes_sim`` simulated modes
    (default: the design modes), ready for ``simulate_ode``."""
    k = solution.truncation_k if n_modes_sim is None else int(n_modes_sim)
    return ShiftedStateFeedback(solution, actuators, kernel, k)


@dataclass(frozen=True, eq=False)
class ClosedLoopRun:
    """Shifted-frame closed-loop run via matrix exponentials.

    States are sampled columns of the autonomous system
    (xi, v~, z~)' = A (xi, v~, z~); mapping back multiplies by
    e^{-gamma t}.  Serves as the second route to the closed loop beside
    ``simulate_ode``: it works in the shifted companion frame on the
    design modes alone, with its own generator and its own exponential.
    The two routes share only ``quadrature.scan``, which runs the step
    map of each and is tested against plain loops.
    """

    grid: np.ndarray
    xi: np.ndarray        # (samples, 2K)
    v_tilde: np.ndarray   # (samples, M)
    z_tilde: np.ndarray   # (samples, K)
    w_tilde: np.ndarray   # (samples, M)
    solution: RiccatiSolution

    def to_trajectory(self, frac_alpha: float | None = None) -> Trajectory:
        sol = self.solution
        k = sol.truncation_k
        decay = np.exp(-sol.gamma * self.grid)[:, None]
        alpha = decay * self.xi[:, :k]
        z = decay * self.z_tilde
        controls = (decay * self.v_tilde) @ sol.system.c_km.T
        return Trajectory(
            grid=self.grid, alpha=alpha, z=z, lambdas=sol.system.lambdas,
            controls=controls,
            control_labels=tuple(f"u_{i+1}" for i in range(k)),
            frac_alpha=sol.alpha if frac_alpha is None else frac_alpha)

    def shifted_cost(self) -> float:
        """Simpson value of the LQR cost integral along the run."""
        from scipy.integrate import simpson
        w_mat = self.solution.system.weight
        state_term = np.einsum("si,ij,sj->s", self.xi, w_mat, self.xi)
        ctrl_term = np.sum(self.w_tilde ** 2, axis=1)
        return float(simpson(state_term + ctrl_term, x=self.grid))


def embed_initial(solution: RiccatiSolution, y0) -> np.ndarray:
    """Shifted companion state of modal initial data with idle actuators.

    With u(0) = 0 the natural initial velocity is alpha'(0) = -lam a0,
    so the shifted state starts at (a0, (gamma - lam) a0).
    """
    sys = solution.system
    k = sys.truncation_k
    a0 = np.asarray(y0, dtype=float).reshape(-1)
    if a0.size > k:
        raise DimensionMismatchError(
            f"initial data has {a0.size} modes, design retains {k}")
    if a0.size < k:
        a0 = np.concatenate([a0, np.zeros(k - a0.size)])
    return np.concatenate([a0, (solution.gamma - sys.lambdas) * a0])


def simulate_closed_loop(solution: RiccatiSolution, y0, t_max: float, *,
                         samples: int = 2001) -> ClosedLoopRun:
    """Propagate the autonomous shifted closed loop on a uniform grid.

    One exponential of the shifted generator over a grid cell is the
    step map; the samples are its scan (``quadrature.scan``) from
    ``(xi0, 0)``.  Frame, generator and exponential are this route's own;
    only the scan is shared with ``simulate_ode``.
    """
    sys = solution.system
    k = sys.truncation_k
    m = sys.m_actuators
    gain = solution.gain
    dt_kernel = sys.kernel_tilde.delta

    dim = 2 * k + m + k
    a = np.zeros((dim, dim))
    a[:2 * k, :2 * k] = sys.p_2k_shifted - sys.q_2km @ gain
    a[2 * k:2 * k + m, :2 * k] = -gain
    a[2 * k:2 * k + m, 2 * k:2 * k + m] = -dt_kernel * np.eye(m)
    a[2 * k + m:, :k] = np.eye(k)
    a[2 * k + m:, 2 * k + m:] = -dt_kernel * np.eye(k)

    grid = np.linspace(0.0, t_max, samples)
    h = grid[1] - grid[0] if samples > 1 else 0.0
    step = scipy.linalg.expm(a * h)
    start = np.zeros((samples, dim))
    start[:1, :2 * k] = embed_initial(solution, y0)
    out = quadrature.scan(step, start)
    xi = out[:, :2 * k]
    v_tilde = out[:, 2 * k:2 * k + m]
    z_tilde = out[:, 2 * k + m:]
    w_tilde = -(xi @ gain.T)
    return ClosedLoopRun(grid=grid, xi=xi, v_tilde=v_tilde, z_tilde=z_tilde,
                         w_tilde=w_tilde, solution=solution)


def rayleigh_bounds(solution: RiccatiSolution) -> tuple:
    """Extremal Rayleigh quotients of R against the |A^{alpha-1/2}| norm.

    Quotients are taken over companion states embedded from modal data
    (idle actuators), the same embedding certification uses.  For
    alpha in [1/2, 3/4] the lower bound is positive; below 1/2 only the
    upper bound carries meaning.
    """
    sys = solution.system
    k = sys.truncation_k
    if k == 0:
        return 0.0, 0.0
    e = np.vstack([np.eye(k), np.diag(solution.gamma - sys.lambdas)])
    m1 = e.T @ solution.r_matrix @ e
    m1 = 0.5 * (m1 + m1.T)
    d = np.diag(sys.lambdas ** (2.0 * sys.alpha - 1.0))
    vals = scipy.linalg.eigh(m1, d, eigvals_only=True)
    return float(vals[0]), float(vals[-1])


@dataclass(frozen=True, eq=False)
class DecayCertificate:
    """Certified decay summary of one closed-loop run."""

    gamma: float
    alpha: float
    fitted_rate: float
    rate_threshold: float
    fit_constant: float
    oscillation: bool
    weighted_integral: float
    quadratic_form: float
    a1: float
    a2: float
    initial_weighted_norm_sq: float
    trajectory: Trajectory

    @property
    def rate_ok(self) -> bool:
        return self.fitted_rate >= self.rate_threshold

    @property
    def integral_ok(self) -> bool:
        if not math.isfinite(self.weighted_integral):
            return False
        bound = self.a2 * self.initial_weighted_norm_sq
        return (self.weighted_integral <= self.quadratic_form * 1.01
                and self.quadratic_form <= bound * (1.0 + 1e-9))

    @property
    def passed(self) -> bool:
        return self.rate_ok and self.integral_ok


def certify_decay(solution: RiccatiSolution, spectrum: Spectrum,
                  kernel: MemoryKernel, gamma: float, y0, t_max: float, *,
                  actuators: ActuatorSet | None = None,
                  samples: int | None = None) -> DecayCertificate:
    """Run the closed loop from y0 and certify the decay rate.

    The loop is propagated in original variables by ``simulate_ode``
    (the actuator states riding along), the rate of |A^{alpha-1/2} y| is
    fitted on the second half of [0, t_max] and must reach 0.98 gamma,
    and the weighted integral of e^{2 gamma t}|A^alpha y|^2 is reported
    against the quadratic form of R and its Rayleigh bound.  A failed
    rate or a diverging integral raises, carrying the certificate and
    its diagnostic trajectory.
    """
    if abs(gamma - solution.gamma) > 1e-12 * max(1.0, abs(gamma)):
        raise GammaOutOfRangeError(
            f"certification rate {gamma:g} differs from the design rate "
            f"{solution.gamma:g}")
    sys = solution.system
    k = sys.truncation_k
    if actuators is None:
        actuators = ActuatorSet(count=sys.m_actuators,
                                modal_coefficients=sys.c_km,
                                description="design projections")
    controller = make_closed_loop(solution, actuators, kernel, k)
    if samples is None:
        samples = max(801, int(round(t_max / 0.01)) + 1)
    grid = np.linspace(0.0, t_max, samples)
    y0 = np.asarray(y0, dtype=float).reshape(-1)
    if y0.size < k:
        y0 = np.concatenate([y0, np.zeros(k - y0.size)])
    traj = simulate_ode(spectrum, kernel, y0, controller, grid,
                        frac_alpha=solution.alpha)
    fit = fit_decay_rate(traj, "a_alpha_minus_half",
                         window=(t_max / 2.0, t_max))
    weighted = traj.weighted_energy(solution.alpha, rate=gamma)
    xi0 = embed_initial(solution, y0)
    quad_form = float(xi0 @ solution.r_matrix @ xi0)
    a1, a2 = rayleigh_bounds(solution)
    init_sq = float(np.sum(sys.lambdas ** (2.0 * solution.alpha - 1.0)
                           * y0[:k] ** 2))
    cert = DecayCertificate(
        gamma=gamma, alpha=solution.alpha, fitted_rate=fit.rate,
        rate_threshold=0.98 * gamma, fit_constant=fit.constant,
        oscillation=fit.oscillation, weighted_integral=weighted,
        quadratic_form=quad_form, a1=a1, a2=a2,
        initial_weighted_norm_sq=init_sq, trajectory=traj)
    if not cert.rate_ok or not math.isfinite(weighted):
        raise DecayViolationError(
            f"fitted decay rate {fit.rate:.6g} below the certified "
            f"threshold {cert.rate_threshold:.6g}", certificate=cert)
    return cert
