"""Companion systems, steerability checks and minimum-energy steering.

The modes flagged by the partition form a finite-dimensional companion
system: positions stacked over velocities, one second-order block per
mode.  Steering that block to zero is what removes the slow content of
the solution; the remaining modes already decay faster than the target
rate.  Two independent certificates are computed for steerability — the
group-slice rank conditions in transformed coordinates, and a Gramian
eigenvalue test — and the steering control itself is the classical
minimum-energy formula.  Gramians are exact (one Lyapunov solve and one
matrix exponential each); the steering control is sampled by the scan
(``quadrature.scan``) of one cell exponential, the physical actuator
amplitudes follow from it in closed form, and the scan of the exact cell
map of the controlled system verifies that the control reaches zero, so
no quadrature rule enters the steering.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np
import scipy.linalg

from . import quadrature
from .exceptions import (
    ActuatorSearchError,
    DegenerateSpectrumError,
    DimensionMismatchError,
    GramianSingularError,
    HorizonTooSmallError,
    IllConditionedTransformError,
)
from .jordan import EigenCluster, jordan_form
from .spectral import (
    MemoryKernel,
    Spectrum,
    UnstablePartition,
    check_degeneracy,
    modal_roots,
)

RANK_RTOL = 1e-10
COND_LIMIT = 1e12
COLLISION_TOL = 1e-9  # closest distinct roots the closed-form transform keeps
KALMAN_HORIZON = 1.0  # Gramian horizon of the steerability cross-check
KALMAN_RTOL = 1e-12  # smallest accepted Gramian eigenvalue, relative
TERMINAL_LIMIT = 1e-6  # largest accepted |x(T)| / |x0| of a steering control
CONTROL_SAMPLES = 1025  # output samples of a steering control


@dataclass(frozen=True, eq=False)
class ActuatorSet:
    """Finite family of actuator shapes projected on the controlled modes.

    Attributes
    ----------
    count : int
        Number of actuators M.
    modal_coefficients : numpy.ndarray
        Matrix with entry (j, i) holding the projection of actuator i on
        mode j.  Rows follow the expanded mode order; at least the
        controlled block must be covered, extra rows serve truncations
        beyond it.
    description : str
        Provenance note (default construction, indicator support, ...).
    """

    count: int
    modal_coefficients: np.ndarray
    description: str = "user-supplied"

    def __post_init__(self):
        coeffs = np.atleast_2d(np.asarray(self.modal_coefficients, dtype=float))
        if coeffs.shape[1] != self.count:
            raise DimensionMismatchError(
                f"coefficient matrix has {coeffs.shape[1]} columns for "
                f"{self.count} actuators")
        if not np.all(np.isfinite(coeffs)):
            raise ValueError("actuator coefficients must be finite")
        object.__setattr__(self, "modal_coefficients", coeffs)

    def rows(self, n: int) -> np.ndarray:
        """First ``n`` coefficient rows, zero-padded beyond the stored ones.

        Zero padding is exact for the default construction (eigenfunctions
        are orthogonal), and a documented approximation otherwise.
        """
        stored = self.modal_coefficients
        if n <= stored.shape[0]:
            return stored[:n].copy()
        out = np.zeros((n, self.count))
        out[:stored.shape[0]] = stored
        return out


def default_actuators(partition: UnstablePartition, coefficients=None, *,
                      count: int | None = None, validator=None, seed: int = 0,
                      max_attempts: int = 1000) -> ActuatorSet:
    """Actuator set for a partition.

    Without arguments this builds the aligned eigenprojection family:
    actuator ``i`` carries the ``i``-th member of every group that is
    large enough, columns normalized.  For groups of distinct modes the
    single actuator therefore touches every mode; for one group of
    multiplicity m the coefficients are the m-by-m identity.  This
    construction passes the group rank conditions whenever the
    transformed system is diagonalizable.

    Parameters
    ----------
    coefficients : array_like, optional
        Explicit projection matrix (rows per mode, columns per actuator),
        e.g. indicator-supported actuators; bypasses the construction.
    count : int, optional
        Number of columns for the default construction (defaults to the
        largest group size; smaller values are allowed and will fail the
        rank conditions downstream, which is sometimes the point).
    validator : callable, optional
        Predicate on a candidate :class:`ActuatorSet`.  When the default
        candidate is rejected, random unit-norm candidates are drawn
        until one passes.  This is the path for systems whose transform
        is not diagonalizable.
    seed, max_attempts :
        Reproducibility and budget of the randomized search.
    """
    n = partition.n_total
    if coefficients is not None:
        coeffs = np.atleast_2d(np.asarray(coefficients, dtype=float))
        if coeffs.shape[0] < n:
            raise DimensionMismatchError(
                f"need at least {n} coefficient rows, got {coeffs.shape[0]}")
        return ActuatorSet(count=coeffs.shape[1], modal_coefficients=coeffs,
                           description="user-supplied")
    if n == 0:
        return ActuatorSet(count=0, modal_coefficients=np.zeros((0, 0)),
                           description="empty (no controlled modes)")
    m = partition.m_max if count is None else int(count)
    if m < 1:
        raise ValueError("actuator count must be at least 1")
    if m > partition.m_max:
        raise ValueError(
            f"default construction supports at most m_max={partition.m_max} "
            "actuators")
    aligned = np.zeros((n, m))
    offset = 0
    for size in partition.group_sizes:
        for pos in range(min(size, m)):
            aligned[offset + pos, pos] = 1.0
        offset += size
    aligned /= np.linalg.norm(aligned, axis=0, keepdims=True)
    candidate = ActuatorSet(count=m, modal_coefficients=aligned,
                            description="aligned eigenprojections")
    if validator is None or validator(candidate):
        return candidate

    rng = np.random.default_rng(seed)
    for attempt in range(max_attempts):
        raw = rng.standard_normal((n, m))
        raw /= np.linalg.norm(raw, axis=0, keepdims=True)
        candidate = ActuatorSet(
            count=m, modal_coefficients=raw,
            description=f"randomized (seed={seed}, attempt={attempt})")
        if validator(candidate):
            return candidate
    raise ActuatorSearchError(
        f"no admissible actuator coefficients found in {max_attempts} "
        f"randomized attempts (seed={seed})", seed=seed,
        attempts=max_attempts)


@dataclass(frozen=True, eq=False)
class CompanionSystem:
    """Position/velocity companion form of the controlled block."""

    a_n: np.ndarray      # diag(lam_j + delta)
    b_n: np.ndarray      # diag(lam_j (b + delta))
    c_nm: np.ndarray     # actuator coefficients, N x M
    p_2n: np.ndarray     # [[0, I], [-B_N, -A_N]]
    q_2nm: np.ndarray    # [[0], [C_NM]]
    lambdas: np.ndarray
    kernel: MemoryKernel

    @property
    def n_modes(self) -> int:
        return self.lambdas.size

    @property
    def m_actuators(self) -> int:
        return self.c_nm.shape[1]


def build_companion(partition: UnstablePartition, kernel: MemoryKernel,
                    actuators: ActuatorSet, spectrum: Spectrum, *,
                    allow_degenerate: bool = False) -> CompanionSystem:
    """Assemble the companion system of the controlled block.

    ``allow_degenerate`` lets spectra with coincident per-mode roots
    through (their transform takes the chain path); collisions between
    different modes are always rejected since no grouping makes the
    steering argument sound for them.
    """
    n = partition.n_total
    lams = partition.lambdas
    report = check_degeneracy(spectrum, kernel)
    blockers = [v for v in report
                if v.kind != "double_root" or not allow_degenerate]
    if blockers:
        raise DegenerateSpectrumError(
            "degenerate root structure blocks synthesis", report=blockers)
    c = actuators.rows(n) if n else np.zeros((0, actuators.count))
    m = actuators.count
    a_n = np.diag(lams + kernel.delta)
    b_n = np.diag(lams * (kernel.b + kernel.delta))
    p = np.zeros((2 * n, 2 * n))
    if n:
        p[:n, n:] = np.eye(n)
        p[n:, :n] = -b_n
        p[n:, n:] = -a_n
    q = np.zeros((2 * n, m))
    q[n:, :] = c
    return CompanionSystem(a_n=a_n, b_n=b_n, c_nm=c, p_2n=p, q_2nm=q,
                           lambdas=lams.copy(), kernel=kernel)


@dataclass(frozen=True, eq=False)
class TransformedSystem:
    """Companion system in block coordinates.

    ``r_matrix`` maps companion coordinates to block coordinates; the
    block matrix is diagonal when the system is diagonalizable and a
    chain (Jordan) matrix otherwise.  ``slices`` holds, per eigenvalue
    cluster, the adjoint input slice whose rank decides steerability of
    that cluster.
    """

    r_matrix: np.ndarray
    block: np.ndarray
    q_bar: np.ndarray
    clusters: tuple
    slices: tuple
    semisimple: bool
    condition: float


def _slices_for(q_bar: np.ndarray, clusters) -> tuple:
    adj = q_bar.conj().T
    return tuple(adj[:, c.start:c.start + c.size] for c in clusters)


def transform_matrix_system(p, q, *,
                            cluster_tol: float = 1e-9) -> TransformedSystem:
    """Block-diagonalize an arbitrary square system (chain form if needed)."""
    p = np.asarray(p, dtype=complex)
    q = np.asarray(q, dtype=complex)
    v, block, clusters, semisimple = jordan_form(p, cluster_tol=cluster_tol)
    if v.size:
        cond = float(np.linalg.cond(v))
    else:
        cond = 1.0
    if cond > COND_LIMIT:
        raise IllConditionedTransformError(
            f"transform condition number {cond:.3e} exceeds {COND_LIMIT:.1e}")
    r = np.linalg.solve(v, np.eye(v.shape[0], dtype=complex)) if v.size else v
    if semisimple:
        block = np.diag(np.diag(block))
    q_bar = r @ q
    return TransformedSystem(
        r_matrix=r, block=block, q_bar=q_bar, clusters=clusters,
        slices=_slices_for(q_bar, clusters), semisimple=semisimple,
        condition=cond)


def transform_and_group(companion: CompanionSystem,
                        partition: UnstablePartition | None = None
                        ) -> TransformedSystem:
    """Diagonalize the companion system and slice the input per cluster.

    For non-degenerate spectra the eigenvector matrix is known in closed
    form (each mode contributes the pair ``(e_j, -mu e_j)``), giving the
    ordering fast roots first, slow roots second, grouped by distinct
    eigenvalue.  If any mode carries a (near-)double root, or distinct
    modes share a root so the closed-form clusters would collide, the
    generic chain path takes over.
    """
    n = companion.n_modes
    if n == 0:
        return TransformedSystem(
            r_matrix=np.zeros((0, 0), complex),
            block=np.zeros((0, 0), complex),
            q_bar=np.zeros((0, companion.m_actuators), complex),
            clusters=(), slices=(), semisimple=True, condition=1.0)

    roots = modal_roots(companion.lambdas, companion.kernel)
    mu_p, mu_m = roots.mu_plus, roots.mu_minus

    sizes = None
    if partition is not None and partition.n_total == n:
        sizes = partition.group_sizes
    else:
        sizes = []
        for lam in companion.lambdas:
            if sizes and lam == companion.lambdas[sum(sizes) - 1]:
                # consecutive equal eigenvalues extend the current group
                sizes[-1] += 1
            else:
                sizes.append(1)
        sizes = tuple(sizes)

    fused = bool(roots.is_degenerate.any())
    # each root gap is real or purely imaginary, so np.abs is exact here
    analytic_ok = not fused and bool(
        np.all(np.abs(mu_p - mu_m) > COLLISION_TOL))
    if analytic_ok:
        offsets = np.cumsum((0,) + sizes[:-1])
        values = []
        for off, size in zip(offsets, sizes):
            values.append(-mu_p[off])
            values.append(-mu_m[off])
        vals = np.array(values)
        pairwise = np.abs(vals[:, None] - vals[None, :])
        np.fill_diagonal(pairwise, np.inf)
        if pairwise.min() <= COLLISION_TOL:
            analytic_ok = False  # clusters collide; merge via generic path

    if not analytic_ok:
        # a defective companion block scatters its computed eigenvalues
        # by about sqrt(machine eps), so clustering for a known-fused
        # pair must open up to that resolution floor
        tol_eff = COLLISION_TOL
        if fused:
            scale = float(max(np.abs(mu_p).max(), np.abs(mu_m).max(), 1.0))
            tol_eff = max(COLLISION_TOL, 5e-7 * scale)
        return transform_matrix_system(
            companion.p_2n, companion.q_2nm, cluster_tol=tol_eff)

    v = np.zeros((2 * n, 2 * n), dtype=complex)
    idx = np.arange(n)
    v[idx, idx] = 1.0
    v[n + idx, idx] = -mu_p
    v[idx, n + idx] = 1.0
    v[n + idx, n + idx] = -mu_m
    cond = float(np.linalg.cond(v))
    if cond > COND_LIMIT:
        raise IllConditionedTransformError(
            f"transform condition number {cond:.3e} exceeds {COND_LIMIT:.1e}")
    r = np.linalg.solve(v, np.eye(2 * n, dtype=complex))
    d = np.diag(np.concatenate([-mu_p, -mu_m]))
    q_bar = r @ companion.q_2nm

    clusters = []
    offset = 0
    for size in sizes:
        clusters.append(EigenCluster(value=complex(-mu_p[offset]),
                                     size=size, start=offset))
        offset += size
    offset = 0
    for size in sizes:
        clusters.append(EigenCluster(value=complex(-mu_m[offset]),
                                     size=size, start=n + offset))
        offset += size
    clusters = tuple(clusters)
    return TransformedSystem(
        r_matrix=r, block=d, q_bar=q_bar, clusters=clusters,
        slices=_slices_for(q_bar, clusters), semisimple=True,
        condition=cond)


@dataclass(frozen=True)
class RankEntry:
    cluster: EigenCluster
    rank: int
    required: int
    chain_end_rows: tuple

    @property
    def ok(self) -> bool:
        return self.rank >= self.required


@dataclass(frozen=True)
class RankReport:
    entries: tuple

    @property
    def passed(self) -> bool:
        return all(e.ok for e in self.entries)

    @property
    def failures(self) -> tuple:
        return tuple(e for e in self.entries if not e.ok)


def _chain_end_rows(block: np.ndarray, cluster: EigenCluster) -> tuple:
    last = cluster.start + cluster.size - 1
    rows = []
    for i in range(cluster.start, cluster.start + cluster.size):
        if i == last or abs(block[i, i + 1]) < 0.5:
            rows.append(i)
    return tuple(rows)


def rank_conditions(transformed: TransformedSystem,
                    partition: UnstablePartition | None = None) -> RankReport:
    """Steerability rank test, one entry per eigenvalue cluster.

    The input must reach the top of every chain of the cluster, so the
    decisive quantity is the rank of the chain-end rows of the
    transformed input matrix: it must equal the number of chains.  For
    diagonalizable clusters every row is a chain end and the requirement
    is the full multiplicity.  The report is plain data; callers decide
    whether failure is an error.
    """
    entries = []
    for cluster in transformed.clusters:
        rows = _chain_end_rows(transformed.block, cluster)
        sl = transformed.q_bar[list(rows), :]
        if sl.size == 0:
            rank = 0
        else:
            s = np.linalg.svd(sl, compute_uv=False)
            rank = int(np.sum(s > RANK_RTOL * s[0])) if s[0] > 0 else 0
        entries.append(RankEntry(cluster=cluster, rank=rank,
                                 required=len(rows), chain_end_rows=rows))
    return RankReport(entries=tuple(entries))


def kalman_observability_check(transformed: TransformedSystem) -> bool:
    """Gramian route to the same steerability question.

    Forms the Gramian of the block and the transformed input over
    [0, KALMAN_HORIZON] with :func:`controllability_gramian`, for diagonal
    and chain blocks alike, and demands the smallest eigenvalue clear
    ``KALMAN_RTOL`` times the largest.  Independent of the rank computation
    and expected to agree with it.  The block must meet the precondition
    of :func:`controllability_gramian`, as every transformed companion
    block does.
    """
    if transformed.block.shape[0] == 0:
        return True
    eigs = np.linalg.eigvalsh(controllability_gramian(
        transformed.block, transformed.q_bar, KALMAN_HORIZON))
    top = eigs[-1]
    if top <= 0.0:
        return False
    return bool(eigs[0] > KALMAN_RTOL * top)


def pbh_rank_loss(p: np.ndarray, q: np.ndarray, eigenvalues):
    """First of ``eigenvalues`` at which ``[p - ev I, q]`` loses rank.

    Popov-Belevitch-Hautus test at relative tolerance ``RANK_RTOL``.
    Returns ``None`` when the input reaches every listed eigenvalue.
    """
    eye = np.eye(p.shape[0])
    for ev in eigenvalues:
        s = np.linalg.svd(np.hstack([p - ev * eye, q]), compute_uv=False)
        if s[0] == 0.0 or s[-1] <= RANK_RTOL * s[0]:
            return ev
    return None


@dataclass(frozen=True, eq=False)
class NullControl:
    """Sampled steering control driving the companion state to zero.

    ``w`` is the companion-level input, ``v`` the physical actuator
    amplitudes related by ``v' + delta v = w`` with ``v`` vanishing at
    the horizon.  Both extend by zero beyond the horizon.
    """

    horizon: float
    grid: np.ndarray
    w: np.ndarray          # (M, samples)
    v: np.ndarray          # (M, samples)
    energy: float
    energy_ratio: float    # energy / |x0|^2, the realized steering constant
    terminal_error: float  # |X(T)| / |x0| under the exact cell map
    gramian_condition: float


def controllability_gramian(a: np.ndarray, b: np.ndarray,
                            horizon: float) -> np.ndarray:
    """Finite-horizon Gramian ``int_0^T e^{as} b b* e^{a*s} ds`` of (a, b).

    Exact form ``X - e^{aT} X e^{a*T}`` with ``a X + X a* + b b* = 0``:
    one Lyapunov solve and one matrix exponential.  The Lyapunov
    equation needs ``lam + conj(mu) != 0`` for all eigenvalues ``lam``,
    ``mu`` of ``a`` (no eigenvalue on the imaginary axis, no pair
    mirrored across it); every companion and transformed block is
    Hurwitz and meets it.  Complex input gives a Hermitian result.
    """
    x = scipy.linalg.solve_continuous_lyapunov(a, -b @ b.conj().T)
    e = scipy.linalg.expm(a * horizon)
    gram = x - e @ x @ e.conj().T
    return 0.5 * (gram + gram.conj().T)


def min_energy_control(companion: CompanionSystem, x0,
                       horizon: float) -> NullControl:
    """Minimum-energy control steering the companion state to zero.

    Implements ``w(t) = -Q^T e^{P^T (T-t)} g`` with
    ``g = G_T^{-1} e^{P T} x0`` and the finite-horizon Gramian ``G_T``;
    the energy is ``g^T G_T g``.  The costate
    ``psi(t) = e^{P^T (T-t)} g`` is sampled on the ``CONTROL_SAMPLES``
    output grid as the scan (``quadrature.scan``) of one cell
    exponential from ``g``, reversed, and gives ``w = -Q^T psi``.  The
    physical amplitudes ``v`` (``v' + delta v = w``, ``v(T) = 0``)
    follow in closed form,
    ``v = L psi - e^{delta (T-t)} L g`` with ``L (P^T - delta I) = Q^T``.
    The exact cell map of the controlled system,
    ``x_{k+1} = Phi x_k + Gamma psi_k`` from the exponential of the
    Hamiltonian ``[[P, -Q Q^T], [0, -P^T]]``, carries ``x0`` to the
    terminal state, the last row of its scan; its size relative to
    ``|x0|`` is reported on the result.

    Raises
    ------
    GramianSingularError
        An eigenvalue of P fails the PBH test: the block is not
        steerable through these actuators, the situation the rank
        conditions flag.
    HorizonTooSmallError
        The Gramian condition number reaches ``COND_LIMIT``, or the
        verified terminal state misses zero by more than
        ``TERMINAL_LIMIT`` relative to ``x0``, so the steering
        amplitudes cannot be trusted on this horizon.
    """
    if horizon <= 0.0:
        raise ValueError("horizon must be positive")
    p = companion.p_2n
    q = companion.q_2nm
    dim = p.shape[0]
    m = q.shape[1]
    x0 = np.asarray(x0, dtype=float).reshape(-1)
    if x0.size != dim:
        raise DimensionMismatchError(
            f"initial state has size {x0.size}, companion needs {dim}")
    grid = np.linspace(0.0, horizon, CONTROL_SAMPLES)
    x0_norm = float(np.linalg.norm(x0))
    if x0_norm == 0.0:
        zero = np.zeros((m, CONTROL_SAMPLES))
        return NullControl(horizon=horizon, grid=grid, w=zero, v=zero.copy(),
                           energy=0.0, energy_ratio=0.0, terminal_error=0.0,
                           gramian_condition=1.0)

    # structural steerability is horizon-free; judge it by the PBH test
    # so that a squeezed horizon cannot masquerade as rank loss
    lost = pbh_rank_loss(p, q, np.linalg.eigvals(p))
    if lost is not None:
        raise GramianSingularError(
            f"steering Gramian is singular: the mode at eigenvalue "
            f"{lost:.6g} is not steerable through these actuators")

    gram = controllability_gramian(p, q, horizon)
    eigs = np.linalg.eigvalsh(gram)
    cond = float(eigs[-1] / eigs[0]) if eigs[0] > 0.0 else math.inf
    if not cond < COND_LIMIT:
        raise HorizonTooSmallError(
            f"Gramian condition number {cond:.3e} reaches {COND_LIMIT:.1e}; "
            "increase the horizon")

    g_vec = np.linalg.solve(gram, scipy.linalg.expm(p * horizon) @ x0)
    energy = float(g_vec @ gram @ g_vec)

    # exact cell map of x' = P x - Q Q^T psi, psi' = -P^T psi
    h = grid[1] - grid[0]
    delta = companion.kernel.delta
    ham = np.zeros((2 * dim, 2 * dim))
    ham[:dim, :dim] = p
    ham[:dim, dim:] = -q @ q.T
    ham[dim:, dim:] = -p.T
    cell = scipy.linalg.expm(ham * h)
    phi = cell[:dim, :dim]

    # psi_k = Phi^T psi_{k+1} back from psi(T) = g
    start = np.zeros((CONTROL_SAMPLES, dim))
    start[0] = g_vec
    psi = quadrature.scan(phi.T, start)[::-1].T
    w = -(q.T @ psi)
    # P is Hurwitz and delta > 0, so P - delta I is invertible.  In this
    # form only L g meets the growth e^{delta (T-t)}; a recursion for v
    # would carry the rounding of every psi sample through it
    l_psi = np.linalg.solve(p - delta * np.eye(dim), q).T @ psi
    v = l_psi - l_psi[:, -1:] * np.exp(delta * (horizon - grid))

    # x_{k+1} = Phi x_k + Gamma psi_k carries x0 to the terminal state
    drive = (cell[:dim, dim:] @ psi[:, :-1]).T
    drive[0] += phi @ x0
    terminal = quadrature.scan(phi, drive)[-1]
    terminal_error = float(np.linalg.norm(terminal) / x0_norm)
    if not terminal_error <= TERMINAL_LIMIT:
        raise HorizonTooSmallError(
            f"steering control misses the target by {terminal_error:.3e} "
            f"of |x0| (limit {TERMINAL_LIMIT:.0e}); increase the horizon")

    return NullControl(horizon=horizon, grid=grid, w=w, v=v,
                       energy=energy, energy_ratio=energy / x0_norm ** 2,
                       terminal_error=terminal_error,
                       gramian_condition=cond)


def recover_v(grid, w, delta: float) -> np.ndarray:
    """Physical actuator amplitudes from a sampled companion-level control.

    Computes ``v(t) = -int_t^T e^{-delta (t-s)} w(s) ds`` cellwise from
    the right, with ``w`` interpolated linearly between grid points, so
    ``v`` vanishes at the horizon and solves ``v' + delta v = w``.
    :func:`min_energy_control` obtains ``v`` exactly instead; this is
    the route for a control known only by its samples.
    """
    grid = np.asarray(grid, dtype=float)
    w = np.atleast_2d(np.asarray(w, dtype=float))
    m, samples = w.shape
    if grid.size != samples:
        raise DimensionMismatchError("grid and control sample counts differ")
    v = np.zeros((m, samples))
    for k in range(samples - 2, -1, -1):
        t0, t1 = grid[k], grid[k + 1]
        pts, wts = quadrature.cell_nodes(t0, t1)
        frac = (pts - t0) / (t1 - t0)
        vals = w[:, k, None] + (w[:, k + 1] - w[:, k])[:, None] * frac
        local = (vals * np.exp(delta * (pts - t0))[None, :]) @ wts
        v[:, k] = math.exp(delta * (t1 - t0)) * v[:, k + 1] - local
    return v
