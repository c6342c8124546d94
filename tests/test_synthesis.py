"""Companion matrices, modal transforms, rank/Gramian steerability tests
and the minimum-energy steering control.

The steering oracles come from the scalar problem x' = a x + w, whose
Gramian and optimal control are available in closed form, and from a
direct least-squares discretization of the steering constraint that
knows nothing about Gramians.
"""

import math
from types import SimpleNamespace

import numpy as np
import pytest
import scipy.linalg

from pidestab import (
    ActuatorSearchError,
    DegenerateSpectrumError,
    DimensionMismatchError,
    GramianSingularError,
    HorizonTooSmallError,
    MemoryKernel,
    Spectrum,
    build_companion,
    default_actuators,
    kalman_observability_check,
    min_energy_control,
    modal_roots,
    model_spectrum,
    partition_spectrum,
    rank_conditions,
    recover_v,
    transform_and_group,
)
from pidestab.quadrature import scan
from pidestab.synthesis import CONTROL_SAMPLES, controllability_gramian


def make_setup(values, kernel, gamma, *, coefficients=None, count=None,
               allow_degenerate=False):
    spectrum = Spectrum.from_values(values)
    part = partition_spectrum(spectrum, kernel, gamma,
                              check_degenerate=not allow_degenerate)
    acts = default_actuators(part, coefficients=coefficients, count=count)
    comp = build_companion(part, kernel, acts, spectrum,
                           allow_degenerate=allow_degenerate)
    return spectrum, part, acts, comp


# ---------------------------------------------------------------------------
# actuators


def test_default_actuators_identity_on_multiplicity_group():
    k = MemoryKernel(b=1.0, delta=4.0)
    spectrum = Spectrum.from_values([1.2, 1.2])
    part = partition_spectrum(spectrum, k, 2.0)
    acts = default_actuators(part)
    assert acts.count == 2
    np.testing.assert_allclose(acts.modal_coefficients, np.eye(2))


def test_default_actuators_count_bounds():
    k = MemoryKernel(b=1.0, delta=4.0)
    part = partition_spectrum(Spectrum.from_values([1.2, 1.2]), k, 2.0)
    with pytest.raises(ValueError):
        default_actuators(part, count=0)
    with pytest.raises(ValueError):
        default_actuators(part, count=3)
    assert default_actuators(part, count=1).count == 1


def test_default_actuators_empty_partition():
    k = MemoryKernel(b=1.0, delta=4.0)
    part = partition_spectrum(Spectrum.from_values([9.0, 16.0]), k, 2.0)
    acts = default_actuators(part)
    assert acts.count == 0
    assert acts.rows(5).shape == (5, 0)


def test_default_actuators_user_matrix_pass_through():
    k = MemoryKernel(b=1.0, delta=4.0)
    part = partition_spectrum(Spectrum.from_values([0.5, 1.2]), k, 2.0)
    coeffs = [[1.0, 0.0], [0.5, 2.0], [0.0, 0.3]]
    acts = default_actuators(part, coefficients=coeffs)
    assert acts.count == 2
    np.testing.assert_allclose(acts.rows(3), coeffs)
    with pytest.raises(DimensionMismatchError):
        default_actuators(part, coefficients=[[1.0]])


def test_actuator_rows_zero_pad_stable_tail():
    k = MemoryKernel(b=1.0, delta=4.0)
    part = partition_spectrum(Spectrum.from_values([0.5, 9.0]), k, 2.0)
    acts = default_actuators(part)
    rows = acts.rows(4)
    assert rows.shape == (4, 1)
    np.testing.assert_allclose(rows[1:], 0.0)


def test_randomized_actuator_search_is_reproducible():
    k = MemoryKernel(b=1.0, delta=4.0)
    part = partition_spectrum(Spectrum.from_values([0.5, 1.2]), k, 2.0)
    calls = {"n": 0}

    def reject_first(candidate):
        calls["n"] += 1
        return calls["n"] > 3

    a = default_actuators(part, validator=reject_first, seed=11)
    calls["n"] = 0
    b = default_actuators(part, validator=reject_first, seed=11)
    np.testing.assert_allclose(a.modal_coefficients, b.modal_coefficients)


def test_actuator_search_budget_error():
    k = MemoryKernel(b=1.0, delta=4.0)
    part = partition_spectrum(Spectrum.from_values([0.5, 1.2]), k, 2.0)
    with pytest.raises(ActuatorSearchError):
        default_actuators(part, validator=lambda _: False, max_attempts=5)


# ---------------------------------------------------------------------------
# companion form


def test_companion_block_structure():
    k = MemoryKernel(b=1.0, delta=4.0)
    _, part, acts, comp = make_setup([0.5, 1.2], k, 2.0)
    n = part.n_total
    lam = part.lambdas
    np.testing.assert_allclose(comp.a_n, np.diag(lam + k.delta))
    np.testing.assert_allclose(comp.b_n, np.diag(lam * (k.b + k.delta)))
    np.testing.assert_allclose(comp.p_2n[:n, :n], 0.0)
    np.testing.assert_allclose(comp.p_2n[:n, n:], np.eye(n))
    np.testing.assert_allclose(comp.p_2n[n:, :n], -comp.b_n)
    np.testing.assert_allclose(comp.p_2n[n:, n:], -comp.a_n)
    np.testing.assert_allclose(comp.q_2nm[:n], 0.0)
    np.testing.assert_allclose(comp.q_2nm[n:], comp.c_nm)


def test_companion_eigenvalues_are_negated_roots():
    """eig(P) must reproduce the modal roots, mode by mode."""
    rng = np.random.default_rng(42)
    for _ in range(25):
        k = MemoryKernel(b=float(rng.uniform(0.1, 3.0)),
                         delta=float(rng.uniform(0.1, 3.0)))
        bound = k.b + k.delta
        gamma = 0.9 * bound
        n = int(rng.integers(1, 5))
        values = np.sort(rng.uniform(0.01, 0.5, size=n) * gamma)
        values = list(dict.fromkeys(values.tolist()))
        try:
            _, part, acts, comp = make_setup(values, k, gamma)
        except DegenerateSpectrumError:
            continue
        if part.n_total == 0:
            continue
        want = []
        for lam in part.lambdas:
            pair = modal_roots(lam, k)
            want.extend([-pair.mu_plus, -pair.mu_minus])
        got = np.linalg.eigvals(comp.p_2n)
        got = sorted(got, key=lambda z: (round(z.real, 9), round(z.imag, 9)))
        want = sorted(want, key=lambda z: (round(z.real, 9), round(z.imag, 9)))
        for g, w in zip(got, want):
            assert abs(g - w) <= 1e-9 * max(1.0, abs(w))


def test_companion_rejects_degenerate_roots():
    b, delta = 1.0, 1.0
    k = MemoryKernel(b=b, delta=delta)
    lam = 2 * b + delta - 2.0 * math.sqrt(b * (b + delta))
    with pytest.raises(DegenerateSpectrumError):
        make_setup([lam, 25.0], k, 0.7)
    # explicit opt-in lets the double root through to the Jordan path
    _, part, _, comp = make_setup([lam, 25.0], k, 0.7,
                                  allow_degenerate=True)
    assert comp.p_2n.shape == (2, 2)


# ---------------------------------------------------------------------------
# transform and rank conditions


def test_transform_is_a_similarity():
    k = MemoryKernel(b=1.0, delta=4.0)
    _, part, acts, comp = make_setup([0.5, 1.2], k, 2.0)
    tr = transform_and_group(comp, part)
    r = tr.r_matrix
    np.testing.assert_allclose(r @ comp.p_2n, tr.block @ r,
                               atol=1e-10 * np.abs(tr.block).max())
    np.testing.assert_allclose(tr.q_bar, r @ comp.q_2nm, atol=1e-12)
    assert tr.semisimple
    off = tr.block - np.diag(np.diag(tr.block))
    assert np.abs(off).max() < 1e-10


def test_transform_jordan_path_for_double_root():
    b, delta = 1.0, 1.0
    k = MemoryKernel(b=b, delta=delta)
    lam = 2 * b + delta - 2.0 * math.sqrt(b * (b + delta))
    _, part, acts, comp = make_setup([lam], k, 0.7, allow_degenerate=True)
    tr = transform_and_group(comp, part)
    assert not tr.semisimple
    assert len(tr.clusters) == 1
    assert tr.clusters[0].size == 2
    assert tr.block[0, 1] == pytest.approx(1.0)
    # one chain means one end row, so a single actuator suffices
    report = rank_conditions(tr, part)
    assert report.passed
    assert kalman_observability_check(tr)


def test_transform_merges_shared_memoryless_root():
    # b = 0: both modes carry the kernel root delta, the companion has a
    # repeated eigenvalue across blocks and the analytic per-mode
    # diagonalization is no longer cluster-correct
    k = MemoryKernel(b=0.0, delta=0.5)
    _, part, acts, comp = make_setup([0.1, 0.2], k, 0.45)
    tr = transform_and_group(comp, part)
    sizes = sorted(c.size for c in tr.clusters)
    assert sizes == [1, 1, 2]
    report = rank_conditions(tr, part)
    assert not report.passed
    assert not kalman_observability_check(tr)
    # two independent actuators restore steerability
    _, _, _, comp2 = make_setup([0.1, 0.2], k, 0.45,
                                coefficients=np.eye(2))
    tr2 = transform_and_group(comp2, part)
    report2 = rank_conditions(tr2, part)
    assert report2.passed
    assert kalman_observability_check(tr2)


def test_rank_multiplicity_two_needs_two_actuators():
    k = MemoryKernel(b=1.0, delta=4.0)
    _, part, _, comp1 = make_setup([1.2, 1.2], k, 2.0, count=1)
    tr1 = transform_and_group(comp1, part)
    rep1 = rank_conditions(tr1, part)
    assert not rep1.passed
    assert not kalman_observability_check(tr1)
    assert all(e.required == 2 for e in rep1.entries)

    _, _, _, comp2 = make_setup([1.2, 1.2], k, 2.0)
    tr2 = transform_and_group(comp2, part)
    rep2 = rank_conditions(tr2, part)
    assert rep2.passed
    assert kalman_observability_check(tr2)


def _spread_coefficients(rng, rows, m):
    """Draw a coefficient matrix with no near-zero or near-parallel rows.

    The unit-horizon Gramian squares every geometric defect, so a row
    pair within a degree of parallel can push its smallest eigenvalue
    below the fixed relative cutoff even though the rank test still
    resolves the instance.  Rejection keeps the ensemble inside the
    region both tests can decide.
    """
    for _ in range(64):
        c = rng.normal(size=(rows, m))
        norms = np.linalg.norm(c, axis=1)
        if norms.min() < 0.3:
            continue
        unit = c / norms[:, None]
        cosines = np.abs(unit @ unit.T - np.eye(rows))
        if m > 1 and cosines.max() > 0.995:
            continue
        return c
    raise AssertionError("coefficient resampling budget exhausted")


def _steerability_instance(rng):
    """One random modal instance for the rank/Gramian agreement sweep.

    Unstable roots are placed directly (the mode value is recovered by
    inverting the quadratic), keeping them order one and separated on
    the unit horizon; very slow roots would make the Gramian a
    near-Hilbert matrix that no fixed tolerance can classify.
    """
    b = float(rng.uniform(0.4, 1.5))
    delta = float(rng.uniform(2.0, 5.0))
    k = MemoryKernel(b=b, delta=delta)
    cap = b + delta - math.sqrt(b * (b + delta))
    gamma = 0.95 * cap + 0.04 * (b + delta - 0.95 * cap)
    m = int(rng.integers(1, 4))
    fracs = (0.2, 0.5, 0.85)
    n_groups = int(rng.integers(1, 3)) if m == 1 else int(rng.integers(1, 4))
    picks = sorted(rng.choice(3, size=n_groups, replace=False).tolist())
    budget = 2 * m
    values = []
    for i in picks:
        if budget <= 0:
            break
        mult = 1 if m == 1 else int(rng.integers(1, min(3, budget + 1)))
        mu = fracs[i] * cap
        values.extend([mu * (delta - mu) / (b + delta - mu)] * mult)
        budget -= mult
    spectrum = Spectrum.from_values(values)
    part = partition_spectrum(spectrum, k, gamma, check_degenerate=False)
    if part.n_total == 0:
        return None
    coeffs = _spread_coefficients(rng, part.n_total, m)
    if rng.uniform() < 0.3 and part.n_total > 1:
        coeffs[-1] = 0.0    # deliberately unreachable mode
    acts = default_actuators(part, coefficients=coeffs)
    comp = build_companion(part, k, acts, spectrum, allow_degenerate=True)
    return transform_and_group(comp, part), part


def test_rank_gramian_equivalence_random_sweep():
    rng = np.random.default_rng(7041)
    checked = failed = 0
    for _ in range(120):
        out = _steerability_instance(rng)
        if out is None:
            continue
        tr, part = out
        verdict = rank_conditions(tr, part).passed
        assert verdict == kalman_observability_check(tr)
        checked += 1
        failed += int(not verdict)
    assert checked >= 80
    assert failed >= 10    # the sweep must exercise both answers


# ---------------------------------------------------------------------------
# gramian and steering


def test_gramian_scalar_closed_form():
    a = np.array([[-1.0]])
    g = controllability_gramian(a, np.array([[1.0]]), 1.0)
    assert g[0, 0] == pytest.approx((math.exp(-2.0) - 1.0) / -2.0, rel=1e-12)


def test_gramian_matches_quadrature_on_random_matrix():
    rng = np.random.default_rng(5)
    a = rng.normal(size=(3, 3))
    b = rng.normal(size=(3, 2))
    # complex chain block, the input of the Jordan branch of the Kalman check
    jordan = (-0.7 + 1.3j) * np.eye(3) + np.eye(3, k=1)
    b_jordan = rng.normal(size=(3, 2)) + 1j * rng.normal(size=(3, 2))
    for a, b in ((a, b), (jordan, b_jordan)):
        g = controllability_gramian(a, b, 0.8)
        ts = np.linspace(0.0, 0.8, 4001)
        acc = np.zeros((3, 3), dtype=a.dtype)
        for t in ts:
            e = scipy.linalg.expm(a * t) @ b
            acc += e @ e.conj().T
        acc *= (ts[1] - ts[0])
        end = scipy.linalg.expm(a * 0.8) @ b
        acc -= 0.5 * (ts[1] - ts[0]) * (b @ b.conj().T + end @ end.conj().T)
        np.testing.assert_allclose(g, acc, rtol=1e-6, atol=1e-10)


def test_min_energy_scalar_oracle():
    """x' = -x + w, x0 = 1, T = 1: textbook closed form."""
    a = -1.0
    T = 1.0
    comp = SimpleNamespace(p_2n=np.array([[a]]), q_2nm=np.array([[1.0]]),
                       kernel=MemoryKernel(b=1.0, delta=1.0))
    nc = min_energy_control(comp, [1.0], T)
    gram = (math.exp(2 * a * T) - 1.0) / (2 * a)
    w_exact = -np.exp(a * (T - nc.grid)) * math.exp(a * T) / gram
    np.testing.assert_allclose(nc.w[0], w_exact, rtol=1e-9)
    assert nc.energy == pytest.approx(math.exp(2 * a * T) / gram, rel=1e-8)
    assert nc.terminal_error <= 1e-8
    assert nc.energy_ratio == pytest.approx(nc.energy, rel=1e-12)


def test_min_energy_zero_start_is_free():
    comp = SimpleNamespace(p_2n=np.array([[-1.0]]), q_2nm=np.array([[1.0]]),
                       kernel=MemoryKernel(b=1.0, delta=1.0))
    nc = min_energy_control(comp, [0.0], 1.0)
    assert nc.energy == 0.0
    np.testing.assert_allclose(nc.w, 0.0)


def test_min_energy_single_mode_example():
    # lam = 1, b = 1, delta = 1, one actuator, horizon 2
    k = MemoryKernel(b=1.0, delta=1.0)
    _, part, acts, comp = make_setup([1.0], k, 1.9)
    x0 = np.array([1.0, -1.0])
    nc = min_energy_control(comp, x0, 2.0)
    assert nc.terminal_error <= 1e-6
    assert nc.energy_ratio == pytest.approx(nc.energy / 2.0, rel=1e-12)


def test_min_energy_detects_structural_singularity():
    k = MemoryKernel(b=1.0, delta=4.0)
    # second unstable mode unreachable: zero actuator row
    _, part, acts, comp = make_setup([0.5, 1.2], k, 2.0,
                                     coefficients=[[1.0], [0.0]])
    with pytest.raises(GramianSingularError):
        min_energy_control(comp, np.ones(4), 1.0)


def test_min_energy_horizon_guard():
    k = MemoryKernel(b=0.1, delta=0.4)
    _, part, acts, comp = make_setup([0.05, 0.2, 0.35], k, 0.45)
    with pytest.raises(HorizonTooSmallError):
        min_energy_control(comp, np.ones(6), 0.5)
    nc = min_energy_control(comp, np.ones(6), 8.0)
    assert nc.terminal_error <= 1e-6


def _dirichlet_block(scale, gamma):
    """Default-actuated block of dirichlet_1d, 64 modes, b=1, delta=4."""
    spectrum = model_spectrum("dirichlet_1d", scale / math.pi ** 2, 64)
    k = MemoryKernel(b=1.0, delta=4.0)
    part = partition_spectrum(spectrum, k, gamma)
    comp = build_companion(part, k, default_actuators(part), spectrum)
    y0 = np.ones(part.n_total)
    return comp, np.concatenate([y0, -part.lambdas * y0])


def test_min_energy_steerable_six_mode_block_is_horizon_limited():
    """Six slow modes that pass the PBH test are steerable; short horizons
    fail on Gramian conditioning, not as a structural rank loss."""
    comp, x0 = _dirichlet_block(0.07, 3.5)
    assert comp.n_modes == 6
    for horizon in (1.0, 2.0, 4.0):
        with pytest.raises(HorizonTooSmallError):
            min_energy_control(comp, x0, horizon)


def test_min_energy_four_mode_block_on_long_horizon():
    comp, x0 = _dirichlet_block(0.1, 3.0)
    assert comp.n_modes == 4
    nc = min_energy_control(comp, x0, 8.0)
    assert nc.gramian_condition == pytest.approx(7.1e11, rel=0.01)
    assert nc.terminal_error <= 1e-6


def test_min_energy_rejects_control_that_misses_the_target():
    """Near the conditioning limit the Gramian test passes at horizon 1,
    but the exact cell map shows the control missing zero by about
    1e-5 of |x0|; at horizon 2 the same block is steered."""
    spectrum = model_spectrum("dirichlet_1d", 0.09 / math.pi ** 2, 64)
    k = MemoryKernel(b=1.0, delta=4.0)
    part = partition_spectrum(spectrum, k, 1.56)
    comp = build_companion(part, k, default_actuators(part), spectrum)
    assert comp.n_modes == 3
    y0 = np.random.default_rng(1).uniform(0.5, 1.5, 3)
    x0 = np.concatenate([y0, -part.lambdas * y0])
    with pytest.raises(HorizonTooSmallError, match="misses the target"):
        min_energy_control(comp, x0, 1.0)
    assert min_energy_control(comp, x0, 2.0).terminal_error <= 1e-7


def _per_sample_reference(comp, x0, grid):
    """w and v at each grid time from its own exponential of the
    backward (psi, v) system started at (g, 0)."""
    p, q = comp.p_2n, comp.q_2nm
    dim, m = q.shape
    horizon = grid[-1]
    g = np.linalg.solve(controllability_gramian(p, q, horizon),
                        scipy.linalg.expm(p * horizon) @ x0)
    aug = np.zeros((dim + m, dim + m))
    aug[:dim, :dim] = p.T
    aug[dim:, :dim] = q.T
    aug[dim:, dim:] = comp.kernel.delta * np.eye(m)
    s_t = np.concatenate([g, np.zeros(m)])
    states = np.stack([scipy.linalg.expm(aug * (horizon - t)) @ s_t
                       for t in grid], axis=1)
    return -(q.T @ states[:dim]), states[dim:]


def _stiff_companion():
    """Two modes, the second with a root near 3000, one actuator."""
    lams = np.array([0.5, 3000.0])
    k = MemoryKernel(b=1.0, delta=4.0)
    p = np.zeros((4, 4))
    p[:2, 2:] = np.eye(2)
    p[2:, :2] = -np.diag(lams * (k.b + k.delta))
    p[2:, 2:] = -np.diag(lams + k.delta)
    q = np.array([[0.0], [0.0], [1.0], [1.0]])
    return SimpleNamespace(p_2n=p, q_2nm=q, kernel=k)


@pytest.mark.parametrize("case", ["chain", "stiff"])
def test_min_energy_samples_match_per_sample_exponential(case):
    if case == "chain":
        b, delta = 1.0, 1.0
        lam = 2 * b + delta - 2.0 * math.sqrt(b * (b + delta))
        _, _, _, comp = make_setup([lam], MemoryKernel(b=b, delta=delta),
                                   0.7, allow_degenerate=True)
        x0, horizon = np.array([1.0, -lam]), 2.0
    else:
        comp = _stiff_companion()
        x0, horizon = np.array([1.0, 1.0, -0.5, -3000.0]), 1.0
        rho = np.abs(np.linalg.eigvals(comp.p_2n)).max()
        assert horizon / (CONTROL_SAMPLES - 1) * rho >= 2.5
    nc = min_energy_control(comp, x0, horizon)
    w_ref, v_ref = _per_sample_reference(comp, x0, nc.grid)
    assert np.abs(nc.w - w_ref).max() <= 1e-9 * np.abs(w_ref).max()
    assert np.abs(nc.v - v_ref).max() <= 1e-6 * np.abs(v_ref).max()
    assert np.all(nc.v[:, -1] == 0.0)
    assert nc.terminal_error <= 1e-8


@pytest.mark.parametrize("count", [1, 2, 1024, 1025, 1027])
def test_doubling_and_log_depth_fold_match_loops(count):
    # the all-prefix scan doubles its span each level; every row must
    # match the plain loop x_k = step x_{k-1} + drive[k] from x_{-1} = 0,
    # for a drive that only starts the run (the powers of step) and for
    # a drive on every row (the fold), at counts on and off powers of two
    rng = np.random.default_rng(count)
    step = scipy.linalg.expm((rng.normal(size=(4, 4)) - 3.0 * np.eye(4))
                             * 1e-3)
    start_only = np.zeros((count, 4))
    start_only[0] = rng.normal(size=4)
    for drive in (start_only, rng.normal(size=(count, 4))):
        rows, x = [], np.zeros(4)
        for d in drive:
            x = step @ x + d
            rows.append(x)
        ref = np.stack(rows)
        got = scan(step, drive)
        assert got.shape == (count, 4)
        np.testing.assert_allclose(got, ref, rtol=0.0,
                                   atol=1e-12 * np.abs(ref).max())


def test_min_energy_dimension_guard():
    comp = SimpleNamespace(p_2n=np.eye(2) * -1.0, q_2nm=np.eye(2),
                       kernel=MemoryKernel(b=1.0, delta=1.0))
    with pytest.raises(DimensionMismatchError):
        min_energy_control(comp, [1.0], 1.0)


def test_min_energy_agrees_with_direct_discretization():
    """Gramian formula vs a least-squares steering solve, energy match.

    The discrete problem: piecewise-constant w on 512 cells, exact
    exponential propagation per cell, minimum-norm solution of the
    terminal constraint.  Quantization costs O(h^2), far inside the
    0.5 percent band.
    """
    k = MemoryKernel(b=1.0, delta=1.0)
    _, part, acts, comp = make_setup([1.0], k, 1.9)
    x0 = np.array([1.0, -1.0])
    T = 2.0
    nc = min_energy_control(comp, x0, T)

    cells = 512
    h = T / cells
    p, q = comp.p_2n, comp.q_2nm
    e_cell = scipy.linalg.expm(p * h)
    # integral of e^{P s} ds over one cell, via the augmented exponential
    aug = np.zeros((4, 4))
    aug[:2, :2] = p
    aug[:2, 2:] = np.eye(2)
    phi = scipy.linalg.expm(aug * h)[:2, 2:]
    cols = []
    carry = np.eye(2)
    for _ in range(cells):
        cols.append(carry @ phi @ q)
        carry = carry @ e_cell
    # cell j contributes e^{P(T - t_{j+1})} * phi * q * w_j
    amap = np.hstack(cols[::-1])
    target = -scipy.linalg.expm(p * T) @ x0
    w_cells, *_ = np.linalg.lstsq(amap, target, rcond=None)
    energy_direct = float(np.sum(w_cells ** 2) * h)
    assert energy_direct == pytest.approx(nc.energy, rel=5e-3)

    # any admissible variation (nullspace of the steering map) can only
    # increase the energy
    _, _, vt = np.linalg.svd(amap)
    null = vt[2:]
    rng = np.random.default_rng(3)
    for _ in range(5):
        eta = null.T @ rng.normal(size=null.shape[0])
        perturbed = float(np.sum((w_cells + eta) ** 2) * h)
        assert perturbed >= energy_direct - 1e-12


# ---------------------------------------------------------------------------
# control recovery


def test_recover_v_zero_and_constant_oracles():
    T, d = 1.5, 0.7
    grid = np.linspace(0.0, T, 257)
    np.testing.assert_allclose(
        recover_v(grid, np.zeros((2, grid.size)), d), 0.0)
    c = 2.0
    v = recover_v(grid, np.full((1, grid.size), c), d)
    np.testing.assert_allclose(v[0], -c * (np.exp(d * (T - grid)) - 1.0) / d,
                               rtol=1e-10, atol=1e-12)


def test_recover_v_terminal_zero_and_ode_residual():
    k = MemoryKernel(b=1.0, delta=1.0)
    _, part, acts, comp = make_setup([1.0], k, 1.9)
    nc = min_energy_control(comp, [1.0, -1.0], 2.0)
    v = recover_v(nc.grid, nc.w, k.delta)
    assert abs(v[0, -1]) <= 1e-12
    h = nc.grid[1] - nc.grid[0]
    dv = (v[:, 2:] - v[:, :-2]) / (2.0 * h)
    residual = dv + k.delta * v[:, 1:-1] - nc.w[:, 1:-1]
    scale = max(1.0, np.abs(nc.w).max())
    assert np.abs(residual).max() <= 1e-4 * scale
