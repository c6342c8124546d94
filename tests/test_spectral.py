"""Root formulas, kernel helpers, spectrum bookkeeping and the rate
partition.

Closed-form oracles are derived from the defining quadratic
mu^2 - (lam + delta) mu + lam (b + delta) = 0 and frozen here, so the
implementation under test never feeds its own answers back in.
"""

import math

import numpy as np
import pytest

from pidestab import (
    ConfigError,
    DegenerateSpectrumError,
    GammaOutOfRangeError,
    MemoryKernel,
    Spectrum,
    check_degeneracy,
    growth_bound,
    modal_roots,
    partition_spectrum,
)
from pidestab.spectral import beta_eval, integrated_beta, kernel_quadratic_form

RNG = np.random.default_rng(20240817)


def random_kernel(rng):
    return MemoryKernel(b=float(rng.uniform(0.05, 5.0)),
                        delta=float(rng.uniform(0.05, 5.0)))


# ---------------------------------------------------------------------------
# kernel basics


def test_kernel_validation():
    with pytest.raises(ConfigError):
        MemoryKernel(b=-0.1, delta=1.0)
    with pytest.raises(ConfigError):
        MemoryKernel(b=1.0, delta=0.0)
    MemoryKernel(b=0.0, delta=2.0)   # memoryless limit is admissible


def test_beta_closed_forms():
    k = MemoryKernel(b=1.5, delta=0.7)
    t = np.linspace(0.0, 4.0, 17)
    np.testing.assert_allclose(beta_eval(k, t), 1.5 * np.exp(-0.7 * t))
    np.testing.assert_allclose(integrated_beta(k, t),
                               1.5 / 0.7 * (1.0 - np.exp(-0.7 * t)))


def test_growth_bound_is_b_plus_delta():
    assert growth_bound(MemoryKernel(b=1.0, delta=4.0)) == 5.0
    assert growth_bound(MemoryKernel(b=0.0, delta=0.5)) == 0.5


def test_kernel_quadratic_form_constant_signal():
    # phi == 1 on [0, T]: the double integral reduces to
    # b/delta * (T - (1 - e^{-delta T})/delta)
    k = MemoryKernel(b=2.0, delta=3.0)
    t_star = 1.25
    exact = k.b / k.delta * (t_star - (1.0 - math.exp(-k.delta * t_star))
                             / k.delta)
    got = kernel_quadratic_form(k, np.ones(64), t_star)
    assert got == pytest.approx(exact, rel=1e-12)


def test_kernel_quadratic_form_nonnegative():
    rng = np.random.default_rng(7)
    k = MemoryKernel(b=0.8, delta=1.3)
    for _ in range(20):
        phi = rng.normal(size=32)
        assert kernel_quadratic_form(k, phi, 2.0) >= -1e-12


# ---------------------------------------------------------------------------
# modal roots


def test_vieta_identities_random_sweep():
    """Sum and product of the decay roots are fixed by the coefficients."""
    rng = np.random.default_rng(101)
    for _ in range(500):
        k = random_kernel(rng)
        lam = float(10.0 ** rng.uniform(-3, 4))
        pair = modal_roots(lam, k)
        s = pair.mu_plus + pair.mu_minus
        p = pair.mu_plus * pair.mu_minus
        assert abs(s - (lam + k.delta)) <= 1e-12 * max(1.0, abs(s))
        assert abs(p - lam * (k.b + k.delta)) <= 1e-12 * max(1.0, abs(p))


def test_roots_match_direct_quadratic():
    rng = np.random.default_rng(202)
    for _ in range(200):
        k = random_kernel(rng)
        lam = float(10.0 ** rng.uniform(-2, 3))
        pair = modal_roots(lam, k)
        direct = np.roots([1.0, -(lam + k.delta), lam * (k.b + k.delta)])
        got = sorted([pair.mu_plus, pair.mu_minus], key=lambda z: (z.real, z.imag))
        want = sorted(direct, key=lambda z: (z.real, z.imag))
        for g, w in zip(got, want):
            assert abs(g - w) <= 1e-9 * max(1.0, abs(w))


def test_memoryless_limit_roots_are_lambda_and_delta():
    # b = 0 factors the quadratic exactly: (mu - lam)(mu - delta) = 0
    k = MemoryKernel(b=0.0, delta=0.5)
    pair = modal_roots(3.0, k)
    roots = sorted([pair.mu_plus.real, pair.mu_minus.real])
    np.testing.assert_allclose(roots, [0.5, 3.0], rtol=1e-14)
    assert pair.is_real


def test_complex_branch_orientation():
    # lam = 4, b = 1, delta = 4: discriminant 64 - 80 < 0
    pair = modal_roots(4.0, MemoryKernel(b=1.0, delta=4.0))
    assert not pair.is_real
    assert pair.mu_plus.imag >= 0.0
    assert pair.mu_plus.real == pytest.approx(4.0)
    assert pair.mu_minus == pytest.approx(pair.mu_plus.conjugate())


def test_headline_slow_root():
    # lam = 1, b = 1, delta = 4: mu = (5 +- sqrt(5))/2
    pair = modal_roots(1.0, MemoryKernel(b=1.0, delta=4.0))
    assert pair.mu_minus.real == pytest.approx((5.0 - math.sqrt(5.0)) / 2.0,
                                               rel=1e-14)
    assert pair.mu_plus.real == pytest.approx((5.0 + math.sqrt(5.0)) / 2.0,
                                              rel=1e-14)


def test_double_root_detection():
    # (lam + delta)^2 = 4 lam (b + delta) at lam = 2b + delta +- 2 sqrt(b(b+delta))
    b, delta = 1.0, 4.0
    for sign in (-1.0, 1.0):
        lam = 2 * b + delta + sign * 2.0 * math.sqrt(b * (b + delta))
        pair = modal_roots(lam, MemoryKernel(b=b, delta=delta))
        assert pair.is_degenerate
        assert abs(pair.mu_plus - pair.mu_minus) <= 1e-6


def test_slow_root_asymptote():
    """The slow root saturates at the growth bound for stiff modes."""
    rng = np.random.default_rng(303)
    for _ in range(50):
        k = random_kernel(rng)
        lam = 1e6 * (k.b + k.delta + 1.0)
        pair = modal_roots(lam, k)
        assert abs(pair.mu_minus.real - (k.b + k.delta)) < 1e-2


def test_small_lambda_limit():
    k = MemoryKernel(b=1.0, delta=2.0)
    pair = modal_roots(1e-12, k)
    assert abs(pair.mu_minus) < 1e-11
    assert pair.mu_plus.real == pytest.approx(2.0, abs=1e-11)


def test_nonpositive_lambda_rejected():
    k = MemoryKernel(b=1.0, delta=1.0)
    with pytest.raises(ConfigError):
        modal_roots(0.0, k)
    with pytest.raises(ConfigError):
        modal_roots(-2.0, k)
    # one bad entry rejects the whole array
    for bad in (0.0, -2.0, math.inf, math.nan):
        with pytest.raises(ConfigError):
            modal_roots(np.array([1.0, 4.0, bad, 9.0]), k)


def test_scalar_input_returns_python_scalars():
    k = MemoryKernel(b=1.0, delta=4.0)
    for lam in (1.0, 4.0, np.float64(1.0)):
        pair = modal_roots(lam, k)
        assert type(pair.mu_plus) is complex
        assert type(pair.mu_minus) is complex
        assert type(pair.is_real) is bool
        assert type(pair.is_degenerate) is bool


def _scalar_roots_reference(lam, kernel, tol):
    """The one-mode formula the array routine replaced, kept as oracle."""
    s = lam + kernel.delta
    p = lam * (kernel.b + kernel.delta)
    disc = s * s - 4.0 * p
    fused = abs(disc) <= max(tol * tol, 100.0 * np.finfo(float).eps) \
        * max(s * s, abs(4.0 * p))
    if disc >= 0.0:
        root = math.sqrt(disc)
        mu_plus = 0.5 * (s + root)
        mu_minus = p / mu_plus
        return (complex(mu_plus), complex(mu_minus), True,
                bool(fused or abs(mu_plus - mu_minus) <= tol))
    om = 0.5 * math.sqrt(-disc)
    return (complex(0.5 * s, om), complex(0.5 * s, -om), False,
            bool(fused or 2.0 * om <= tol))


def _bits(z):
    """repr keeps the sign of a zero that == would not tell apart."""
    return repr(complex(z).real), repr(complex(z).imag)


def test_array_roots_match_scalar_formula():
    """Random spectra, memoryless kernels, complex branches and planted
    double roots with their floating-point neighbours: the array call
    gives the scalar formula's roots and flags bit for bit."""
    rng = np.random.default_rng(606)
    complex_seen = degenerate_seen = 0
    for trial in range(120):
        b = 0.0 if trial % 4 == 0 else float(rng.uniform(0.05, 5.0))
        delta = float(rng.uniform(0.05, 5.0))
        kernel = MemoryKernel(b=b, delta=delta)
        lams = list(10.0 ** rng.uniform(-4, 6, int(rng.integers(1, 60))))
        centre, half = 2 * b + delta, 2.0 * math.sqrt(b * (b + delta))
        for double in (centre - half, centre + half):
            if double > 0.0:
                lams += [double, np.nextafter(double, 0.0),
                         np.nextafter(double, math.inf)]
        tol = float(rng.choice([1e-9, 1e-3, 0.05]))
        lams = np.array(lams)
        got = modal_roots(lams, kernel, tol)
        assert got.mu_plus.shape == got.is_degenerate.shape == lams.shape
        for i, lam in enumerate(lams):
            mu_p, mu_m, real, degenerate = _scalar_roots_reference(
                float(lam), kernel, tol)
            assert _bits(got.mu_plus[i]) == _bits(mu_p)
            assert _bits(got.mu_minus[i]) == _bits(mu_m)
            assert bool(got.is_real[i]) is real
            assert bool(got.is_degenerate[i]) is degenerate
            pair = modal_roots(float(lam), kernel, tol)
            assert (_bits(pair.mu_plus), _bits(pair.mu_minus),
                    pair.is_real, pair.is_degenerate) == \
                (_bits(mu_p), _bits(mu_m), real, degenerate)
            complex_seen += not real
            degenerate_seen += degenerate
    assert complex_seen > 100 and degenerate_seen > 50


# ---------------------------------------------------------------------------
# spectrum container


def test_spectrum_merges_equal_values():
    s = Spectrum.from_values([2.0, 1.0, 2.0])
    assert [e.lam for e in s.entries] == [1.0, 2.0]
    assert [e.multiplicity for e in s.entries] == [1, 2]
    assert s.n_modes == 3


def test_spectrum_expanded_and_truncation():
    s = Spectrum.from_values([1.0, 4.0], multiplicities=[2, 1])
    lams, idx = s.expanded()
    np.testing.assert_allclose(lams, [1.0, 1.0, 4.0])
    assert list(idx) == [0, 0, 1]
    lams2, _ = s.expanded(2)
    np.testing.assert_allclose(lams2, [1.0, 1.0])
    with pytest.raises(ValueError):
        s.expanded(7)


def test_spectrum_records_round_trip():
    s = Spectrum.from_values([1.0, 5.0], multiplicities=[1, 2],
                             labels=["a", "b"])
    back = Spectrum.from_records(s.to_records())
    assert back.entries == s.entries


def test_spectrum_rejects_empty_and_garbage():
    with pytest.raises(ValueError):
        Spectrum.from_values([])
    with pytest.raises(ValueError):
        Spectrum.from_records([{"mult": 2}])


# ---------------------------------------------------------------------------
# degeneracy scan


def test_degeneracy_scan_clean_spectrum_is_empty():
    s = Spectrum.from_values([1.0, 4.0, 9.0])
    assert check_degeneracy(s, MemoryKernel(b=1.0, delta=4.0)) == []


def test_degeneracy_scan_flags_double_root():
    b, delta = 1.0, 4.0
    lam = 2 * b + delta - 2.0 * math.sqrt(b * (b + delta))
    s = Spectrum.from_values([lam, 9.0])
    report = check_degeneracy(s, MemoryKernel(b=b, delta=delta))
    assert any(v.kind == "double_root" for v in report)


def test_degeneracy_scan_flags_memoryless_cross_collision():
    # b = 0 pins one root of every mode at delta; with delta between the
    # two eigenvalues it is the fast root of one and the slow root of
    # the other, the cross-branch case
    s = Spectrum.from_values([1.0, 2.0])
    report = check_degeneracy(s, MemoryKernel(b=0.0, delta=1.5))
    assert any(v.kind == "branch_collision" for v in report)


def test_degeneracy_scan_memoryless_double_root():
    # b = 0 with lam = delta collapses both roots onto delta
    s = Spectrum.from_values([3.0])
    report = check_degeneracy(s, MemoryKernel(b=0.0, delta=3.0))
    assert any(v.kind == "double_root" for v in report)


def test_degeneracy_scan_normalized_case():
    # delta = lam + 2 sqrt(lam) zeroes the discriminant at b = 1
    s = Spectrum.from_values([4.0])
    report = check_degeneracy(s, MemoryKernel(b=1.0, delta=8.0))
    assert any(v.kind == "double_root" for v in report)


def _degeneracy_scan_reference(spectrum, kernel, tol):
    """The all-pairs loop the vectorised scan replaced, kept as oracle."""
    pairs = [modal_roots(e.lam, kernel, tol) for e in spectrum.entries]
    report = []
    for entry, pair in zip(spectrum.entries, pairs):
        if pair.is_degenerate:
            report.append(("double_root", (entry.label,), pair.mu_plus,
                           abs(pair.mu_plus - pair.mu_minus)))
    for i in range(len(pairs)):
        for j in range(len(pairs)):
            if i == j:
                continue
            sep = abs(pairs[i].mu_plus - pairs[j].mu_minus)
            if sep <= tol * max(1.0, abs(pairs[i].mu_plus)):
                report.append(("branch_collision",
                               (spectrum.entries[i].label,
                                spectrum.entries[j].label),
                               pairs[i].mu_plus, sep))
    return report


def test_degeneracy_scan_matches_all_pairs_loop():
    """Random spectra with planted collisions and double roots: the
    same violations, in the same order, with the same values and
    types as the all-pairs loop."""
    rng = np.random.default_rng(11)
    collisions = wide_collisions = 0
    for trial in range(60):
        b = 0.0 if trial % 5 == 0 else float(rng.uniform(0.05, 3.0))
        delta = float(rng.uniform(0.5, 5.0))
        kernel = MemoryKernel(b=b, delta=delta)
        # the last trials span several row blocks of the scan
        size = 700 if trial >= 57 else int(rng.integers(2, 25))
        values = list(rng.uniform(0.05, 20.0, size))
        if trial % 3 == 0:
            # double root: zero discriminant
            values.append(2 * b + delta - 2.0 * math.sqrt(b * (b + delta)))
        for lam in values[:3]:
            # a mode whose slow root is the fast root mu of mode lam
            pair = modal_roots(lam, kernel)
            if pair.is_real and b > 0.0:
                mu = pair.mu_plus.real
                partner = mu * (delta - mu) / (b + delta - mu)
                if partner > 0.0:
                    values.append(partner)
        values = [v for v in values if v > 0.0]
        tol = float(rng.choice([1e-9, 1e-3, 0.05]))
        spectrum = Spectrum.from_values(values)
        got = check_degeneracy(spectrum, kernel, tol)
        ref = _degeneracy_scan_reference(spectrum, kernel, tol)
        assert [(v.kind, v.labels, v.value, v.separation)
                for v in got] == ref
        for v in got:
            assert type(v.value) is complex
            assert type(v.separation) is float
        found = sum(v.kind == "branch_collision" for v in got)
        collisions += found
        wide_collisions += found if size > 256 else 0
    assert collisions >= 20    # the planted collisions are found
    assert wide_collisions >= 3


# ---------------------------------------------------------------------------
# rate partition


HEADLINE = Spectrum.from_values([float(j * j) for j in range(1, 17)])
KERNEL_14 = MemoryKernel(b=1.0, delta=4.0)


def test_partition_headline_counts():
    part = partition_spectrum(HEADLINE, KERNEL_14, 2.0)
    assert (part.n1, part.n2, part.n_total) == (0, 1, 1)
    assert part.m_max == 1
    assert part.unstable_labels == ("1",)
    # slowest stable mode: lam = 4 has Re mu = 4, margin 4 - gamma
    assert part.stable_margin == pytest.approx(2.0)


def test_partition_boundary_is_inclusive():
    # at lam = 4/3 (b=1, delta=4) the slow root equals exactly 2
    s = Spectrum.from_values([4.0 / 3.0, 25.0])
    part = partition_spectrum(s, KERNEL_14, 2.0)
    assert part.n_total == 1


def test_partition_empty_unstable_block():
    s = Spectrum.from_values([9.0, 16.0])
    part = partition_spectrum(s, KERNEL_14, 2.0)
    assert part.n_total == 0
    assert part.m_max == 0
    assert part.groups == ()


def test_partition_group_multiplicity():
    s = Spectrum.from_values([0.5, 1.2, 1.2, 9.0])
    part = partition_spectrum(s, KERNEL_14, 2.0)
    assert part.n_total == 3
    assert part.group_sizes == (1, 2)
    assert part.m_max == 2


def test_partition_gamma_range_guard():
    for gamma in (0.0, -1.0, 5.0, 6.0):
        with pytest.raises(GammaOutOfRangeError):
            partition_spectrum(HEADLINE, KERNEL_14, gamma)


def test_partition_degeneracy_guard_and_override():
    # double root at lam = 3 - 2 sqrt(2) for b = delta = 1 sits at
    # mu = (lam + 1)/2 ~ 0.586, below gamma = 0.7
    b, delta = 1.0, 1.0
    k = MemoryKernel(b=b, delta=delta)
    lam = 2 * b + delta - 2.0 * math.sqrt(b * (b + delta))
    s = Spectrum.from_values([lam, 25.0])
    with pytest.raises(DegenerateSpectrumError):
        partition_spectrum(s, k, 0.7)
    part = partition_spectrum(s, k, 0.7, check_degenerate=False)
    assert part.n_total == 1
    assert part.n1 == part.n2 == 1


def test_partition_counts_split_branches():
    """A mode can be slow on one branch and fast on the other."""
    part = partition_spectrum(HEADLINE, KERNEL_14, 2.0)
    pair = modal_roots(1.0, KERNEL_14)
    assert pair.mu_minus.real <= 2.0 < pair.mu_plus.real
    assert part.n1 == 0 and part.n2 == 1
