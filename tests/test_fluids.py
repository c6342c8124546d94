"""Fluid parameter maps, model spectra and indicator actuators.

Oracle values substitute the material constants into the reduction
formulas by hand; indicator projections are checked against numerical
quadrature of the sine basis.
"""

import math

import numpy as np
import pytest
from scipy.integrate import simpson

from pidestab import (
    ConfigError,
    JeffreysParams,
    MemoryKernel,
    NonpositiveAmplitudeError,
    OldroydParams,
    Spectrum,
    ZeroSignal,
    growth_bound,
    indicator_actuators_1d,
    indicator_actuators_2d,
    jeffreys_reduce,
    model_spectrum,
    oldroyd_to_abstract,
    simulate_exact,
    steady_state,
)
from pidestab.fluids import PI_SQ, square_levels, square_mode_pairs

PI = math.pi


# ---------------------------------------------------------------------------
# Oldroyd-B reduction


def test_oldroyd_normalized_case():
    mu, kernel = oldroyd_to_abstract(
        OldroydParams(nu=1.0, kappa=0.5, lambda_relax=1.0))
    assert mu == pytest.approx(1.0, rel=1e-15)
    assert kernel.b == pytest.approx(1.0, rel=1e-15)
    assert kernel.delta == pytest.approx(1.0, rel=1e-15)
    assert growth_bound(kernel) == pytest.approx(2.0, rel=1e-15)


def test_oldroyd_general_case():
    mu, kernel = oldroyd_to_abstract(
        OldroydParams(nu=2.0, kappa=1.0, lambda_relax=2.0))
    assert mu == pytest.approx(1.0, rel=1e-15)
    assert kernel.b == pytest.approx(1.5, rel=1e-15)
    assert kernel.delta == pytest.approx(0.5, rel=1e-15)
    # the rate ceiling is nu/kappa regardless of the split
    assert growth_bound(kernel) == pytest.approx(2.0, rel=1e-15)


def test_oldroyd_amplitude_guard():
    with pytest.raises(NonpositiveAmplitudeError):
        oldroyd_to_abstract(OldroydParams(nu=0.5, kappa=1.0,
                                          lambda_relax=2.0))
    with pytest.raises(NonpositiveAmplitudeError):
        oldroyd_to_abstract(OldroydParams(nu=1.0, kappa=2.0,
                                          lambda_relax=2.0))
    # barely valid: near-memoryless limit is accepted
    _, kernel = oldroyd_to_abstract(
        OldroydParams(nu=1.0 + 1e-12, kappa=1.0, lambda_relax=1.0))
    assert 0.0 < kernel.b < 1e-11


def test_oldroyd_parameter_validation():
    for bad in [dict(nu=0.0, kappa=1.0, lambda_relax=1.0),
                dict(nu=1.0, kappa=-1.0, lambda_relax=1.0),
                dict(nu=1.0, kappa=1.0, lambda_relax=0.0)]:
        with pytest.raises(ConfigError):
            OldroydParams(**bad)


# ---------------------------------------------------------------------------
# Jeffreys reduction


def test_jeffreys_kernel_and_forcing():
    kernel, forcing = jeffreys_reduce(
        JeffreysParams(mu_visc=2.0, kappa=1.0, lambda_relax=3.0,
                       tau0=[1.0, -2.0]))
    assert kernel.b == pytest.approx(0.5, rel=1e-15)
    assert kernel.delta == pytest.approx(3.0, rel=1e-15)
    ts = np.array([0.0, 0.3, 1.0])
    np.testing.assert_allclose(
        forcing.value(ts),
        np.array([1.0, -2.0])[:, None] * np.exp(-3.0 * ts)[None, :],
        rtol=1e-15)
    np.testing.assert_array_equal(forcing.f_e, [0.0, 0.0])


def test_jeffreys_zero_stress_is_homogeneous():
    kernel, forcing = jeffreys_reduce(
        JeffreysParams(mu_visc=1.0, kappa=1.0, lambda_relax=2.0,
                       tau0=np.zeros(2)))
    assert np.max(np.abs(forcing.value([0.0, 1.0]))) == 0.0
    spectrum = Spectrum.from_values([1.0, 2.0])
    np.testing.assert_array_equal(steady_state(forcing, spectrum, kernel),
                                  [0.0, 0.0])


def test_kernel_matched_models_share_trajectories():
    # a Jeffreys flow and an Oldroyd flow that reduce to the same
    # (b, delta) must produce the same homogeneous dynamics
    jeff_kernel, _ = jeffreys_reduce(
        JeffreysParams(mu_visc=2.0, kappa=1.0, lambda_relax=3.0))
    _, old_kernel = oldroyd_to_abstract(
        OldroydParams(nu=3.5, kappa=1.0, lambda_relax=1.0 / 3.0))
    assert jeff_kernel.b == pytest.approx(old_kernel.b, rel=1e-15)
    assert jeff_kernel.delta == pytest.approx(old_kernel.delta, rel=1e-15)
    spectrum = Spectrum.from_values([1.0, 4.0])
    grid = np.linspace(0.0, 3.0, 121)
    y0 = [1.0, -0.3]
    a = simulate_exact(spectrum, jeff_kernel, y0, ZeroSignal(2), grid)
    b = simulate_exact(spectrum, old_kernel, y0, ZeroSignal(2), grid)
    assert np.max(np.abs(a.alpha - b.alpha)) <= 1e-12


# ---------------------------------------------------------------------------
# model spectra


def test_dirichlet_1d_spectrum():
    spectrum = model_spectrum("dirichlet_1d", 1.0, 3)
    lams = [entry.lam for entry in spectrum.entries]
    np.testing.assert_allclose(lams, [PI_SQ, 4.0 * PI_SQ, 9.0 * PI_SQ],
                               rtol=1e-15)
    assert all(entry.multiplicity == 1 for entry in spectrum.entries)


def test_square_2d_first_levels():
    spectrum = model_spectrum("square_2d", 1.0, 4)
    got = [(entry.lam / PI_SQ, entry.multiplicity)
           for entry in spectrum.entries]
    assert got[0] == (pytest.approx(2.0), 1)
    assert got[1] == (pytest.approx(5.0), 2)
    assert got[2] == (pytest.approx(8.0), 1)
    # whole levels: asking for 4 modes keeps the full multiplicity-2
    # level, so exactly 2 + 5 + 8 are emitted
    assert len(got) == 3
    assert spectrum.entries[1].label == "(1,2)+(2,1)"


def test_square_levels_ordered_pair_multiplicities():
    levels = square_levels(40)
    for s, pairs in levels:
        brute = [(j, k) for j in range(1, 12) for k in range(1, 12)
                 if j * j + k * k == s]
        assert sorted(pairs) == sorted(brute)
    sums = [s for s, _ in levels]
    assert sums == sorted(sums)
    assert sum(len(p) for _, p in levels) >= 40


def test_square_mode_pairs_align_with_expansion():
    spectrum = model_spectrum("square_2d", 0.5, 10)
    lams, _ = spectrum.expanded(10)
    pairs = square_mode_pairs(10)
    for lam, (j, k) in zip(lams, pairs):
        assert lam == pytest.approx(0.5 * (j * j + k * k) * PI_SQ,
                                    rel=1e-15)


def test_user_spectrum_normalization():
    spectrum = model_spectrum("user", 2.0, 0,
                              values=[3.0, 1.0, 3.0])
    lams = [entry.lam for entry in spectrum.entries]
    mults = [entry.multiplicity for entry in spectrum.entries]
    assert lams == [2.0, 6.0]
    assert mults == [1, 2]


def test_model_spectrum_guards():
    with pytest.raises(ConfigError):
        model_spectrum("dirichlet_1d", 1.0, 0)
    with pytest.raises(ConfigError):
        model_spectrum("dirichlet_1d", -1.0, 3)
    with pytest.raises(ConfigError):
        model_spectrum("user", 1.0, 3)
    with pytest.raises(ConfigError):
        model_spectrum("user", 1.0, 2, values=[1.0, -2.0])
    with pytest.raises(ConfigError):
        model_spectrum("hexagonal", 1.0, 3)


# ---------------------------------------------------------------------------
# indicator actuators


def test_indicator_1d_closed_form():
    acts = indicator_actuators_1d([(0.0, 1.0), (0.25, 0.5)], 4)
    # whole-domain support: odd modes integrate to 2 sqrt(2)/(j pi),
    # even modes to zero
    np.testing.assert_allclose(
        acts.modal_coefficients[:, 0],
        [2.0 * math.sqrt(2.0) / PI, 0.0, 2.0 * math.sqrt(2.0) / (3.0 * PI),
         0.0], atol=1e-15)
    x = np.linspace(0.25, 0.5, 4001)
    for j in range(1, 5):
        numeric = simpson(math.sqrt(2.0) * np.sin(j * PI * x), x=x)
        assert acts.modal_coefficients[j - 1, 1] == pytest.approx(
            numeric, abs=1e-10)


def test_indicator_1d_validation():
    with pytest.raises(ConfigError):
        indicator_actuators_1d([(0.5, 0.4)], 3)
    with pytest.raises(ConfigError):
        indicator_actuators_1d([(-0.1, 0.5)], 3)
    with pytest.raises(ConfigError):
        indicator_actuators_1d([(0.0, 1.2)], 3)


def test_indicator_2d_tensor_product():
    rect = (0.1, 0.6, 0.2, 0.9)
    acts = indicator_actuators_2d([rect], 4)
    pairs = square_mode_pairs(4)
    assert acts.modal_coefficients.shape == (len(pairs), 1)

    def line(j, a, c):
        x = np.linspace(a, c, 2001)
        return simpson(math.sqrt(2.0) * np.sin(j * PI * x), x=x)

    for row, (j, k) in enumerate(pairs):
        expected = line(j, rect[0], rect[1]) * line(k, rect[2], rect[3])
        assert acts.modal_coefficients[row, 0] == pytest.approx(
            expected, abs=1e-9)


def test_indicator_2d_validation():
    with pytest.raises(ConfigError):
        indicator_actuators_2d([(0.0, 0.5, 0.7, 0.6)], 3)
