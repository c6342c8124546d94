"""Open- and closed-loop trajectory computation in modal coordinates.

Every input, open-loop control or forcing, is a :class:`ForcingField`:
a finite sum of exponentials c e^{-r t}.  Two independent routes
produce trajectories, and neither samples an input.  The closed-form
route writes alpha and z of each mode root by root as sums of
exponentials.  The matrix-exponential route propagates the first-order
augmentation ``alpha' = -lam alpha - b lam z + u``, ``z' = alpha -
delta z`` exactly, with one exosystem state per input rate, and also
carries linear feedback controllers.  The first works on the roots, the
second on the state matrix; they share no integration code and no
nodes, only the kernel/spectrum types and the input type, which is what
makes their agreement a meaningful check.

Nonzero forcing is handled by translation: subtract the steady state
and absorb the memory mismatch into a decaying residual forcing.  Under
feedback the control is shifted by minus that residual
(``control_shift``), sampled on the run's grid and checked against the
actuator range, so the translated problem is the homogeneous one.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field

import numpy as np
import scipy.linalg
from scipy.integrate import simpson

from . import quadrature
from .exceptions import (
    ConfigError,
    DegenerateRootError,
    DimensionMismatchError,
    ForcingRangeError,
    StepInstabilityError,
    WindowTooShortError,
)
from .spectral import MemoryKernel, Spectrum, modal_roots

# largest relative distance of a residual forcing sample from the
# actuator range that the control shift accepts
RANGE_RTOL = 1e-8

# ---------------------------------------------------------------------------
# inputs: finite sums of exponentials


@dataclass(frozen=True, eq=False)
class ForcingField:
    """Modal input f(t) = C e^{-r t}, a finite sum of exponentials.

    ``coefficients`` C is real, (modes, R); ``rates`` r has R entries.
    Every input the package builds has this form: constant forcing
    (rate 0), ``exponential`` forcing and the Jeffreys stress, and the
    residual ``translate_system`` leaves (which adds rate delta).  The
    same type carries open-loop controls, and ``ZeroSignal(k)`` is the
    empty sum.  A complex rate must be followed by its conjugate with
    an equal coefficient column, so each pair sums to a real
    e^{-Re r t} cos(Im r t) term.  A rate with negative real part would
    grow without limit and raises :class:`ConfigError`.  ``f_e``, the
    limit as t grows, is the sum of the rate-0 columns.  Whether the
    actuators can absorb the forcing is decided on samples, by
    ``control_shift``.
    """

    coefficients: np.ndarray
    rates: np.ndarray

    def __post_init__(self):
        rates = np.asarray(self.rates).reshape(-1)
        if not np.iscomplexobj(rates):
            rates = rates.astype(float)
        coef = np.asarray(self.coefficients, dtype=float)
        if coef.ndim != 2 or coef.shape[1] != rates.size:
            raise DimensionMismatchError(
                f"coefficients of shape {coef.shape} do not match "
                f"{rates.size} rates")
        if not np.all(np.isfinite(rates) & (rates.real >= 0.0)):
            raise ConfigError(
                f"input rates {rates.tolist()} must be finite with "
                "nonnegative real part: a growing input has no limit")
        if np.iscomplexobj(rates):
            pair = np.flatnonzero(rates.imag)
            first, second = pair[::2], pair[1::2]
            if pair.size % 2 or np.any(second != first + 1) \
                    or np.any(rates[second] != rates[first].conj()) \
                    or np.any(coef[:, first] != coef[:, second]):
                raise ConfigError("complex input rates must come in adjacent "
                                  "conjugate pairs with equal coefficients")
        object.__setattr__(self, "coefficients", coef)
        object.__setattr__(self, "rates", rates)

    @property
    def k(self) -> int:
        return self.coefficients.shape[0]

    @property
    def f_e(self) -> np.ndarray:
        return self.coefficients[:, self.rates == 0.0].sum(axis=1)

    def value(self, t):
        """f at the times ``t``, as (modes, times)."""
        t = np.atleast_1d(np.asarray(t, dtype=float))
        return (self.coefficients @ np.exp(-np.outer(self.rates, t))).real

    def derivative(self, t):
        t = np.atleast_1d(np.asarray(t, dtype=float))
        return (self.coefficients @ (-self.rates[:, None] * np.exp(
            -np.outer(self.rates, t)))).real

    @classmethod
    def constant(cls, values) -> "ForcingField":
        values = np.asarray(values, dtype=float).reshape(-1)
        return cls(values[:, None], [0.0])

    @classmethod
    def exponential(cls, coefficients, rate: float) -> "ForcingField":
        """Forcing ``f_n(t) = c_n e^{-rate t}``."""
        coeff = np.asarray(coefficients, dtype=float).reshape(-1)
        return cls(coeff[:, None], [rate])


def ZeroSignal(k: int) -> ForcingField:
    """No input on any of the ``k`` modes: the empty sum."""
    return ForcingField(np.zeros((k, 0)), np.zeros(0))


def _joint(control: ForcingField, forcing: ForcingField | None):
    """Coefficients and rates of the summed input ``control + forcing``."""
    parts = (control,) if forcing is None else (control, forcing)
    return (np.hstack([p.coefficients for p in parts]),
            np.concatenate([p.rates for p in parts]))


# ---------------------------------------------------------------------------
# trajectories


@dataclass(eq=False)
class Trajectory:
    """Time-sampled modal run with derived norms.

    ``alpha`` and ``z`` are (samples, modes); ``controls`` is
    (samples, channels) or None.  Norms weight only ``alpha``: the
    memory variables are auxiliary and carry no certified meaning.
    """

    grid: np.ndarray
    alpha: np.ndarray
    z: np.ndarray
    lambdas: np.ndarray
    controls: np.ndarray | None = None
    control_labels: tuple = ()
    frac_alpha: float = 0.5
    _norms: dict = field(default_factory=dict, repr=False)

    def __post_init__(self):
        self.grid = np.asarray(self.grid, dtype=float).reshape(-1)
        self.alpha = np.atleast_2d(np.asarray(self.alpha, dtype=float))
        self.z = np.atleast_2d(np.asarray(self.z, dtype=float))
        self.lambdas = np.asarray(self.lambdas, dtype=float).reshape(-1)
        if self.alpha.shape != (self.grid.size, self.lambdas.size):
            raise DimensionMismatchError(
                f"alpha shape {self.alpha.shape} does not match "
                f"{self.grid.size} samples x {self.lambdas.size} modes")
        if self.z.shape != self.alpha.shape:
            raise DimensionMismatchError("z and alpha shapes differ")

    @property
    def n_modes(self) -> int:
        return self.lambdas.size

    def sobolev_norm(self, power: float) -> np.ndarray:
        """Per-sample weighted norm (sum lam^{2 power} alpha^2)^{1/2}."""
        w = self.lambdas ** (2.0 * power)
        return np.sqrt(np.maximum(self.alpha ** 2.0 @ w, 0.0))

    @property
    def norms(self) -> dict:
        if not self._norms:
            a = self.frac_alpha
            self._norms.update({
                "y": self.sobolev_norm(0.0),
                "a_alpha_minus_half": self.sobolev_norm(a - 0.5),
                "a_alpha": self.sobolev_norm(a),
            })
        return self._norms

    def weighted_energy(self, power: float, rate: float = 0.0) -> float:
        """Integral of e^{2 rate t} |A^power y(t)|^2 over the grid."""
        vals = np.exp(2.0 * rate * self.grid) * self.sobolev_norm(power) ** 2
        return float(simpson(vals, x=self.grid))


# ---------------------------------------------------------------------------
# exact modal formula


def _distinct_roots(lams, kernel: MemoryKernel):
    roots = modal_roots(lams, kernel)
    if roots.is_degenerate.any():
        lam = roots.lam[np.argmax(roots.is_degenerate)]
        raise DegenerateRootError(
            f"mode with lambda={lam:g} has a (near-)double root; "
            "use the ODE integrator for this configuration")
    return roots.mu_plus, roots.mu_minus


def _check_grid(t_grid) -> np.ndarray:
    grid = np.asarray(t_grid, dtype=float).reshape(-1)
    if grid.size < 1 or grid[0] != 0.0:
        raise ValueError("time grid must start at t = 0")
    if grid.size > 1 and np.any(np.diff(grid) <= 0.0):
        raise ValueError("time grid must be strictly increasing")
    return grid


def _check_inputs(k: int, control, forcing) -> None:
    """Control and forcing must act on the ``k`` modes of the state."""
    rows = (np.shape(control.input_matrix)[0] if hasattr(control, "aux_matrix")
            else control.k)
    for what, size in (("control", rows),
                       ("forcing", k if forcing is None else forcing.k)):
        if size != k:
            raise DimensionMismatchError(
                f"{what} covers {size} modes, state has {k}")


def _conv(a, b, t):
    """``int_0^t e^{-a (t - tau)} e^{-b tau} dtau``, elementwise.

    Written as t e^{-s t} phi_1(-(f - s) t) with s the slower of a and
    b, f the faster and phi_1(x) = expm1(x) / x: phi_1 never sees an
    exponent with positive real part, so nothing overflows, and a = b
    (resonance) gives t e^{-a t} exactly.
    """
    slow = a.real <= b.real
    s = np.where(slow, a, b)
    x = -(np.where(slow, b, a) - s) * t
    zero = x == 0.0
    phi = np.where(zero, 1.0, np.expm1(x) / np.where(zero, 1.0, x))
    return t * np.exp(-s * t) * phi


def simulate_exact(spectrum: Spectrum, kernel: MemoryKernel, y0, control,
                   t_grid, *, forcing: ForcingField | None = None,
                   frac_alpha: float = 0.5) -> Trajectory:
    """Evaluate the closed-form modal solution on a time grid.

    Per mode the pair (alpha, z) has the decay roots mu+ and mu-, and
    every input column c e^{-r t} (of ``control`` plus ``forcing``,
    both :class:`ForcingField`) enters alpha' only.  So alpha and z are
    sums of exponentials, written root by root with the convolution
    ``_conv``: from alpha(0) = y0 and empty memory z(0) = 0,

        alpha = y0 [(delta - mu-) e^{-mu- t} - (delta - mu+) e^{-mu+ t}]
                / (mu+ - mu-) + sum_r c [(delta - mu-) E(mu-, r)
                - (delta - mu+) E(mu+, r)] / (mu+ - mu-),
        z = y0 E(mu+, mu-) + sum_r c [E(mu-, r) - E(mu+, r)] / (mu+ - mu-),

    with E(a, b) = int_0^t e^{-a (t - tau)} e^{-b tau} dtau.  Nothing is
    sampled or integrated numerically, so stiff modes and an input rate
    equal to a root cost no accuracy.  Complex roots and rates are
    carried as complex numbers and the real part is returned.
    """
    grid = _check_grid(t_grid)
    y0 = np.asarray(y0, dtype=float).reshape(-1)
    k = y0.size
    _check_inputs(k, control, forcing)
    lams, _ = spectrum.expanded(k)
    mu_p, mu_m = (mu[:, None] for mu in _distinct_roots(lams, kernel))
    delta = kernel.delta
    gap = mu_p - mu_m
    w_p, w_m = (delta - mu_p) / gap, (delta - mu_m) / gap

    t = grid[None, :]
    alpha = y0[:, None] * (w_m * np.exp(-mu_m * t) - w_p * np.exp(-mu_p * t))
    z = y0[:, None] * _conv(mu_p, mu_m, t)
    # input terms on (modes, rates, samples)
    coef, rates = _joint(control, forcing)
    r = rates[None, :, None]
    e_p, e_m = _conv(mu_p[..., None], r, t), _conv(mu_m[..., None], r, t)
    alpha = alpha + np.einsum("kr,krs->ks", coef, w_m[..., None] * e_m
                              - w_p[..., None] * e_p)
    z = z + np.einsum("kr,krs->ks", coef, (e_m - e_p) / gap[..., None])
    return Trajectory(grid=grid, alpha=alpha.real.T, z=z.real.T, lambdas=lams,
                      controls=control.value(grid).T,
                      control_labels=tuple(f"u_{i+1}" for i in range(k)),
                      frac_alpha=frac_alpha)


# ---------------------------------------------------------------------------
# exact propagation of the first-order augmentation


def _width_classes(grid: np.ndarray):
    """Label the cell widths of ``grid`` that differ only by rounding.

    A width within 16 ulp of the grid's largest time of its class's
    smallest member joins that class, so a uniform grid has a single
    class however long it runs.  Returns the class of every cell and
    each class's mean width, which keeps a uniform grid's samples on
    their times.
    """
    widths = np.diff(grid)
    tol = 16.0 * np.finfo(float).eps * float(np.max(np.abs(grid)))
    uniq, inverse = np.unique(widths, return_inverse=True)
    label_of = np.empty(uniq.size, dtype=int)
    first, cls = -np.inf, -1
    for i, h in enumerate(uniq):
        if h - first > tol:
            first, cls = h, cls + 1
        label_of[i] = cls
    labels = label_of[inverse.reshape(-1)]
    return labels, np.bincount(labels, widths) / np.bincount(labels)


def _exosystem(coef: np.ndarray, rates: np.ndarray):
    """Real form of the input states s' = -r s, s(0) = 1.

    Returns the generator, the coupling of the states into alpha' and
    their initial value.  A conjugate pair (r, conj r) becomes one
    state pair (Re s, Im s) with a 2x2 rotation block; its two equal
    coefficient columns both read Re s.
    """
    gen = np.diag(-rates.real)
    couple, s0 = coef, np.ones(rates.size)
    if np.iscomplexobj(rates):
        first = np.flatnonzero(rates.imag)[::2]
        gen[first, first + 1] = rates.imag[first]
        gen[first + 1, first] = -rates.imag[first]
        couple = coef.copy()
        couple[:, first] += coef[:, first + 1]
        couple[:, first + 1] = 0.0
        s0[first + 1] = 0.0
    return gen, couple, s0


def simulate_ode(spectrum: Spectrum, kernel: MemoryKernel, y0, control,
                 t_grid, *, forcing: ForcingField | None = None,
                 frac_alpha: float = 0.5) -> Trajectory:
    """Propagate the augmented modal system exactly by matrix exponentials.

    The state is x = (alpha, z, aux, s) with ``alpha' = -lam alpha -
    b lam z + u + f`` and ``z' = alpha - delta z``; ``aux`` is the
    controller's own state.  A linear feedback controller (an object
    exposing ``aux0``, ``input_matrix`` U and ``aux_matrix`` V) closes
    the loop as u = U x, aux' = V x, so the loop stays linear and time
    invariant.  Any other control is an open-loop :class:`ForcingField`.
    The open-loop control and the forcing are sums c e^{-r t}, so they
    are generated inside the state: one exosystem state s' = -r s per
    rate (a real 2x2 block per conjugate pair) feeds alpha' through the
    coefficients, and no input is ever sampled.

    Each output cell of width h is crossed by the exact step map
    e^{A h}, of order 2k + aux + R for R input rates, computed once per
    distinct width (widths that differ only by rounding share one
    map); each run of consecutive cells of one width is one scan
    (``quadrature.scan``) of its map, so a uniform grid is a single
    scan.  A state norm above 1e6 (1 + |y0|) at an output sample means
    the loop itself diverges and raises ``StepInstabilityError``.
    """
    grid = _check_grid(t_grid)
    y0 = np.asarray(y0, dtype=float).reshape(-1)
    k = y0.size
    _check_inputs(k, control, forcing)
    lams, _ = spectrum.expanded(k)

    linear = hasattr(control, "aux_matrix")
    aux0 = (np.asarray(control.aux0, dtype=float).reshape(-1) if linear
            else np.zeros(0))
    exo, couple, s0 = _exosystem(
        *_joint(ZeroSignal(k) if linear else control, forcing))
    dim = 2 * k + aux0.size
    a = np.zeros((dim + s0.size, dim + s0.size))
    a[:k, :k] = -np.diag(lams)
    a[:k, k:2 * k] = -kernel.b * np.diag(lams)
    a[k:2 * k, :k] = np.eye(k)
    a[k:2 * k, k:2 * k] = -kernel.delta * np.eye(k)
    if linear:
        u_mat = np.asarray(control.input_matrix, dtype=float)
        a[:k, :dim] += u_mat
        a[2 * k:dim, :dim] = control.aux_matrix
    a[:k, dim:] = couple
    a[dim:, dim:] = exo

    s = grid.size
    x = np.empty((s, a.shape[0]))
    x[0] = np.concatenate([y0, np.zeros(k), aux0, s0])
    if s > 1:
        labels, widths = _width_classes(grid)
        steps = [scipy.linalg.expm(a * h) for h in widths]
        # cells lo .. hi-1 of one width class form one scan from x[lo]
        bounds = np.r_[0, np.flatnonzero(np.diff(labels)) + 1, s - 1]
        guard = (1e6 * (1.0 + float(np.linalg.norm(y0)))) ** 2
        drive = np.zeros((s - 1, a.shape[0]))
        # a diverging loop may overflow; the guard below reports it
        with np.errstate(over="ignore", invalid="ignore"):
            for lo, hi in zip(bounds[:-1], bounds[1:]):
                step = steps[labels[lo]]
                drive[lo] += step @ x[lo]
                x[lo + 1:hi + 1] = quadrature.scan(step, drive[lo:hi])
            bad = ~(np.einsum("ij,ij->i", x[1:], x[1:]) <= guard)
        if bad.any():
            raise StepInstabilityError(
                f"trajectory diverges: state norm above "
                f"1e6 (1 + |y0|) at t={grid[np.argmax(bad) + 1]:.6g}")

    controls = x[:, :dim] @ u_mat.T if linear else control.value(grid).T
    return Trajectory(grid=grid, alpha=x[:, :k], z=x[:, k:2 * k],
                      lambdas=lams, controls=controls,
                      control_labels=tuple(f"u_{i+1}" for i in range(k)),
                      frac_alpha=frac_alpha)


# ---------------------------------------------------------------------------
# forcing translation


def steady_state(forcing: ForcingField, spectrum: Spectrum,
                 kernel: MemoryKernel) -> np.ndarray:
    """Asymptotic modal profile sustained by the forcing limit.

    Solves the per-mode balance lam (1 + b/delta) y_e = f_e; with b = 0
    this is the plain elliptic solve.
    """
    f_e = forcing.f_e
    lams, _ = spectrum.expanded(f_e.size)
    return f_e / (lams * (1.0 + kernel.b / kernel.delta))


@dataclass(frozen=True, eq=False)
class TranslatedSystem:
    """Forcing and initial-data translation around a steady state."""

    forcing: ForcingField
    y_e: np.ndarray


def translate_system(forcing: ForcingField, y_e,
                     kernel: MemoryKernel) -> TranslatedSystem:
    """Shift the origin to the steady state.

    The translated variable satisfies the same equation driven by the
    residual ``f(t) - f_e + g(t)`` where ``g`` compensates the memory
    integral of the constant part:
    ``g_n(t) = (b/(b+delta)) f_e,n e^{-delta t}``, which decays away.
    As sums of exponentials: drop the rate-0 columns of f and add the
    column (b/(b+delta)) f_e at rate delta.  Initial data shifts by -y_e.
    """
    y_e = np.asarray(y_e, dtype=float).reshape(-1)
    kfac = kernel.b / (kernel.b + kernel.delta)
    moving = forcing.rates != 0.0
    residual = ForcingField(
        np.column_stack([forcing.coefficients[:, moving], kfac * forcing.f_e]),
        np.r_[forcing.rates[moving], kernel.delta])
    return TranslatedSystem(forcing=residual, y_e=y_e)


def control_shift(residual: ForcingField, c_rows, grid) -> tuple:
    """Modal control samples that cancel a residual forcing on a grid.

    The shift is minus the residual, -(f(t) - f_e + g(t)) for the output
    of ``translate_system``: added to the feedback it leaves the
    translated loop homogeneous, so y = y_e is stationary when f = f_e.
    The actuators (coefficient rows ``c_rows``, modes by channels) can
    produce it only if every sample lies in their range; one
    least-squares pass over all samples measures each one's relative
    distance from that range, and one above ``RANGE_RTOL`` raises
    :class:`ForcingRangeError` naming the worst sample.  Returns the
    shift as (samples, modes) and the largest relative residual.
    """
    grid = np.asarray(grid, dtype=float).reshape(-1)
    rows = np.asarray(c_rows, dtype=float)
    f = residual.value(grid)
    if rows.shape[0] != f.shape[0]:
        raise DimensionMismatchError(
            f"actuator rows cover {rows.shape[0]} modes, forcing has "
            f"{f.shape[0]}")
    coef = np.linalg.lstsq(rows, f, rcond=None)[0]
    size = np.linalg.norm(f, axis=0)
    # a residual that has decayed towards underflow keeps no relative
    # digits; samples below 1e-30 of the largest are judged on that floor
    scale = np.maximum(size, 1e-30 * size.max())
    miss = np.linalg.norm(rows @ coef - f, axis=0)
    rel = np.divide(miss, scale, out=np.zeros_like(miss), where=scale > 0.0)
    worst = int(np.argmax(rel))
    if rel[worst] > RANGE_RTOL:
        raise ForcingRangeError(
            f"forcing at t={grid[worst]:.6g} lies outside the actuator "
            f"range (relative residual {rel[worst]:.3e} > {RANGE_RTOL:g})")
    return -f.T, float(rel[worst])


# ---------------------------------------------------------------------------
# decay-rate fitting


@dataclass(frozen=True)
class RateFit:
    """Least-squares exponential fit of a norm history.

    ``rate`` is positive for decay (negative slope of the log); the
    constant is the fitted amplitude extrapolated to t = 0.  A large
    detrended spread marks oscillatory data, where the fitted rate
    tracks the envelope only loosely.
    """

    rate: float
    constant: float
    window: tuple
    n_samples: int
    residual: float
    oscillation: bool


def fit_decay_rate(trajectory: Trajectory, norm_selector="y",
                   window: tuple | None = None) -> RateFit:
    """Fit log(norm) = log C - rate * t over a time window.

    The window defaults to the second half of the run, past transients.
    Any nonpositive sample in the window makes the fit meaningless and
    the sentinel rate +inf is returned (a trajectory that reaches exact
    zero decays faster than any exponential).
    """
    values = trajectory.norms[norm_selector]
    grid = trajectory.grid
    if window is None:
        window = (grid[-1] / 2.0, grid[-1])
    w0, w1 = float(window[0]), float(window[1])
    mask = (grid >= w0 - 1e-12) & (grid <= w1 + 1e-12)
    n = int(mask.sum())
    if n < 10:
        raise WindowTooShortError(
            f"decay window [{w0:g}, {w1:g}] holds {n} samples; need >= 10")
    t = grid[mask]
    v = values[mask]
    if np.any(v <= 1e-300):
        return RateFit(rate=math.inf, constant=0.0, window=(w0, w1),
                       n_samples=n, residual=0.0, oscillation=False)
    logs = np.log(v)
    slope, intercept = np.polyfit(t, logs, 1)
    fitted = slope * t + intercept
    resid = logs - fitted
    rms = float(np.sqrt(np.mean(resid ** 2)))
    spread = float(resid.max() - resid.min())
    return RateFit(rate=float(-slope), constant=float(np.exp(intercept)),
                   window=(w0, w1), n_samples=n, residual=rms,
                   oscillation=spread > 0.5)
