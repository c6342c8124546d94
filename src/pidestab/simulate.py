"""Open- and closed-loop trajectory computation in modal coordinates.

Two independent routes produce trajectories: an exact per-mode formula
(variation of constants on the second-order modal equation, with
convolution states updated cell by cell) and an exact matrix-exponential
propagation of the first-order augmentation ``alpha' = -lam alpha -
b lam z + u``, ``z' = alpha - delta z``, which also carries linear
feedback controllers.  The first works root by root, the second on the
state matrix; they share only the kernel/spectrum types and the Gauss
nodes of a cell, which is what makes their agreement a meaningful check.

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
from scipy.interpolate import CubicSpline

from . import quadrature
from .exceptions import (
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
# control signals


def _batch(values, n_rows: int, n_cols: int) -> np.ndarray:
    out = np.asarray(values, dtype=float)
    if out.ndim == 1:
        out = np.repeat(out[:, None], n_cols, axis=1)
    if out.shape != (n_rows, n_cols):
        raise DimensionMismatchError(
            f"signal returned shape {out.shape}, expected {(n_rows, n_cols)}")
    return out


@dataclass(frozen=True)
class ZeroSignal:
    """No input on any of the ``k`` modes."""

    k: int

    def value(self, t):
        t = np.atleast_1d(np.asarray(t, dtype=float))
        return np.zeros((self.k, t.size))

    derivative = value


@dataclass(frozen=True, eq=False)
class ConstantModalSignal:
    values: np.ndarray

    def __post_init__(self):
        object.__setattr__(self, "values",
                           np.asarray(self.values, dtype=float).reshape(-1))

    def value(self, t):
        t = np.atleast_1d(np.asarray(t, dtype=float))
        return np.repeat(self.values[:, None], t.size, axis=1)

    def derivative(self, t):
        t = np.atleast_1d(np.asarray(t, dtype=float))
        return np.zeros((self.values.size, t.size))


@dataclass(frozen=True, eq=False)
class CallableModalSignal:
    """Per-mode signal from a callable ``t -> (k,)`` or ``(k, nt)``.

    The derivative callable is optional; a symmetric difference with
    spacing 1e-6 stands in when it is omitted, which is adequate for
    smooth signals but not for certification-grade runs.
    """

    fn: object
    k: int
    derivative_fn: object = None

    def value(self, t):
        t = np.atleast_1d(np.asarray(t, dtype=float))
        cols = [np.asarray(self.fn(ti), dtype=float).reshape(-1) for ti in t]
        return _batch(np.stack(cols, axis=1), self.k, t.size)

    def derivative(self, t):
        t = np.atleast_1d(np.asarray(t, dtype=float))
        if self.derivative_fn is not None:
            return _batch(np.stack(
                [np.asarray(self.derivative_fn(ti), dtype=float).reshape(-1)
                 for ti in t], axis=1), self.k, t.size)
        h = 1e-6
        return (self.value(t + h) - self.value(t - h)) / (2.0 * h)


# ---------------------------------------------------------------------------
# forcing


@dataclass(frozen=True, eq=False)
class ForcingField:
    """Source term in modal coordinates with its asymptotic limit.

    ``modal`` evaluates f_n(t) and ``modal_derivative`` its time
    derivative (zero when omitted), both on a 1-D array of times; ``f_e``
    is the declared limit as t grows.  Whether the actuators can absorb
    the forcing is decided on samples, by ``control_shift``.
    """

    modal: object
    f_e: np.ndarray
    modal_derivative: object = None

    def __post_init__(self):
        object.__setattr__(self, "f_e",
                           np.asarray(self.f_e, dtype=float).reshape(-1))

    @property
    def k(self) -> int:
        return self.f_e.size

    def modal_at(self, t):
        t = np.atleast_1d(np.asarray(t, dtype=float))
        return _batch(self.modal(t), self.k, t.size)

    def derivative_at(self, t):
        t = np.atleast_1d(np.asarray(t, dtype=float))
        if self.modal_derivative is None:
            return np.zeros((self.k, t.size))
        return _batch(self.modal_derivative(t), self.k, t.size)

    @classmethod
    def constant(cls, values) -> "ForcingField":
        values = np.asarray(values, dtype=float).reshape(-1)
        return cls(modal=lambda t: np.repeat(values[:, None], t.size, axis=1),
                   f_e=values)

    @classmethod
    def exponential(cls, coefficients, rate: float) -> "ForcingField":
        """Forcing ``f_n(t) = c_n e^{-rate t}`` with zero limit."""
        coeff = np.asarray(coefficients, dtype=float).reshape(-1)

        def modal(t):
            return coeff[:, None] * np.exp(-rate * t)[None, :]

        def deriv(t):
            return -rate * coeff[:, None] * np.exp(-rate * t)[None, :]

        return cls(modal=modal, f_e=np.zeros_like(coeff),
                   modal_derivative=deriv)


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


def _roots_split(lams, kernel: MemoryKernel):
    roots = modal_roots(lams, kernel)
    if roots.is_degenerate.any():
        lam = roots.lam[np.argmax(roots.is_degenerate)]
        raise DegenerateRootError(
            f"mode with lambda={lam:g} has a (near-)double root; "
            "use the ODE integrator for this configuration")
    return roots.is_real, roots.mu_plus, roots.mu_minus


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
            else control.value(0.0).shape[0])
    for what, size in (("control", rows),
                       ("forcing", k if forcing is None else forcing.k)):
        if size != k:
            raise DimensionMismatchError(
                f"{what} covers {size} modes, state has {k}")


def simulate_exact(spectrum: Spectrum, kernel: MemoryKernel, y0, control,
                   t_grid, *, forcing: ForcingField | None = None,
                   frac_alpha: float = 0.5) -> Trajectory:
    """Evaluate the closed-form modal solution on a time grid.

    Per mode, the homogeneous part combines the two root exponentials
    (or the damped sinusoid for complex pairs) and the source enters
    through a convolution with ``g = u' + delta u`` (plus the same
    combination of any forcing).  The source is evaluated once, on the
    Gauss nodes of every cell; convolution values are carried across
    grid cells by exact exponential/rotation updates, so cost is linear
    in the number of samples and no accuracy is lost on long runs.

    Initial velocity follows the natural coupling
    ``alpha'(0) = u_n(0) + f_n(0) - lam alpha(0)``, i.e. memory starts
    empty at t = 0.
    """
    grid = _check_grid(t_grid)
    y0 = np.asarray(y0, dtype=float).reshape(-1)
    k = y0.size
    _check_inputs(k, control, forcing)
    lams, _ = spectrum.expanded(k)
    real, mu_p, mu_m = _roots_split(lams, kernel)
    delta = kernel.delta
    s = grid.size

    def g_of(ts):
        out = control.derivative(ts) + delta * control.value(ts)
        if forcing is not None:
            out = out + forcing.derivative_at(ts) + delta * forcing.modal_at(ts)
        return out

    u0 = control.value(0.0)[:, 0]
    f0 = forcing.modal_at(0.0)[:, 0] if forcing is not None else 0.0
    a0p = u0 + f0 - lams * y0

    # homogeneous part, evaluated directly on the whole grid
    hom = np.zeros((k, s))
    if real.any():
        mp = mu_p[real].real
        mm = mu_m[real].real
        a0 = y0[real]
        ap = a0p[real]
        gap = (mp - mm)[:, None]
        hom[real] = ((mp * a0 + ap)[:, None] * np.exp(-np.outer(mm, grid))
                     - (mm * a0 + ap)[:, None] * np.exp(-np.outer(mp, grid))
                     ) / gap
    comp = ~real
    if comp.any():
        sig = mu_p[comp].real
        om = mu_p[comp].imag
        a0 = y0[comp]
        ap = a0p[comp]
        phase = np.outer(om, grid)
        hom[comp] = np.exp(-np.outer(sig, grid)) * (
            a0[:, None] * np.cos(phase)
            + ((ap + sig * a0) / om)[:, None] * np.sin(phase))

    # particular part: convolution states updated cell by cell
    pts, wts = quadrature.cell_nodes(grid[:-1, None], grid[1:, None])
    # one call on the nodes of every cell; a lone sample has no cell
    g_all = (g_of(pts.reshape(-1)).reshape(k, s - 1, quadrature.NODES)
             if s > 1 else None)
    part = np.zeros((k, s))
    i_p = np.zeros(int(real.sum()))
    i_m = np.zeros(int(real.sum()))
    j_c = np.zeros(int(comp.sum()))
    j_s = np.zeros(int(comp.sum()))
    mp = mu_p[real].real
    mm = mu_m[real].real
    sig = mu_p[comp].real
    om = mu_p[comp].imag
    for c in range(s - 1):
        t1 = grid[c + 1]
        h = t1 - grid[c]
        g, tail, wc = g_all[:, c], t1 - pts[c], wts[c]
        if i_p.size:
            i_p = np.exp(-mp * h) * i_p + (np.exp(-np.outer(mp, tail))
                                           * g[real]) @ wc
            i_m = np.exp(-mm * h) * i_m + (np.exp(-np.outer(mm, tail))
                                           * g[real]) @ wc
            part[real, c + 1] = (i_m - i_p) / (mp - mm)
        if j_c.size:
            decay = np.exp(-np.outer(sig, tail))
            ang = np.outer(om, tail)
            loc_c = (decay * np.cos(ang) * g[comp]) @ wc
            loc_s = (decay * np.sin(ang) * g[comp]) @ wc
            ch, sh, dh = np.cos(om * h), np.sin(om * h), np.exp(-sig * h)
            j_c, j_s = (dh * (ch * j_c - sh * j_s) + loc_c,
                        dh * (sh * j_c + ch * j_s) + loc_s)
            part[comp, c + 1] = j_s / om

    alpha = (hom + part).T
    alpha[0] = y0

    # memory variables by the same exponential update on splined alpha
    z = np.zeros((s, k))
    if s > 1:
        vals = CubicSpline(grid, alpha, axis=0)(pts)    # (cells, nodes, k)
        fac = np.exp(-delta * (grid[1:, None] - pts)) * wts
        for c in range(s - 1):
            z[c + 1] = (math.exp(-delta * (grid[c + 1] - grid[c])) * z[c]
                        + fac[c] @ vals[c])
    controls = control.value(grid).T
    return Trajectory(grid=grid, alpha=alpha, z=z, lambdas=lams,
                      controls=controls,
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


def simulate_ode(spectrum: Spectrum, kernel: MemoryKernel, y0, control,
                 t_grid, *, forcing: ForcingField | None = None,
                 frac_alpha: float = 0.5) -> Trajectory:
    """Propagate the augmented modal system exactly by matrix exponentials.

    The state is x = (alpha, z, aux) with ``alpha' = -lam alpha -
    b lam z + u + f`` and ``z' = alpha - delta z``; ``aux`` is the
    controller's own state.  A linear feedback controller (an object
    exposing ``aux0``, ``input_matrix`` U and ``aux_matrix`` V) closes
    the loop as u = U x, aux' = V x, so the loop stays linear and time
    invariant.  Any other control is an open-loop signal and only needs
    ``value``.

    Each output cell of width h is crossed by the exact step map
    e^{A h}, computed once per distinct width (widths that differ only
    by rounding share one map); each run of consecutive cells of one
    width is one scan (``quadrature.scan``) of its map, so a uniform
    grid is a single scan.  Open-loop signals and forcing are
    evaluated on the Gauss nodes of every cell in one call, and the
    polynomial through those values is convolved with e^{A (h - tau)}
    exactly: the same exponential that gives the step map carries a
    chain of integrators driving the alpha inputs, so the convolution
    stays exact however stiff the modes are.  That exponential has
    order 2k + aux + 8k, against 2k + aux without inputs.  A state norm
    above 1e6 (1 + |y0|) at an output sample means the loop itself
    diverges and raises ``StepInstabilityError``.
    """
    grid = _check_grid(t_grid)
    y0 = np.asarray(y0, dtype=float).reshape(-1)
    k = y0.size
    _check_inputs(k, control, forcing)
    lams, _ = spectrum.expanded(k)

    linear = hasattr(control, "aux_matrix")
    aux0 = (np.asarray(control.aux0, dtype=float).reshape(-1) if linear
            else np.zeros(0))
    dim = 2 * k + aux0.size
    a = np.zeros((dim, dim))
    a[:k, :k] = -np.diag(lams)
    a[:k, k:2 * k] = -kernel.b * np.diag(lams)
    a[k:2 * k, :k] = np.eye(k)
    a[k:2 * k, k:2 * k] = -kernel.delta * np.eye(k)
    signals = []
    if linear:
        u_mat = np.asarray(control.input_matrix, dtype=float)
        a[:k] += u_mat
        a[2 * k:] = control.aux_matrix
    elif not isinstance(control, ZeroSignal):
        signals.append(control.value)
    if forcing is not None:
        signals.append(forcing.modal_at)

    s = grid.size
    x = np.empty((s, dim))
    x[0] = np.concatenate([y0, np.zeros(k), aux0])
    if s > 1:
        labels, widths = _width_classes(grid)
        q = quadrature.NODES if signals else 0
        gen = np.zeros((dim + q * k, dim + q * k))
        if signals:
            # in cell time s = (t - t0) / h the input is the node
            # interpolant p = sum_i c_i s^i / i!; the integrator chain
            # q_i' = q_{i+1} from q(0) = c feeds q_0 = p into alpha', so
            # the exponential that holds e^{A h} also holds the exact
            # convolution of every Taylor term
            gen[:k, dim:dim + k] = np.eye(k)
            gen[dim:-k, dim + k:] = np.eye((q - 1) * k)
        maps = []
        for h in widths:
            gen[:dim, :dim] = a * h
            maps.append(scipy.linalg.expm(gen)[:dim])
        steps = [m[:, :dim] for m in maps]
        drive = np.zeros((s - 1, dim))
        if signals:
            pts, _ = quadrature.cell_nodes(grid[:-1, None], grid[1:, None])
            sig = sum(f(pts.reshape(-1)) for f in signals)
            coef = np.einsum("ij,kcj->cik", quadrature.TAYLOR,
                             sig.reshape(k, s - 1, q)).reshape(s - 1, q * k)
            for cls, (h, m) in enumerate(zip(widths, maps)):
                cells = labels == cls
                drive[cells] = h * coef[cells] @ m[:, dim:].T
        # cells lo .. hi-1 of one width class form one scan from x[lo]
        bounds = np.r_[0, np.flatnonzero(np.diff(labels)) + 1, s - 1]
        guard = (1e6 * (1.0 + float(np.linalg.norm(y0)))) ** 2
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

    controls = x @ u_mat.T if linear else control.value(grid).T
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
    Initial data shifts by -y_e.
    """
    y_e = np.asarray(y_e, dtype=float).reshape(-1)
    b, delta = kernel.b, kernel.delta
    kfac = b / (b + delta)
    f_e = forcing.f_e

    def modal(t):
        g = kfac * f_e[:, None] * np.exp(-delta * t)[None, :]
        return forcing.modal_at(t) - f_e[:, None] + g

    def deriv(t):
        g = kfac * f_e[:, None] * np.exp(-delta * t)[None, :]
        return forcing.derivative_at(t) - delta * g

    residual = ForcingField(modal=modal, f_e=np.zeros_like(f_e),
                            modal_derivative=deriv)
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
    f = residual.modal_at(grid)
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
