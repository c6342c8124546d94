"""Correctness checks, each computed apart from the program.

Every check raises :class:`CheckError` with a message when the program's
output is wrong and returns ``None`` otherwise.  None of them compares
against a stored copy of earlier output: each recomputes the quantity by
another route (``numpy.roots``, a PBH rank test, ``solve_ivp``, a 2x2
matrix-exponential propagation, ...) or tests a property the method
must have.
"""

from __future__ import annotations

import math

import numpy as np
import scipy.linalg
from scipy.integrate import solve_ivp
from scipy.interpolate import CubicSpline


class CheckError(AssertionError):
    """An output of the program failed a correctness check."""


def _fail(message: str):
    raise CheckError(message)


def slow_rates(lams, b: float, delta: float) -> np.ndarray:
    """Smallest real part of the two decay roots per mode, by numpy.roots."""
    return np.array([np.roots([1.0, -(lam + delta), lam * (b + delta)])
                     .real.min() for lam in lams])


def check_inputs(lams, b: float, delta: float, expected_lams,
                 expected_b: float, expected_delta: float,
                 rtol: float = 1e-13) -> None:
    """The program's eigenvalues and kernel are the generated ones."""
    lams = np.asarray(lams, dtype=float)
    expected = np.asarray(expected_lams, dtype=float)
    if lams.shape != expected.shape or \
            not np.allclose(lams, expected, rtol=rtol, atol=0.0):
        _fail("eigenvalues differ from the generated spectrum")
    if not (math.isclose(b, expected_b, rel_tol=rtol)
            and math.isclose(delta, expected_delta, rel_tol=rtol)):
        _fail(f"kernel (b={b!r}, delta={delta!r}) differs from the generated "
              f"(b={expected_b!r}, delta={expected_delta!r})")


# ---------------------------------------------------------------------------
# design


def check_partition(lams, b: float, delta: float, gamma: float,
                    n_total: int) -> None:
    """``n_total`` is the last mode with a root at or below gamma."""
    rates = slow_rates(lams, b, delta)
    hits = np.nonzero(rates <= gamma)[0]
    expected = int(hits[-1]) + 1 if hits.size else 0
    if n_total != expected:
        _fail(f"partition has {n_total} modes, numpy.roots gives {expected}")
    if np.any(rates[n_total:] <= gamma):
        _fail("an excluded mode has a root with real part at or below gamma")


def check_pbh(p, q, rank_passed: bool, rtol: float = 1e-9) -> None:
    """A PBH rank test on (P, Q) agrees with the program's rank report."""
    dim = p.shape[0]
    steerable = True
    for ev in np.linalg.eigvals(p):
        pencil = np.hstack([p - ev * np.eye(dim), q]).astype(complex)
        s = np.linalg.svd(pencil, compute_uv=False)
        if int(np.sum(s > rtol * s[0])) < dim:
            steerable = False
    if steerable != bool(rank_passed):
        _fail(f"PBH test says steerable={steerable}, rank conditions say "
              f"{bool(rank_passed)}")


def check_steering(p, q, x0, grid, w, v, delta: float,
                   terminal_tol: float = 1e-4, ode_tol: float = 1e-6) -> None:
    """The returned control steers the companion state to zero.

    ``solve_ivp`` drives ``x' = P x + Q w(t)`` with a cubic spline of the
    sampled ``w``; ``v`` must vanish at the horizon and solve
    ``v' + delta v = w``.
    """
    x0 = np.asarray(x0, dtype=float)
    w = np.atleast_2d(w)
    v = np.atleast_2d(v)
    spline = CubicSpline(grid, w, axis=1)
    sol = solve_ivp(lambda t, x: p @ x + q @ spline(t), (grid[0], grid[-1]),
                    x0, method="DOP853", rtol=1e-10,
                    atol=1e-13 * np.linalg.norm(x0))
    if not sol.success:
        _fail(f"solve_ivp failed: {sol.message}")
    ratio = np.linalg.norm(sol.y[:, -1]) / np.linalg.norm(x0)
    if not ratio <= terminal_tol:
        _fail(f"steering leaves |x(T)|/|x0| = {ratio:.3e} > {terminal_tol:g}")
    scale = max(float(np.abs(w).max()), 1e-300)
    if np.abs(v[:, -1]).max() > 1e-12 * scale:
        _fail("actuator amplitude v does not vanish at the horizon")
    vs = CubicSpline(grid, v, axis=1)
    resid = vs.derivative()(grid) + delta * v - w
    inner = np.abs(resid[:, 2:-2]).max() / scale
    if not inner <= ode_tol:
        _fail(f"v' + delta v = w violated by {inner:.3e} (relative)")


def check_riccati(p, q, weight, r, gain, tol: float = 1e-8) -> None:
    """ARE residual, symmetry, semidefiniteness and closed-loop spectrum."""
    scale = max(float(np.linalg.norm(r)), 1e-300)
    resid = p.T @ r + r @ p - gain.T @ gain + weight
    rel = float(np.linalg.norm(resid)) / scale
    if not rel <= tol:
        _fail(f"ARE residual {rel:.3e} > {tol:g} with the returned gain")
    if np.linalg.norm(gain - q.T @ r) > tol * max(np.linalg.norm(gain), 1.0):
        _fail("gain differs from Q^T R")
    if np.linalg.norm(r - r.T) > 1e-12 * scale:
        _fail("Riccati solution is not symmetric")
    if np.linalg.eigvalsh(0.5 * (r + r.T))[0] < -1e-10 * scale:
        _fail("Riccati solution is not positive semidefinite")
    cl = np.linalg.eigvals(p - q @ q.T @ r)
    if cl.size and not np.all(cl.real < 0.0):
        _fail(f"closed loop has eigenvalue {cl[np.argmax(cl.real)]:.6g}")


# ---------------------------------------------------------------------------
# closed loop


def fitted_rate(t, log_norm) -> float:
    """Least-squares decay rate of a log-norm over the second half of t."""
    t = np.asarray(t, dtype=float)
    mask = t >= 0.5 * t[-1]
    slope = np.polyfit(t[mask], np.asarray(log_norm)[mask], 1)[0]
    return float(-slope)


def check_decay_rate(t, log_norm, gamma: float) -> None:
    """A log-linear fit of the late decay reaches 0.98 gamma."""
    rate = fitted_rate(t, log_norm)
    if not rate >= 0.98 * gamma:
        _fail(f"fitted decay rate {rate:.6g} below 0.98 gamma = "
              f"{0.98 * gamma:.6g}")


def check_cross_route(alpha_a, alpha_b, rtol: float) -> None:
    """Two trajectories of the same modes agree sample by sample."""
    alpha_a = np.asarray(alpha_a)
    alpha_b = np.asarray(alpha_b)
    if alpha_a.shape != alpha_b.shape:
        _fail(f"trajectory shapes differ: {alpha_a.shape} vs {alpha_b.shape}")
    scale = max(float(np.abs(alpha_b).max()), 1e-300)
    err = float(np.abs(alpha_a - alpha_b).max()) / scale
    if not err <= rtol:
        _fail(f"routes differ by {err:.3e} (relative) > {rtol:g}")


def check_certificate(cert: dict, r_matrix, xi0) -> None:
    """x0^T R x0 rebuilt from the controller matches and bounds the
    certificate."""
    quad = float(xi0 @ r_matrix @ xi0)
    if abs(quad - cert["quadratic_form"]) > 1e-9 * abs(quad):
        _fail(f"quadratic form {cert['quadratic_form']!r} differs from "
              f"x0^T R x0 = {quad!r}")
    if not cert["weighted_integral"] <= 1.01 * quad:
        _fail(f"weighted integral {cert['weighted_integral']!r} exceeds "
              f"1.01 x0^T R x0 = {1.01 * quad!r}")


# ---------------------------------------------------------------------------
# wide spectrum


def _root(pair) -> complex:
    return complex(pair[0], pair[1])


def check_vieta(modes, b: float, delta: float, rtol: float = 1e-12) -> None:
    """Every reported root pair has sum lam+delta and product lam(b+delta)."""
    for m in modes:
        lam = m["lambda"]
        mp, mm = _root(m["mu_plus"]), _root(m["mu_minus"])
        s, p = lam + delta, lam * (b + delta)
        if abs(mp + mm - s) > rtol * s or abs(mp * mm - p) > rtol * p:
            _fail(f"roots of mode {m['label']} break Vieta's formulas")


def check_slow_roots(modes, b: float, delta: float) -> None:
    """Beyond lam = 2b + delta, real slow roots stay above b + delta."""
    for m in modes:
        if m["real_roots"] and m["lambda"] > 2.0 * b + delta:
            if not m["mu_minus"][0] > b + delta:
                _fail(f"slow root of mode {m['label']} is not above b+delta")


def degeneracy_scan(modes, tol: float):
    """Double roots and cross-branch collisions by a sorted sweep.

    Returns a set of ``(kind, labels)``.  Roots are sorted by real part,
    so only neighbours within ``tol`` in real part are compared.
    """
    found = set()
    values = []
    for i, m in enumerate(modes):
        mp, mm = _root(m["mu_plus"]), _root(m["mu_minus"])
        if abs(mp - mm) <= tol * max(1.0, abs(mp)):
            found.add(("double_root", (m["label"],)))
        values.append((mp.real, mp, "plus", i))
        values.append((mm.real, mm, "minus", i))
    values.sort(key=lambda v: v[0])
    for a in range(len(values)):
        for c in range(a + 1, len(values)):
            if values[c][0] - values[a][0] > tol * max(1.0, abs(values[a][1])):
                break
            (_, za, ba, ia), (_, zc, bc, ic) = values[a], values[c]
            if ba == bc or ia == ic:
                continue
            if abs(za - zc) <= tol * max(1.0, abs(za)):
                plus, minus = (ia, ic) if ba == "plus" else (ic, ia)
                found.add(("branch_collision",
                           (modes[plus]["label"], modes[minus]["label"])))
    return found


def check_degeneracy_report(modes, report, tol: float = 1e-9,
                            loose: float = 1e-6) -> None:
    """The program's degeneracy report agrees with a sorted-gap scan.

    Whatever the scan finds at ``tol`` must be reported, and everything
    reported must show up in the scan at the looser ``loose``; the band
    between them absorbs the program's discriminant-based criterion.
    """
    reported = {(d["kind"], tuple(d["labels"])) for d in report}
    strict = degeneracy_scan(modes, tol)
    generous = degeneracy_scan(modes, loose)
    if not strict <= reported:
        _fail(f"unreported degeneracies: {sorted(strict - reported)}")
    if not reported <= generous:
        _fail("reported degeneracies not found: "
              f"{sorted(reported - generous)}")


def propagate_2x2(lams, b: float, delta: float, y0, grid) -> np.ndarray:
    """Open-loop modal coefficients by stepping each mode's 2x2 system.

    Mode j obeys a'' + (lam+delta) a' + lam (b+delta) a = 0 with
    a(0) = y0_j and a'(0) = -lam y0_j; one matrix exponential per mode
    and step size advances the state.  Returns (samples, modes).
    """
    lams = np.asarray(lams, dtype=float)
    y0 = np.asarray(y0, dtype=float)
    grid = np.asarray(grid, dtype=float)
    k = lams.size
    a = np.zeros((k, 2, 2))
    a[:, 0, 1] = 1.0
    a[:, 1, 0] = -lams * (b + delta)
    a[:, 1, 1] = -(lams + delta)
    steps = np.diff(grid)
    out = np.empty((grid.size, k))
    state = np.stack([y0, -lams * y0], axis=1)
    out[0] = state[:, 0]
    cache = {}
    for i, h in enumerate(steps):
        key = float(h)
        if key not in cache:
            cache[key] = scipy.linalg.expm(a * h)
        state = np.einsum("kij,kj->ki", cache[key], state)
        out[i + 1] = state[:, 0]
    return out


def check_exact_route(alpha, lams, b: float, delta: float, y0, grid,
                      rtol: float = 1e-8) -> None:
    """``simulate_exact`` matches the per-mode 2x2 propagation."""
    ref = propagate_2x2(lams, b, delta, y0, grid)
    check_cross_route(alpha, ref, rtol)


def check_late_decay(grid, alpha, lams, b: float, delta: float,
                     rtol: float = 0.02) -> None:
    """The late open-loop decay rate is the slowest root's real part."""
    norm = np.sqrt(np.sum(np.asarray(alpha) ** 2, axis=1))
    rate = fitted_rate(grid, np.log(norm))
    slowest = float(slow_rates(lams, b, delta).min())
    if abs(rate - slowest) > rtol * slowest:
        _fail(f"late decay rate {rate:.6g} is not within {rtol:.0%} of the "
              f"slowest root {slowest:.6g}")


def check_csv_roundtrip(traj_path, decay_path, grid, alpha, z, controls,
                        norms) -> None:
    """Both CSVs read back to the in-memory trajectory.

    ``trajectory.csv`` must reproduce every value exactly (17 significant
    digits round-trip), ``decay_curve.csv`` the log of each norm to a few
    units in the last place.
    """
    k = alpha.shape[1]
    expected = np.hstack([np.asarray(grid)[:, None], alpha, z]
                         + ([controls] if controls is not None else [])
                         + [np.stack([norms["y"], norms["a_alpha_minus_half"],
                                      norms["a_alpha"]], axis=1)])
    try:
        table = np.loadtxt(traj_path, delimiter=",", skiprows=1, ndmin=2)
        logs = np.loadtxt(decay_path, delimiter=",", skiprows=1, ndmin=2)
    except ValueError as exc:
        _fail(f"CSV does not parse: {exc}")
    if table.shape != expected.shape:
        _fail(f"trajectory.csv has shape {table.shape}, the trajectory "
              f"{expected.shape} ({k} modes)")
    if not np.array_equal(table, expected):
        bad = np.argwhere(table != expected)[0]
        _fail(f"trajectory.csv differs from memory at row {bad[0]}, "
              f"column {bad[1]}")
    ref = np.log(np.maximum(expected[:, -3:], 1e-300))
    if logs.shape != (expected.shape[0], 4) or \
            not np.array_equal(logs[:, 0], expected[:, 0]):
        _fail("decay_curve.csv rows do not match the trajectory grid")
    ulps = 8e-16 * np.maximum(np.abs(ref), 1.0)
    if np.any(np.abs(logs[:, 1:] - ref) > ulps):
        _fail("decay_curve.csv log-norms differ from the trajectory norms")
