"""The Gauss rule of one cell and the all-prefix scan of a step map.

Every cell carries ``NODES`` = 8 Gauss-Legendre nodes.  They serve the
source convolutions of ``simulate.simulate_exact`` and
``simulate.simulate_ode`` and ``synthesis.recover_v``; ``simulate_ode``
integrates the polynomial through the node values (``TAYLOR``) instead
of weighting them, so its stiff modes need no finer cells.

``scan`` runs the linear recurrence x_k = step x_{k-1} + drive[k] that
every exact step map of the package feeds: the samples of
``simulate.simulate_ode`` and ``riccati.simulate_closed_loop``, and the
costate and terminal state of ``synthesis.min_energy_control``.
"""

from __future__ import annotations

import math

import numpy as np

NODES = 8
_BASE, _WEIGHTS = np.polynomial.legendre.leggauss(NODES)


def cell_nodes(t0: float, t1: float):
    """Quadrature points and weights for the cell [t0, t1].

    Column arrays of cell ends give one row of nodes per cell.
    """
    half = 0.5 * (t1 - t0)
    return t0 + half * (_BASE + 1.0), half * _WEIGHTS


# Map from values at the Gauss nodes of [0, 1] to Taylor coefficients:
# row i applied to the node values gives c_i of the interpolating
# polynomial sum_i c_i s^i / i! of degree NODES - 1.
TAYLOR = np.linalg.inv(
    (0.5 * (_BASE + 1.0))[:, None] ** np.arange(NODES)
    / np.array([math.factorial(i) for i in range(NODES)], dtype=float))


def scan(step: np.ndarray, drive: np.ndarray) -> np.ndarray:
    """Every row of ``x_k = step x_{k-1} + drive[k]`` from ``x_{-1} = 0``.

    All-prefix scan (Hillis & Steele 1986): after the level of span L,
    row k holds ``sum_{j < 2L} step^j drive[k-j]``.  Each level adds
    ``step^L x_{k-L}`` to every row in one matmul and squares the power,
    so n rows take about log2(n) levels.
    """
    x = np.array(drive, dtype=np.result_type(step, drive), order="C")
    power = step
    span = 1
    while span < len(x):
        x[span:] += x[:-span] @ power.T
        span *= 2
        if span < len(x):
            power = power @ power
    return x
