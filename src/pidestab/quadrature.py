"""The Gauss rule of one cell and the all-prefix scan of a step map.

Every cell carries ``NODES`` = 8 Gauss-Legendre nodes.  They serve only
the cell convolutions of ``synthesis.recover_v``; neither simulation
route samples its inputs, since every input is a sum of exponentials.

``scan`` runs the linear recurrence x_k = step x_{k-1} + drive[k] that
every exact step map of the package feeds: the samples of
``simulate.simulate_ode`` and ``riccati.simulate_closed_loop``, and the
costate and terminal state of ``synthesis.min_energy_control``.
"""

from __future__ import annotations

import numpy as np

NODES = 8
_BASE, _WEIGHTS = np.polynomial.legendre.leggauss(NODES)


def cell_nodes(t0: float, t1: float):
    """Quadrature points and weights for the cell [t0, t1]."""
    half = 0.5 * (t1 - t0)
    return t0 + half * (_BASE + 1.0), half * _WEIGHTS


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
