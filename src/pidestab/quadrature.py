"""Gauss-Legendre quadrature on single cells.

Default resolution (8 nodes per cell) is shared by the source
convolutions of ``simulate.simulate_exact`` and ``simulate.simulate_ode``
and by ``synthesis.recover_v``; ``simulate_ode`` integrates the
polynomial through the node values (``taylor_interpolation``) instead of
weighting them, so its stiff modes need no finer cells.
"""

from __future__ import annotations

import math
from functools import lru_cache

import numpy as np

DEFAULT_NODES = 8


@lru_cache(maxsize=32)
def gauss_legendre(n: int = DEFAULT_NODES):
    """Nodes and weights of the n-point rule on [-1, 1]."""
    nodes, weights = np.polynomial.legendre.leggauss(n)
    return nodes, weights


def cell_nodes(t0: float, t1: float, nodes: int = DEFAULT_NODES):
    """Quadrature points and weights for the cell [t0, t1].

    Column arrays of cell ends give one row of nodes per cell.
    """
    base, wts = gauss_legendre(nodes)
    half = 0.5 * (t1 - t0)
    return t0 + half * (base + 1.0), half * wts


@lru_cache(maxsize=32)
def taylor_interpolation(nodes: int = DEFAULT_NODES) -> np.ndarray:
    """Map from values at the Gauss nodes of [0, 1] to Taylor coefficients.

    Row i of the result applied to the node values gives c_i of the
    interpolating polynomial sum_i c_i s^i / i! of degree nodes - 1.
    """
    base, _ = gauss_legendre(nodes)
    powers = np.arange(nodes)
    fact = np.array([math.factorial(i) for i in powers], dtype=float)
    vand = (0.5 * (base + 1.0))[:, None] ** powers / fact
    return np.linalg.inv(vand)
