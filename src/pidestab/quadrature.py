"""Gauss-Legendre quadrature on single cells.

Default resolution (8 nodes per cell) is shared by the source
convolutions of ``simulate.simulate_exact`` and by
``synthesis.recover_v``.
"""

from __future__ import annotations

from functools import lru_cache

import numpy as np

DEFAULT_NODES = 8


@lru_cache(maxsize=32)
def gauss_legendre(n: int = DEFAULT_NODES):
    """Nodes and weights of the n-point rule on [-1, 1]."""
    nodes, weights = np.polynomial.legendre.leggauss(n)
    return nodes, weights


def cell_nodes(t0: float, t1: float, nodes: int = DEFAULT_NODES):
    """Quadrature points and weights for the single cell [t0, t1]."""
    base, wts = gauss_legendre(nodes)
    half = 0.5 * (t1 - t0)
    return t0 + half * (base + 1.0), half * wts
