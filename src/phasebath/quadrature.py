"""Adaptive tensor-product Gauss-Legendre quadrature helpers."""

from __future__ import annotations

import numpy as np

__all__ = ["adaptive_gauss_legendre_1d", "gauss_legendre_nodes"]

TOLERANCE = 1e-9
START_NODES = 96
MAX_NODES = 1536


def gauss_legendre_nodes(lo: float, hi: float, n: int):
    """Gauss-Legendre nodes and weights scaled to [lo, hi]."""
    xs, ws = np.polynomial.legendre.leggauss(n)
    half = 0.5 * (hi - lo)
    return lo + half * (xs + 1.0), ws * half


def adaptive_gauss_legendre_1d(evaluate, box_x, box_y):
    """Refine a separable tensor rule until the result stabilizes.

    ``evaluate(nodes_x, w_x, nodes_y, w_y)`` must return the full output array
    for one tensor rule; node counts double from ``START_NODES`` until the
    sup-norm change drops below ``TOLERANCE``, and give up at ``MAX_NODES``
    with a ``RuntimeError``.  Returns (values, error_estimate).
    """
    n = START_NODES
    prev = evaluate(*gauss_legendre_nodes(*box_x, n), *gauss_legendre_nodes(*box_y, n))
    err = np.inf
    while n < MAX_NODES:
        n *= 2
        cur = evaluate(*gauss_legendre_nodes(*box_x, n), *gauss_legendre_nodes(*box_y, n))
        err = float(np.max(np.abs(cur - prev)))
        prev = cur
        if err < TOLERANCE:
            return cur, err
    raise RuntimeError(f"quadrature did not converge to tolerance (error estimate {err:.3e})")
