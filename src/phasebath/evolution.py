"""Closed-form propagation of phase-space weight functions through a heat bath.

A damped mode in a bath (gamma, nbar) maps an initial weight function P0 to

    P_t(alpha) = (1/(pi nbar_t)) integral P0(beta) exp(-|alpha - beta eta|^2 / nbar_t) d2beta

with eta = e^{-gamma t} and nbar_t = nbar (1 - eta^2).  This is the one map
of the one descriptor kind, ``convolved(eta, nbar_t)`` (see ``descriptors``),
so the evolved P is ``P0.convolved(eta, nbar_t)`` for every catalog state,
and every moment of the evolved state is read off that P_t by
``MomentSet.from_p``.  At nbar = 0 the kernel has zero width and the map is
the pure decay P0(alpha/eta)/eta^2.  ``convolve_p_numeric`` computes the same
integral by quadrature from a regular P, as an independent cross-check, on a
window given as ``(x_axis, y_axis)``; a singular P is checked through the
semigroup law, by convolving its regular image at a later time.
"""

from __future__ import annotations

import math

import numpy as np

from .core import BathParams, scale_bath
from .descriptors import evaluate_p, singular_part
from .quadrature import adaptive_gauss_legendre_1d
from .quasiprob import PhaseSpaceGrid
from .states import MomentSet, StateSpec, initial_p_function

__all__ = [
    "convolve_p_numeric",
    "evolve_p_closed_form",
    "evolved_moments",
]


def evolve_p_closed_form(spec: StateSpec, bath: BathParams, t: float):
    """Closed-form propagated weight function, a descriptor, for every catalog family."""
    return initial_p_function(spec).convolved(*scale_bath(bath, t))


def evolved_moments(spec: StateSpec, bath: BathParams, t: float) -> MomentSet:
    """Moments of the evolved state, read off its closed-form P_t."""
    return MomentSet.from_p(evolve_p_closed_form(spec, bath, t))


def convolve_p_numeric(p0, bath: BathParams, t: float, x_axis, y_axis) -> PhaseSpaceGrid:
    """Propagate a regular P by direct evaluation of the convolution integral,
    on the window alpha = x + iy for x in ``x_axis`` and y in ``y_axis``.

    Adaptive tensor Gauss-Legendre quadrature; the kernel is separable, so the
    two axes factor into matrix products.  Singular inputs are rejected; by
    the semigroup law their regular image at a later time can be convolved
    instead.
    """
    if not (math.isfinite(t) and t > 0):
        raise ValueError(f"t must be positive, got {t}")
    singular = singular_part(p0)
    if singular:
        raise TypeError(f"cannot convolve a singular descriptor ({singular})")
    eta, nt = scale_bath(bath, t)
    if nt <= 0.0:
        raise ValueError("kernel width nbar_t must be positive; use the pure-decay path")
    x = np.asarray(x_axis, dtype=float)
    y = np.asarray(y_axis, dtype=float)
    reach = abs(p0.center) + 8.0 * math.sqrt(p0.width)
    root = math.sqrt(nt)

    def evaluate(nodes_x, w_x, nodes_y, w_y):
        pvals = evaluate_p(p0, nodes_x[:, None], nodes_y[None, :])
        kx = np.exp(-((x[:, None] - eta * nodes_x[None, :]) / root) ** 2) * w_x
        ky = np.exp(-((y[:, None] - eta * nodes_y[None, :]) / root) ** 2) * w_y
        return kx @ pvals @ ky.T / (math.pi * nt)

    values, err = adaptive_gauss_legendre_1d(evaluate, (-reach, reach), (-reach, reach))
    meta = {"quantity": "P", "time": t, "method": "quadrature", "quadrature_error": err}
    return PhaseSpaceGrid(x, y, values, meta)
