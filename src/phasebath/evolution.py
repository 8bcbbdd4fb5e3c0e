"""Closed-form propagation of phase-space weight functions through a heat bath.

A damped mode in a bath (gamma, nbar) maps an initial weight function P0 to

    P_t(alpha) = (1/(pi nbar_t)) integral P0(beta) exp(-|alpha - beta eta|^2 / nbar_t) d2beta

with eta = e^{-gamma t} and nbar_t = nbar (1 - eta^2).  This is one map,
``convolved(eta, nbar_t)``, that every closed-form descriptor kind carries
(see ``descriptors``), so the evolved P is ``P0.convolved(eta, nbar_t)``
for every catalog state.  At nbar = 0 the kernel has zero width and the
map is the pure decay P0(alpha/eta)/eta^2.  ``convolve_p_numeric``
computes the same integral by quadrature from a regular P, as an
independent cross-check; a singular P is checked through the semigroup
law, by convolving its regular image at a later time.
"""

from __future__ import annotations

import math

import numpy as np

from .core import BathParams, scale_bath
from .descriptors import SampledGridP, evaluate_p, is_regular
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
    if not (math.isfinite(t) and t >= 0):
        raise ValueError(f"t must be nonnegative, got {t}")
    scaled = scale_bath(bath, t)
    return initial_p_function(spec).convolved(scaled.decay_factor, scaled.nbar_t)


def evolved_moments(m0: MomentSet, bath: BathParams, t: float) -> MomentSet:
    """Propagate a moment set: exponential decay toward the bath equilibrium."""
    if not (math.isfinite(t) and t >= 0):
        raise ValueError(f"t must be nonnegative, got {t}")
    scaled = scale_bath(bath, t)
    eta = scaled.decay_factor
    eta2 = eta * eta
    nt = scaled.nbar_t
    mean_n = m0.mean_n * eta2 + nt
    second = (
        (m0.second_factorial - m0.mean_n**2) * eta2 * eta2
        + 2.0 * nt * m0.mean_n * eta2
        + nt * nt
        + mean_n * mean_n
    )
    floor = (2.0 * nt + 1.0) / 4.0
    return MomentSet(
        mean_a=m0.mean_a * eta,
        mean_n=mean_n,
        second_factorial=second,
        var_x=floor + (m0.var_x - 0.25) * eta2,
        var_y=floor + (m0.var_y - 0.25) * eta2,
    )


def convolve_p_numeric(
    p0,
    bath: BathParams,
    t: float,
    grid: PhaseSpaceGrid,
    tol: float = 1e-9,
) -> PhaseSpaceGrid:
    """Propagate a regular P by direct evaluation of the convolution integral.

    Adaptive tensor Gauss-Legendre quadrature; the kernel is separable, so the
    two axes factor into matrix products.  Singular inputs are rejected; by
    the semigroup law their regular image at a later time can be convolved
    instead.
    """
    if not (math.isfinite(t) and t > 0):
        raise ValueError(f"t must be positive, got {t}")
    if not is_regular(p0):
        raise TypeError(f"cannot convolve a singular descriptor of kind {p0.kind!r}")
    scaled = scale_bath(bath, t)
    nt = scaled.nbar_t
    if nt <= 0.0:
        raise ValueError("kernel width nbar_t must be positive; use the pure-decay path")
    x = np.asarray(grid.x_axis)
    y = np.asarray(grid.y_axis)
    values, err = _convolve_regular(p0, scaled.decay_factor, nt, x, y, tol)
    meta = dict(grid.meta)
    meta.update(quantity="P", time=t, method="quadrature", quadrature_error=err)
    return PhaseSpaceGrid(x, y, values, meta)


def _convolve_regular(p0, eta, nt, x, y, tol):
    """Separable adaptive Gauss-Legendre quadrature of the convolution."""
    if isinstance(p0, SampledGridP):
        box_x = (float(p0.x_axis[0]), float(p0.x_axis[-1]))
        box_y = (float(p0.y_axis[0]), float(p0.y_axis[-1]))
        start = max(64, p0.x_axis.size)
    else:
        reach = abs(p0.center) + 8.0 * math.sqrt(p0.width)
        box_x = box_y = (-reach, reach)
        start = 96

    root = math.sqrt(nt)

    def evaluate(nodes_x, w_x, nodes_y, w_y):
        pvals = evaluate_p(p0, nodes_x[:, None], nodes_y[None, :])
        kx = np.exp(-((x[:, None] - eta * nodes_x[None, :]) / root) ** 2) * w_x
        ky = np.exp(-((y[:, None] - eta * nodes_y[None, :]) / root) ** 2) * w_y
        return kx @ pvals @ ky.T / (math.pi * nt)

    return adaptive_gauss_legendre_1d(evaluate, box_x, box_y, tol=tol, start=start)
