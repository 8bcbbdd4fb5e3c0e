"""Closed-form thermal-bath propagation of phase-space weight functions.

A damped mode in a bath (gamma, nbar) maps an initial weight function P0 to

    P_t(alpha) = (1/(pi nbar_t)) integral P0(beta) exp(-|alpha - beta eta|^2 / nbar_t) d2beta

with eta = e^{-gamma t} and nbar_t = nbar (1 - eta^2).  Every catalog family
admits a closed-form image of this convolution: a Gaussian keeps its form,
with the centre contracted by eta and each width w mapped to eta^2 w + nbar_t,
and the photon-added families keep a polynomial-times-Gaussian form.
``convolve_p_numeric`` computes the same integral by quadrature (or by
analytic differentiation of the kernel for a point mass or the photon-added
coherent input) as an independent cross-check.  At nbar = 0 the kernel
degenerates to a point mass and the evolution reduces to argument rescaling.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from .core import BathParams, ScaledBathParams, scale_bath
from .descriptors import (
    GaussianP,
    GaussianPolyP,
    LaplacianDeltaP,
    SampledGridP,
    evaluate_p,
    is_regular,
    rescale_zero_temperature,
)
from .quadrature import adaptive_gauss_legendre_1d
from .quasiprob import PhaseSpaceGrid
from .states import MomentSet, StateSpec, initial_p_function

__all__ = [
    "EvolvedPFunction",
    "convolve_p_numeric",
    "evolve_p_closed_form",
    "evolve_p_zero_temperature",
    "evolved_moments",
    "mandel_q",
]


@dataclass(frozen=True)
class EvolvedPFunction:
    """A propagated weight function together with its provenance."""

    spec: StateSpec
    scaled: ScaledBathParams
    form: object


def evolve_p_zero_temperature(p0, gamma: float, t: float):
    """Pure-decay evolution: P_t(alpha) = P0(alpha e^{gamma t}) e^{2 gamma t}."""
    if not (math.isfinite(gamma) and gamma > 0):
        raise ValueError(f"gamma must be positive, got {gamma}")
    if not (math.isfinite(t) and t >= 0):
        raise ValueError(f"t must be nonnegative, got {t}")
    return rescale_zero_temperature(p0, math.exp(-gamma * t))


def evolve_p_closed_form(spec: StateSpec, bath: BathParams, t: float) -> EvolvedPFunction:
    """Closed-form propagated weight function for every catalog family."""
    if not (math.isfinite(t) and t >= 0):
        raise ValueError(f"t must be nonnegative, got {t}")
    scaled = scale_bath(bath, t)
    p0 = initial_p_function(spec)
    if t == 0.0:
        return EvolvedPFunction(spec, scaled, p0)
    if bath.nbar == 0.0:
        return EvolvedPFunction(spec, scaled, rescale_zero_temperature(p0, scaled.decay_factor))

    eta = scaled.decay_factor
    nt = scaled.nbar_t
    eta2 = eta * eta
    f = spec.family
    if isinstance(p0, GaussianP):
        form = p0.convolved(eta, nt)
    elif f == "photon-added-thermal":
        m = spec.mbar
        width = m * eta2 + nt
        coeffs = np.zeros((3, 3))
        lead = (m + 1.0) * eta2 / (math.pi * width**3)
        coeffs[2, 0] = lead
        coeffs[0, 2] = lead
        coeffs[0, 0] = (nt - eta2) / (math.pi * width**2)
        form = GaussianPolyP(0j, width, coeffs)
    elif f == "photon-added-coherent":
        b = spec.beta
        pref = 1.0 / (math.pi * nt * (abs(b) ** 2 + 1.0))
        amp = eta / nt
        const = 1.0 - eta2 / nt
        # |amp (u + iv) + b|^2 + const, in kernel-centred coordinates.
        coeffs = np.zeros((3, 3))
        coeffs[0, 0] = pref * (abs(b) ** 2 + const)
        coeffs[1, 0] = pref * 2.0 * amp * b.real
        coeffs[0, 1] = pref * 2.0 * amp * b.imag
        coeffs[2, 0] = pref * amp * amp
        coeffs[0, 2] = pref * amp * amp
        form = GaussianPolyP(b * eta, nt, coeffs)
    else:
        raise ValueError(f"family {f!r} has no closed-form evolution entry")
    return EvolvedPFunction(spec, scaled, form)


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


def mandel_q(m0: MomentSet, bath: BathParams, t: float) -> float:
    """(<(dn)^2> - <n>)/<n> at time t, from the initial moments alone."""
    scaled = scale_bath(bath, t)
    eta2 = scaled.decay_factor**2
    nt = scaled.nbar_t
    denom = m0.mean_n * eta2 + nt
    if denom <= 0.0:
        raise ValueError("Mandel Q undefined: evolved mean photon number is zero")
    numer = (m0.second_factorial - m0.mean_n**2) * eta2 * eta2 + 2.0 * nt * m0.mean_n * eta2 + nt * nt
    return numer / denom


def convolve_p_numeric(
    p0,
    bath: BathParams,
    t: float,
    grid: PhaseSpaceGrid,
    tol: float = 1e-9,
) -> PhaseSpaceGrid:
    """Propagate by direct evaluation of the convolution integral on a grid.

    Regular inputs are integrated by adaptive tensor Gauss-Legendre quadrature
    (the kernel is separable, so the two axes factor into matrix products).
    The photon-added coherent delta derivative is resolved by differentiating
    the Gaussian kernel analytically; a point mass samples the kernel exactly.
    Other singular inputs, such as a Gaussian with a negative width, are
    rejected; by the semigroup law their regular image at a later time can
    be convolved instead.
    """
    if not (math.isfinite(t) and t > 0):
        raise ValueError(f"t must be positive, got {t}")
    scaled = scale_bath(bath, t)
    eta = scaled.decay_factor
    nt = scaled.nbar_t
    if nt <= 0.0:
        raise ValueError("kernel width nbar_t must be positive; use the pure-decay path")
    x = np.asarray(grid.x_axis)
    y = np.asarray(grid.y_axis)
    meta = dict(grid.meta)

    if isinstance(p0, GaussianP) and p0.width_x == p0.width_y == 0.0:
        u = x[:, None] - eta * p0.center.real
        v = y[None, :] - eta * p0.center.imag
        values = np.exp(-(u * u + v * v) / nt) / (math.pi * nt)
        meta.update(quantity="P", time=t, method="kernel")
        return PhaseSpaceGrid(x, y, values, meta)

    if isinstance(p0, LaplacianDeltaP):
        values = _convolve_laplacian_delta(p0, eta, nt, x, y)
        meta.update(quantity="P", time=t, method="kernel-derivatives")
        return PhaseSpaceGrid(x, y, values, meta)

    if is_regular(p0):
        values, err = _convolve_regular(p0, eta, nt, x, y, tol)
        meta.update(quantity="P", time=t, method="quadrature", quadrature_error=err)
        return PhaseSpaceGrid(x, y, values, meta)

    raise TypeError(f"cannot convolve a singular descriptor of kind {p0.kind!r}")


def _convolve_laplacian_delta(p0: LaplacianDeltaP, eta, nt, x, y) -> np.ndarray:
    """Mixed Wirtinger delta derivative against the kernel, by parts.

    With g(b) = e^{|b|^2 - |c|^2} K(alpha, b), the second mixed derivative at
    the centre c gives K(alpha, c) [(1 - eta^2/nt) + |c + eta(alpha - eta c)/nt|^2].
    """
    if p0.arg_scale != 1.0 or p0.weight != 1.0:
        raise ValueError("only the canonical (unscaled) descriptor can be convolved")
    c = p0.center
    alpha = x[:, None] + 1j * y[None, :]
    kernel = np.exp(-np.abs(alpha - eta * c) ** 2 / nt) / (math.pi * nt)
    shifted = c + eta * (alpha - eta * c) / nt
    poly = (1.0 - eta * eta / nt) + np.abs(shifted) ** 2
    return kernel * poly / (abs(c) ** 2 + 1.0)


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
