"""Quasiprobability transforms: characteristic functions, Gaussian smoothing,
and the Fourier route to the symmetric-ordering distribution.

These are the verification bridge between the phase-space evolution engine and
the number-basis integrator: the antinormal distribution Q(alpha) is the
unit-Gaussian smoothing of the diagonal weight function P, and also equals
(1/pi) <alpha|rho|alpha> computed from a density matrix.
"""

from __future__ import annotations

import math
import warnings
from dataclasses import dataclass, field

import numpy as np

from .core import check_amplitude
from .descriptors import (
    GaussianP,
    GaussianPolyP,
    LaplacianDeltaP,
    SampledGridP,
    checked_grid,
    evaluate_p,
    gaussian_density,
)
from .fock import FockDensityMatrix
from .quadrature import gauss_legendre_nodes

__all__ = [
    "PhaseSpaceGrid",
    "characteristic_function",
    "p_to_q_grid",
    "p_to_q_smoothing",
    "wigner_from_characteristic",
]

ORDERINGS = ("normal", "symmetric", "antinormal")


@dataclass(frozen=True, eq=False)
class PhaseSpaceGrid:
    """Scalar field sampled on a uniform rectangular phase-space grid.

    ``values[i, j]`` belongs to alpha = x_axis[i] + 1j * y_axis[j].
    """

    x_axis: np.ndarray
    y_axis: np.ndarray
    values: np.ndarray
    meta: dict = field(default_factory=dict)

    def __post_init__(self):
        arrays = checked_grid(self.x_axis, self.y_axis, self.values)
        for name, arr in zip(("x_axis", "y_axis", "values"), arrays):
            object.__setattr__(self, name, arr)

    def mass(self) -> float:
        """Trapezoid integral of the field over the grid."""
        return float(np.trapezoid(np.trapezoid(self.values, self.y_axis, axis=1), self.x_axis))

    def meshgrid(self):
        return np.meshgrid(self.x_axis, self.y_axis, indexing="ij")


def _ordered_exponentials(xi: complex, cutoff: int):
    """Matrices for exp(xi a^dag) (lower triangular) and exp(-xi* a) (upper).

    <m| e^{z a^dag} |n> = sqrt(m!/n!) z^{m-n}/(m-n)! for m >= n; the lowering
    exponential is the transpose pattern with z = -xi*.
    """
    idx = np.arange(cutoff)
    logfact = np.concatenate(([0.0], np.cumsum(np.log(np.arange(1.0, cutoff)))))
    diff = idx[:, None] - idx[None, :]  # row - column
    k = np.where(diff >= 0, diff, 0)

    def tri(z: complex) -> np.ndarray:
        mat = np.exp(0.5 * (logfact[:, None] - logfact[None, :]) - logfact[k]) * z**k
        return np.where(diff >= 0, mat, 0.0)

    return tri(xi), tri(-np.conj(xi)).T


def characteristic_function(
    rho: FockDensityMatrix, xi, ordering: str = "normal"
) -> complex:
    """Trace of rho against the ordered displacement exponential.

    The three orderings are related by chi_normal = chi_symmetric e^{|xi|^2/2}
    = chi_antinormal e^{|xi|^2}.
    """
    if ordering not in ORDERINGS:
        raise ValueError(f"ordering must be one of {ORDERINGS}, got {ordering!r}")
    xi = check_amplitude(xi)
    if abs(xi) ** 2 >= rho.cutoff / 4.0:
        warnings.warn(
            f"|xi|^2 = {abs(xi)**2:.2f} close to the cutoff {rho.cutoff}; "
            "truncation error may be significant",
            RuntimeWarning,
            stacklevel=2,
        )
    raising, lowering = _ordered_exponentials(xi, rho.cutoff)
    chi = complex(np.sum((rho.elements @ raising) * lowering.T))
    if ordering == "symmetric":
        chi *= math.exp(-0.5 * abs(xi) ** 2)
    elif ordering == "antinormal":
        chi *= math.exp(-abs(xi) ** 2)
    return chi


def _moments_about(mu: np.ndarray, s2: float, kmax: int) -> np.ndarray:
    """E[(mu + Z)^k] for Z ~ N(0, s2), k = 0..kmax, by the standard recurrence."""
    out = np.empty((kmax + 1,) + mu.shape)
    out[0] = 1.0
    if kmax >= 1:
        out[1] = mu
    for k in range(2, kmax + 1):
        out[k] = mu * out[k - 1] + (k - 1) * s2 * out[k - 2]
    return out


def _gauss_smooth_axis_poly(x: np.ndarray, width: float, kmax: int) -> np.ndarray:
    """I_k(x) = integral u^k e^{-u^2/width} e^{-(x-u)^2} du for k = 0..kmax."""
    wp1 = width + 1.0
    mu = x * width / wp1
    s2 = 0.5 * width / wp1
    moments = _moments_about(mu, s2, kmax)
    envelope = np.exp(-x * x / wp1) * math.sqrt(math.pi * width / wp1)
    return moments * envelope


def _q_values(p, X: np.ndarray, Y: np.ndarray) -> np.ndarray:
    """Q(alpha) = (1/pi) integral P(beta) e^{-|alpha-beta|^2} d2beta."""
    if isinstance(p, PhaseSpaceGrid):
        p = SampledGridP(p.x_axis, p.y_axis, p.values)
    if isinstance(p, GaussianP):
        # The unit-width smoothing kernel adds 1 to each signed P width.
        u, v = X - p.center.real, Y - p.center.imag
        return gaussian_density(u, v, p.width_x + 1.0, p.width_y + 1.0)
    if isinstance(p, GaussianPolyP):
        ni, nj = p.coeffs.shape
        ix = _gauss_smooth_axis_poly(X - p.center.real, p.width, ni - 1)
        iy = _gauss_smooth_axis_poly(Y - p.center.imag, p.width, nj - 1)
        acc = np.zeros_like(np.asarray(X, dtype=float))
        for i in range(ni):
            for j in range(nj):
                if p.coeffs[i, j] != 0.0:
                    acc = acc + p.coeffs[i, j] * ix[i] * iy[j]
        return acc / math.pi
    if isinstance(p, LaplacianDeltaP):
        if p.arg_scale != 1.0 or p.weight != 1.0:
            raise ValueError("only the canonical (unscaled) descriptor is supported")
        alpha = np.asarray(X, dtype=float) + 1j * np.asarray(Y, dtype=float)
        overlap = np.exp(-np.abs(alpha - p.center) ** 2)
        return np.abs(alpha) ** 2 * overlap / (math.pi * (abs(p.center) ** 2 + 1.0))
    if isinstance(p, SampledGridP):
        xs, wx = gauss_legendre_nodes(float(p.x_axis[0]), float(p.x_axis[-1]), 4 * p.x_axis.size)
        ys, wy = gauss_legendre_nodes(float(p.y_axis[0]), float(p.y_axis[-1]), 4 * p.y_axis.size)
        pv = evaluate_p(p, xs[:, None], ys[None, :])
        kx = np.exp(-((np.asarray(X, dtype=float).ravel()[:, None] - xs[None, :]) ** 2)) * wx
        ky = np.exp(-((np.asarray(Y, dtype=float).ravel()[:, None] - ys[None, :]) ** 2)) * wy
        out = kx @ pv @ ky.T / math.pi
        return out.reshape(np.broadcast(X, Y).shape) if np.ndim(X) else out[0, 0]
    raise TypeError(f"unsupported input {type(p).__name__}")


def p_to_q_smoothing(p, alpha) -> float:
    """Antinormal distribution value at one phase-space point."""
    alpha = check_amplitude(alpha)
    value = _q_values(p, np.float64(alpha.real), np.float64(alpha.imag))
    return float(value)


def p_to_q_grid(p, x_axis, y_axis, meta: dict | None = None) -> PhaseSpaceGrid:
    """Antinormal distribution of a weight function, on a grid."""
    x = np.asarray(x_axis, dtype=float)
    y = np.asarray(y_axis, dtype=float)
    values = _q_values(p, x[:, None], y[None, :])
    out_meta = {"quantity": "Q"}
    if meta:
        out_meta.update(meta)
    return PhaseSpaceGrid(x, y, values, out_meta)


def wigner_from_characteristic(rho: FockDensityMatrix, grid: PhaseSpaceGrid) -> PhaseSpaceGrid:
    """Symmetric-ordering distribution by Fourier transform of chi_symmetric.

    W(x + iy) = (1/pi^2) int d2xi exp(2i (y xi_r - x xi_i)) chi(xi).  The
    conjugate grid extends to the input grid's Nyquist limit pi/(2 dalpha) and
    is spaced to keep the back-transform alias-free over twice the grid extent.
    """
    x, y = grid.x_axis, grid.y_axis
    dal = float(min(np.diff(x)[0], np.diff(y)[0]))
    extent = math.pi / (2.0 * dal)
    amax = float(max(np.max(np.abs(x)), np.max(np.abs(y))))
    dxi = math.pi / (2.0 * (2.0 * amax + 4.0))
    n = max(2 * int(math.ceil(extent / dxi)) + 1, 33)
    xi = np.linspace(-extent, extent, n)
    wxi = np.full(n, xi[1] - xi[0])
    wxi[0] = wxi[-1] = 0.5 * (xi[1] - xi[0])

    chi = np.empty((n, n), dtype=complex)
    # Per-point truncation warnings are redundant here: the mass check below
    # catches any cutoff that is genuinely too small for this grid.
    with warnings.catch_warnings():
        warnings.simplefilter("ignore", RuntimeWarning)
        for p_idx in range(n):
            for q_idx in range(n):
                chi[p_idx, q_idx] = characteristic_function(
                    rho, complex(xi[p_idx], xi[q_idx]), "symmetric"
                )

    phase_x = np.exp(-2j * np.outer(x, xi)) * wxi  # sums over xi_i
    phase_y = np.exp(2j * np.outer(y, xi)) * wxi  # sums over xi_r
    w_complex = phase_x @ chi.T @ phase_y.T / math.pi**2
    residue = float(np.max(np.abs(w_complex.imag)))
    if residue > 1e-8:
        raise RuntimeError(f"transform left an imaginary residue of {residue:.3e}")
    out = PhaseSpaceGrid(x, y, w_complex.real, {"quantity": "W"})
    mass = out.mass()
    if abs(mass - 1.0) > 1e-4:
        raise RuntimeError(
            f"norm mismatch {mass - 1.0:+.3e}: aliasing suspected; enlarge the "
            "grid extent or refine its spacing"
        )
    return out
