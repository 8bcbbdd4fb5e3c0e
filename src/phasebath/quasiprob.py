"""Quasiprobability transforms: characteristic functions, Gaussian smoothing,
and the Fourier route to the symmetric-ordering distribution.

These are the verification bridge between the phase-space evolution engine and
the number-basis integrator.  The antinormal distribution Q(alpha) is the
bath map of ``descriptors`` at decay 1 and width 1, ``p.convolved(1.0, 1.0)``,
evaluated pointwise; a sampled P is smoothed by quadrature instead.  Q also
equals (1/pi) <alpha|rho|alpha> computed from a density matrix, and the
Wigner function comes from the density matrix alone, by Fourier transform of
the symmetric characteristic function.
"""

from __future__ import annotations

import math
import warnings
from dataclasses import dataclass, field

import numpy as np

from .core import check_amplitude
from .descriptors import SampledGridP, checked_grid, evaluate_p
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


def _q_values(p, X: np.ndarray, Y: np.ndarray) -> np.ndarray:
    """Q(alpha) = (1/pi) integral P(beta) e^{-|alpha-beta|^2} d2beta."""
    if isinstance(p, PhaseSpaceGrid):
        p = SampledGridP(p.x_axis, p.y_axis, p.values)
    if not isinstance(p, SampledGridP):
        # The unit-width kernel without decay is exactly this smoothing.
        return evaluate_p(p.convolved(1.0, 1.0), X, Y)
    xs, wx = gauss_legendre_nodes(float(p.x_axis[0]), float(p.x_axis[-1]), 4 * p.x_axis.size)
    ys, wy = gauss_legendre_nodes(float(p.y_axis[0]), float(p.y_axis[-1]), 4 * p.y_axis.size)
    pv = evaluate_p(p, xs[:, None], ys[None, :])
    kx = np.exp(-((np.asarray(X, dtype=float).ravel()[:, None] - xs[None, :]) ** 2)) * wx
    ky = np.exp(-((np.asarray(Y, dtype=float).ravel()[:, None] - ys[None, :]) ** 2)) * wy
    out = kx @ pv @ ky.T / math.pi
    return out.reshape(np.broadcast(X, Y).shape) if np.ndim(X) else out[0, 0]


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
            f"norm mismatch {mass - 1.0:+.3e}: the window holds {mass:.6f} of the unit "
            "mass, so W extends past it (enlarge --grid) or the transform aliases "
            "(refine the grid spacing)"
        )
    return out
