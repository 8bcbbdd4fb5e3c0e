"""Quasiprobability transforms: characteristic functions, Gaussian smoothing,
and the Fourier route to the symmetric-ordering distribution.

These are the verification bridge between the phase-space evolution engine and
the number-basis oracle.  The antinormal distribution Q(alpha) is the
bath map of ``descriptors`` at decay 1 and width 1, ``p.convolved(1.0, 1.0)``,
evaluated pointwise; a sampled P is smoothed by quadrature instead.  Q also
equals (1/pi) <alpha|rho|alpha> computed from a density matrix, and the
Wigner function comes from the density matrix alone, by Fourier transform of
the symmetric characteristic function.  That function is summed over the
diagonals of the density matrix as a Laguerre series in |xi|^2, for a whole
grid of xi at once: the Laguerre sums run once per distinct |xi|^2 and are
gathered onto the grid, with exactly the values a per-point sum gives.
"""

from __future__ import annotations

import math
import warnings
from dataclasses import dataclass, field

import numpy as np

from .descriptors import SampledGridP, checked_grid, evaluate_p
from .fock import FockDensityMatrix
from .quadrature import gauss_legendre_nodes

__all__ = [
    "PhaseSpaceGrid",
    "characteristic_function",
    "p_to_q_grid",
    "wigner_from_characteristic",
]

# chi_ordering(xi) = chi_normal(xi) e^{c |xi|^2}, with c per ordering
_ORDER_EXPONENT = {"normal": 0.0, "symmetric": -0.5, "antinormal": -1.0}
ORDERINGS = tuple(_ORDER_EXPONENT)


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


def characteristic_function(rho: FockDensityMatrix, xi, ordering: str = "normal"):
    """Trace of rho against the ordered displacement exponential, at a scalar
    or an array of xi.

    The three orderings are related by chi_normal = chi_symmetric e^{|xi|^2/2}
    = chi_antinormal e^{|xi|^2}.  chi_symmetric = Tr[rho D(xi)] is summed one
    diagonal k = m - n at a time (Cahill & Glauber, Phys. Rev. 177, 1857
    (1969)): with x = |xi|^2,

        <n+k|D(xi)|n> = sqrt(n!/(n+k)!) xi^k e^{-x/2} L_n^(k)(x),

    and <n|D(xi)|n+k> is the same with (-xi*)^k.  One diagonal after
    another, the Laguerre recurrence runs once per distinct |xi|^2 in the xi
    array, and its sums are gathered back onto the array.  Every value is
    bit for bit what a separate call at that xi returns.
    """
    if ordering not in ORDERINGS:
        raise ValueError(f"ordering must be one of {ORDERINGS}, got {ordering!r}")
    xi = np.asarray(xi, dtype=complex)
    if not np.all(np.isfinite(xi)):
        raise ValueError("xi must have finite components")
    cutoff = rho.cutoff
    x = np.abs(xi) ** 2
    if np.max(x, initial=0.0) >= cutoff / 4.0:
        warnings.warn(
            f"|xi|^2 = {np.max(x):.2f} close to the cutoff {cutoff}; "
            "truncation error may be significant",
            RuntimeWarning,
            stacklevel=2,
        )
    el = np.asarray(rho.elements)
    # The Laguerre sums depend on x alone: run them once per distinct x.
    radii, where = np.unique(x, return_inverse=True)
    where = where.reshape(x.shape)  # numpy before 2.0 returns it flat
    # xi^k / sqrt(k!) times e^{c x}, built up over k.
    prefactor = np.exp(_ORDER_EXPONENT[ordering] * x)
    chi = np.zeros_like(xi)
    for k in range(cutoff):
        if k:
            prefactor = prefactor * xi / math.sqrt(k)
        ratios = np.arange(1.0, cutoff - k) / np.arange(k + 1.0, cutoff)
        # rho[n, n+k] sqrt(n! k!/(n+k)!), paired with <n+k|D|n>
        coeffs = np.sqrt(np.cumprod(np.concatenate(([1.0], ratios)))) * el.diagonal(k)
        total = np.zeros_like(radii, dtype=complex)
        lag_prev, lag = np.zeros_like(radii), np.ones_like(radii)  # L_{n-1}^(k)(x), L_n^(k)(x)
        for n, coeff in enumerate(coeffs):
            total += coeff * lag
            lag_prev, lag = lag, ((2 * n + 1 + k - radii) * lag - (n + k) * lag_prev) / (n + 1)
        # np.multiply keeps a scalar xi on the same ufunc loop as an array.
        term = np.multiply(prefactor, total[where])
        # rho is Hermitian, so diagonal -k adds (-1)^k times the conjugate.
        chi += term + (-1) ** k * np.conj(term) if k else term
    return complex(chi) if chi.ndim == 0 else chi


def _q_values(p, X: np.ndarray, Y: np.ndarray) -> np.ndarray:
    """Q(alpha) = (1/pi) integral P(beta) e^{-|alpha-beta|^2} d2beta on the
    grid of an x column X and a y row Y."""
    if isinstance(p, PhaseSpaceGrid):
        p = SampledGridP(p.x_axis, p.y_axis, p.values)
    if not isinstance(p, SampledGridP):
        # The unit-width kernel without decay is exactly this smoothing.
        return evaluate_p(p.convolved(1.0, 1.0), X, Y)
    xs, wx = gauss_legendre_nodes(float(p.x_axis[0]), float(p.x_axis[-1]), 4 * p.x_axis.size)
    ys, wy = gauss_legendre_nodes(float(p.y_axis[0]), float(p.y_axis[-1]), 4 * p.y_axis.size)
    pv = evaluate_p(p, xs[:, None], ys[None, :])
    kx = np.exp(-((X.ravel()[:, None] - xs[None, :]) ** 2)) * wx
    ky = np.exp(-((Y.ravel()[:, None] - ys[None, :]) ** 2)) * wy
    return kx @ pv @ ky.T / math.pi


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

    # The truncation warning is redundant here: the mass check below catches
    # any cutoff that is genuinely too small for this grid.
    with warnings.catch_warnings():
        warnings.simplefilter("ignore", RuntimeWarning)
        chi = characteristic_function(rho, xi[:, None] + 1j * xi[None, :], "symmetric")

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
