"""Quasiprobability transforms: characteristic functions, Gaussian smoothing,
and the symmetric-ordering distribution by displaced parity.

These are the verification bridge between the phase-space evolution engine and
the number-basis oracle.  The antinormal distribution Q(alpha) is the
bath map of ``descriptors`` at decay 1 and width 1, ``p.convolved(1.0, 1.0)``,
evaluated pointwise; a sampled P is smoothed by quadrature instead.  Q also
equals (1/pi) <alpha|rho|alpha> computed from a density matrix, and the
Wigner function is the density matrix's displaced parity at the grid's own
points.  W and the characteristic function are one sum over the diagonals of
the density matrix, a Laguerre series in |xi|^2 whose recurrence runs for all
diagonals at once in three rotating buffers, once per distinct |xi|^2 of an
array of xi.  The sum over the diagonals k is then assembled at each xi by
Horner's rule in xi/|xi|, with |xi|^k/sqrt(k!) folded into the per-|xi|^2
sums; for chi, the diagonals -k add the conjugate of the Horner sum at -xi.
A scalar xi runs as a one-element array, so it gives exactly the value of
the same point in an array.
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

    and <n|D(xi)|n+k> is the same with (-xi*)^k.  The Laguerre recurrence
    runs once per distinct |xi|^2 in the xi array, for all diagonals at once,
    and its sums are gathered back onto the array.  Every value is bit for
    bit what a separate call at that xi returns.
    """
    if ordering not in ORDERINGS:
        raise ValueError(f"ordering must be one of {ORDERINGS}, got {ordering!r}")
    xi = np.asarray(xi, dtype=complex)
    if not np.all(np.isfinite(xi)):
        raise ValueError("xi must have finite components")
    x = np.abs(xi) ** 2
    if np.max(x, initial=0.0) >= rho.cutoff / 4.0:
        warnings.warn(
            f"|xi|^2 = {np.max(x):.2f} close to the cutoff {rho.cutoff}; "
            "truncation error may be significant",
            RuntimeWarning,
            stacklevel=2,
        )
    chi = _displaced_trace(rho, xi, _ORDER_EXPONENT[ordering], parity=False)
    return complex(chi) if chi.ndim == 0 else chi


def _displaced_trace(rho: FockDensityMatrix, xi: np.ndarray, exponent: float, parity: bool):
    """Tr[rho D(xi) Pi] e^{(exponent + 1/2)|xi|^2} on a complex xi array, where
    Pi is the parity (-1)^{a^dagger a} if ``parity`` and the identity if not.

    With S_k the Laguerre sum of diagonal k, the value is
    e^{exponent |xi|^2} sum_k xi^k / sqrt(k!) S_k plus the diagonals -k,
    summed by Horner's rule from the highest k down.
    """
    cutoff = rho.cutoff
    shape = xi.shape
    # A scalar xi runs as a one-element array, on the same ufunc loops as an
    # array, so that both give the same bits.
    xi = xi.reshape(-1)
    r = np.abs(xi)
    x = r**2
    levels = np.arange(cutoff)
    # coeffs[k, n] = rho[n, n+k] sqrt(n! k!/(n+k)!), times (-1)^n with parity
    ratios = np.ones((cutoff, cutoff))
    ratios[:, 1:] = levels[1:] / (levels[:, None] + levels[1:])
    tops = levels[:, None] + levels
    inside = tops < cutoff
    coeffs = np.zeros((cutoff, cutoff), dtype=complex)
    coeffs[inside] = rho.elements[np.broadcast_to(levels, tops.shape)[inside], tops[inside]]
    coeffs *= np.sqrt(np.cumprod(ratios, axis=1))
    # Only the diagonals k with a nonzero coefficient contribute: from here
    # on, row j of coeffs is diagonal ks[j].
    ks = np.flatnonzero(coeffs.any(axis=1))
    coeffs = coeffs[ks]
    if parity:
        coeffs[:, 1::2] *= -1.0
    # The Laguerre sums depend on x alone: run them once per distinct x, for
    # every diagonal at once.  At step n only the diagonals k < cutoff - n
    # hold a row n, so the rest are dropped before their L_n^(k) is formed.
    # L_{n+1}^(k) = (rise[n, k] - x/(n+1)) L_n^(k) - fall[n, k] L_{n-1}^(k),
    # in three buffers that take turns holding L_{n-1}, L_n and L_{n+1}.
    # The sums are kept as real and imaginary parts, which is cheaper than a
    # complex product with the real L_n^(k).
    radii, where = np.unique(x, return_inverse=True)
    real, imag = np.zeros((2, ks.size, radii.size))
    coeffs_real, coeffs_imag = coeffs.real.T.copy(), coeffs.imag.T.copy()
    steps = levels[:, None] + 1.0
    rise, fall = (2.0 * levels[:, None] + 1.0 + ks) / steps, (levels[:, None] + ks) / steps
    lag_prev, lag, lag_next = np.zeros((ks.size, radii.size)), np.ones((ks.size, radii.size)), np.empty_like(real)
    for n, live in enumerate(np.searchsorted(ks, cutoff - levels).tolist()):
        now, nxt, prev = lag[:live], lag_next[:live], lag_prev[:live]
        real[:live] += coeffs_real[n, :live, None] * now
        imag[:live] += coeffs_imag[n, :live, None] * now
        np.subtract(rise[n, :live, None], radii / steps[n], out=nxt)
        nxt *= now
        prev *= fall[n, :live, None]
        nxt -= prev
        lag_prev, lag, lag_next = lag, lag_next, lag_prev
    # scaled[j] = e^{exponent x} |xi|^k / sqrt(k!) S_k per distinct x, so that
    # the sum over diagonals is sum_k (xi/|xi|)^k scaled[j], by Horner.
    # rho is Hermitian, so diagonal -k adds the conjugate of diagonal k's
    # term times (-1)^k without parity: the conjugate of the Horner sum at
    # -xi/|xi|.  With parity that sign cancels against Pi's.
    norms = np.sqrt(radii)
    powers = np.ones((int(ks[-1]) + 1, radii.size))
    np.cumprod(norms / np.sqrt(np.arange(1.0, ks[-1] + 1.0))[:, None], axis=0, out=powers[1:])
    weights = powers[ks] * np.exp(exponent * radii)
    scaled = np.empty((ks.size, radii.size), dtype=complex)
    scaled.real, scaled.imag = real * weights, imag * weights
    phase = np.divide(xi, r, out=np.ones_like(xi), where=r > 0)
    rows = dict(zip(ks.tolist(), scaled))
    phases = (phase,) if parity else (phase, -phase)
    sums = [np.zeros_like(xi) for _ in phases]
    for k in range(int(ks[-1]), 0, -1):
        term = rows[k][where] if k in rows else 0.0
        # Out of place: numpy's in-place complex product on a one-element
        # array can round differently from the same product on a longer one.
        sums = [(h + term) * w for h, w in zip(sums, phases)]
    out = rows[0][where] if 0 in rows else np.zeros_like(xi)
    out += sums[0] + np.conj(sums[-1])
    return out.reshape(shape)


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
    """Symmetric-ordering distribution of rho at the points of ``grid``, by
    displaced parity: W(alpha) = (2/pi) Tr[rho D(2 alpha) (-1)^{a^dagger a}]
    (Royer, PRA 15, 449 (1977); Cahill & Glauber, Phys. Rev. 177, 1882 (1969)).

    This is chi_symmetric's Laguerre sum at xi = 2 alpha with the sign (-1)^n
    on row n of each diagonal, and it is real.  D's elements are exact in the
    truncated basis, so W is exact for the given rho.
    """
    x, y = grid.x_axis, grid.y_axis
    xi = 2.0 * (x[:, None] + 1j * y[None, :])
    values = (2.0 / math.pi) * _displaced_trace(rho, xi, -0.5, parity=True).real
    return PhaseSpaceGrid(x, y, values, {"quantity": "W"})
