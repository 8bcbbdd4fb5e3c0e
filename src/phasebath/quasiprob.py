"""Quasiprobability transforms: characteristic functions, Gaussian smoothing,
and the symmetric-ordering distribution by displaced parity.

These are the verification bridge between the phase-space evolution engine and
the number-basis oracle.  The antinormal distribution Q(alpha) is the
bath map of ``descriptors`` at decay 1 and width 1, ``p.convolved(1.0, 1.0)``,
evaluated pointwise.  Q also equals (1/pi) <alpha|rho|alpha> computed from a
density matrix.  The command line writes W as ``p.convolved(1.0, 0.5)``; here
the Wigner function of a density matrix is its displaced parity on the window
of a pair of axes, the Fock-side reference that the tests and demos hold the
closed form to.  Every function that samples a grid takes its window as
``(x_axis, y_axis)`` and returns a ``PhaseSpaceGrid``, which validates it.
W and the characteristic function are one sum over the diagonals of
the density matrix, a Laguerre series in |xi|^2 per diagonal, summed once per
distinct |xi|^2 of an array of xi.  A scalar xi runs as a one-element array,
so it gives exactly the value of the same point in an array.
"""

from __future__ import annotations

import math
import warnings
from dataclasses import dataclass, field

import numpy as np

from .descriptors import _frozen_array, evaluate_p
from .fock import FockDensityMatrix

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

    ``values[i, j]`` belongs to alpha = x_axis[i] + 1j * y_axis[j].  The
    arrays are stored as read-only float copies, after validation.
    """

    x_axis: np.ndarray
    y_axis: np.ndarray
    values: np.ndarray
    meta: dict = field(default_factory=dict)

    def __post_init__(self):
        x, y, v = (_frozen_array(a) for a in (self.x_axis, self.y_axis, self.values))
        for axis in (x, y):
            steps = np.diff(axis)
            if axis.ndim != 1 or axis.size < 2 or np.any(steps <= 0):
                raise ValueError("axes must be strictly increasing 1-D arrays")
            if not np.allclose(steps, steps[0], rtol=1e-9, atol=0):
                raise ValueError("axes must be uniformly spaced")
        if v.shape != (x.size, y.size):
            raise ValueError("values shape must be (len(x_axis), len(y_axis))")
        if not np.all(np.isfinite(v)):
            raise ValueError("grid values must be finite")
        for name, arr in zip(("x_axis", "y_axis", "values"), (x, y, v)):
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

    and <n|D(xi)|n+k> is the same with (-xi*)^k.  Every value is bit for bit
    what a separate call at that xi returns.
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
    Pi is the parity (-1)^{a^dagger a} if ``parity`` and the identity if not."""
    cutoff = rho.cutoff
    shape = xi.shape
    # A scalar xi runs as a one-element array, on the same ufunc loops as an
    # array, so that both give the same bits.
    xi = xi.reshape(-1)
    x = np.abs(xi) ** 2
    # coeffs[k, n] = rho[n, n+k] sqrt(n! k!/(n+k)!), times (-1)^n with parity
    coeffs = np.zeros((cutoff, cutoff), dtype=complex)
    for k in range(cutoff):
        ratios = np.arange(1.0, cutoff - k) / np.arange(k + 1.0, cutoff)
        coeffs[k, : cutoff - k] = np.sqrt(np.cumprod(np.concatenate(([1.0], ratios)))) * rho.elements.diagonal(k)
    # Only the diagonals k with a nonzero coefficient contribute: from here
    # on, row j of coeffs is diagonal ks[j].
    ks = np.flatnonzero(coeffs.any(axis=1))
    coeffs = coeffs[ks]
    if parity:
        coeffs[:, 1::2] *= -1.0
    # The Laguerre sums depend on x alone: run them once per distinct x, for
    # every diagonal at once.  At step n only the diagonals k < cutoff - n
    # hold a row n, so the rest are dropped before their L_n^(k) is formed.
    radii, where = np.unique(x, return_inverse=True)
    total = np.zeros((ks.size, radii.size), dtype=complex)
    # L_{n-1}^(k)(x), L_n^(k)(x), one row per live diagonal k
    lag_prev, lag = np.zeros((ks.size, radii.size)), np.ones((ks.size, radii.size))
    lives, kcol = np.searchsorted(ks, cutoff - np.arange(cutoff)), ks[:, None]
    for n, live in enumerate(lives):
        k, lag_prev, lag = kcol[:live], lag_prev[:live], lag[:live]
        total[:live] += coeffs[:live, n, None] * lag
        lag_prev, lag = lag, ((2 * n + 1 + k - radii) * lag - (n + k) * lag_prev) / (n + 1)
    # xi^k / sqrt(k!) times e^{exponent x}, built up over k up to the last
    # nonzero diagonal.
    prefactor = np.exp(exponent * x)
    out = np.zeros_like(xi)
    sums = dict(zip(ks.tolist(), total))
    for k in range(int(ks[-1]) + 1):
        if k:
            prefactor = prefactor * xi / math.sqrt(k)
        if k not in sums:
            continue
        term = prefactor * sums[k][where]
        # rho is Hermitian, so diagonal -k adds the conjugate, times (-1)^k
        # without parity; with parity that sign cancels against Pi's.
        out += term + (1 if parity else (-1) ** k) * np.conj(term) if k else term
    return out.reshape(shape)


def p_to_q_grid(p, x_axis, y_axis) -> PhaseSpaceGrid:
    """Antinormal distribution of a descriptor on a grid: the unit-width
    kernel without decay, Q(alpha) = (1/pi) integral P(beta) e^{-|alpha-beta|^2} d2beta."""
    x = np.asarray(x_axis, dtype=float)
    y = np.asarray(y_axis, dtype=float)
    values = evaluate_p(p.convolved(1.0, 1.0), x[:, None], y[None, :])
    return PhaseSpaceGrid(x, y, values, {"quantity": "Q"})


def wigner_from_characteristic(rho: FockDensityMatrix, x_axis, y_axis) -> PhaseSpaceGrid:
    """Symmetric-ordering distribution of rho at alpha = x + iy for x in
    ``x_axis`` and y in ``y_axis``, by displaced parity:
    W(alpha) = (2/pi) Tr[rho D(2 alpha) (-1)^{a^dagger a}] (Royer, PRA 15, 449
    (1977); Cahill & Glauber, Phys. Rev. 177, 1882 (1969)).

    This is chi_symmetric's Laguerre sum at xi = 2 alpha with the sign (-1)^n
    on row n of each diagonal, and it is real.  D's elements are exact in the
    truncated basis, so W is exact for the given rho.
    """
    x = np.asarray(x_axis, dtype=float)
    y = np.asarray(y_axis, dtype=float)
    xi = 2.0 * (x[:, None] + 1j * y[None, :])
    values = (2.0 / math.pi) * _displaced_trace(rho, xi, -0.5, parity=True).real
    return PhaseSpaceGrid(x, y, values, {"quantity": "W"})
