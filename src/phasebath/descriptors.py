"""Symbolic phase-space weight-function descriptors and exact operations on them.

A descriptor is one of:

* ``GaussianP`` -- Gaussian with signed per-axis widths (the coherent,
  thermal, displaced-thermal and squeezed-coherent forms at every time).
* ``GaussianPolyP`` -- polynomial-times-Gaussian, polynomial in coordinates
  centred on the Gaussian (the photon-added thermal form, and every
  photon-added form once the kernel has a width).
* ``LaplacianDeltaP`` -- exponentially weighted mixed second derivative of a
  delta, rescaled by a pure decay (the photon-added coherent form before the
  kernel has a width).

Each kind has one operation, ``convolved(decay_factor, width)``:
its exact image under the Gaussian kernel that contracts the centre by the
decay factor eta and adds ``width`` to the P width,

    P'(alpha) = (1/(pi width)) integral P(beta) exp(-|alpha - eta beta|^2 / width) d2beta.

Width 0 is the pure decay P(alpha/eta)/eta^2.  The bath at time t is
(eta, nbar_t), and (1, 1) smooths P into the antinormal distribution Q
(Cahill & Glauber, Phys. Rev. 177, 1882 (1969)).

Regular descriptors are ordinary functions and can be evaluated pointwise.
A ``GaussianP`` with a width <= 0 and a ``LaplacianDeltaP`` are distributions
and only enter integrals analytically; their image at width 1, the Q
function, is always regular.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from typing import ClassVar

import numpy as np
from numpy.polynomial import polynomial as npoly

from .core import check_amplitude

__all__ = [
    "GaussianP",
    "GaussianPolyP",
    "LaplacianDeltaP",
    "evaluate_p",
    "integral_p",
    "is_regular",
    "singular_part",
    "rescale_zero_temperature",
    "fock_populations",
]

_NORMALIZATION_TOL = 1e-8
# Gauss-Legendre nodes per axis for the population integrals.
_POPULATION_NODES = 240


def _frozen_array(values, dtype=float) -> np.ndarray:
    arr = np.array(values, dtype=dtype)
    arr.setflags(write=False)
    return arr


@dataclass(frozen=True)
class GaussianP:
    """P(alpha) proportional to exp(-u^2/width_x - v^2/width_y), u + iv = alpha - center.

    The per-axis widths are signed.  A zero width is a point mass along that
    axis, and a negative width is a singular distribution whose Q, the
    Gaussian of widths width + 1, is still regular.  The quadrature
    variances are 1/4 + width/2, so each width must exceed -1/2.
    """

    center: complex
    width_x: float
    width_y: float
    kind: ClassVar[str] = "gaussian"

    def __post_init__(self):
        object.__setattr__(self, "center", check_amplitude(self.center))
        for name in ("width_x", "width_y"):
            width = float(getattr(self, name))
            if not (math.isfinite(width) and width > -0.5):
                raise ValueError(f"{name} must be finite and exceed -1/2, got {width}")
            object.__setattr__(self, name, width)

    @property
    def width(self) -> float:
        """The larger per-axis width, which sizes quadrature boxes."""
        return max(self.width_x, self.width_y)

    def convolved(self, decay_factor: float, width: float) -> "GaussianP":
        """Image under the bath kernel: centre eta c, each width eta^2 w + width."""
        eta2 = decay_factor * decay_factor
        return GaussianP(
            self.center * decay_factor, self.width_x * eta2 + width, self.width_y * eta2 + width
        )


def _smoothing_matrix(slope: float, variance: float, kmax: int) -> np.ndarray:
    """Row k holds the power-series coefficients in x of E[(slope x + Z)^k],
    Z ~ N(0, variance), for k = 0..kmax, by the standard moment recurrence."""
    out = np.zeros((kmax + 1, kmax + 1))
    out[0, 0] = 1.0
    for k in range(1, kmax + 1):
        out[k, 1:] = slope * out[k - 1, :-1]
        if k >= 2:
            out[k] += (k - 1) * variance * out[k - 2]
    return out


@dataclass(frozen=True, eq=False)
class GaussianPolyP:
    """P(alpha) = poly(u, v) exp(-(u^2+v^2)/width), u + iv = alpha - center.

    ``coeffs[i, j]`` multiplies u^i v^j.  Must integrate to 1.
    """

    center: complex
    width: float
    coeffs: np.ndarray
    kind: ClassVar[str] = "gaussian-polynomial"

    def __post_init__(self):
        object.__setattr__(self, "center", check_amplitude(self.center))
        object.__setattr__(self, "coeffs", _frozen_array(self.coeffs))
        if not (math.isfinite(self.width) and self.width > 0):
            raise ValueError(f"width must be positive, got {self.width}")
        if self.coeffs.ndim != 2:
            raise ValueError("coeffs must be a 2-D array")
        mass = integral_p(self)
        if abs(mass - 1.0) > _NORMALIZATION_TOL:
            raise ValueError(f"descriptor integrates to {mass!r}, expected 1")

    def convolved(self, decay_factor: float, width: float) -> "GaussianPolyP":
        """Image under the bath kernel: centre eta c, Gaussian width T = eta^2 W + width.

        Per axis, with x measured from eta c, integral u^k e^{-u^2/W}
        e^{-(x - eta u)^2/width} du = sqrt(pi W width / T) e^{-x^2/T}
        E[(a x + Z)^k], where a = eta W / T and Z ~ N(0, W width / (2 T)).
        """
        eta, w0 = decay_factor, self.width
        total = w0 * eta * eta + width
        if not total > 0:
            raise ValueError("a fully decayed state has no image under a zero-width kernel")
        ni, nj = self.coeffs.shape
        m = _smoothing_matrix(eta * w0 / total, 0.5 * w0 * width / total, max(ni, nj) - 1)
        coeffs = (w0 / total) * (m[:ni, :ni].T @ self.coeffs @ m[:nj, :nj])
        return GaussianPolyP(self.center * eta, total, coeffs)


@dataclass(frozen=True)
class LaplacianDeltaP:
    """Weighted mixed delta derivative (photon-added coherent state) after pure decay.

    P(alpha) = P_c(alpha / decay) / decay^2 with c = center and
    P_c(alpha) = e^{|alpha|^2 - |c|^2}/(|c|^2 + 1) d^2/(d alpha d alpha*) delta2(alpha - c),
    so its mass sits at decay * c.
    """

    center: complex
    decay: float = 1.0
    kind: ClassVar[str] = "delta-derivative-series"

    def __post_init__(self):
        object.__setattr__(self, "center", check_amplitude(self.center))
        if not (math.isfinite(self.decay) and self.decay > 0):
            raise ValueError("decay must be positive")

    def convolved(self, decay_factor: float, width: float):
        """Image under the bath kernel K = e^{-|alpha - eta beta|^2/width}/(pi width).

        With eta the accumulated decay, integration by parts gives
        K(alpha, c) [(1 - eta^2/width) + |c + eta (alpha - eta c)/width|^2] / (|c|^2 + 1),
        a polynomial-times-Gaussian about eta c.  A zero width only decays.
        """
        eta = self.decay * decay_factor
        if width == 0.0:
            return LaplacianDeltaP(self.center, eta)
        c = self.center
        pref = 1.0 / (math.pi * width * (abs(c) ** 2 + 1.0))
        amp = eta / width
        const = 1.0 - eta * eta / width
        # |amp (u + iv) + c|^2 + const, in kernel-centred coordinates.
        coeffs = np.zeros((3, 3))
        coeffs[0, 0] = pref * (abs(c) ** 2 + const)
        coeffs[1, 0] = pref * 2.0 * amp * c.real
        coeffs[0, 1] = pref * 2.0 * amp * c.imag
        coeffs[2, 0] = pref * amp * amp
        coeffs[0, 2] = pref * amp * amp
        return GaussianPolyP(c * eta, width, coeffs)


def singular_part(desc) -> str | None:
    """What makes the descriptor a distribution, or None for an ordinary function."""
    if isinstance(desc, LaplacianDeltaP):
        return "a delta derivative"
    if isinstance(desc, GaussianP) and min(desc.width_x, desc.width_y) < 0.0:
        return "a negative width"
    if isinstance(desc, GaussianP) and min(desc.width_x, desc.width_y) == 0.0:
        return "a point mass"
    return None


def is_regular(desc) -> bool:
    """True if the descriptor is an ordinary function of alpha."""
    return singular_part(desc) is None


def evaluate_p(desc, x, y) -> np.ndarray:
    """Evaluate a regular descriptor at alpha = x + iy (arrays broadcast)."""
    x = np.asarray(x, dtype=float)
    y = np.asarray(y, dtype=float)
    if isinstance(desc, GaussianPolyP):
        # Horner in u on u's own shape, then in v on the broadcast grid: the
        # same operations, in the same order, as polyval2d on broadcast u, v.
        u, v = x - desc.center.real, y - desc.center.imag
        poly = npoly.polyval(v, npoly.polyval(u, desc.coeffs), tensor=False)
        return poly * np.exp(-(u * u + v * v) / desc.width)
    if isinstance(desc, GaussianP) and is_regular(desc):
        # Written so that equal widths give exp(-(u^2 + v^2)/w) / (pi w) exactly.
        u, v = x - desc.center.real, y - desc.center.imag
        ratio = desc.width_x / desc.width_y
        return np.exp(-(u * u + v * v * ratio) / desc.width_x) * (
            1.0 / (math.pi * math.sqrt(desc.width_x * desc.width_y))
        )
    raise TypeError(f"descriptor of kind {desc.kind!r} is singular; cannot evaluate pointwise")


def _gaussian_1d_moments(width: float, kmax: int) -> np.ndarray:
    """integral u^k exp(-u^2/width) du for k = 0..kmax (zero for odd k)."""
    out = np.zeros(kmax + 1)
    for k in range(0, kmax + 1, 2):
        out[k] = width ** ((k + 1) / 2) * math.gamma((k + 1) / 2)
    return out


def integral_p(desc) -> float:
    """Total mass of the descriptor over the whole phase plane."""
    if isinstance(desc, GaussianPolyP):
        ni, nj = desc.coeffs.shape
        gi = _gaussian_1d_moments(desc.width, ni - 1)
        gj = _gaussian_1d_moments(desc.width, nj - 1)
        return float(gi @ desc.coeffs @ gj)
    if isinstance(desc, (GaussianP, LaplacianDeltaP)):
        # Normalized by construction; the bath kernel preserves the mass.
        return 1.0
    raise TypeError(f"unsupported descriptor {type(desc).__name__}")


def rescale_zero_temperature(desc, decay_factor: float):
    """Pure-decay map P(alpha) -> P(alpha / eta) / eta^2 with eta = decay_factor.

    This is the bath kernel of zero width; it preserves total mass and maps
    every closed-form descriptor kind onto its own kind.
    """
    eta = float(decay_factor)
    if not (0 < eta <= 1):
        raise ValueError(f"decay_factor must lie in (0, 1], got {decay_factor}")
    return desc.convolved(eta, 0.0)


def fock_populations(desc, cutoff: int) -> np.ndarray:
    """Number-state populations <k|rho|k> of the state described by ``desc``.

    p_k = integral P(alpha) e^{-|alpha|^2} |alpha|^{2k} / k! d2alpha,
    by tensor Gauss-Legendre quadrature for regular kinds and in closed form
    for a point mass (Poissonian weights).
    """
    if cutoff < 1:
        raise ValueError("cutoff must be >= 1")
    ks = np.arange(cutoff)
    if isinstance(desc, GaussianP) and desc.width_x == desc.width_y == 0.0:
        nsq = abs(desc.center) ** 2
        if nsq == 0.0:
            out = np.zeros(cutoff)
            out[0] = 1.0
            return out
        logp = ks * math.log(nsq) - nsq - [math.lgamma(k + 1) for k in ks]
        return np.exp(logp)
    if not is_regular(desc):
        raise TypeError(f"cannot take populations of singular kind {desc.kind!r}")
    reach = 8.0 * math.sqrt(desc.width) + math.sqrt(cutoff) + 4.0
    xs, wx = np.polynomial.legendre.leggauss(_POPULATION_NODES)
    xg = desc.center.real + reach * xs
    yg = desc.center.imag + reach * xs
    w2 = np.outer(wx, wx) * reach * reach
    X, Y = np.meshgrid(xg, yg, indexing="ij")
    pvals = evaluate_p(desc, X, Y)
    r2 = X * X + Y * Y
    logs = np.log(np.maximum(r2, 1e-300))
    out = np.empty(cutoff)
    lgam = np.array([math.lgamma(k + 1) for k in ks])
    for k in ks:
        weight = np.exp(k * logs - r2 - lgam[k])
        out[k] = float(np.sum(w2 * pvals * weight))
    return out
