"""Symbolic phase-space weight-function descriptors and exact operations on them.

One kind, ``GaussianP``, describes every catalog state at every time: a
Gaussian with signed per-axis widths and a short series of its derivatives,

    P = sum_ij coeffs[i, j] d_u^i d_v^j [G_wx(u) G_wy(v)],  u + iv = alpha - center,

with G_w(u) = exp(-u^2/w)/sqrt(pi w).  Coherent, thermal, displaced-thermal
and squeezed-coherent states are the bare Gaussian; the photon-added states
add a gradient and a Laplacian.

The descriptor has one operation, ``convolved(decay_factor, width)``: its
exact image under the Gaussian kernel that contracts the centre by the decay
factor eta and adds ``width`` to the P width,

    P'(alpha) = (1/(pi width)) integral P(beta) exp(-|alpha - eta beta|^2 / width) d2beta.

Derivatives commute with the kernel, and the contraction scales a derivative
of order i + j by eta^(i+j), so the image has centre eta c, widths
eta^2 w + width and coefficients coeffs[i, j] eta^(i+j).  Width 0 is the pure
decay P(alpha/eta)/eta^2.  The bath at time t is (eta, nbar_t), and (1, 1)
smooths P into the antinormal distribution Q (Cahill & Glauber, Phys.
Rev. 177, 1882 (1969)).

A descriptor with a width <= 0 is a distribution and only enters integrals
analytically; its image at width 1, the Q function, is always regular.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from .core import check_amplitude

__all__ = [
    "GaussianP",
    "evaluate_p",
    "normal_moments",
    "singular_part",
    "rescale_zero_temperature",
    "fock_populations",
]

_NORMALIZATION_TOL = 1e-8

#: most number-basis levels, or roots of unity, that a state may need
LEVEL_LIMIT = 1 << 20


def _frozen_array(values, dtype=float) -> np.ndarray:
    arr = np.array(values, dtype=dtype)
    arr.setflags(write=False)
    return arr


@dataclass(frozen=True, eq=False)
class GaussianP:
    """P = sum_ij coeffs[i, j] d_u^i d_v^j [G_wx(u) G_wy(v)], u + iv = alpha - center.

    The per-axis widths are signed.  A zero width is a point mass along that
    axis (a delta derivative when coeffs has more than one entry), and a
    negative width is a singular distribution whose Q, the same series at
    widths width + 1, is still regular.  The quadrature variances of the
    bare Gaussian are 1/4 + width/2, so each width must exceed -1/2.
    Derivatives integrate to zero, so the mass is coeffs[0, 0], which must be 1.
    """

    center: complex
    width_x: float
    width_y: float
    coeffs: np.ndarray = ((1.0,),)

    def __post_init__(self):
        object.__setattr__(self, "center", check_amplitude(self.center))
        for name in ("width_x", "width_y"):
            width = float(getattr(self, name))
            if not (math.isfinite(width) and width > -0.5):
                raise ValueError(f"{name} must be finite and exceed -1/2, got {width}")
            object.__setattr__(self, name, width)
        coeffs = _frozen_array(self.coeffs)
        if coeffs.ndim != 2 or not np.isfinite(coeffs).all():
            raise ValueError("coeffs must be a finite 2-D array")
        if abs(coeffs[0, 0] - 1.0) > _NORMALIZATION_TOL:
            raise ValueError(f"descriptor integrates to {coeffs[0, 0]!r}, expected 1")
        object.__setattr__(self, "coeffs", coeffs)

    @property
    def width(self) -> float:
        """The larger per-axis width, which sizes quadrature boxes."""
        return max(self.width_x, self.width_y)

    def convolved(self, decay_factor: float, width: float) -> "GaussianP":
        """Image under the bath kernel: centre eta c, each width eta^2 w + width,
        coefficient (i, j) times eta^(i+j)."""
        eta2 = decay_factor * decay_factor
        i, j = np.indices(self.coeffs.shape)
        return GaussianP(
            self.center * decay_factor,
            self.width_x * eta2 + width,
            self.width_y * eta2 + width,
            self.coeffs * decay_factor ** (i + j),
        )


def singular_part(desc: GaussianP) -> str | None:
    """What makes the descriptor a distribution, or None for an ordinary function."""
    narrowest = min(desc.width_x, desc.width_y)
    if narrowest < 0.0:
        return "a negative width"
    if narrowest == 0.0:
        return "a point mass" if desc.coeffs.size == 1 else "a delta derivative"
    return None


def _hermval(x, c):
    """sum_k c[k] H_k(x), H_k the physicists' Hermite polynomial, with x
    broadcast against each c[k]: Clenshaw's recurrence in the operations and
    order of numpy's ``hermval(x, c, tensor=False)``, so the bits are equal."""
    x2 = x * 2
    c0, c1 = (c[0], 0) if len(c) == 1 else (c[-2], c[-1])
    for k in range(len(c) - 3, -1, -1):
        c0, c1 = c[k] - c1 * (2 * (k + 1)), c0 + c1 * x2
    return c0 + c1 * x2


def _hermite_gaussian(center: complex, width_x, width_y, coeffs: np.ndarray, x, y) -> np.ndarray:
    """sum_ij coeffs[i, j] d_u^i d_v^j [G_wx(u) G_wy(v)] at alpha = x + iy.

    d_u^i G_w = (-1/sqrt(w))^i H_i(u/sqrt(w)) G_w (H_i the physicists' Hermite
    polynomial): a Hermite sum in u, then in v, times the Gaussian.  The widths
    may be complex arrays with positive real part that broadcast with x and y.
    """
    u = np.asarray(x, dtype=float) - center.real
    v = np.asarray(y, dtype=float) - center.imag
    root_x, root_y = np.sqrt(width_x), np.sqrt(width_y)
    scaled_u = u / root_x
    # Coefficient axes lead, one trailing axis per axis of the u points.
    i, j = np.indices(coeffs.shape).reshape(2, *coeffs.shape, *(1,) * scaled_u.ndim)
    scaled = coeffs.reshape(i.shape) * (-1.0 / root_x) ** i * (-1.0 / root_y) ** j
    series = _hermval(v / root_y, _hermval(scaled_u, scaled))
    # Written so that equal widths give exp(-(u^2 + v^2)/w) / (pi w) exactly.
    gaussian = np.exp(-(u * u + v * v * (width_x / width_y)) / width_x)
    return series * gaussian * (1.0 / (math.pi * np.sqrt(width_x * width_y)))


def evaluate_p(desc: GaussianP, x, y) -> np.ndarray:
    """Evaluate a regular descriptor at alpha = x + iy (arrays broadcast)."""
    singular = singular_part(desc)
    if singular:
        raise TypeError(f"descriptor with {singular} is singular; cannot evaluate pointwise")
    return _hermite_gaussian(desc.center, desc.width_x, desc.width_y, desc.coeffs, x, y)


def normal_moments(desc: GaussianP) -> tuple[complex, float, float, complex]:
    """<a>, <a^dag a>, <a^dag^2 a^2> and <a^2> of the state that ``desc`` describes.

    P gives every normally ordered moment, <a^dag^m a^n> = integral P alpha*^m
    alpha^n d2alpha, so these are eight sums over the nonzero coefficients,
    t[p, q] = integral P (Re alpha)^p (Im alpha)^q.  Per axis, by parts,
    integral x^p d^i G_w(x - c) dx = (-1)^i p!/(p - i)! nu_(p-i), with nu_k
    the raw moments of the normal law of mean c and variance w/2; they are
    polynomials in w, so signed widths need no special case.  The sums run
    over Python floats: an overflow gives inf, never a numpy warning.
    """
    coeffs = desc.coeffs.tolist()

    def axis(c: float, w: float, orders: int) -> list[list[float]]:
        nu = [1.0, c]
        for k in range(2, 5):
            nu.append(c * nu[k - 1] + (k - 1) * 0.5 * w * nu[k - 2])
        return [[(-1) ** i * math.perm(p, i) * nu[p - i] if i <= p else 0.0 for i in range(orders)]
                for p in range(5)]

    mx = axis(desc.center.real, desc.width_x, len(coeffs))
    my = axis(desc.center.imag, desc.width_y, len(coeffs[0]))
    terms = [(a, i, j) for i, row in enumerate(coeffs) for j, a in enumerate(row) if a]
    t = {(p, q): sum(a * mx[p][i] * my[q][j] for a, i, j in terms)
         for p, q in ((1, 0), (0, 1), (2, 0), (0, 2), (1, 1), (4, 0), (2, 2), (0, 4))}
    return (
        complex(t[1, 0], t[0, 1]),
        t[2, 0] + t[0, 2],
        t[4, 0] + 2.0 * t[2, 2] + t[0, 4],
        complex(t[2, 0] - t[0, 2], 2.0 * t[1, 1]),
    )


def rescale_zero_temperature(desc: GaussianP, decay_factor: float) -> GaussianP:
    """Pure-decay map P(alpha) -> P(alpha / eta) / eta^2 with eta = decay_factor.

    This is the bath kernel of zero width; it preserves total mass.
    """
    eta = float(decay_factor)
    if not (0 < eta <= 1):
        raise ValueError(f"decay_factor must lie in (0, 1], got {decay_factor}")
    return desc.convolved(eta, 0.0)


def fock_populations(desc: GaussianP, cutoff: int) -> np.ndarray:
    """Number-state populations <k|rho|k>, k < cutoff, of the state described by ``desc``.

    G(z) = sum_k p_k z^k = integral P e^{-(1 - z)|alpha|^2} d2alpha (Glauber,
    Phys. Rev. 131, 2766 (1963)) is pi/(1 - z) times P convolved at width
    1/(1 - z), read at alpha = 0: at the N roots of unity z_j = e^{i theta_j}
    that width is 1/2 + (i/2) cot(theta_j/2).  Their transform adds p_(k+N) +
    p_(k+2N) + ... to p_k, so N passes the bulk, <n> + 10 sigma_n, by 42 (m +
    1/2) levels, where a geometric tail of occupation m = <n> - |<a>|^2 +
    |<a^2> - <a>^2| (a Gaussian's largest width) falls by e^-42.  A point
    mass off the origin keeps its exact Poisson law.
    """
    if cutoff < 1:
        raise ValueError("cutoff must be >= 1")
    ks = np.arange(cutoff)
    if singular_part(desc) == "a point mass" and desc.width == 0.0 and desc.center:
        nsq = abs(desc.center) ** 2
        return np.exp(ks * math.log(nsq) - nsq - [math.lgamma(k + 1) for k in ks])
    mean_a, mean_n, second_factorial, a_squared = normal_moments(desc)
    spread = math.sqrt(max(second_factorial + mean_n - mean_n * mean_n, 0.0))
    m = mean_n - abs(mean_a) ** 2 + abs(a_squared - mean_a * mean_a)
    size = max(cutoff, math.ceil(mean_n + 10.0 * spread + 42.0 * (m + 0.5)))
    if size > LEVEL_LIMIT:
        raise ValueError(f"populations of a state with <n> = {mean_n:.6g} need {size} roots of unity")
    js = np.arange(1, size)
    width = 0.5 + 0.5j / np.tan(math.pi * js / size)  # 1/(1 - z_j)
    g = math.pi * width * _hermite_gaussian(
        desc.center, desc.width_x + width, desc.width_y + width, desc.coeffs, 0.0, 0.0
    )
    # z_j^-k from the reduced exponent jk mod N is exact at every k; blocks of
    # levels keep each phase matrix within LEVEL_LIMIT entries.  G(1) is the mass.
    roots = np.exp(-2j * math.pi / size * np.arange(size))
    step = max(1, LEVEL_LIMIT // size)
    sums = [roots[np.outer(ks[a : a + step], js) % size] @ g for a in range(0, cutoff, step)]
    return (desc.coeffs[0, 0] + np.concatenate(sums)).real / size
