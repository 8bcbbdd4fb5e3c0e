"""Bath parameters, their time scaling, and a special-function reference.

Everything here is a pure function on immutable values; amplitudes are
plain Python complex numbers (natural units, vacuum quadrature variance 1/4).
The Tricomi-U polynomials and their series are not used to evolve states;
they are kept as an independent reference for the Gaussian closed form.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

__all__ = [
    "BathParams",
    "check_amplitude",
    "scale_bath",
    "tricomi_u_half",
]

# 80-bit extended precision on x86; keeps the Laguerre recurrence comfortably
# below 1e-12 relative error even at n = 20, |x| = 50.
_WORK_DTYPE = np.longdouble


def check_amplitude(value) -> complex:
    """Coerce to complex, rejecting NaN/Inf components."""
    z = complex(value)
    if not (math.isfinite(z.real) and math.isfinite(z.imag)):
        raise ValueError(f"amplitude must have finite components, got {z!r}")
    return z


@dataclass(frozen=True)
class BathParams:
    """Reservoir coupling: decay rate gamma (1/time) and mean occupation nbar."""

    gamma: float
    nbar: float

    def __post_init__(self):
        if not (math.isfinite(self.gamma) and self.gamma > 0):
            raise ValueError(f"gamma must be positive and finite, got {self.gamma}")
        if not (math.isfinite(self.nbar) and self.nbar >= 0):
            raise ValueError(f"nbar must be nonnegative and finite, got {self.nbar}")


def scale_bath(params: BathParams, t: float) -> tuple[float, float]:
    """The bath kernel after an elapsed time t >= 0: the pair (eta, w) =
    (e^{-gamma t}, nbar (1 - e^{-2 gamma t})) that ``GaussianP.convolved`` takes."""
    if not (math.isfinite(t) and t >= 0):
        raise ValueError(f"elapsed time must be nonnegative and finite, got {t}")
    decay = math.exp(-params.gamma * t)
    # -expm1 keeps 1 - e^{-2 gamma t} accurate at small gamma t, where
    # 1 - decay**2 cancels to a relative error of about 1e-16 / (gamma t).
    return decay, -params.nbar * math.expm1(-2.0 * params.gamma * t)


def _laguerre_half_all(order: int, x) -> np.ndarray:
    """L_k^{(-1/2)}(x) for k = 0..order by the three-term recurrence.

    Computed in extended precision; callers convert back to float64.
    """
    x = np.asarray(x, dtype=_WORK_DTYPE)
    out = np.empty((order + 1,) + x.shape, dtype=_WORK_DTYPE)
    out[0] = 1.0
    if order >= 1:
        out[1] = 0.5 - x
    for k in range(1, order):
        out[k + 1] = ((2 * k + 0.5 - x) * out[k] - (k - 0.5) * out[k - 1]) / (k + 1)
    return out


def tricomi_u_half(n: int, x):
    """U(-n, 1/2, x): the degree-n polynomial branch of Tricomi's function.

    Uses U(-n, b, x) = (-1)^n n! L_n^{(b-1)}(x) with the associated-Laguerre
    recurrence.  Accepts scalar or array x; returns float64.
    """
    if int(n) != n or n < 0:
        raise ValueError(f"order must be a nonnegative integer, got {n!r}")
    n = int(n)
    xs = np.asarray(x, dtype=float)
    if not np.all(np.isfinite(xs)):
        raise ValueError("argument must be finite")
    lag = _laguerre_half_all(n, xs)[n]
    sign = -1.0 if n % 2 else 1.0
    value = np.asarray(sign * math.factorial(n) * lag, dtype=float)
    return float(value) if np.isscalar(x) or value.shape == () else value


def u_series(gain: float, x, order: int) -> np.ndarray:
    """sum_{k=0}^{order} gain^k / k! * U(-k, 1/2, x).

    Equals sum (-gain)^k L_k^{(-1/2)}(x); converges (order -> inf) iff
    |gain| < 1, to the closed sum (1 + gain)^{-1/2} e^{gain x/(1 + gain)}
    (DLMF 18.12.13): the Gaussian factor of the evolved squeezed P.
    """
    lag = _laguerre_half_all(order, np.asarray(x, dtype=float))
    powers = (-_WORK_DTYPE(gain)) ** np.arange(order + 1, dtype=_WORK_DTYPE)
    return np.asarray(np.tensordot(powers, lag, axes=(0, 0)), dtype=float)
