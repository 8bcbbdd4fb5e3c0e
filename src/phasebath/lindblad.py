"""Independent ground truth: the damping master equation solved exactly in a
truncated number basis.

The generator is

    L rho = gamma (1 + nbar) (2 a rho a^dag - a^dag a rho - rho a^dag a)
          + gamma nbar       (2 a^dag rho a - a a^dag rho - rho a a^dag),

applied elementwise (the ladder operators only shift indices, so one
application costs O(cutoff^2)).  It never mixes the diagonals k = n - m of
rho: on the elements rho[i, i + k] it acts as a (cutoff - k)-square
tridiagonal matrix G_k.  So diagonal k of rho_t is expm(t G_k) applied to
diagonal k of rho_0, with no time step, and diagonal -k is its conjugate.
"""

from __future__ import annotations

import math
import warnings

import numpy as np
from scipy.linalg import expm

from .core import BathParams, check_amplitude
from .fock import FockDensityMatrix, coherent_vector
from .states import MomentSet

__all__ = [
    "apply_liouvillian",
    "husimi_q",
    "husimi_q_grid",
    "integrate",
    "moments_from_rho",
]

_TRACE_DRIFT_LIMIT = 1e-6


def _liouvillian(rho: np.ndarray, gamma: float, nbar: float) -> np.ndarray:
    n = rho.shape[0]
    sq = np.sqrt(np.arange(n))
    levels = np.arange(n)
    out = np.zeros_like(rho)
    # a rho a^dag and a^dag rho a as index shifts
    out[:-1, :-1] += 2.0 * gamma * (1.0 + nbar) * rho[1:, 1:] * np.outer(sq[1:], sq[1:])
    if nbar > 0.0:
        out[1:, 1:] += 2.0 * gamma * nbar * rho[:-1, :-1] * np.outer(sq[1:], sq[1:])
    decay = gamma * (1.0 + nbar) * levels[:, None] + gamma * nbar * (levels[:, None] + 1.0)
    out -= (decay + decay.T) * rho
    return out


def apply_liouvillian(rho: FockDensityMatrix, bath: BathParams) -> np.ndarray:
    """One application of the damping generator to a state."""
    return _liouvillian(np.asarray(rho.elements), bath.gamma, bath.nbar)


def _diagonal_generator(k: int, cutoff: int, bath: BathParams) -> np.ndarray:
    """G_k: the generator restricted to diagonal k, the elements rho[i, i + k].

    Row i gains 2 gamma (1 + nbar) sqrt((i+1)(i+k+1)) rho[i+1, i+k+1] and
    2 gamma nbar sqrt(i (i+k)) rho[i-1, i+k-1], and loses the decay rates
    of levels i and i + k.
    """
    gamma, nbar = bath.gamma, bath.nbar
    levels = np.arange(cutoff)
    sq = np.sqrt(levels)
    decay = gamma * (1.0 + nbar) * levels + gamma * nbar * (levels + 1.0)
    gain = sq[1 : cutoff - k] * sq[k + 1 :]
    return (
        np.diag(-(decay[: cutoff - k] + decay[k:]))
        + np.diag(2.0 * gamma * (1.0 + nbar) * gain, 1)
        + np.diag(2.0 * gamma * nbar * gain, -1)
    )


def integrate(rho0: FockDensityMatrix, bath: BathParams, sample_times) -> list[FockDensityMatrix]:
    """Exact states at the requested sample times, each propagated straight from rho0.

    The trace drift from rho0 is checked against a hard limit: a drift means
    that the evolved state leaks past the truncated basis.
    """
    sample_times = [float(t) for t in sample_times]
    if not all(math.isfinite(t) and t >= 0 for t in sample_times):
        raise ValueError("sample_times must be finite and nonnegative")
    n = rho0.cutoff
    el = np.asarray(rho0.elements)
    trace0 = float(el.trace().real)
    generators = [_diagonal_generator(k, n, bath) for k in range(n)]
    samples: list[FockDensityMatrix] = []
    for t in sample_times:
        upper = np.zeros((n, n), dtype=complex)
        for k, gen in enumerate(generators):
            idx = np.arange(n - k)
            upper[idx, idx + k] = expm(t * gen) @ el.diagonal(k)
        strict = np.triu(upper, 1)
        rho = strict + strict.conj().T + np.diag(upper.diagonal().real)
        trace = float(rho.trace().real)
        drift = abs(trace - trace0)
        if drift > _TRACE_DRIFT_LIMIT:
            raise RuntimeError(
                f"trace drifted by {drift:.3e} at t = {t}; the cutoff ({n}) is too small"
            )
        samples.append(FockDensityMatrix(n, rho, 1.0 - trace))
    return samples


def husimi_q(rho: FockDensityMatrix, alpha) -> float:
    """(1/pi) <alpha|rho|alpha> from the truncated state."""
    alpha = check_amplitude(alpha)
    _truncation_guard(rho.cutoff, abs(alpha) ** 2)
    vec = coherent_vector(alpha, rho.cutoff)
    return float(np.real(vec.conj() @ rho.elements @ vec) / math.pi)


def husimi_q_grid(rho: FockDensityMatrix, x_axis, y_axis):
    """Vectorized husimi_q over a rectangular grid; returns a PhaseSpaceGrid."""
    from .quasiprob import PhaseSpaceGrid

    x = np.asarray(x_axis, dtype=float)
    y = np.asarray(y_axis, dtype=float)
    _truncation_guard(rho.cutoff, float(np.max(x * x) + np.max(y * y)))
    vecs = coherent_vector((x[:, None] + 1j * y[None, :]).ravel(), rho.cutoff)
    q = np.real(np.einsum("km,mn,kn->k", vecs.conj(), rho.elements, vecs)) / math.pi
    return PhaseSpaceGrid(x, y, q.reshape(x.size, y.size), {"quantity": "Q"})


def _truncation_guard(cutoff: int, alpha_sq: float) -> None:
    if alpha_sq >= cutoff / 4.0:
        from scipy.stats import poisson

        tail = float(poisson.sf(cutoff - 1, alpha_sq))
        if tail < 1e-10:
            return
        warnings.warn(
            f"|alpha|^2 = {alpha_sq:.2f} close to cutoff {cutoff}; coherent-state "
            f"weight beyond the basis is about {tail:.2e}",
            RuntimeWarning,
            stacklevel=3,
        )


def moments_from_rho(rho: FockDensityMatrix) -> MomentSet:
    """Trace evaluation of the standard observables against the state."""
    if rho.trace_deficit > 1e-6:
        raise ValueError(f"trace deficit {rho.trace_deficit:.3e} too large for moments")
    el = np.asarray(rho.elements)
    n = el.shape[0]
    levels = np.arange(n, dtype=float)
    diag = el.diagonal().real
    mean_n = float(diag @ levels)
    second = float(diag @ (levels * (levels - 1.0)))
    sq = np.sqrt(levels[1:])
    mean_a = complex(np.sum(sq * el.diagonal(-1)))  # Tr[rho a] = sum sqrt(k) rho[k, k-1]
    sq2 = np.sqrt((levels[:-2] + 1.0) * (levels[:-2] + 2.0))
    a_squared = complex(np.sum(sq2 * el.diagonal(-2))) if n > 2 else 0j
    re2 = a_squared.real
    var_x = (1.0 + 2.0 * mean_n + 2.0 * re2) / 4.0 - mean_a.real**2
    var_y = (1.0 + 2.0 * mean_n - 2.0 * re2) / 4.0 - mean_a.imag**2
    return MomentSet(mean_a, mean_n, second, var_x, var_y)
