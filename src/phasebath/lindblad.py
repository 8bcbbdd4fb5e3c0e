"""Independent ground truth: the damping master equation solved exactly in a
truncated number basis.

The generator is

    L rho = gamma (1 + nbar) (2 a rho a^dag - a^dag a rho - rho a^dag a)
          + gamma nbar       (2 a^dag rho a - a a^dag rho - rho a a^dag),

applied elementwise (the ladder operators only shift indices, so one
application costs O(cutoff^2)).  It never mixes the diagonals k = n - m of
rho, and its solution at time t is a known channel: pure loss followed by a
quantum-limited amplifier, each an operator sum with binomial weights.  So
diagonal k of rho_t is a weighted sum over diagonal k of rho_0, in closed
form, with no time step and no matrix exponential; diagonal -k is its
conjugate.  The bath factors eta^2, G and tau are computed here, apart from
the phase-space route this module checks.  Everything here needs numpy only.
"""

from __future__ import annotations

import math
import warnings

import numpy as np

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


def _binomial_channel(diagonals: np.ndarray, ks: np.ndarray, p: float, q: float, down: bool) -> np.ndarray:
    """One operator-sum channel with binomial weights, on diagonals[j, m] = rho[m, m + ks[j]].

    With w_l[j, m] = p^(m + k/2) q^l sqrt(C(m+l, l) C(m+k+l, l)), k = ks[j],
    the result at [j, m] sums w_l[j, m] diagonals[j, m + l] if ``down`` (level
    m + l feeds level m) and w_l[j, m - l] diagonals[j, m - l] if not (level m
    feeds level m + l).  Every w_l is the geometric mean of two binomial
    probabilities (negative binomial ones over p if not ``down``), so it is at
    most 1 (1/p), and the positive-factor recurrence in l neither overflows
    nor cancels.
    """
    n = diagonals.shape[1]
    m = np.arange(n, dtype=float)
    mk = m + ks[:, None]
    w = p ** (0.5 * (m + mk))
    out = w * diagonals
    for l in range(1, n if q > 0.0 else 1):
        w = w[:, : n - l] * (q / l) * np.sqrt((m[: n - l] + l) * (mk[:, : n - l] + l))
        if not w.any():  # every later weight is a multiple of this one
            break
        if down:
            out[:, : n - l] += w * diagonals[:, l:]
        else:
            out[:, l:] += w * diagonals[:, : n - l]
    return out


def integrate(rho0: FockDensityMatrix, bath: BathParams, sample_times) -> list[FockDensityMatrix]:
    """Exact states at the requested sample times, each propagated straight from rho0.

    The thermal channel is pure loss of transmissivity tau = eta^2 / G
    followed by a quantum-limited amplifier of gain G = 1 + nbar (1 - eta^2),
    eta^2 = e^{-2 gamma t} (Ivan, Sabapathy & Simon, PRA 84, 042311 (2011)).
    On diagonal k, rho[m, m + k], the loss is

        rho'[m, m+k] = sum_l tau^(m + k/2) (1 - tau)^l sqrt(C(m+l, l) C(m+k+l, l)) rho[m+l, m+k+l]

    and the amplifier is

        rho''[m, m+k] = sum_{l <= m} G^(-1 - (m-l) - k/2) (1 - 1/G)^l sqrt(C(m, l) C(m+k, l)) rho'[m-l, m-l+k].

    Both run for every diagonal at once, on those that are nonzero in rho0
    (the channel keeps a zero diagonal zero).  Weight the amplifier lifts past
    the basis is dropped; the trace drift from rho0 is checked against a hard
    limit, since a drift means that the evolved state leaks past the basis.
    """
    sample_times = [float(t) for t in sample_times]
    if not all(math.isfinite(t) and t >= 0 for t in sample_times):
        raise ValueError("sample_times must be finite and nonnegative")
    n = rho0.cutoff
    el = np.asarray(rho0.elements)
    trace0 = float(el.trace().real)
    rows, cols = np.nonzero(np.triu(el))
    ks = np.unique(cols - rows)
    # diagonals[j, m] = rho0[m, m + ks[j]], zero past the end of the diagonal
    diagonals = np.zeros((ks.size, n), dtype=complex)
    for j, k in enumerate(ks.tolist()):
        diagonals[j, : n - k] = el.diagonal(k)
    samples: list[FockDensityMatrix] = []
    for t in sample_times:
        eta2, spread = math.exp(-2.0 * bath.gamma * t), -math.expm1(-2.0 * bath.gamma * t)
        gain = 1.0 + bath.nbar * spread
        lost = _binomial_channel(diagonals, ks, eta2 / gain, (1.0 + bath.nbar) * spread / gain, down=True)
        amplified = _binomial_channel(lost, ks, 1.0 / gain, bath.nbar * spread / gain, down=False) / gain
        upper = np.zeros((n, n), dtype=complex)
        for j, k in enumerate(ks.tolist()):
            idx = np.arange(n - k)
            upper[idx, idx + k] = amplified[j, : n - k]
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


def _poisson_tail(cutoff: int, mean: float) -> float:
    """P(n >= cutoff) for n Poisson with this mean.

    Each term from ``cutoff`` upward is formed in log space, and the sum runs
    to 60 terms and 12 standard deviations past the larger of ``cutoff`` and
    the mean, where the remaining terms are negligible against the sum.
    """
    if mean == 0.0:
        return 0.0
    stop = math.ceil(max(cutoff, mean) + 12.0 * math.sqrt(mean) + 60.0)
    levels = range(cutoff, stop)
    logs = np.array([n * math.log(mean) - mean - math.lgamma(n + 1.0) for n in levels])
    top = float(logs.max())
    return math.exp(top) * float(np.exp(logs - top).sum())


def _truncation_guard(cutoff: int, alpha_sq: float) -> None:
    if alpha_sq >= cutoff / 4.0:
        tail = _poisson_tail(cutoff, alpha_sq)
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
