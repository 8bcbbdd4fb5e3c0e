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
conjugate.  The binomial weights factor as diag . Toeplitz . diag, so each
stage is one triangular Toeplitz product of the array of all diagonals,
scaled per pair of level panels so that it stays finite at any cutoff.  The
bath factors eta^2, G and tau are computed here, apart from the phase-space
route this module checks.  Everything here needs numpy only.
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


# Levels per panel of the channel's Toeplitz product.  Each pair of panels
# has its own scaling; at 128 levels its factors stay finite, and the sums
# match a 40-digit evaluation to within 1e-13, up to cutoffs of at least 6,000.
_PANEL = 128


def _peaked(ratios: np.ndarray):
    """Running products y[..., i] = prod(ratios[..., :i]) along the last axis,
    for ratios that fall along it, divided by their largest value, and the log
    of that value.

    Factors above 1 are taken right to left from the peak and factors below 1
    left to right, so no partial product exceeds 1 and none overflows.
    """
    rising = np.maximum(ratios, 1.0)
    head = np.ones(ratios.shape[:-1] + (ratios.shape[-1] + 1,))
    tail = np.ones_like(head)
    np.cumprod(np.minimum(ratios, 1.0), axis=-1, out=head[..., 1:])
    np.cumprod(1.0 / rising[..., ::-1], axis=-1, out=tail[..., -2::-1])
    return head * tail, np.log(rising).sum(axis=-1)


def _binomial_channel(
    diagonals: np.ndarray, roots: np.ndarray, half_k: np.ndarray, p: float, q: float, down: bool
) -> np.ndarray:
    """One operator-sum channel with binomial weights, on diagonals[j, m] = rho[m, m + k], k = 2 half_k[j].

    Level hi feeds level lo <= hi with the weight

        W(lo, hi) = p^(lo + k/2) q^l / l! F(hi) / F(lo),    l = hi - lo,

    where F(i) = sqrt(i! (i+k)!), so that F(i) / F(i-1) = roots[j, i] =
    sqrt(i (i+k)).  If ``down`` the sum runs over the feeding levels hi of each
    level lo (loss), and if not over the levels lo that feed each level hi
    (amplifier).  The l = 0 term is p^(m + k/2) times the diagonal.  The rest
    is diag . Toeplitz . diag: for every slope c,

        W(lo, hi) = p^(a0 + k/2) F(b0) / (F(a0) c^(b0 - a0)) u(lo) (qc)^l / l! v(hi)

    with u(lo) = prod_{a0 < r <= lo} pc / roots[j, r] and v(hi) =
    prod_{b0 < r <= hi} roots[j, r] / c, one strictly triangular Toeplitz band
    (qc)^l / l! shared by all diagonals.  Over all N levels these factors span
    about e^(N/e) and the band peaks near e^(qc), so the levels are split into
    panels of ``_PANEL``, and each pair of panels lo in [a0, a1), hi in
    [b0, b1) takes its own c, the geometric mean of the levels a0 + 1 .. b1 - 1.
    The band and u are divided by their peaks (``_peaked``) and v by its
    largest value, so all three are at most 1, and the pair's constant takes
    the logs of those divisors.  Up to ``_PANEL`` levels there is one pair.
    """
    n = diagonals.shape[1]
    levels = np.arange(n)
    logp = math.log(p) if p > 0.0 else -math.inf
    out = p ** (levels + half_k[:, None]) * diagonals
    if q == 0.0:  # no l > 0 term
        return out
    for a0 in range(0, n, _PANEL):
        a1 = min(a0 + _PANEL, n)
        for b0 in range(a0, n, _PANEL):
            b1 = min(b0 + _PANEL, n)
            lmin, lmax = max(0, b0 - a1 + 1), b1 - 1 - a0
            c = math.exp((math.lgamma(b1) - math.lgamma(a0 + 1)) / max(lmax, 1))
            u, log_u = _peaked(p * c / roots[:, a0 + 1 : a1])
            band, log_band = _peaked(q * c / np.arange(lmin + 1.0, lmax + 1.0))
            v = np.ones((roots.shape[0], b1 - b0))
            np.cumprod(roots[:, b0 + 1 : b1] / c, axis=1, out=v[:, 1:])
            v_max = v.max(axis=1)
            with np.errstate(divide="ignore", invalid="ignore"):  # log 0 = -inf, and 0 log 0 = 0
                log_scale = (
                    np.where(a0 + half_k > 0, (a0 + half_k) * logp, 0.0)
                    + np.log(roots[:, a0 + 1 : b0 + 1] / c).sum(axis=1)
                    + np.log(q * c / np.arange(1.0, lmin + 1.0)).sum()
                    + log_u
                    + log_band
                    + np.log(v_max)
                )
            gap = np.arange(b0, b1) - np.arange(a0, a1)[:, None]
            toeplitz = np.where(gap > 0, band[np.maximum(gap - lmin, 0)], 0.0)
            u *= np.exp(log_scale)[:, None]
            v /= v_max[:, None]
            if down:
                out[:, a0:a1] += u * ((v * diagonals[:, b0:b1]) @ toeplitz.T)
            else:
                out[:, b0:b1] += v * ((u * diagonals[:, a0:a1]) @ toeplitz)
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

    With F(i) = sqrt(i! (i+k)!) the loss weight is tau^(m + k/2) / F(m) times
    (1 - tau)^l / l! times F(m + l), and the amplifier's has the same form
    with the direction reversed.  So each stage is a diagonal scaling, a
    product of the (diagonals x levels) array with one triangular Toeplitz
    matrix, and a second diagonal scaling, for every diagonal that is nonzero
    in rho0 at once (the channel keeps a zero diagonal zero).  The factors are
    scaled per diagonal and per panel of levels so that they stay finite at
    every cutoff (``_binomial_channel``).  Weight the amplifier lifts past the
    basis is dropped; the trace drift from rho0 is checked against a hard
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
    levels = np.arange(n)
    # diagonals[j, m] = rho0[m, m + ks[j]], zero past the end of the diagonal
    tops = levels + ks[:, None]
    inside = tops < n
    lo_idx, hi_idx = np.broadcast_to(levels, tops.shape)[inside], tops[inside]
    diagonals = np.zeros(tops.shape, dtype=complex)
    diagonals[inside] = el[lo_idx, hi_idx]
    roots = np.sqrt(levels * tops)
    half_k = 0.5 * ks
    samples: list[FockDensityMatrix] = []
    for t in sample_times:
        eta2, spread = math.exp(-2.0 * bath.gamma * t), -math.expm1(-2.0 * bath.gamma * t)
        gain = 1.0 + bath.nbar * spread
        lost = _binomial_channel(
            diagonals, roots, half_k, eta2 / gain, (1.0 + bath.nbar) * spread / gain, down=True
        )
        amplified = _binomial_channel(lost, roots, half_k, 1.0 / gain, bath.nbar * spread / gain, down=False) / gain
        values = amplified[inside]
        rho = np.zeros((n, n), dtype=complex)
        rho[hi_idx, lo_idx] = values.conj()
        rho[lo_idx, hi_idx] = values
        rho[levels, levels] = rho[levels, levels].real
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
