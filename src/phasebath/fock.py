"""Truncated number-basis operators and validated density matrices."""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np
from scipy.linalg import expm

from .core import check_amplitude

__all__ = [
    "FockDensityMatrix",
    "annihilation",
    "coherent_vector",
    "displacement_matrix",
    "squeeze_matrix",
    "thermal_populations",
]

_HERMITICITY_TOL = 1e-12
_EIGENVALUE_FLOOR = -1e-10
_TRACE_SLACK = 1e-9


def annihilation(cutoff: int) -> np.ndarray:
    """Lowering operator on the basis |0> .. |cutoff-1>."""
    return np.diag(np.sqrt(np.arange(1.0, cutoff)), k=1)


def coherent_vector(beta, cutoff: int) -> np.ndarray:
    """Number-basis amplitudes of |beta>, truncated; an array of amplitudes
    gives one row per amplitude."""
    beta = np.asarray(beta, dtype=complex)
    if not np.all(np.isfinite(beta)):
        raise ValueError("amplitudes must have finite components")
    n = np.arange(cutoff)
    logfact = np.concatenate(([0.0], np.cumsum(np.log(np.arange(1.0, cutoff)))))
    mag = np.abs(beta)[..., None]
    with np.errstate(divide="ignore", invalid="ignore"):
        logs = n * np.log(mag)
    logs[..., 0] = 0.0  # 0^0 = 1 at beta = 0
    phase = np.exp(1j * n * np.angle(beta)[..., None])
    return np.exp(-0.5 * mag**2 + logs - 0.5 * logfact) * phase


def displacement_matrix(beta, cutoff: int) -> np.ndarray:
    """exp(beta a^dag - beta* a), truncated."""
    a = annihilation(cutoff)
    beta = check_amplitude(beta)
    return expm(beta * a.conj().T - np.conj(beta) * a)


def squeeze_matrix(exponent: float, cutoff: int) -> np.ndarray:
    """exp((exponent/2)(a^2 - a^dag^2)), truncated; real exponent only."""
    a = annihilation(cutoff)
    return expm(0.5 * exponent * (a @ a - a.conj().T @ a.conj().T))


def thermal_populations(mbar: float, cutoff: int) -> np.ndarray:
    """Bose-Einstein number weights with mean mbar, truncated (not renormalized)."""
    if mbar < 0:
        raise ValueError("mean occupation must be nonnegative")
    if mbar == 0.0:
        out = np.zeros(cutoff)
        out[0] = 1.0
        return out
    ratio = mbar / (1.0 + mbar)
    return (1.0 / (1.0 + mbar)) * ratio ** np.arange(cutoff)


@dataclass(frozen=True, eq=False)
class FockDensityMatrix:
    """Hermitian, positive, near-unit-trace matrix on a truncated number basis."""

    cutoff: int
    elements: np.ndarray
    trace_deficit: float

    def __post_init__(self):
        elements = np.array(self.elements, dtype=complex)
        elements.setflags(write=False)
        object.__setattr__(self, "elements", elements)
        if self.cutoff < 2:
            raise ValueError(f"cutoff must be >= 2, got {self.cutoff}")
        if elements.shape != (self.cutoff, self.cutoff):
            raise ValueError("elements must be a cutoff x cutoff matrix")
        if np.max(np.abs(elements - elements.conj().T)) > _HERMITICITY_TOL:
            raise ValueError("matrix is not Hermitian to tolerance")
        tr = float(elements.trace().real)
        if tr > 1.0 + _TRACE_SLACK or tr < 1.0 - max(1e-3, 10 * abs(self.trace_deficit)):
            raise ValueError(f"trace {tr} outside the admissible range")
        if float(np.linalg.eigvalsh(elements)[0]) < _EIGENVALUE_FLOOR:
            raise ValueError("matrix has a significantly negative eigenvalue")

    @classmethod
    def from_array(cls, elements: np.ndarray) -> "FockDensityMatrix":
        """Hermitize, record the trace deficit, and validate."""
        elements = np.asarray(elements, dtype=complex)
        elements = 0.5 * (elements + elements.conj().T)
        deficit = 1.0 - float(elements.trace().real)
        return cls(elements.shape[0], elements, deficit)

    def expectation(self, op: np.ndarray) -> complex:
        if op.shape != self.elements.shape:
            raise ValueError("operator dimension mismatch")
        return complex(np.trace(op @ self.elements))

    def diagonal(self) -> np.ndarray:
        return self.elements.diagonal().real.copy()
