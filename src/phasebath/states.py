"""Catalog of initial field states in three synchronized representations.

Each catalog family provides a symbolic phase-space descriptor and a
truncated number-basis density matrix; its initial moments are integrated
from the descriptor (``descriptors.normal_moments``).  Every family has the
one descriptor kind: a Gaussian with signed per-axis widths, bare for
coherent, thermal, displaced-thermal and squeezed-coherent states, and with
a gradient and a Laplacian of it for the photon-added states.  The families:

* ``coherent(beta)``
* ``thermal(mbar)``
* ``displaced-thermal(beta, mbar)``
* ``photon-added-thermal(mbar)``
* ``photon-added-coherent(beta)``
* ``squeezed-coherent(beta, squeeze)``

The squeeze parameter is the quadrature variance ratio: var X = 1/(4 s),
var Y = s/4, so s > 1 squeezes the real quadrature.  In terms of the squeeze
operator exp[(r/2)(a^2 - a^dag^2)] this is s = e^{2r}, and the P widths
are (1 - s)/(2 s) along the real axis and (s - 1)/2 along the imaginary one.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from .core import check_amplitude
from .descriptors import GaussianP, normal_moments
from .fock import (
    FockDensityMatrix,
    annihilation,
    coherent_vector,
    displacement_matrix,
    squeeze_matrix,
    thermal_populations,
)

__all__ = [
    "FAMILIES",
    "FAMILY_TABLE",
    "FamilyEntry",
    "MomentSet",
    "StateSpec",
    "default_cutoff",
    "fock_density",
    "initial_moments",
    "initial_p_function",
    "parse_state_spec",
]


@dataclass(frozen=True)
class FamilyEntry:
    """How one family is listed: the parameters it reads, their constraints, an example."""

    parameters: tuple[str, ...]
    constraints: str
    example: dict


FAMILY_TABLE = {
    "coherent": FamilyEntry(("beta",), "beta finite", {"beta_re": 1.0, "beta_im": 0.5}),
    "thermal": FamilyEntry(("mbar",), "mbar >= 0", {"mbar": 1.0}),
    "displaced-thermal": FamilyEntry(
        ("beta", "mbar"), "beta finite, mbar >= 0", {"beta_re": 1.0, "beta_im": 0.0, "mbar": 0.5}
    ),
    "photon-added-thermal": FamilyEntry(("mbar",), "mbar > 0", {"mbar": 1.0}),
    "photon-added-coherent": FamilyEntry(("beta",), "beta finite", {"beta_re": 1.0, "beta_im": 0.5}),
    "squeezed-coherent": FamilyEntry(
        ("beta", "squeeze"),
        "beta finite, squeeze > 0",
        {"beta_re": 1.0, "beta_im": 0.0, "squeeze": 2.0},
    ),
}

FAMILIES = tuple(FAMILY_TABLE)


@dataclass(frozen=True)
class StateSpec:
    """A catalog family plus its finite numeric parameters (unused ones ignored)."""

    family: str
    beta: complex = 0j
    mbar: float = 0.0
    squeeze: float = 1.0

    def __post_init__(self):
        if self.family not in FAMILIES:
            raise ValueError(f"unknown family {self.family!r}; known: {FAMILIES}")
        object.__setattr__(self, "beta", check_amplitude(self.beta))
        for name in ("mbar", "squeeze"):
            if not math.isfinite(getattr(self, name)):
                raise ValueError(f"{name} must be finite, got {getattr(self, name)}")
        if self.family == "photon-added-thermal":
            if not self.mbar > 0:
                raise ValueError("photon-added-thermal requires mbar > 0")
        elif self.family in ("thermal", "displaced-thermal"):
            if self.mbar < 0:
                raise ValueError("mbar must be nonnegative")
        if self.family == "squeezed-coherent" and not self.squeeze > 0:
            raise ValueError("squeeze must be positive")


def parse_state_spec(fields: dict) -> StateSpec:
    """Build a StateSpec from flat key/value data (CLI and config files).

    Recognized keys: family, beta_re, beta_im, mbar, squeeze.
    """
    family = str(fields.get("family", "")).strip()
    beta = complex(float(fields.get("beta_re", 0.0)), float(fields.get("beta_im", 0.0)))
    return StateSpec(
        family=family,
        beta=beta,
        mbar=float(fields.get("mbar", 0.0)),
        squeeze=float(fields.get("squeeze", 1.0)),
    )


@dataclass(frozen=True)
class MomentSet:
    """First and second moments of the field mode.

    mean_a = <a>, mean_n = <a^dag a>, second_factorial = <a^dag^2 a^2>,
    var_x/var_y the quadrature variances for X = (a + a^dag)/2.
    """

    mean_a: complex
    mean_n: float
    second_factorial: float
    var_x: float
    var_y: float

    def __post_init__(self):
        object.__setattr__(self, "mean_a", check_amplitude(self.mean_a))
        # NaN passes every comparison below, and inf is no moment.
        fields = (self.mean_n, self.second_factorial, self.var_x, self.var_y)
        if not all(map(math.isfinite, fields)):
            raise ValueError("moments must be finite")
        slack = 1e-9
        if self.mean_n < -slack or self.second_factorial < -slack:
            raise ValueError("photon-number moments must be nonnegative")
        if self.var_x <= 0 or self.var_y <= 0:
            raise ValueError("quadrature variances must be positive")
        if self.var_x * self.var_y < 0.0625 * (1.0 - 1e-9):
            raise ValueError("uncertainty product below the quantum floor")

    def mandel_q(self) -> float:
        if self.mean_n <= 0:
            raise ValueError("Mandel Q is undefined at zero mean photon number")
        return (self.second_factorial - self.mean_n**2) / self.mean_n


def initial_p_function(spec: StateSpec):
    """Exact symbolic phase-space descriptor of the initial state."""
    f = spec.family
    if f == "coherent":
        return GaussianP(spec.beta, 0.0, 0.0)
    if f == "thermal":
        return GaussianP(0j, spec.mbar, spec.mbar)
    if f == "displaced-thermal":
        return GaussianP(spec.beta, spec.mbar, spec.mbar)
    if f == "photon-added-thermal":
        # P = (1 + (m + 1)/4 Laplacian) G_m, with G_m the thermal Gaussian of width m
        m = spec.mbar
        lap = (m + 1.0) / 4.0
        return GaussianP(0j, m, m, [[1.0, 0.0, lap], [0.0, 0.0, 0.0], [lap, 0.0, 0.0]])
    if f == "photon-added-coherent":
        # P = f Laplacian(delta_b) / (4 n) with f = e^{|alpha|^2 - |b|^2}, n = |b|^2 + 1.
        # Moving f through the derivatives, f delta'' = f(b) delta'' - 2 f'(b) delta'
        # + f''(b) delta, gives delta - (Re b d_u + Im b d_v) delta / n + Laplacian(delta) / (4 n).
        b = spec.beta
        n = abs(b) ** 2 + 1.0
        lap = 0.25 / n
        coeffs = [[1.0, -b.imag / n, lap], [-b.real / n, 0.0, 0.0], [lap, 0.0, 0.0]]
        return GaussianP(b, 0.0, 0.0, coeffs)
    if f == "squeezed-coherent":
        s = spec.squeeze
        return GaussianP(spec.beta, (1.0 - s) / (2.0 * s), (s - 1.0) / 2.0)
    raise ValueError(f"unknown family {f!r}")


#: n(n-1) weight a thermal tail may leave beyond the basis (the oracle
#: compares second factorial moments, by default to 1e-5)
_TAIL_SECOND_FACTORIAL = 1e-9


def default_cutoff(spec: StateSpec, nbar: float = 0.0) -> int:
    """Truncation heuristic: a generous multiple of the state's mean photon
    number plus the bath occupation ``nbar`` it relaxes toward, raised until a
    thermal tail leaves little second factorial moment beyond the basis.

    The tail's occupation m is the larger of the state's P width (zero for
    the delta derivative of a photon-added coherent state) and ``nbar``: the
    bath takes each P width w to w eta^2 + nbar (1 - eta^2), and a Gaussian P
    of width m has number-state weights falling as q^n, q = m/(1 + m).
    Beyond N levels that tail holds
    sum_{n >= N} n(n-1)(1-q) q^n = q^N (N(N-1) + 2Nm + 2m^2).
    """
    p0 = initial_p_function(spec)
    mean_n = normal_moments(p0)[1]
    cutoff = max(30, math.ceil(8.0 * (mean_n + nbar + 1.0)))
    m = max(p0.width, nbar)
    q = m / (1.0 + m)
    while q**cutoff * (cutoff * (cutoff - 1) + 2 * cutoff * m + 2 * m * m) > _TAIL_SECOND_FACTORIAL:
        cutoff += 1
    return cutoff


def fock_density(spec: StateSpec, cutoff: int) -> FockDensityMatrix:
    """Truncated number-basis density matrix of the initial state."""
    if cutoff < 2:
        raise ValueError(f"cutoff must be >= 2, got {cutoff}")
    f = spec.family
    if f == "coherent":
        vec = coherent_vector(spec.beta, cutoff)
        rho = np.outer(vec, vec.conj())
    elif f == "thermal":
        rho = np.diag(thermal_populations(spec.mbar, cutoff)).astype(complex)
    elif f == "displaced-thermal":
        d = displacement_matrix(spec.beta, cutoff)
        rho = d @ np.diag(thermal_populations(spec.mbar, cutoff)).astype(complex) @ d.conj().T
    elif f == "photon-added-thermal":
        a = annihilation(cutoff)
        base = np.diag(thermal_populations(spec.mbar, cutoff)).astype(complex)
        raw = a.conj().T @ base @ a
        rho = raw / raw.trace() * (1.0 - _added_photon_deficit(spec, cutoff))
    elif f == "photon-added-coherent":
        vec = coherent_vector(spec.beta, cutoff)
        raised = annihilation(cutoff).conj().T @ vec
        norm = abs(spec.beta) ** 2 + 1.0
        rho = np.outer(raised, raised.conj()) / norm
    elif f == "squeezed-coherent":
        exponent = 0.5 * math.log(spec.squeeze)
        vec = displacement_matrix(spec.beta, cutoff) @ squeeze_matrix(exponent, cutoff)[:, 0]
        rho = np.outer(vec, vec.conj())
    else:
        raise ValueError(f"unknown family {f!r}")
    state = FockDensityMatrix.from_array(rho)
    if state.trace_deficit > 1e-3:
        raise ValueError(
            f"trace deficit {state.trace_deficit:.3e} too large at cutoff {cutoff}; increase it"
        )
    return state


def _added_photon_deficit(spec: StateSpec, cutoff: int) -> float:
    """Truncation deficit of the photon-added thermal state at this cutoff.

    Renormalizing the truncated a^dag rho a to unit trace would silently hide
    the truncation error, so the known tail weight is reinstated as a deficit.
    """
    m = spec.mbar
    ratio = m / (1.0 + m)
    k = np.arange(cutoff)
    weights = k * (1.0 / (1.0 + m)) * ratio ** (k - 1.0)
    weights[0] = 0.0
    return float(1.0 - np.sum(weights) / (1.0 + m))


def initial_moments(spec: StateSpec) -> MomentSet:
    """Moments of the initial state, integrated from its P function, with
    var X = (1 + 2<n> + 2 Re<a^2>)/4 - (Re<a>)^2 and
    var Y = (1 + 2<n> - 2 Re<a^2>)/4 - (Im<a>)^2."""
    mean_a, mean_n, second_factorial, a_squared = normal_moments(initial_p_function(spec))
    var_x = (1.0 + 2.0 * mean_n + 2.0 * a_squared.real) / 4.0 - mean_a.real**2
    var_y = (1.0 + 2.0 * mean_n - 2.0 * a_squared.real) / 4.0 - mean_a.imag**2
    return MomentSet(mean_a, mean_n, second_factorial, var_x, var_y)
