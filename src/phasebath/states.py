"""Catalog of initial field states in three synchronized representations.

Each family is a row of data: the Gaussian state D(beta) S(s) rho_th(mbar),
with one photon added (a^dag rho a, normalized) when the row says so.  A
family reads some of beta, mbar and s, and ``StateSpec`` sets the others to
their neutral values 0, 0 and 1.  Every row gives its symbolic phase-space
descriptor and its truncated number-basis density matrix along one path
each, and the initial moments are integrated from the descriptor.

The squeeze parameter is the quadrature variance ratio: var X = 1/(4 s),
var Y = s/4, so s > 1 squeezes the real quadrature; with the squeeze operator
exp[(r/2)(a^2 - a^dag^2)], s = e^{2r}.

Photon addition needs no closed form per family: since <alpha| a^dag =
alpha* <alpha|, the Q of a^dag rho a is |alpha|^2 Q_rho / <a a^dag> (Agarwal &
Tara, PRA 43, 492 (1991); Jones, Haight & Lee, Quantum Semiclass. Opt. 9,
411 (1997)).
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from .core import check_amplitude
from .descriptors import LEVEL_LIMIT, GaussianP, normal_moments
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


#: each parameter's neutral value and the range check that every family applies
_PARAMETERS = {"beta": (0j, "beta finite"), "mbar": (0.0, "mbar >= 0"), "squeeze": (1.0, "squeeze > 0")}


@dataclass(frozen=True)
class FamilyEntry:
    """One family: the parameters it reads, an example, and whether a photon is added."""

    parameters: tuple[str, ...]
    example: dict
    added: bool = False

    @property
    def constraints(self) -> str:
        return ", ".join(_PARAMETERS[name][1] for name in self.parameters)


FAMILY_TABLE = {
    "coherent": FamilyEntry(("beta",), {"beta_re": 1.0, "beta_im": 0.5}),
    "thermal": FamilyEntry(("mbar",), {"mbar": 1.0}),
    "displaced-thermal": FamilyEntry(("beta", "mbar"), {"beta_re": 1.0, "beta_im": 0.0, "mbar": 0.5}),
    "photon-added-thermal": FamilyEntry(("mbar",), {"mbar": 1.0}, added=True),
    "photon-added-coherent": FamilyEntry(("beta",), {"beta_re": 1.0, "beta_im": 0.5}, added=True),
    "squeezed-coherent": FamilyEntry(("beta", "squeeze"), {"beta_re": 1.0, "beta_im": 0.0, "squeeze": 2.0}),
}

FAMILIES = tuple(FAMILY_TABLE)


@dataclass(frozen=True)
class StateSpec:
    """A catalog family plus its finite parameters; those it does not read are neutral."""

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
        for name, (neutral, _) in _PARAMETERS.items():
            if name not in FAMILY_TABLE[self.family].parameters:
                object.__setattr__(self, name, neutral)
        if self.mbar < 0:
            raise ValueError("mbar must be nonnegative")
        if not self.squeeze > 0:
            raise ValueError("squeeze must be positive")


def parse_state_spec(fields: dict) -> StateSpec:
    """Build a StateSpec from flat key/value data: the CLI's parsed run
    settings, whether given as flags or in a config file, or a catalog example.

    Recognized keys: family, beta_re, beta_im, mbar, squeeze; others are ignored.
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
    var_x/var_y the quadrature variances for X = (a + a^dag)/2, and
    a_squared = <a^2>, whose imaginary part is twice the quadrature covariance.
    """

    mean_a: complex
    mean_n: float
    second_factorial: float
    var_x: float
    var_y: float
    a_squared: complex

    def __post_init__(self):
        object.__setattr__(self, "mean_a", check_amplitude(self.mean_a))
        # Python floats, so no numpy scalar reaches a record's repr.  NaN
        # passes every comparison below, and inf is no moment.
        for name in ("mean_n", "second_factorial", "var_x", "var_y"):
            object.__setattr__(self, name, float(getattr(self, name)))
            if not math.isfinite(getattr(self, name)):
                raise ValueError("moments must be finite")
        object.__setattr__(self, "a_squared", check_amplitude(self.a_squared))
        slack = 1e-9
        if self.mean_n < -slack or self.second_factorial < -slack:
            raise ValueError("photon-number moments must be nonnegative")
        if self.var_x <= 0 or self.var_y <= 0:
            raise ValueError("quadrature variances must be positive")
        if self.var_x * self.var_y < 0.0625 * (1.0 - 1e-9):
            raise ValueError("uncertainty product below the quantum floor")

    @classmethod
    def from_p(cls, desc: GaussianP) -> "MomentSet":
        """Moments of the state that ``desc`` describes, with var X = (1 + 2<n> +
        2 Re<a^2>)/4 - (Re<a>)^2 and var Y = (1 + 2<n> - 2 Re<a^2>)/4 - (Im<a>)^2.

        The variances do not depend on the centre, so they are taken from the
        same descriptor moved to the origin: at the centre, the difference
        would cancel about |center|^2 times the roundoff."""
        mean_a, mean_n, second_factorial, a_squared = normal_moments(desc)
        c_a, c_n, _, c_a2 = normal_moments(GaussianP(0j, desc.width_x, desc.width_y, desc.coeffs))
        var_x = (1.0 + 2.0 * c_n + 2.0 * c_a2.real) / 4.0 - c_a.real**2
        var_y = (1.0 + 2.0 * c_n - 2.0 * c_a2.real) / 4.0 - c_a.imag**2
        return cls(mean_a, mean_n, second_factorial, var_x, var_y, a_squared)

    def mandel_q(self) -> float:
        if self.mean_n <= 0:
            raise ValueError("Mandel Q is undefined at zero mean photon number")
        return (self.second_factorial - self.mean_n**2) / self.mean_n


def initial_p_function(spec: StateSpec) -> GaussianP:
    """Exact symbolic phase-space descriptor of the initial state.

    The Gaussian has P widths w = (mbar/s + (1 - s)/(2 s), mbar s + (s - 1)/2).
    With a photon added, Q = |alpha|^2 G_W / N at Q widths W = w + 1 and
    N = <a a^dag> = |beta|^2 + (W_x + W_y)/2.  Per axis u G_W = -(W/2) d_u G_W
    and u^2 G_W = (W^2/4) d_u^2 G_W + (W/2) G_W (u = Re alpha - Re beta), so Q
    is G_W, a gradient -(W_x Re beta d_u + W_y Im beta d_v) G_W / N and a
    Laplacian (W_x^2 d_u^2 + W_y^2 d_v^2) G_W / (4 N); P is that series at w.
    """
    b, m, s = spec.beta, spec.mbar, spec.squeeze
    wx, wy = m / s + (1.0 - s) / (2.0 * s), m * s + (s - 1.0) / 2.0
    if not (min(wx, wy) > -0.5 and math.isfinite(max(wx, wy))):
        raise ValueError(f"squeeze {s!r} is too far from 1: its P widths ({wx!r}, {wy!r}) leave (-1/2, inf)")
    if not FAMILY_TABLE[spec.family].added:
        return GaussianP(b, wx, wy)
    qx, qy = wx + 1.0, wy + 1.0
    try:
        n = abs(b) ** 2 + (qx + qy) / 2.0
    except OverflowError:  # float ** raises where float * gives inf
        raise ValueError(
            f"<a a^dag> of the photon-added state is not finite: |beta|^2 overflows at |beta| = {abs(b)!r}"
        ) from None
    # An undisplaced state has no gradient term (+0.0, where the product gives -0.0).
    gx, gy = (-qx * b.real / n, -qy * b.imag / n) if b else (0.0, 0.0)
    coeffs = [[1.0, gy, qy / 4.0 * (qy / n)], [gx, 0.0, 0.0], [qx / 4.0 * (qx / n), 0.0, 0.0]]
    return GaussianP(b, wx, wy, coeffs)


#: n(n-1) weight a thermal tail may leave beyond the basis (the oracle
#: compares second factorial moments, by default to 1e-5)
_TAIL_SECOND_FACTORIAL = 1e-9


def default_cutoff(p0: GaussianP, nbar: float = 0.0) -> int:
    """Truncation heuristic for the state that ``p0`` describes: a generous
    multiple of its mean photon number plus the bath occupation ``nbar`` it
    relaxes toward, raised until a centred thermal tail of occupation m
    leaves under 1e-9 of second factorial moment beyond the basis.

    m is the larger of the P width (zero for the delta derivative of a
    photon-added coherent state) and ``nbar``: the bath takes each P width w
    to w eta^2 + nbar (1 - eta^2), and a Gaussian P of width m centred at 0
    has number-state weights falling as q^n, q = m/(1 + m).  Beyond N levels
    that tail holds sum_{n >= N} n(n-1)(1-q) q^n = q^N (N(N-1) + 2Nm + 2m^2).
    The state's own tail is not bounded by that: against a 300-level oracle
    diagonal (gamma = 1, t in {0, 0.3, 1, 3}, nbar in {0, 0.4}) the catalog's
    displaced-thermal example leaves 5.2e-8 of <a^dag^2 a^2> beyond its cutoff
    of 30 and the photon-added-thermal example 3.3e-8 beyond 41; the other
    examples leave under 8e-10.  A state whose first guess exceeds
    ``LEVEL_LIMIT`` levels, or is not finite, is refused before any level is sized.
    """
    mean_n = normal_moments(p0)[1]
    guess = 8.0 * (mean_n + nbar + 1.0)
    if not guess <= LEVEL_LIMIT:  # NaN fails this too
        raise ValueError(f"a number basis for <n> = {mean_n!r} and nbar = {nbar!r} needs over {LEVEL_LIMIT} levels")
    cutoff = max(30, math.ceil(guess))
    m = max(p0.width, nbar)
    q = m / (1.0 + m)
    while q**cutoff * (cutoff * (cutoff - 1) + 2 * cutoff * m + 2 * m * m) > _TAIL_SECOND_FACTORIAL:
        cutoff += 1
    return cutoff


def fock_density(spec: StateSpec, cutoff: int) -> FockDensityMatrix:
    """Truncated number-basis density matrix of the initial state.

    The Gaussian is a displaced squeezed vacuum when s != 1, a coherent state
    when mbar = 0, and otherwise a thermal state, displaced when beta != 0.
    An added photon gives a^dag rho a / (|beta|^2 + mbar + 1): the exact
    <a a^dag> at s = 1, as in every such row, and not the truncated trace,
    so that truncation shows as a trace deficit.

    The exact coherent vector is why this is not one D S rho_th S^dag D^dag:
    the truncated D and S are unitary on the kept basis, so a coherent state
    too large for the cutoff would keep unit trace and pass the guard below.
    """
    if cutoff < 2:
        raise ValueError(f"cutoff must be >= 2, got {cutoff}")
    b, m, s = spec.beta, spec.mbar, spec.squeeze
    if s != 1.0:
        vec = displacement_matrix(b, cutoff) @ squeeze_matrix(0.5 * math.log(s), cutoff)[:, 0]
        rho = np.outer(vec, vec.conj())
    elif m == 0.0:
        vec = coherent_vector(b, cutoff)
        rho = np.outer(vec, vec.conj())
    else:
        rho = np.diag(thermal_populations(m, cutoff)).astype(complex)
        if b:
            d = displacement_matrix(b, cutoff)
            rho = d @ rho @ d.conj().T
    if FAMILY_TABLE[spec.family].added:
        a = annihilation(cutoff)
        rho = a.T @ rho @ a / (abs(b) ** 2 + m + 1.0)
    state = FockDensityMatrix.from_array(rho)
    if state.trace_deficit > 1e-3:
        raise ValueError(
            f"trace deficit {state.trace_deficit:.3e} too large at cutoff {cutoff}; increase it"
        )
    return state


def initial_moments(spec: StateSpec) -> MomentSet:
    """Moments of the initial state, integrated from its P function."""
    return MomentSet.from_p(initial_p_function(spec))
