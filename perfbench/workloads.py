"""Seeded `phasebath run` invocation lists, one per workload.

A list's structure (families, artifacts, formats, number of sample times,
grid points, oracle cutoff and conjugate-grid size) is fixed per position;
the seed only moves values that barely change a run's cost (amplitudes,
occupations, rates, times, window extents).  So every seed gives runs of the
same cost classes, and a median over whole passes falls on the same position.
Every list has an odd length, so the median never averages two positions.
"""

from __future__ import annotations

import cmath
import dataclasses
import math
import random

from checks import ORDER_SHIFT, Case, evolve, initial_moments

GRID_POINTS = 41

#: known fault kept in the squeezed workload: the order-30 delta-derivative
#: series of the initial squeezed P diverges for squeeze >= 3 or <= 1/3, so
#: this run exits 0 with a t = 0 Q spanning about -2.9e3..4.7e3.
KNOWN_FAULTY = Case(
    family="squeezed-coherent",
    beta=1 + 0j,
    mbar=0.0,
    squeeze=4.0,
    gamma=1.0,
    nbar=0.0,
    times=(0.0, 0.2),
    outputs=("q-grid",),
    grid=(-3.0, 3.0, GRID_POINTS),
)


def _r(x: float) -> float:
    return round(x, 4)


def _amplitude(rng: random.Random, lo: float, hi: float) -> complex:
    z = cmath.rect(rng.uniform(lo, hi), rng.uniform(0.0, 2.0 * math.pi))
    return complex(_r(z.real), _r(z.imag))


def _reach(case: Case, sigmas: float) -> float:
    """Half-width of a square window holding every requested grid to `sigmas` deviations."""
    m0 = initial_moments(case)
    shift = max(ORDER_SHIFT[a] for a in case.outputs if a in ORDER_SHIFT)
    reach = 0.0
    for t in case.times:
        m = evolve(m0, case.gamma, case.nbar, t)
        sd = math.sqrt(max(m.var_x, m.var_y) + shift)
        reach = max(reach, abs(m.mean_a.real) + sigmas * sd, abs(m.mean_a.imag) + sigmas * sd)
    return reach


def _with_window(case: Case, sigmas: float = 6.5) -> Case:
    half = math.ceil(2.0 * _reach(case, sigmas)) / 2.0
    return dataclasses.replace(case, grid=(-half, half, GRID_POINTS))


def _times(rng: random.Random, gamma: float, spans) -> tuple[float, ...]:
    """One sample time per (lo, hi) span of gamma*t."""
    return tuple(_r(rng.uniform(lo, hi) / gamma) for lo, hi in spans)


# --------------------------------------------------------------------------- phase-space

_PS_RECORDS = ("moments", "mandel-q", "variances")


def phase_space(seed: int) -> list[Case]:
    """The closed-form route for the five non-squeezed families.

    Every run writes six grids of 41 x 41 plus observables: three sample
    times with a P and a Q grid, or six with a Q grid alone where a P grid
    cannot be checked (see below).
    Ten runs write CSV and five JSON, so the median falls among the CSV runs.
    """
    rng = random.Random(f"phase-space:{seed}")
    cases = []
    for nbar_range, fmt in (((0.8, 2.0), "csv"), ((0.8, 2.0), "json"), ((0.0, 0.0), "csv")):
        for family in ("coherent", "thermal", "displaced-thermal", "photon-added-thermal", "photon-added-coherent"):
            nbar = _r(rng.uniform(*nbar_range))
            if family == "photon-added-coherent" and nbar == 0.0:
                # its q-grid at nbar = 0 and t > 0 exits 2 (see CHANGES.md); keep nbar > 0
                nbar = _r(rng.uniform(0.8, 2.0))
            gamma = _r(rng.uniform(0.5, 1.0))
            singular_at_zero = family in ("coherent", "photon-added-coherent")
            if nbar == 0.0 and family in ("coherent", "photon-added-thermal"):
                # P is singular (coherent), or narrows as mbar eta^2 below what 41 points
                # resolve on a window that holds Q (photon-added-thermal): Q grids only
                outputs = ("q-grid",) + _PS_RECORDS
                spans = ((0.0, 0.0), (0.05, 0.1), (0.12, 0.2), (0.22, 0.3), (0.32, 0.4), (0.42, 0.5))
            elif singular_at_zero:
                outputs = ("p-grid", "q-grid") + _PS_RECORDS
                spans = ((0.2, 0.25), (0.3, 0.35), (0.4, 0.45))
            else:
                outputs = ("p-grid", "q-grid") + _PS_RECORDS
                spans = ((0.0, 0.0), (0.15, 0.25), (0.3, 0.45))
            case = Case(
                family=family,
                beta=_amplitude(rng, 0.5, 2.0) if family in ("coherent", "displaced-thermal", "photon-added-coherent") else 0j,
                mbar=_r(rng.uniform(0.8, 1.5)) if family in ("thermal", "displaced-thermal", "photon-added-thermal") else 0.0,
                squeeze=1.0,
                gamma=gamma,
                nbar=nbar,
                times=_times(rng, gamma, spans),
                outputs=outputs,
                grid=(-3.0, 3.0, GRID_POINTS),
                fmt=fmt,
            )
            cases.append(_with_window(case))
    return cases


# --------------------------------------------------------------------------- squeezed


def _time_for_ratio(ratio: float, squeeze: float, gamma: float, nbar: float) -> float:
    """Time at which the evolved U-series term ratio max|g| equals `ratio`.

    g_i = (s - 1)/2 * R and g_r = (1 - s)/(2 s) * R with R = eta^2 / nbar_t.
    """
    per_r = (squeeze - 1.0) / 2.0 if squeeze > 1.0 else (1.0 - squeeze) / (2.0 * squeeze)
    big_r = ratio / per_r
    eta2 = big_r * nbar / (1.0 + big_r * nbar)
    return -math.log(eta2) / (2.0 * gamma)


def squeezed(seed: int) -> list[Case]:
    """Squeezed-coherent Q grids and moments through the U-series route.

    Each run samples t = 0 (the initial delta-derivative series) and two
    times at which the evolved U-series term ratio is about 0.9 and about
    0.3.  On the fixed -3:3 window the P->Q smoothing then refines to 512
    and to 256 nodes per axis for every seed; above a ratio of about 1 the
    depth (512, 1024 or the 4096 cap) depends on nbar and the window, so
    run costs would depend on the seed.  Squeeze alternates between s > 1
    and s < 1.  The known-faulty run is appended as the ninth position.
    """
    rng = random.Random(f"squeezed:{seed}")
    cases = []
    for pos in range(8):
        s = _r(rng.uniform(1.5, 2.0) if pos % 2 == 0 else rng.uniform(0.5, 0.67))
        gamma = _r(rng.uniform(0.5, 1.5))
        nbar = _r(rng.uniform(0.5, 1.5))
        t_hi = _r(_time_for_ratio(rng.uniform(0.85, 0.95), s, gamma, nbar))
        t_lo = _r(_time_for_ratio(rng.uniform(0.25, 0.35), s, gamma, nbar))
        cases.append(
            Case(
                family="squeezed-coherent",
                beta=_amplitude(rng, 0.3, 1.0),
                mbar=0.0,
                squeeze=s,
                gamma=gamma,
                nbar=nbar,
                times=(0.0, t_hi, t_lo),
                outputs=("q-grid", "moments"),
                grid=(-3.0, 3.0, GRID_POINTS),
            )
        )
    cases.append(KNOWN_FAULTY)
    return cases


# --------------------------------------------------------------------------- oracle

#: conjugate (xi) grid half-size: phasebath samples chi on (2K + 1)^2 points,
#: K = ceil((2a + 4) / dalpha) for a window [-a, a] of spacing dalpha
_XI_HALF = 48


def oracle_cutoff(case: Case) -> int:
    """Basis size from the state's and the bath's occupation, in steps of 8."""
    occupation = max(initial_moments(case).mean_n, case.nbar)
    return 8 * math.ceil(occupation + 3.0)


def _oracle_window(min_half: float) -> tuple[float, float, int]:
    """Smallest window [-a, a], a >= min_half, whose xi grid has exactly 2*_XI_HALF + 1 points.

    The window is chosen so (2a + 4)/dalpha sits at least 0.1 below the
    integer it rounds up to, clear of floating-point ties.
    """
    a = math.ceil(min_half * 20.0) / 20.0
    while True:
        factor = 1.0 + 2.0 / a  # (2a + 4)/dalpha = factor * intervals
        intervals = math.ceil((_XI_HALF - 0.9) / factor)
        if intervals * factor <= _XI_HALF - 0.1:
            return (-a, a, intervals + 1)
        a = round(a + 0.05, 2)


def oracle(seed: int) -> list[Case]:
    """The Fock-basis route: --compare plus a w-grid at one positive time.

    Seven runs cover the six families (squeezed on both sides of s = 1).
    Each position's occupation range keeps its cutoff bin (32 or 40) fixed,
    and each position has a fixed window, wide enough for its whole range
    to 6.5 deviations, with a 97 x 97 conjugate grid.  So run costs do not
    depend on the seed: the share of xi points where phasebath raises its
    truncation warning follows from the window alone.
    """
    rng = random.Random(f"oracle:{seed}")
    specs = [
        ("coherent", 5.75, dict(beta=_amplitude(rng, 1.05, 1.35))),
        ("thermal", 5.5, dict(mbar=_r(rng.uniform(0.3, 0.9)))),
        ("displaced-thermal", 5.5, dict(beta=_amplitude(rng, 0.5, 0.75), mbar=_r(rng.uniform(0.2, 0.35)))),
        ("photon-added-thermal", 6.5, dict(mbar=_r(rng.uniform(0.1, 0.45)))),
        ("photon-added-coherent", 6.25, dict(beta=_amplitude(rng, 0.35, 0.6))),
        ("squeezed-coherent", 5.75, dict(beta=_amplitude(rng, 0.4, 0.8), squeeze=_r(rng.uniform(1.6, 2.4)))),
        ("squeezed-coherent", 5.75, dict(beta=_amplitude(rng, 0.4, 0.8), squeeze=_r(rng.uniform(0.42, 0.62)))),
    ]
    cases = []
    for family, half, params in specs:
        gamma = _r(rng.uniform(0.9, 1.1))
        case = Case(
            family=family,
            beta=params.get("beta", 0j),
            mbar=params.get("mbar", 0.0),
            squeeze=params.get("squeeze", 1.0),
            gamma=gamma,
            nbar=_r(rng.uniform(0.2, 0.9)),
            times=_times(rng, gamma, ((0.4, 0.5),)),
            outputs=("moments", "w-grid"),
            grid=_oracle_window(half),
            compare=1e-5,
        )
        cases.append(dataclasses.replace(case, oracle_cutoff=oracle_cutoff(case)))
    return cases


WORKLOADS = {"phase-space": phase_space, "squeezed": squeezed, "oracle": oracle}
