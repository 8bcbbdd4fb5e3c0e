"""Reference laws and output checks for `phasebath run`, computed apart from phasebath.

Nothing here imports phasebath.  Initial moments come from closed forms
(Gaussian families) or from number-basis sums built here (photon-added
families); evolution uses the standard damping laws

    <a>_t = <a>_0 eta,   <n>_t = <n>_0 eta^2 + nbar_t,
    var_t = (2 nbar_t + 1)/4 + (var_0 - 1/4) eta^2,
    <a^dag^2 a^2>_t = eta^4 G_0 + 4 eta^2 nbar_t <n>_0 + 2 nbar_t^2,

with eta = exp(-gamma t) and nbar_t = nbar (1 - eta^2).  A Gaussian state's
P, W and Q are Gaussians with the same mean and per-axis variances
var - 1/4, var and var + 1/4.
"""

from __future__ import annotations

import json
import math
from dataclasses import dataclass
from pathlib import Path

import numpy as np

GAUSSIAN_FAMILIES = ("coherent", "thermal", "displaced-thermal", "squeezed-coherent")

#: variance offset of each grid's quasiprobability relative to the state variance
ORDER_SHIFT = {"p-grid": -0.25, "w-grid": 0.0, "q-grid": 0.25}

#: pointwise grid deviation allowed, as a share of the reference peak
GRID_RTOL = 1e-6
#: allowed deviation of grid mass and first moments from the reference
MASS_TOL = 1e-6
#: roundoff allowed below zero in a Q grid: the photon-added-thermal Q is summed
#: from polynomial terms of both signs and reaches about -4e-17 in its far tails
Q_FLOOR = -1e-12
#: relative tolerance on observables written as records
RECORD_RTOL = 1e-9
RECORD_ATOL = 1e-12

_FOCK_CUTOFF = 200


@dataclass(frozen=True)
class Case:
    """One `phasebath run` invocation and everything needed to check it."""

    family: str
    beta: complex
    mbar: float
    squeeze: float
    gamma: float
    nbar: float
    times: tuple[float, ...]
    outputs: tuple[str, ...]
    grid: tuple[float, float, int]
    fmt: str = "csv"
    oracle_cutoff: int | None = None
    compare: float | None = None

    def argv(self, out_dir: str) -> list[str]:
        lo, hi, points = self.grid
        args = ["run", "--state", self.family]
        if self.family in ("coherent", "displaced-thermal", "photon-added-coherent", "squeezed-coherent"):
            args += ["--beta-re", _num(self.beta.real), "--beta-im", _num(self.beta.imag)]
        if self.family in ("thermal", "displaced-thermal", "photon-added-thermal"):
            args += ["--mbar", _num(self.mbar)]
        if self.family == "squeezed-coherent":
            args += ["--squeeze", _num(self.squeeze)]
        args += [
            "--gamma", _num(self.gamma),
            "--nbar", _num(self.nbar),
            "--times", ",".join(_num(t) for t in self.times),
            "--outputs", ",".join(self.outputs),
            f"--grid={_num(lo)}:{_num(hi)}:{points}",
            "--format", self.fmt,
            "--out", out_dir,
        ]
        if self.oracle_cutoff is not None:
            args += ["--oracle-cutoff", str(self.oracle_cutoff)]
        if self.compare is not None:
            args += [f"--compare={self.compare!r}"]
        return args

    def artifacts(self) -> list[str]:
        names = list(self.outputs)
        if self.compare is not None and "oracle-compare" not in names:
            names.append("oracle-compare")
        return names


def _num(x: float) -> str:
    return repr(float(x))


# --------------------------------------------------------------------------- moments


@dataclass(frozen=True)
class Moments:
    mean_a: complex
    mean_n: float
    second_factorial: float
    var_x: float
    var_y: float

    @property
    def mandel_q(self) -> float:
        return (self.second_factorial - self.mean_n**2) / self.mean_n


def _gaussian_moments(mean_a: complex, var_x: float, var_y: float) -> Moments:
    """Moments of a Gaussian state with diagonal quadrature covariance (Wick's theorem)."""
    n_fluct = var_x + var_y - 0.5  # <d^dag d> for the fluctuation d = a - <a>
    m_fluct = var_x - var_y  # <d d>
    b2 = abs(mean_a) ** 2
    second = (
        b2 * b2
        + 4.0 * b2 * n_fluct
        + 2.0 * (np.conj(mean_a) ** 2 * m_fluct).real
        + 2.0 * n_fluct**2
        + m_fluct**2
    )
    return Moments(mean_a, b2 + n_fluct, float(second), var_x, var_y)


def _moments_from_amplitudes(c: np.ndarray) -> Moments:
    """Moments of the pure state sum_k c_k |k>."""
    k = np.arange(c.size, dtype=float)
    pops = np.abs(c) ** 2
    mean_a = complex(np.sum(np.sqrt(k[1:]) * np.conj(c[:-1]) * c[1:]))
    a_sq = complex(np.sum(np.sqrt(k[1:-1] * k[2:]) * np.conj(c[:-2]) * c[2:]))
    return _moments_from_sums(mean_a, a_sq, float(pops @ k), float(pops @ (k * (k - 1.0))))


def _moments_from_sums(mean_a: complex, a_sq: complex, mean_n: float, second: float) -> Moments:
    var_x = (1.0 + 2.0 * mean_n + 2.0 * a_sq.real) / 4.0 - mean_a.real**2
    var_y = (1.0 + 2.0 * mean_n - 2.0 * a_sq.real) / 4.0 - mean_a.imag**2
    return Moments(mean_a, mean_n, second, var_x, var_y)


def initial_moments(case: Case) -> Moments:
    f = case.family
    if f == "coherent":
        return _gaussian_moments(case.beta, 0.25, 0.25)
    if f in ("thermal", "displaced-thermal"):
        v = (2.0 * case.mbar + 1.0) / 4.0
        return _gaussian_moments(case.beta if f == "displaced-thermal" else 0j, v, v)
    if f == "squeezed-coherent":
        return _gaussian_moments(case.beta, 0.25 / case.squeeze, 0.25 * case.squeeze)
    k = np.arange(_FOCK_CUTOFF, dtype=float)
    logfact = np.concatenate(([0.0], np.cumsum(np.log(k[1:]))))
    if f == "photon-added-thermal":
        # a^dag rho_th a: populations proportional to k q^(k-1), q = mbar/(1+mbar)
        q = case.mbar / (1.0 + case.mbar)
        pops = k * q ** np.maximum(k - 1.0, 0.0)
        pops /= pops.sum()
        return _moments_from_sums(0j, 0j, float(pops @ k), float(pops @ (k * (k - 1.0))))
    if f == "photon-added-coherent":
        # a^dag |beta>: amplitudes proportional to sqrt(k) beta^(k-1) / sqrt((k-1)!)
        b = case.beta
        c = np.zeros(_FOCK_CUTOFF, dtype=complex)
        if b == 0:
            c[1] = 1.0
        else:
            j = k[1:] - 1.0
            mag = np.exp(j * math.log(abs(b)) - 0.5 * logfact[:-1] - 0.5 * abs(b) ** 2)
            c[1:] = np.sqrt(k[1:]) * mag * np.exp(1j * j * np.angle(b))
        c /= np.linalg.norm(c)
        return _moments_from_amplitudes(c)
    raise ValueError(f"unknown family {f!r}")


def evolve(m0: Moments, gamma: float, nbar: float, t: float) -> Moments:
    eta2 = math.exp(-2.0 * gamma * t)
    nt = nbar * (1.0 - eta2)
    floor = (2.0 * nt + 1.0) / 4.0
    return Moments(
        mean_a=m0.mean_a * math.sqrt(eta2),
        mean_n=m0.mean_n * eta2 + nt,
        second_factorial=eta2 * eta2 * m0.second_factorial + 4.0 * eta2 * nt * m0.mean_n + 2.0 * nt * nt,
        var_x=floor + (m0.var_x - 0.25) * eta2,
        var_y=floor + (m0.var_y - 0.25) * eta2,
    )


# --------------------------------------------------------------------------- grids


def gaussian_grid(mean: complex, var_x: float, var_y: float, x: np.ndarray, y: np.ndarray) -> np.ndarray:
    """Normalised Gaussian with the given mean and per-axis variances, values[i, j] at x[i] + i y[j]."""
    gx = np.exp(-((x - mean.real) ** 2) / (2.0 * var_x))
    gy = np.exp(-((y - mean.imag) ** 2) / (2.0 * var_y))
    return np.outer(gx, gy) / (2.0 * math.pi * math.sqrt(var_x * var_y))


def trapezoid_2d(values: np.ndarray, x: np.ndarray, y: np.ndarray) -> float:
    return float(np.trapezoid(np.trapezoid(values, y, axis=1), x))


def check_grid(
    artifact: str, family: str, m: Moments, x: np.ndarray, y: np.ndarray, values: np.ndarray
) -> list[str]:
    """Check one P, Q or W grid against the state's moments; returns the faults found."""
    errors = []
    if values.shape != (x.size, y.size) or not np.all(np.isfinite(values)):
        return [f"{artifact}: grid is not a finite {x.size}x{y.size} array"]
    if artifact == "q-grid" and not (values.min() >= Q_FLOOR and values.max() <= 1.0 / math.pi):
        errors.append(f"q-grid: values span {values.min():.3e}..{values.max():.3e}, outside [0, 1/pi]")
    if artifact == "w-grid" and np.max(np.abs(values)) > 2.0 / math.pi:
        errors.append(f"w-grid: |W| reaches {np.max(np.abs(values)):.3e} > 2/pi")
    shift = ORDER_SHIFT[artifact]
    vx, vy = m.var_x + shift, m.var_y + shift
    mass = trapezoid_2d(values, x, y)
    if family in GAUSSIAN_FAMILIES:
        ref = gaussian_grid(m.mean_a, vx, vy, x, y)
        dev = float(np.max(np.abs(values - ref)))
        if dev > GRID_RTOL * float(ref.max()):
            errors.append(f"{artifact}: deviates from the reference Gaussian by {dev:.3e} (peak {ref.max():.3e})")
        expected = trapezoid_2d(ref, x, y)
        if abs(mass - expected) > MASS_TOL:
            errors.append(f"{artifact}: mass {mass:.9f}, expected {expected:.9f} on this window")
    else:
        # no closed form here, so the window must hold the whole state
        if abs(mass - 1.0) > MASS_TOL:
            errors.append(f"{artifact}: mass {mass:.9f}, expected 1")
        first = complex(trapezoid_2d(values * x[:, None], x, y), trapezoid_2d(values * y[None, :], x, y))
        if abs(first - m.mean_a) > MASS_TOL:
            errors.append(f"{artifact}: first moment {first:.9f}, expected {m.mean_a:.9f}")
    return errors


# --------------------------------------------------------------------------- files


def read_grid(path: Path, fmt: str):
    if fmt == "json":
        data = json.loads(path.read_text())
        return np.array(data["x_axis"]), np.array(data["y_axis"]), np.array(data["values"], dtype=float)
    lines = path.read_text().splitlines()
    if lines[0] != "re_alpha,im_alpha,value":
        raise ValueError(f"unexpected grid header {lines[0]!r}")
    rows = np.array([[float(v) for v in line.split(",")] for line in lines[1:]])
    x = np.unique(rows[:, 0])
    y = np.unique(rows[:, 1])
    if rows.shape[0] != x.size * y.size:
        raise ValueError("grid rows do not form a rectangle")
    return x, y, rows[:, 2].reshape(x.size, y.size)


def read_record(path: Path, fmt: str) -> dict:
    if fmt == "json":
        return json.loads(path.read_text())
    keys, values = path.read_text().splitlines()
    return {k: float(v) for k, v in zip(keys.split(","), values.split(","))}


def _close(got: float, want: float) -> bool:
    return abs(got - want) <= RECORD_ATOL + RECORD_RTOL * abs(want)


def expected_record(artifact: str, t: float, m: Moments) -> dict:
    if artifact == "moments":
        return {
            "time": t,
            "mean_a_re": m.mean_a.real,
            "mean_a_im": m.mean_a.imag,
            "mean_n": m.mean_n,
            "second_factorial": m.second_factorial,
            "var_x": m.var_x,
            "var_y": m.var_y,
        }
    if artifact == "mandel-q":
        return {"time": t, "mandel_q": m.mandel_q}
    if artifact == "variances":
        return {"time": t, "var_x": m.var_x, "var_y": m.var_y, "product": m.var_x * m.var_y}
    raise ValueError(artifact)


def check_run(case: Case, out_dir: Path, exit_code: int) -> list[str]:
    """Check every file one run wrote; returns the faults found (empty when correct)."""
    if exit_code != 0:
        return [f"exit code {exit_code}"]
    errors: list[str] = []
    m0 = initial_moments(case)
    for idx, t in enumerate(case.times):
        m = evolve(m0, case.gamma, case.nbar, t)
        for artifact in case.artifacts():
            path = out_dir / f"{artifact}-{idx:03d}.{case.fmt}"
            if not path.is_file():
                errors.append(f"{path.name}: missing")
                continue
            if artifact in ORDER_SHIFT:
                x, y, values = read_grid(path, case.fmt)
                errors += [f"t={t}: {e}" for e in check_grid(artifact, case.family, m, x, y, values)]
            elif artifact == "oracle-compare":
                row = read_record(path, case.fmt)
                worst = max(v for k, v in row.items() if k != "time")
                if not worst <= case.compare:
                    errors.append(f"t={t}: oracle deviation {worst:.3e} exceeds {case.compare:.3e}")
            else:
                got = read_record(path, case.fmt)
                for key, want in expected_record(artifact, t, m).items():
                    if key not in got or not _close(float(got[key]), want):
                        errors.append(f"t={t}: {artifact}.{key} = {got.get(key)!r}, expected {want!r}")
    return errors
