"""Acceptance gate: one test per release criterion, each printing PASS/FAIL.

Every criterion checks the analytic phase-space machinery against an
independent route (the exact truncated-basis propagator, exact rational
recurrences, or closed-form special cases) at the stated tolerance.
"""

import math
from fractions import Fraction

import numpy as np
import pytest
from numpy.polynomial.legendre import leggauss

from phasebath import (
    BathParams,
    PhaseSpaceGrid,
    StateSpec,
    apply_liouvillian,
    convolve_p_numeric,
    evaluate_p,
    evolve_p_closed_form,
    evolved_moments,
    fock_density,
    fock_populations,
    husimi_q_grid,
    initial_moments,
    initial_p_function,
    integrate,
    moments_from_rho,
    p_to_q_grid,
    rescale_zero_temperature,
    scale_bath,
    tricomi_u_half,
)
from phasebath.descriptors import is_regular

CATALOG = [
    StateSpec("coherent", beta=1.5 + 0.5j),
    StateSpec("thermal", mbar=1.5),
    StateSpec("displaced-thermal", beta=1.0 - 0.5j, mbar=1.0),
    StateSpec("photon-added-thermal", mbar=1.0),
    StateSpec("photon-added-coherent", beta=1.2 + 0.4j),
    StateSpec("squeezed-coherent", beta=1.0, squeeze=2.0),
    StateSpec("squeezed-coherent", beta=0.8 + 0.3j, squeeze=0.5),
]


def report(criterion: int, label: str, ok: bool, detail: str) -> None:
    status = "PASS" if ok else "FAIL"
    print(f"[criterion {criterion}] {status}: {label} ({detail})")


def test_criterion_1_moment_laws():
    """Analytic observable evolution vs the exact truncated-basis propagator."""
    times = [0.0, 0.2, 0.5, 1.0, 3.0]
    worst = 0.0
    for nbar in (0.0, 0.5, 2.0):
        bath = BathParams(gamma=0.5, nbar=nbar)
        for spec in CATALOG:
            rho0 = fock_density(spec, 60)
            states = integrate(rho0, bath, times)
            m0 = initial_moments(spec)
            for t, rho in zip(times, states):
                mt = evolved_moments(m0, bath, t)
                mo = moments_from_rho(rho)
                dev = max(
                    abs(mt.mean_a - mo.mean_a),
                    abs(mt.mean_n - mo.mean_n),
                    abs(mt.second_factorial - mo.second_factorial),
                    abs(mt.var_x - mo.var_x),
                    abs(mt.var_y - mo.var_y),
                )
                worst = max(worst, dev)
    ok = worst < 1e-5
    report(1, "moment laws, all families x baths x times", ok, f"worst dev {worst:.3e}")
    assert ok


def test_criterion_2_convolution_vs_closed_forms():
    """Direct propagator integral vs the evolved closed-form distributions.

    The initial coherent, photon-added coherent and squeezed P are singular,
    so those states are checked through the bath's semigroup law: the regular
    closed form at t1 = 0.2 (P width 0.363 for the first two, widths 0.158
    and 0.772 for the squeezed state) is convolved numerically over a further
    dt and compared with the closed form at t1 + dt.
    """
    axis = np.linspace(-6.0, 6.0, 61)
    template = PhaseSpaceGrid(axis, axis, np.zeros((61, 61)), {})
    bath = BathParams(gamma=0.5, nbar=2.0)
    worst = 0.0
    for spec, t1, steps in (
        (StateSpec("photon-added-thermal", mbar=1.0), 0.0, (0.2, 1.0)),
        (StateSpec("coherent", beta=1.5 + 0.5j), 0.2, (0.3, 0.8)),
        (StateSpec("photon-added-coherent", beta=1.2 + 0.4j), 0.2, (0.3, 0.8)),
        (StateSpec("squeezed-coherent", beta=1.0, squeeze=2.0), 0.2, (0.3, 0.8)),
    ):
        start = evolve_p_closed_form(spec, bath, t1)
        for dt in steps:
            closed = evaluate_p(
                evolve_p_closed_form(spec, bath, t1 + dt), axis[:, None], axis[None, :]
            )
            numeric = convolve_p_numeric(start, bath, dt, template)
            worst = max(worst, float(np.max(np.abs(numeric.values - closed))))
    ok = worst < 1e-6
    report(2, "propagator integral vs closed forms", ok, f"worst dev {worst:.3e}")
    assert ok


def test_criterion_3_end_to_end_chain():
    """Smoothing of the evolved analytic P vs the propagated state's Q on a grid."""
    bath = BathParams(gamma=0.5, nbar=1.0)
    t = 0.5
    axis = np.linspace(-3.0, 3.0, 41)
    worst = 0.0
    for spec in (
        StateSpec("photon-added-thermal", mbar=1.0),
        StateSpec("photon-added-coherent", beta=1.0 + 0.5j),
        StateSpec("squeezed-coherent", beta=0.8, squeeze=2.0),
    ):
        form = evolve_p_closed_form(spec, bath, t)
        rho = integrate(fock_density(spec, 60), bath, [t])[0]
        smoothed = p_to_q_grid(form, axis, axis)
        direct = husimi_q_grid(rho, axis, axis)
        worst = max(worst, float(np.max(np.abs(smoothed.values - direct.values))))
    ok = worst < 1e-5
    report(3, "analytic P -> Q vs integrated state's Q", ok, f"worst dev {worst:.3e}")
    assert ok


def test_criterion_4_zero_temperature_rescaling():
    """Pure-decay descriptor rescaling vs propagated Fock populations."""
    bath = BathParams(gamma=1.0, nbar=0.0)
    t = 0.7
    eta = math.exp(-bath.gamma * t)
    worst = 0.0
    for spec in (StateSpec("thermal", mbar=1.2), StateSpec("photon-added-thermal", mbar=1.0)):
        rescaled = rescale_zero_temperature(initial_p_function(spec), eta)
        pops = fock_populations(rescaled, 60)
        rho = integrate(fock_density(spec, 60), bath, [t])[0]
        worst = max(worst, float(np.max(np.abs(pops - np.real(np.diagonal(rho.elements))))))
    ok = worst < 1e-8
    report(4, "zero-temperature rescaling law", ok, f"worst dev {worst:.3e}")
    assert ok


def test_criterion_5_thermal_stationarity():
    """A thermal state matched to its bath is a fixed point on both routes."""
    worst_deriv = 0.0
    worst_coeff = 0.0
    for nbar in (0.5, 2.0):
        spec = StateSpec("thermal", mbar=nbar)
        bath = BathParams(gamma=1.0, nbar=nbar)
        for t in (0.3, 1.0, 4.0):
            form = evolve_p_closed_form(spec, bath, t)
            ref = initial_p_function(spec)
            # A GaussianP is fixed by its centre and widths, so these are
            # all its coefficients.
            worst_coeff = max(
                worst_coeff,
                abs(form.center - ref.center),
                abs(form.width_x - ref.width_x),
                abs(form.width_y - ref.width_y),
            )
        # The geometric tail of the hot state needs extra basis headroom to
        # push the truncation leakage below the stationarity tolerance.
        rho = fock_density(spec, 120)
        worst_deriv = max(
            worst_deriv, float(np.max(np.abs(apply_liouvillian(rho, bath))))
        )
    ok = worst_deriv < 1e-10 and worst_coeff == 0.0
    report(
        5,
        "thermal fixed point",
        ok,
        f"derivative norm {worst_deriv:.3e}, coefficient drift {worst_coeff:.3e}",
    )
    assert ok


def test_criterion_6_normalization_and_physicality():
    """Unit mass of every regular evolved P; Q value bounds and the
    uncertainty floor for every catalog entry at every time."""
    nodes, w = leggauss(300)
    bath = BathParams(gamma=0.5, nbar=1.0)
    worst_mass = 0.0
    q_low, q_high = 0.0, 0.0
    worst_floor = math.inf
    axis = np.linspace(-4.0, 4.0, 33)
    for spec in CATALOG:
        m0 = initial_moments(spec)
        for t in (0.2, 0.5, 1.0, 3.0):
            form = evolve_p_closed_form(spec, bath, t)
            if is_regular(form):
                half = abs(form.center) + 8.0 * math.sqrt(form.width)
                u = nodes * half
                wu = w * half
                vals = evaluate_p(form, u[:, None], u[None, :])
                mass = float(np.sum(vals * np.outer(wu, wu)))
                worst_mass = max(worst_mass, abs(mass - 1.0))
            q = p_to_q_grid(form, axis, axis).values
            q_low = min(q_low, float(q.min()))
            q_high = max(q_high, float(q.max()))
            mt = evolved_moments(m0, bath, t)
            worst_floor = min(worst_floor, mt.var_x * mt.var_y)
    ok = (
        worst_mass < 1e-7
        and q_low >= -1e-12
        and q_high <= 1.0 / math.pi + 1e-9
        and worst_floor >= 1.0 / 16.0 - 1e-12
    )
    report(
        6,
        "normalization, Q bounds, uncertainty floor",
        ok,
        f"mass dev {worst_mass:.3e}, Q in [{q_low:.2e}, {q_high:.6f}], "
        f"min var product {worst_floor:.8f}",
    )
    assert ok


def test_criterion_7_mandel_q_sweep():
    """Analytic number-statistics curve vs the propagator, with sign structure."""
    spec = StateSpec("photon-added-thermal", mbar=1.0)
    bath = BathParams(gamma=1.0, nbar=0.5)
    times = np.linspace(0.0, 5.0, 26)
    rho0 = fock_density(spec, 60)
    states = integrate(rho0, bath, times)
    m0 = initial_moments(spec)
    analytic = np.array([evolved_moments(m0, bath, float(t)).mandel_q() for t in times])
    oracle = np.array([moments_from_rho(r).mandel_q() for r in states])
    worst = float(np.max(np.abs(analytic - oracle)))
    sign_ok = (
        analytic[0] == pytest.approx(1.0 / 3.0)
        and analytic[0] > 0.0
        and abs(analytic[-1] - bath.nbar) < 1e-3
    )
    ok = worst < 1e-5 and bool(sign_ok)
    report(
        7,
        "number-statistics sweep",
        ok,
        f"worst dev {worst:.3e}, Q(0)={analytic[0]:.4f} -> Q(5)={analytic[-1]:.4f}",
    )
    assert ok


def test_criterion_8_special_function_oracle():
    """Polynomial branch of the confluent function vs exact rationals."""

    def exact(n: int, x: Fraction) -> Fraction:
        prev = Fraction(1)
        if n == 0:
            return prev
        curr = Fraction(1, 2) - x
        for k in range(1, n):
            nxt = ((2 * k + Fraction(1, 2) - x) * curr - (k - Fraction(1, 2)) * prev) / (
                k + 1
            )
            prev, curr = curr, nxt
        return (1 if n % 2 == 0 else -1) * math.factorial(n) * curr

    rng = np.random.default_rng(2026)
    worst = 0.0
    for _ in range(1000):
        n = int(rng.integers(0, 21))
        x = float(rng.uniform(-50.0, 50.0))
        ref = float(exact(n, Fraction(x)))
        got = float(tricomi_u_half(n, x))
        worst = max(worst, abs(got - ref) / max(abs(ref), 1e-300))
    ok = worst < 1e-12
    report(8, "confluent-function branch vs exact rationals", ok, f"worst rel {worst:.3e}")
    assert ok


def test_criterion_9_cli_determinism(tmp_path):
    """Identical configs must produce byte-identical data files."""
    from phasebath.cli import main

    args = [
        "run", "--state", "photon-added-thermal", "--mbar", "1",
        "--gamma", "0.5", "--nbar", "2", "--times", "0,0.5,1",
        "--outputs", "p-grid,q-grid,moments,mandel-q,variances", "--grid=-3:3:21",
    ]
    assert main(args + ["--out", str(tmp_path / "a")]) == 0
    assert main(args + ["--out", str(tmp_path / "b")]) == 0
    mismatched = [
        f.name
        for f in sorted((tmp_path / "a").iterdir())
        if f.name != "manifest.json"
        and f.read_bytes() != (tmp_path / "b" / f.name).read_bytes()
    ]
    ok = not mismatched
    report(9, "deterministic data files", ok, f"mismatched: {mismatched or 'none'}")
    assert ok
