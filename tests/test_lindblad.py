"""Exact truncated number-basis propagator for the damped mode."""

import math

import numpy as np
import pytest

from phasebath import (
    BathParams,
    FockDensityMatrix,
    StateSpec,
    apply_liouvillian,
    fock_density,
    husimi_q,
    husimi_q_grid,
    integrate,
    moments_from_rho,
)
from phasebath.fock import thermal_populations
from phasebath.lindblad import _diagonal_generator


def thermal_rho(mbar: float, cutoff: int) -> FockDensityMatrix:
    return fock_density(StateSpec("thermal", mbar=mbar), cutoff)


class TestGenerator:
    def test_thermal_state_is_stationary(self):
        bath = BathParams(gamma=1.0, nbar=1.0)
        rho = thermal_rho(1.0, 100)
        deriv = apply_liouvillian(rho, bath)
        assert np.max(np.abs(deriv)) < 1e-12

    def test_vacuum_dark_at_zero_temperature(self):
        bath = BathParams(gamma=2.0, nbar=0.0)
        vac = np.zeros((30, 30))
        vac[0, 0] = 1.0
        rho = FockDensityMatrix.from_array(vac)
        assert np.max(np.abs(apply_liouvillian(rho, bath))) == 0.0

    def test_trace_preserving(self):
        bath = BathParams(gamma=0.8, nbar=1.5)
        rho = fock_density(StateSpec("displaced-thermal", beta=1.0, mbar=0.5), 50)
        assert abs(np.trace(apply_liouvillian(rho, bath))) < 1e-13

    def test_amplitude_damping_rate(self):
        # d<a>/dt = -gamma <a>, independent of temperature.
        bath = BathParams(gamma=0.6, nbar=1.2)
        rho = fock_density(StateSpec("coherent", beta=1.0 + 0.5j), 50)
        deriv = apply_liouvillian(rho, bath)
        a = np.zeros((50, 50))
        np.fill_diagonal(a[:-1, 1:], np.sqrt(np.arange(1, 50)))
        da_dt = np.trace(deriv @ a)
        assert da_dt == pytest.approx(-0.6 * (1.0 + 0.5j), abs=1e-10)


class TestIntegration:
    def test_coherent_stays_coherent_at_zero_temperature(self):
        bath = BathParams(gamma=1.0, nbar=0.0)
        t = 0.5
        rho_t = integrate(fock_density(StateSpec("coherent", beta=1.5), 40), bath, [t])[0]
        target = fock_density(StateSpec("coherent", beta=1.5 * math.exp(-t)), 40)
        assert np.max(np.abs(rho_t.elements - target.elements)) < 1e-9

    def test_relaxes_to_bath_thermal_state(self):
        bath = BathParams(gamma=1.0, nbar=0.7)
        rho_t = integrate(fock_density(StateSpec("coherent", beta=1.0), 60), bath, [12.0])[0]
        np.testing.assert_allclose(
            np.real(np.diagonal(rho_t.elements)), thermal_populations(0.7, 60), atol=1e-7
        )
        # The coherence decays as e^{-gamma t}; at t = 12 only ~6e-6 remains.
        off = rho_t.elements - np.diag(np.diagonal(rho_t.elements))
        assert np.max(np.abs(off)) < 1e-5

    def test_displaced_thermal_matches_analytic_moments(self):
        spec = StateSpec("displaced-thermal", beta=1.0 - 0.5j, mbar=0.5)
        bath = BathParams(gamma=0.5, nbar=1.0)
        t = 0.7
        from phasebath import evolved_moments, initial_moments

        rho_t = integrate(fock_density(spec, 70), bath, [t])[0]
        mt = evolved_moments(initial_moments(spec), bath, t)
        mo = moments_from_rho(rho_t)
        assert abs(mt.mean_a - mo.mean_a) < 1e-8
        assert mt.mean_n == pytest.approx(mo.mean_n, abs=1e-8)
        assert mt.var_x == pytest.approx(mo.var_x, abs=1e-8)

    @pytest.mark.parametrize("nbar", [0.0, 1.5])
    @pytest.mark.parametrize(
        "spec",
        [
            StateSpec("coherent", beta=1.2 - 0.7j),
            StateSpec("photon-added-coherent", beta=0.9 + 0.4j),
            StateSpec("squeezed-coherent", beta=0.6 + 0.3j, squeeze=2.0),
        ],
        ids=lambda s: s.family,
    )
    def test_diagonal_generators_reproduce_liouvillian(self, spec, nbar):
        bath = BathParams(gamma=0.8, nbar=nbar)
        rho = fock_density(spec, 40)
        el = np.asarray(rho.elements)
        by_diagonal = np.zeros_like(el)
        for k in range(-39, 40):
            idx = np.arange(40 - abs(k))
            rows, cols = (idx, idx + k) if k >= 0 else (idx - k, idx)
            by_diagonal[rows, cols] = _diagonal_generator(abs(k), 40, bath) @ el.diagonal(k)
        assert np.max(np.abs(by_diagonal - apply_liouvillian(rho, bath))) < 1e-14

    def test_semigroup_law(self):
        spec = StateSpec("photon-added-coherent", beta=1.0 + 0.5j)
        bath = BathParams(gamma=0.7, nbar=0.8)
        rho0 = fock_density(spec, 50)
        t1, t2 = 0.3, 0.45
        stepwise = integrate(integrate(rho0, bath, [t1])[0], bath, [t2])[0]
        direct = integrate(rho0, bath, [t1 + t2])[0]
        assert np.max(np.abs(stepwise.elements - direct.elements)) < 1e-12

    def test_sample_times_align(self):
        bath = BathParams(gamma=1.0, nbar=0.3)
        times = [0.1, 0.25, 0.6]
        rho0 = fock_density(StateSpec("thermal", mbar=0.4), 40)
        states = integrate(rho0, bath, times)
        assert len(states) == len(times)
        for t, state in zip(times, states):
            alone = integrate(rho0, bath, [t])[0]
            assert np.array_equal(state.elements, alone.elements)

    def test_zero_time_is_the_initial_state(self):
        rho0 = fock_density(StateSpec("squeezed-coherent", beta=0.5j, squeeze=0.5), 30)
        rho = integrate(rho0, BathParams(gamma=1.0, nbar=0.5), [0.0])[0]
        assert np.array_equal(rho.elements, rho0.elements)

    def test_rejects_negative_time(self):
        rho0 = fock_density(StateSpec("thermal", mbar=0.4), 20)
        with pytest.raises(ValueError):
            integrate(rho0, BathParams(gamma=1.0, nbar=0.3), [-0.1])


class TestHusimi:
    def test_vacuum_peak(self):
        vac = FockDensityMatrix.from_array(np.diag([1.0] + [0.0] * 29))
        assert husimi_q(vac, 0.0) == pytest.approx(1.0 / math.pi)
        assert husimi_q(vac, 1.0 + 1.0j) == pytest.approx(math.exp(-2.0) / math.pi)

    def test_one_quantum_zero_at_origin(self):
        one = FockDensityMatrix.from_array(np.diag([0.0, 1.0] + [0.0] * 28))
        assert husimi_q(one, 0.0) == pytest.approx(0.0, abs=1e-300)
        m = moments_from_rho(one)
        assert m.mandel_q() == pytest.approx(-1.0)

    def test_grid_agrees_with_scalar(self):
        rho = fock_density(StateSpec("photon-added-coherent", beta=0.8 + 0.3j), 40)
        x = np.linspace(-2.0, 2.0, 9)
        grid = husimi_q_grid(rho, x, x)
        for i, xv in enumerate(x):
            for j, yv in enumerate(x):
                assert grid.values[i, j] == pytest.approx(
                    husimi_q(rho, complex(xv, yv)), abs=1e-14
                )

    def test_grid_handles_origin(self):
        vac = FockDensityMatrix.from_array(np.diag([1.0] + [0.0] * 19))
        x = np.linspace(-1.0, 1.0, 9)  # includes 0.0 exactly
        grid = husimi_q_grid(vac, x, x)
        assert grid.values[4, 4] == pytest.approx(1.0 / math.pi)
