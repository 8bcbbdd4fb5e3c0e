"""Characteristic functions, antinormal smoothing, and the Fourier transform."""

import math

import numpy as np
import pytest

from phasebath import (
    BathParams,
    FockDensityMatrix,
    PhaseSpaceGrid,
    StateSpec,
    characteristic_function,
    evolve_p_closed_form,
    fock_density,
    husimi_q_grid,
    initial_p_function,
    integrate,
    p_to_q_grid,
    wigner_from_characteristic,
)
from phasebath.descriptors import GaussianP
from phasebath.fock import displacement_matrix


def q_at(desc, alpha: complex) -> float:
    """Q at one point: the first point of a two-by-two p_to_q_grid."""
    grid = p_to_q_grid(desc, [alpha.real, alpha.real + 1.0], [alpha.imag, alpha.imag + 1.0])
    return float(grid.values[0, 0])


def square_grid(half: float, n: int) -> PhaseSpaceGrid:
    x = np.linspace(-half, half, n)
    return PhaseSpaceGrid(x, x, np.zeros((n, n)), {})


class TestCharacteristicFunction:
    def test_coherent_normal_ordering(self):
        beta = 1.0 + 0.5j
        rho = fock_density(StateSpec("coherent", beta=beta), 40)
        for xi in (0.3 + 0.1j, -0.5 + 0.7j):
            expected = np.exp(xi * np.conj(beta) - np.conj(xi) * beta)
            got = characteristic_function(rho, xi, "normal")
            assert abs(got - expected) < 1e-12

    def test_ordering_ladder(self):
        rho = fock_density(StateSpec("thermal", mbar=0.8), 60)
        xi = 0.6 - 0.4j
        n = characteristic_function(rho, xi, "normal")
        s = characteristic_function(rho, xi, "symmetric")
        a = characteristic_function(rho, xi, "antinormal")
        assert abs(n - s * math.exp(0.5 * abs(xi) ** 2)) < 1e-12
        assert abs(n - a * math.exp(abs(xi) ** 2)) < 1e-12

    def test_thermal_gaussian_form(self):
        mbar = 0.8
        rho = fock_density(StateSpec("thermal", mbar=mbar), 80)
        xi = 0.5 + 0.2j
        expected = math.exp(-mbar * abs(xi) ** 2)
        assert abs(characteristic_function(rho, xi, "normal") - expected) < 1e-10

    def test_origin_is_trace(self):
        rho = fock_density(StateSpec("squeezed-coherent", beta=0.5, squeeze=2.0), 40)
        for ordering in ("normal", "symmetric", "antinormal"):
            assert characteristic_function(rho, 0.0, ordering) == pytest.approx(1.0)

    def test_array_matches_trace_against_displacement(self):
        # Reference: Tr[rho D(xi)] with D(xi) from a matrix exponential in a
        # basis large enough that its leading block is exact to roundoff.
        rho = fock_density(StateSpec("photon-added-coherent", beta=0.6 - 0.3j), 24)
        xi = np.array([[0.0, 0.4 + 0.3j, -1.1 + 0.2j], [0.7j, -0.5 - 0.9j, 1.3 - 0.6j]])
        chi = characteristic_function(rho, xi, "symmetric")
        assert chi.shape == xi.shape
        for z, value in zip(xi.ravel(), chi.ravel()):
            block = displacement_matrix(z, 90)[:24, :24]
            assert abs(value - np.trace(rho.elements @ block)) < 1e-12
            assert value == characteristic_function(rho, z, "symmetric")

    def test_rejects_unknown_ordering(self):
        rho = fock_density(StateSpec("coherent", beta=0.0), 10)
        with pytest.raises(ValueError):
            characteristic_function(rho, 0.1, "wick")


class TestSmoothing:
    def test_point_mass_gives_coherent_overlap(self):
        beta = 1.0 + 1.0j
        desc = GaussianP(beta, 0.0, 0.0)
        for alpha in (0.0 + 0j, 0.5 - 0.5j):
            expected = math.exp(-abs(alpha - beta) ** 2) / math.pi
            assert q_at(desc, alpha) == pytest.approx(expected, rel=1e-12)

    def test_thermal_closed_form(self):
        mbar = 1.5
        desc = initial_p_function(StateSpec("thermal", mbar=mbar))
        for alpha in (0.0 + 0j, 1.0 + 0.5j, 2.0 - 1.0j):
            expected = math.exp(-abs(alpha) ** 2 / (mbar + 1.0)) / (math.pi * (mbar + 1.0))
            assert q_at(desc, alpha) == pytest.approx(expected, rel=1e-10)

    def test_added_photon_coherent_exact(self):
        beta = 0.7 + 0.2j
        desc = initial_p_function(StateSpec("photon-added-coherent", beta=beta))
        for alpha in (0.0 + 0j, 1.0 + 0j, -0.5 + 0.8j):
            expected = (
                abs(alpha) ** 2
                * math.exp(-abs(alpha - beta) ** 2)
                / (math.pi * (abs(beta) ** 2 + 1.0))
            )
            assert q_at(desc, alpha) == pytest.approx(expected, rel=1e-12, abs=1e-300)

    @pytest.mark.parametrize(
        "spec",
        [
            StateSpec("photon-added-thermal", mbar=1.0),
            StateSpec("photon-added-coherent", beta=1.0 + 0.5j),
            StateSpec("squeezed-coherent", beta=0.8, squeeze=2.0),
        ],
        ids=lambda s: s.family,
    )
    def test_grid_matches_independent_reference(self, spec):
        bath = BathParams(gamma=0.5, nbar=1.0)
        t = 0.5
        form = evolve_p_closed_form(spec, bath, t)
        rho = integrate(fock_density(spec, 60), bath, [t])[0]
        x = np.linspace(-3.0, 3.0, 21)
        smoothed = p_to_q_grid(form, x, x)
        direct = husimi_q_grid(rho, x, x)
        assert float(np.max(np.abs(smoothed.values - direct.values))) < 1e-6

    @pytest.mark.parametrize(
        "squeeze, bath, t",
        [
            (0.25, None, 0.0),
            (0.5, None, 0.0),
            (2.0, None, 0.0),
            (4.0, None, 0.0),
            # Regime where the truncated U-series once diverged (term ratio 2.26).
            (2.0, BathParams(gamma=1.0, nbar=0.5), 0.2),
        ],
        ids=["s0.25", "s0.5", "s2", "s4", "s2-nbar0.5-t0.2"],
    )
    def test_squeezed_closed_form_matches_fock_state(self, squeeze, bath, t):
        spec = StateSpec("squeezed-coherent", beta=1.0 + 0.3j, squeeze=squeeze)
        bath = bath or BathParams(gamma=1.0, nbar=0.0)
        rho = fock_density(spec, 80)
        if t > 0:
            rho = integrate(rho, bath, [t])[0]
        x = np.linspace(-4.0, 4.0, 41)
        smoothed = p_to_q_grid(evolve_p_closed_form(spec, bath, t), x, x)
        direct = husimi_q_grid(rho, x, x)
        assert float(np.max(np.abs(smoothed.values - direct.values))) < 1e-10

    def test_output_bounds(self):
        desc = initial_p_function(StateSpec("photon-added-thermal", mbar=2.0))
        x = np.linspace(-6.0, 6.0, 49)
        q = p_to_q_grid(desc, x, x)
        assert np.all(q.values >= -1e-12)
        assert np.all(q.values <= 1.0 / math.pi + 1e-9)
        assert q.mass() == pytest.approx(1.0, abs=1e-3)


class TestWigner:
    def test_vacuum(self):
        vac = FockDensityMatrix.from_array(np.diag([1.0] + [0.0] * 29))
        grid = wigner_from_characteristic(vac, square_grid(4.0, 41))
        x = grid.x_axis
        expected = (2.0 / math.pi) * np.exp(
            -2.0 * (x[:, None] ** 2 + x[None, :] ** 2)
        )
        np.testing.assert_allclose(grid.values, expected, atol=1e-10)

    def test_one_quantum_negative_at_origin(self):
        one = FockDensityMatrix.from_array(np.diag([0.0, 1.0] + [0.0] * 28))
        grid = wigner_from_characteristic(one, square_grid(4.0, 41))
        center = grid.values[20, 20]
        assert center == pytest.approx(-2.0 / math.pi, abs=1e-9)
        assert grid.mass() == pytest.approx(1.0, abs=1e-4)

    def test_coherent_displaced_gaussian(self):
        beta = 1.0 + 0.5j
        rho = fock_density(StateSpec("coherent", beta=beta), 40)
        grid = wigner_from_characteristic(rho, square_grid(4.0, 41))
        X, Y = grid.meshgrid()
        expected = (2.0 / math.pi) * np.exp(
            -2.0 * ((X - beta.real) ** 2 + (Y - beta.imag) ** 2)
        )
        np.testing.assert_allclose(grid.values, expected, atol=1e-8)

    def test_squeezed_variance_signature(self):
        # Marginal spreads reflect the squeezed and stretched quadratures.
        s = 2.0
        rho = fock_density(StateSpec("squeezed-coherent", beta=0.0, squeeze=s), 40)
        grid = wigner_from_characteristic(rho, square_grid(4.0, 61))
        X, Y = grid.meshgrid()
        dx = grid.x_axis[1] - grid.x_axis[0]
        var_x = float(np.sum(X**2 * grid.values)) * dx * dx
        var_y = float(np.sum(Y**2 * grid.values)) * dx * dx
        assert var_x == pytest.approx(1.0 / (4.0 * s), abs=1e-4)
        assert var_y == pytest.approx(s / 4.0, abs=1e-4)
