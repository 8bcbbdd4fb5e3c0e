"""Closed-form time evolution of distributions and observables."""

import math

import numpy as np
import pytest

from phasebath import (
    BathParams,
    StateSpec,
    convolve_p_numeric,
    evaluate_p,
    evolve_p_closed_form,
    evolved_moments,
    initial_moments,
    initial_p_function,
    rescale_zero_temperature,
)
from phasebath.descriptors import GaussianP, GaussianPolyP


class TestZeroTemperatureLaw:
    def test_point_mass_spirals_inward(self):
        # eta = e^{-gamma t} = 1/2 at gamma = 1, t = ln 2
        ev = rescale_zero_temperature(GaussianP(2.0 + 0j, 0.0, 0.0), math.exp(-math.log(2.0)))
        assert isinstance(ev, GaussianP)
        assert ev.center == pytest.approx(1.0 + 0j)
        assert ev.width_x == ev.width_y == 0.0

    def test_gaussian_contracts_and_renormalizes(self):
        mbar = 1.0
        g = GaussianP(center=0j, width_x=mbar, width_y=mbar)
        ev = rescale_zero_temperature(g, math.exp(-0.5 * 1.0))
        eta2 = math.exp(-1.0)
        assert ev.width_x == ev.width_y == pytest.approx(mbar * eta2)
        # Peak value rises by 1/eta^2 so the mass stays unity.
        assert evaluate_p(ev, 0.0, 0.0) == pytest.approx(1.0 / (math.pi * mbar * eta2))


class TestEvolvedMoments:
    def test_amplitude_decays_exponentially(self):
        m0 = initial_moments(StateSpec("coherent", beta=2.0 + 1.0j))
        bath = BathParams(gamma=0.7, nbar=1.2)
        mt = evolved_moments(m0, bath, 0.9)
        assert mt.mean_a == pytest.approx((2.0 + 1.0j) * math.exp(-0.63))

    def test_occupation_interpolates_to_bath(self):
        m0 = initial_moments(StateSpec("thermal", mbar=3.0))
        bath = BathParams(gamma=1.0, nbar=0.5)
        eta2 = math.exp(-2.0 * 1.0 * 0.4)
        mt = evolved_moments(m0, bath, 0.4)
        assert mt.mean_n == pytest.approx(3.0 * eta2 + 0.5 * (1.0 - eta2))

    def test_long_time_fixed_point(self):
        bath = BathParams(gamma=1.0, nbar=1.7)
        for spec in (StateSpec("coherent", beta=1.0), StateSpec("photon-added-thermal", mbar=2.0)):
            mt = evolved_moments(initial_moments(spec), bath, 40.0)
            assert abs(mt.mean_a) < 1e-12
            assert mt.mean_n == pytest.approx(1.7, abs=1e-10)
            assert mt.var_x == pytest.approx((2.0 * 1.7 + 1.0) / 4.0, abs=1e-10)
            assert mt.mandel_q() == pytest.approx(1.7, abs=1e-9)

    def test_semigroup_property(self):
        m0 = initial_moments(StateSpec("squeezed-coherent", beta=0.7 + 0.2j, squeeze=2.5))
        bath = BathParams(gamma=0.8, nbar=0.9)
        direct = evolved_moments(m0, bath, 1.3)
        stepped = evolved_moments(evolved_moments(m0, bath, 0.5), bath, 0.8)
        assert abs(direct.mean_a - stepped.mean_a) < 1e-12
        assert direct.mean_n == pytest.approx(stepped.mean_n, rel=1e-12)
        assert direct.second_factorial == pytest.approx(stepped.second_factorial, rel=1e-12)
        assert direct.var_x == pytest.approx(stepped.var_x, rel=1e-12)

    def test_uncertainty_product_never_dips(self):
        m0 = initial_moments(StateSpec("squeezed-coherent", beta=0.5, squeeze=4.0))
        bath = BathParams(gamma=1.0, nbar=0.0)
        for t in np.linspace(0.0, 3.0, 40):
            mt = evolved_moments(m0, bath, float(t))
            assert mt.var_x * mt.var_y >= 1.0 / 16.0 - 1e-12


class TestMandelQ:
    def test_coherent_stays_poissonian_at_zero_temperature(self):
        m0 = initial_moments(StateSpec("coherent", beta=1.4))
        bath = BathParams(gamma=1.0, nbar=0.0)
        for t in (0.0, 0.5, 2.0):
            assert evolved_moments(m0, bath, t).mandel_q() == pytest.approx(0.0, abs=1e-12)

    def test_added_photon_thermal_sweep(self):
        # Starts at 1/3 for mbar = 1 and relaxes to the bath value.
        m0 = initial_moments(StateSpec("photon-added-thermal", mbar=1.0))
        bath = BathParams(gamma=1.0, nbar=0.5)
        assert evolved_moments(m0, bath, 0.0).mandel_q() == pytest.approx(1.0 / 3.0)
        assert evolved_moments(m0, bath, 30.0).mandel_q() == pytest.approx(0.5, abs=1e-9)


class TestClosedFormDistributions:
    def test_added_photon_thermal_coefficients(self):
        # mbar = 1, e^{-gamma t} = 1/2, bath nbar = 2:
        # width w = mbar eta^2 + nbar_t = 0.25 + 1.5 = 1.75, and the quadratic
        # coefficient is (mbar + 1) eta^2 / (pi w^3) = 2 * 0.25 / (pi 1.75^3).
        spec = StateSpec("photon-added-thermal", mbar=1.0)
        bath = BathParams(gamma=1.0, nbar=2.0)
        form = evolve_p_closed_form(spec, bath, math.log(2.0))
        assert isinstance(form, GaussianPolyP)
        w = 1.75
        quad = 2.0 * 0.25 / (math.pi * w**3)
        const = (1.5 - 0.25) / (math.pi * w**2)
        assert form.width == pytest.approx(w)
        np.testing.assert_allclose(form.coeffs[0, 0], const, rtol=1e-12)
        np.testing.assert_allclose(form.coeffs[2, 0], quad, rtol=1e-12)
        np.testing.assert_allclose(form.coeffs[0, 2], quad, rtol=1e-12)

    def test_thermal_state_is_stationary(self):
        nbar = 1.3
        spec = StateSpec("thermal", mbar=nbar)
        bath = BathParams(gamma=0.9, nbar=nbar)
        form = evolve_p_closed_form(spec, bath, 0.8)
        x = np.linspace(-4, 4, 41)
        before = evaluate_p(initial_p_function(spec), x[:, None], x[None, :])
        after = evaluate_p(form, x[:, None], x[None, :])
        np.testing.assert_allclose(after, before, atol=1e-14)

    def test_time_zero_returns_initial_form(self):
        spec = StateSpec("photon-added-coherent", beta=1.0)
        form = evolve_p_closed_form(spec, BathParams(gamma=1.0, nbar=1.0), 0.0)
        assert form.kind == initial_p_function(spec).kind


class TestNumericConvolution:
    GRID = np.linspace(-6.0, 6.0, 61)

    @classmethod
    def template(cls):
        from phasebath import PhaseSpaceGrid

        return PhaseSpaceGrid(
            cls.GRID, cls.GRID, np.zeros((cls.GRID.size, cls.GRID.size)), {}
        )

    # The initial coherent, photon-added coherent and squeezed P are
    # singular, so those states start from their regular closed form at
    # t1 = 0.2 and check the bath's semigroup law.
    @pytest.mark.parametrize(
        "spec, t1, steps",
        [
            pytest.param(StateSpec("thermal", mbar=1.5), 0.0, (0.2, 1.0), id="thermal"),
            pytest.param(
                StateSpec("photon-added-thermal", mbar=1.0), 0.0, (0.2, 1.0),
                id="photon-added-thermal",
            ),
            pytest.param(StateSpec("coherent", beta=1.0 + 1.0j), 0.2, (0.3, 0.8), id="coherent"),
            pytest.param(
                StateSpec("photon-added-coherent", beta=1.0 + 0.5j), 0.2, (0.3, 0.8),
                id="photon-added-coherent",
            ),
            pytest.param(
                StateSpec("squeezed-coherent", beta=0.8, squeeze=2.0), 0.2, (0.3, 0.8),
                id="squeezed-coherent",
            ),
        ],
    )
    def test_matches_closed_form(self, spec, t1, steps):
        bath = BathParams(gamma=0.5, nbar=2.0)
        start = evolve_p_closed_form(spec, bath, t1)
        for dt in steps:
            closed = evaluate_p(
                evolve_p_closed_form(spec, bath, t1 + dt),
                self.GRID[:, None],
                self.GRID[None, :],
            )
            numeric = convolve_p_numeric(start, bath, dt, self.template())
            np.testing.assert_allclose(numeric.values, closed, atol=1e-10)

    def test_rejects_singular_squeezed_input(self):
        p0 = initial_p_function(StateSpec("squeezed-coherent", beta=0.8, squeeze=2.0))
        with pytest.raises(TypeError, match="singular"):
            convolve_p_numeric(p0, BathParams(gamma=0.5, nbar=2.0), 0.2, self.template())
