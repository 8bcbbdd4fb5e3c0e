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
    scale_bath,
)
from phasebath.descriptors import GaussianP
from phasebath.states import MomentSet


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


#: one example of every catalog family, each with its parameters away from neutral
FAMILY_EXAMPLES = (
    StateSpec("coherent", beta=1.3 - 0.4j),
    StateSpec("thermal", mbar=0.9),
    StateSpec("displaced-thermal", beta=-0.6 + 1.1j, mbar=0.5),
    StateSpec("photon-added-thermal", mbar=0.7),
    StateSpec("photon-added-coherent", beta=1.1 - 0.6j),
    StateSpec("squeezed-coherent", beta=0.4 + 0.9j, squeeze=0.3),
)


class TestEvolvedMoments:
    def test_amplitude_decays_exponentially(self):
        bath = BathParams(gamma=0.7, nbar=1.2)
        mt = evolved_moments(StateSpec("coherent", beta=2.0 + 1.0j), bath, 0.9)
        assert mt.mean_a == pytest.approx((2.0 + 1.0j) * math.exp(-0.63))

    def test_occupation_interpolates_to_bath(self):
        bath = BathParams(gamma=1.0, nbar=0.5)
        eta2 = math.exp(-2.0 * 1.0 * 0.4)
        mt = evolved_moments(StateSpec("thermal", mbar=3.0), bath, 0.4)
        assert mt.mean_n == pytest.approx(3.0 * eta2 + 0.5 * (1.0 - eta2))

    def test_long_time_fixed_point(self):
        bath = BathParams(gamma=1.0, nbar=1.7)
        for spec in (StateSpec("coherent", beta=1.0), StateSpec("photon-added-thermal", mbar=2.0)):
            mt = evolved_moments(spec, bath, 40.0)
            assert abs(mt.mean_a) < 1e-12
            assert mt.mean_n == pytest.approx(1.7, abs=1e-10)
            assert mt.var_x == pytest.approx((2.0 * 1.7 + 1.0) / 4.0, abs=1e-10)
            assert mt.mandel_q() == pytest.approx(1.7, abs=1e-9)

    def test_semigroup_property(self):
        # Two kernels in turn are the kernel of the summed time.
        p0 = initial_p_function(StateSpec("squeezed-coherent", beta=0.7 + 0.2j, squeeze=2.5))
        bath = BathParams(gamma=0.8, nbar=0.9)
        direct = p0.convolved(*scale_bath(bath, 1.3))
        stepped = p0.convolved(*scale_bath(bath, 0.5)).convolved(*scale_bath(bath, 0.8))
        assert abs(direct.center - stepped.center) < 1e-12
        assert direct.width_x == pytest.approx(stepped.width_x, rel=1e-12)
        assert direct.width_y == pytest.approx(stepped.width_y, rel=1e-12)
        np.testing.assert_allclose(stepped.coeffs, direct.coeffs, rtol=1e-12)
        a, b = MomentSet.from_p(direct), MomentSet.from_p(stepped)
        assert abs(a.mean_a - b.mean_a) < 1e-12
        assert a.mean_n == pytest.approx(b.mean_n, rel=1e-12)
        assert a.second_factorial == pytest.approx(b.second_factorial, rel=1e-12)
        assert a.var_x == pytest.approx(b.var_x, rel=1e-12)

    @pytest.mark.parametrize("nbar", [0.0, 0.4, 2.0])
    @pytest.mark.parametrize("spec", FAMILY_EXAMPLES, ids=lambda spec: spec.family)
    def test_moments_of_evolved_p_follow_damping_laws(self, spec, nbar):
        # The moments read off P_t against the damping laws of the moments
        # themselves, with eta = e^{-gamma t} and n_t = nbar (1 - eta^2).
        bath = BathParams(gamma=0.8, nbar=nbar)
        m0 = initial_moments(spec)
        for t in (0.0, 0.05, 0.7, 3.0):
            eta = math.exp(-0.8 * t)
            eta2 = eta * eta
            n_t = -nbar * math.expm1(-1.6 * t)
            mt = evolved_moments(spec, bath, t)
            assert abs(mt.mean_a - m0.mean_a * eta) < 1e-12
            assert abs(mt.a_squared - m0.a_squared * eta2) < 1e-12
            assert mt.mean_n == pytest.approx(m0.mean_n * eta2 + n_t, rel=1e-12, abs=1e-12)
            second = eta2 * eta2 * m0.second_factorial + 4.0 * eta2 * n_t * m0.mean_n + 2.0 * n_t * n_t
            assert mt.second_factorial == pytest.approx(second, rel=1e-12, abs=1e-12)
            floor = (2.0 * n_t + 1.0) / 4.0
            assert mt.var_x == pytest.approx(floor + (m0.var_x - 0.25) * eta2, rel=1e-12, abs=1e-12)
            assert mt.var_y == pytest.approx(floor + (m0.var_y - 0.25) * eta2, rel=1e-12, abs=1e-12)

    def test_uncertainty_product_never_dips(self):
        spec = StateSpec("squeezed-coherent", beta=0.5, squeeze=4.0)
        bath = BathParams(gamma=1.0, nbar=0.0)
        for t in np.linspace(0.0, 3.0, 40):
            mt = evolved_moments(spec, bath, float(t))
            assert mt.var_x * mt.var_y >= 1.0 / 16.0 - 1e-12


class TestLargeAmplitudeVariances:
    # Taken at the centre, var = (1 + 2<n> + 2 Re<a^2>)/4 - (Re<a>)^2 cancels
    # about |beta|^2 times the roundoff; the variance does not depend on the
    # centre, so it is exact as it stands: 1/4 plus half the evolved P width.
    BETA = 300.3 - 400.7j

    @pytest.mark.parametrize("t", [0.0, 0.01, 1.0])
    @pytest.mark.parametrize(
        "spec",
        [
            StateSpec("displaced-thermal", beta=BETA, mbar=0.3),
            StateSpec("squeezed-coherent", beta=BETA, squeeze=4.0),
        ],
        ids=lambda spec: spec.family,
    )
    def test_variances_are_exact(self, spec, t):
        bath = BathParams(gamma=1.0, nbar=0.5)
        form = evolve_p_closed_form(spec, bath, t)
        m = MomentSet.from_p(form)
        assert m.var_x == pytest.approx(0.25 + form.width_x / 2.0, rel=1e-15)
        assert m.var_y == pytest.approx(0.25 + form.width_y / 2.0, rel=1e-15)

    @pytest.mark.parametrize("family", ["coherent", "photon-added-coherent"])
    def test_coherent_amplitudes_keep_the_uncertainty_floor(self, family):
        # At |beta| = 3000 the cancellation used to put var_x var_y below 1/16.
        spec = StateSpec(family, beta=3000.0 * (0.6 + 0.8j))
        m = MomentSet.from_p(evolve_p_closed_form(spec, BathParams(gamma=1.0, nbar=0.0), 0.01))
        assert m.var_x * m.var_y >= 1.0 / 16.0
        if family == "coherent":
            assert m.var_x == m.var_y == 0.25


class TestMandelQ:
    def test_coherent_stays_poissonian_at_zero_temperature(self):
        spec = StateSpec("coherent", beta=1.4)
        bath = BathParams(gamma=1.0, nbar=0.0)
        for t in (0.0, 0.5, 2.0):
            assert evolved_moments(spec, bath, t).mandel_q() == pytest.approx(0.0, abs=1e-12)

    def test_added_photon_thermal_sweep(self):
        # Starts at 1/3 for mbar = 1 and relaxes to the bath value.
        spec = StateSpec("photon-added-thermal", mbar=1.0)
        bath = BathParams(gamma=1.0, nbar=0.5)
        assert evolved_moments(spec, bath, 0.0).mandel_q() == pytest.approx(1.0 / 3.0)
        assert evolved_moments(spec, bath, 30.0).mandel_q() == pytest.approx(0.5, abs=1e-9)


class TestClosedFormDistributions:
    def test_added_photon_thermal_coefficients(self):
        # mbar = 1, e^{-gamma t} = 1/2, bath nbar = 2:
        # width w = mbar eta^2 + nbar_t = 0.25 + 1.5 = 1.75, and
        # P_t = (const + quad |alpha|^2) e^{-|alpha|^2/w} with the quadratic
        # coefficient (mbar + 1) eta^2 / (pi w^3) = 2 * 0.25 / (pi 1.75^3).
        spec = StateSpec("photon-added-thermal", mbar=1.0)
        bath = BathParams(gamma=1.0, nbar=2.0)
        form = evolve_p_closed_form(spec, bath, math.log(2.0))
        w = 1.75
        quad = 2.0 * 0.25 / (math.pi * w**3)
        const = (1.5 - 0.25) / (math.pi * w**2)
        assert form.width_x == form.width_y == pytest.approx(w)
        assert evaluate_p(form, 0.0, 0.0) == pytest.approx(const, rel=1e-12)
        at_one = (const + quad) * math.exp(-1.0 / w)
        assert evaluate_p(form, 1.0, 0.0) == pytest.approx(at_one, rel=1e-12)

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
        p0 = initial_p_function(spec)
        assert form.center == p0.center
        assert (form.width_x, form.width_y) == (p0.width_x, p0.width_y)
        np.testing.assert_array_equal(form.coeffs, p0.coeffs)


class TestNumericConvolution:
    GRID = np.linspace(-6.0, 6.0, 61)

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
            numeric = convolve_p_numeric(start, bath, dt, self.GRID, self.GRID)
            np.testing.assert_allclose(numeric.values, closed, atol=1e-10)

    def test_rejects_singular_squeezed_input(self):
        p0 = initial_p_function(StateSpec("squeezed-coherent", beta=0.8, squeeze=2.0))
        with pytest.raises(TypeError, match="singular"):
            convolve_p_numeric(p0, BathParams(gamma=0.5, nbar=2.0), 0.2, self.GRID, self.GRID)
