"""Distribution descriptors: evaluation, normalization, rescaling, populations."""

import math

import numpy as np
import pytest
from numpy.polynomial.hermite import hermval

from phasebath import (
    BathParams,
    StateSpec,
    evaluate_p,
    evolve_p_closed_form,
    fock_populations,
    initial_p_function,
    rescale_zero_temperature,
    scale_bath,
)
from phasebath.descriptors import GaussianP, _hermval, normal_moments, singular_part
from phasebath.lindblad import integrate
from phasebath.quasiprob import PhaseSpaceGrid
from phasebath.states import FAMILIES, FAMILY_TABLE, default_cutoff, fock_density, parse_state_spec

TIMES = (0.0, 0.3, 1.0)


def family_forms(family: str, bath: BathParams = BathParams(gamma=1.0, nbar=0.4)):
    """P_t of the family's catalog example at each of TIMES."""
    spec = parse_state_spec({"family": family, **FAMILY_TABLE[family].example})
    return [evolve_p_closed_form(spec, bath, t) for t in TIMES]


def thermal_gaussian(mbar: float) -> GaussianP:
    return GaussianP(center=0j, width_x=mbar, width_y=mbar)


def photon_added_reference(spec: StateSpec, eta: float, width: float, x, y) -> np.ndarray:
    """A photon-added P0 under the bath map (eta, width), from explicit monomial forms.

    Photon-added thermal: P0 = lead (|alpha|^2 - m/(m+1)) e^{-|alpha|^2/m} with
    lead = (m+1)/(pi m^3).  Per axis, integral u^k e^{-u^2/m} e^{-(x - eta u)^2/width} du
    = sqrt(pi m width / T) e^{-x^2/T} E[(a x + Z)^k], with T = eta^2 m + width,
    a = eta m / T and Z ~ N(0, m width / (2 T)).

    Photon-added coherent: P0 = e^{|alpha|^2 - |c|^2}/(|c|^2 + 1) d^2/(d alpha d alpha*)
    delta2(alpha - c).  Integration by parts against the kernel
    K = e^{-|alpha - eta beta|^2/width}/(pi width) gives
    K(alpha, c) [(1 - eta^2/width) + |c + eta (alpha - eta c)/width|^2] / (|c|^2 + 1).
    """
    X, Y = x[:, None], y[None, :]
    if spec.family == "photon-added-thermal":
        m = spec.mbar
        lead = (m + 1.0) / (math.pi * m**3)
        total = eta * eta * m + width
        a, var = eta * m / total, 0.5 * m * width / total
        r2 = X * X + Y * Y
        return (m / total) * lead * (a * a * r2 + 2.0 * var - m / (m + 1.0)) * np.exp(-r2 / total)
    c = spec.beta
    u, v = X - eta * c.real, Y - eta * c.imag
    kernel = np.exp(-(u * u + v * v) / width) / (math.pi * width)
    amp = eta / width
    square = (c.real + amp * u) ** 2 + (c.imag + amp * v) ** 2
    return kernel * ((1.0 - eta * eta / width) + square) / (abs(c) ** 2 + 1.0)


class TestEvaluation:
    def test_gaussian_value(self):
        g = thermal_gaussian(2.0)
        assert evaluate_p(g, 1.0, -1.0) == pytest.approx(math.exp(-1.0) / (2.0 * math.pi))

    def test_gaussian_broadcasts(self):
        g = thermal_gaussian(1.0)
        x = np.linspace(-2, 2, 5)
        vals = evaluate_p(g, x[:, None], x[None, :])
        assert vals.shape == (5, 5)
        assert vals[2, 2] == pytest.approx(1.0 / math.pi)

    def test_anisotropic_gaussian_value(self):
        g = GaussianP(center=1.0 + 0j, width_x=0.5, width_y=2.0)
        assert evaluate_p(g, 2.0, 1.0) == pytest.approx(math.exp(-2.5) / math.pi)

    @pytest.mark.parametrize("family", ["photon-added-thermal", "photon-added-coherent"])
    def test_photon_added_images_match_monomial_reference(self, family):
        # Every regular P, W and Q image of the Hermite series equals the
        # polynomial-times-Gaussian closed form to within roundoff.
        spec = parse_state_spec({"family": family, **FAMILY_TABLE[family].example})
        bath = BathParams(gamma=1.0, nbar=0.4)
        x = np.linspace(-3.0, 3.0, 41)
        y = np.linspace(-2.5, 3.5, 37)
        checked = 0
        for t, form in zip(TIMES, family_forms(family, bath)):
            eta, nbar_t = scale_bath(bath, t)
            for width in (0.0, 0.5, 1.0):
                image = form.convolved(1.0, width)
                if singular_part(image):
                    continue
                reference = photon_added_reference(spec, eta, nbar_t + width, x, y)
                values = evaluate_p(image, x[:, None], y[None, :])
                assert float(np.max(np.abs(values - reference))) <= 1e-14 * float(
                    np.max(np.abs(reference))
                )
                checked += 1
        assert checked >= 8

    @pytest.mark.parametrize("terms", [1, 2, 3])
    @pytest.mark.parametrize("kind", [float, complex])
    def test_hermite_sum_is_numpy_hermval(self, terms, kind):
        # The local Clenshaw sum keeps numpy.polynomial off the run path; it
        # must give hermval's bits, at the complex widths of fock_populations
        # too, for a coefficient stack that x broadcasts against and a vector.
        rng = np.random.default_rng(terms)
        x = rng.normal(size=(6, 1)) * 3
        stack = rng.normal(size=(terms, 4, 6, 5))
        if kind is complex:
            x = x + 1j * rng.normal(size=x.shape)
            stack = stack * (0.5 - 2j)
        for c in (stack, stack[:, 0, 0, 0]):
            assert np.array_equal(_hermval(x, c), hermval(x, c, tensor=False))

    def test_singular_kinds_refuse_pointwise_values(self):
        for desc in (
            GaussianP(1.0 + 0j, 0.0, 0.0),
            GaussianP(0j, -0.25, 0.5),
            initial_p_function(StateSpec("photon-added-coherent", beta=0.5)),
        ):
            assert singular_part(desc)
            with pytest.raises(TypeError):
                evaluate_p(desc, 0.0, 0.0)

    def test_phase_space_grid_requires_uniform_axes(self):
        with pytest.raises(ValueError):
            PhaseSpaceGrid(
                x_axis=np.array([0.0, 1.0, 3.0]),
                y_axis=np.array([0.0, 1.0, 2.0]),
                values=np.zeros((3, 3)),
            )

    @pytest.mark.parametrize(
        "x_axis, values, message",
        [
            ([0.0, -1.0, -2.0], np.zeros((3, 3)), "strictly increasing"),
            ([[0.0, 1.0, 2.0]], np.zeros((3, 3)), "1-D"),
            ([0.0, 1.0, 2.0], np.zeros((3, 2)), "values shape"),
            ([0.0, 1.0, 2.0], np.diag([0.0, np.inf, 0.0]), "finite"),
        ],
        ids=["decreasing", "two-dimensional", "shape", "non-finite"],
    )
    def test_phase_space_grid_refuses_bad_windows(self, x_axis, values, message):
        with pytest.raises(ValueError, match=message):
            PhaseSpaceGrid(np.array(x_axis), np.array([0.0, 1.0, 2.0]), values)


class TestNormalization:
    def test_enforces_unit_mass(self):
        # The mass is coeffs[0, 0]: derivatives of the Gaussian integrate to zero.
        for bad in ([[2.0 / math.pi]], [[1.0, 0.0], [math.nan, 0.0]]):
            with pytest.raises(ValueError):
                GaussianP(center=0j, width_x=1.0, width_y=1.0, coeffs=bad)

    def test_unit_mass_kinds(self):
        assert GaussianP(2.0 + 1.0j, 0.0, 0.0).coeffs[0, 0] == 1.0
        assert thermal_gaussian(0.7).coeffs[0, 0] == pytest.approx(1.0)


class TestZeroTemperatureRescaling:
    def test_delta_center_contracts(self):
        out = rescale_zero_temperature(GaussianP(2.0 + 0j, 0.0, 0.0), 0.5)
        assert out.center == 1.0 + 0j
        assert out.width_x == out.width_y == 0.0

    def test_gaussian_stays_normalized(self):
        out = rescale_zero_temperature(thermal_gaussian(1.6), 0.5)
        assert isinstance(out, GaussianP)
        assert out.width_x == out.width_y == pytest.approx(0.4)
        assert out.coeffs[0, 0] == pytest.approx(1.0)

    def test_populations_follow_undamped_kernel(self):
        # Under pure decay the k-quantum weight of the rescaled distribution
        # must equal a direct integration of the rescaled thermal Gaussian.
        mbar, eta = 1.2, 0.6
        out = rescale_zero_temperature(thermal_gaussian(mbar), eta)
        pops = fock_populations(out, 40)
        w = mbar * eta * eta
        expected = (w / (1.0 + w)) ** np.arange(40) / (1.0 + w)
        np.testing.assert_allclose(pops, expected, atol=1e-12)


class TestFockPopulations:
    def test_point_mass_is_poissonian(self):
        beta = 1.3 + 0.4j
        pops = fock_populations(GaussianP(beta, 0.0, 0.0), 30)
        lam = abs(beta) ** 2
        facts = np.array([float(math.factorial(k)) for k in range(30)])
        expected = np.exp(-lam) * lam ** np.arange(30) / facts
        np.testing.assert_allclose(pops, expected, rtol=1e-10)

    def test_thermal_weight_geometric(self):
        mbar = 0.8
        pops = fock_populations(thermal_gaussian(mbar), 40)
        expected = (mbar / (1.0 + mbar)) ** np.arange(40) / (1.0 + mbar)
        np.testing.assert_allclose(pops, expected, atol=1e-12)

    def test_added_photon_thermal_has_empty_ground_level(self):
        desc = initial_p_function(StateSpec("photon-added-thermal", mbar=1.0))
        pops = fock_populations(desc, 40)
        assert pops[0] == pytest.approx(0.0, abs=1e-12)
        assert pops.sum() == pytest.approx(1.0, abs=1e-9)

    @pytest.mark.parametrize("nbar", [0.0, 0.4, 2.0])
    @pytest.mark.parametrize("family", FAMILIES)
    def test_matches_the_oracle_diagonal(self, family, nbar):
        # Every family's P_t, singular ones included: at t = 0 the coherent P
        # is a point mass, the photon-added-coherent P a delta derivative and
        # the squeezed-coherent P has a negative width; at n̄ = 0 the first
        # two stay so.
        spec = parse_state_spec({"family": family, **FAMILY_TABLE[family].example})
        bath = BathParams(gamma=1.0, nbar=nbar)
        cutoff = max(80, default_cutoff(initial_p_function(spec), nbar))
        times = (0.0, 0.3, 1.0, 3.0)
        rhos = integrate(fock_density(spec, cutoff), bath, times)
        for t, rho in zip(times, rhos):
            pops = fock_populations(evolve_p_closed_form(spec, bath, t), cutoff)
            np.testing.assert_allclose(pops, np.diagonal(rho.elements).real, rtol=0, atol=1e-13)

    @pytest.mark.parametrize("family", FAMILIES)
    def test_factorial_moments_match_normal_moments(self, family):
        # sum k p_k = <n> and sum k(k - 1) p_k = <a^dag^2 a^2>, read off P_t.
        # Each p_k carries about eps of absolute roundoff, so the sums over
        # L levels carry about L^2 eps / 2 and L^3 eps / 3.
        spec = parse_state_spec({"family": family, **FAMILY_TABLE[family].example})
        levels, eps = 80, np.finfo(float).eps
        k = np.arange(levels)
        for t in (0.0, 0.5, 2.0):
            desc = evolve_p_closed_form(spec, BathParams(gamma=1.0, nbar=0.4), t)
            pops = fock_populations(desc, levels)
            _, mean_n, second_factorial, _ = normal_moments(desc)
            assert float(k @ pops) == pytest.approx(mean_n, rel=0, abs=levels**2 * eps / 2)
            assert float((k * (k - 1)) @ pops) == pytest.approx(
                second_factorial, rel=0, abs=levels**3 * eps / 3
            )

    def test_vacuum(self):
        # A point mass at the origin goes through the transform.
        pops = fock_populations(GaussianP(0j, 0.0, 0.0), 30)
        np.testing.assert_allclose(pops, np.eye(30)[0], rtol=0, atol=1e-15)

    def test_many_levels_run_in_blocks(self):
        # 1,100 levels over 1,100 roots are two blocks of the phase matrix.
        mbar = 0.8
        pops = fock_populations(thermal_gaussian(mbar), 1100)
        expected = (mbar / (1.0 + mbar)) ** np.arange(1100) / (1.0 + mbar)
        np.testing.assert_allclose(pops, expected, rtol=0, atol=1e-15)

    def test_refuses_a_transform_too_large_to_hold(self):
        # At m = 30,000 the tail needs about 1.6 million roots of unity.
        with pytest.raises(ValueError, match="roots of unity"):
            fock_populations(thermal_gaussian(30000.0), 20)

    def test_hot_thermal_tail_does_not_alias(self):
        # The transform folds p_(k+N) onto p_k, so N must reach far past the
        # cutoff when the occupation is large: at m̄ = 30, p_40 is still 0.009.
        mbar = 30.0
        pops = fock_populations(thermal_gaussian(mbar), 20)
        expected = (mbar / (1.0 + mbar)) ** np.arange(20) / (1.0 + mbar)
        np.testing.assert_allclose(pops, expected, rtol=1e-13)


class TestGaussianDescriptor:
    def test_validates_widths(self):
        # The quadrature variance 1/4 + width/2 must stay positive.
        for bad in (math.nan, math.inf, -0.5, -0.75):
            with pytest.raises(ValueError):
                GaussianP(center=0j, width_x=bad, width_y=0.1)
            with pytest.raises(ValueError):
                GaussianP(center=0j, width_x=0.1, width_y=bad)
        GaussianP(center=0j, width_x=-0.49, width_y=0.0)


class TestBathMap:
    X = np.linspace(-4.0, 4.0, 17)

    def values(self, desc):
        return evaluate_p(desc, self.X[:, None], self.X[None, :])

    @pytest.mark.parametrize(
        "spec",
        [
            StateSpec("photon-added-thermal", mbar=0.7),
            StateSpec("photon-added-coherent", beta=1.0 - 0.5j),
            StateSpec("squeezed-coherent", beta=0.5j, squeeze=3.0),
        ],
        ids=lambda s: s.family,
    )
    def test_composes_as_a_semigroup(self, spec):
        # K(eta2, w2) after K(eta1, w1) is K(eta1 eta2, eta2^2 w1 + w2).
        p0 = initial_p_function(spec)
        (eta1, w1), (eta2, w2) = (0.8, 0.3), (0.6, 0.9)
        stepped = p0.convolved(eta1, w1).convolved(eta2, w2)
        direct = p0.convolved(eta1 * eta2, eta2 * eta2 * w1 + w2)
        np.testing.assert_allclose(self.values(stepped), self.values(direct), rtol=1e-12, atol=1e-15)

    @pytest.mark.parametrize("family", list(FAMILY_TABLE))
    def test_s_ordered_maps_compose(self, family):
        # W is P_t at width 1/2 and Q is P_t at width 1, so W at width 1/2 is Q.
        for form in family_forms(family):
            twice = self.values(form.convolved(1.0, 0.5).convolved(1.0, 0.5))
            once = self.values(form.convolved(1.0, 1.0))
            assert float(np.max(np.abs(twice - once))) <= 1e-14 * float(np.max(np.abs(once)))

    def test_zero_width_scales_derivative_coefficients(self):
        # P(alpha/eta)/eta^2 multiplies the d_u^i d_v^j coefficient by eta^(i+j).
        p0 = initial_p_function(StateSpec("photon-added-thermal", mbar=1.3))
        eta = 0.7
        out = rescale_zero_temperature(p0, eta)
        i, j = np.indices(p0.coeffs.shape)
        assert out.width == pytest.approx(1.3 * eta * eta, rel=1e-15)
        np.testing.assert_allclose(out.coeffs, p0.coeffs * eta ** (i + j), rtol=1e-14)

    def test_zero_width_folds_decay_into_delta_derivative(self):
        p0 = initial_p_function(StateSpec("photon-added-coherent", beta=1.0 + 0.5j))
        out = p0.convolved(0.5, 0.0).convolved(0.4, 0.0)
        direct = p0.convolved(0.2, 0.0)
        assert singular_part(out) == "a delta derivative"
        assert out.center == pytest.approx(direct.center, rel=1e-15)
        assert out.width_x == out.width_y == 0.0
        np.testing.assert_allclose(out.coeffs, direct.coeffs, rtol=1e-15)
