"""Distribution descriptors: evaluation, normalization, rescaling, populations."""

import math

import numpy as np
import pytest

from phasebath import (
    StateSpec,
    evaluate_p,
    fock_populations,
    initial_p_function,
    integral_p,
    rescale_zero_temperature,
)
from phasebath.descriptors import (
    GaussianP,
    GaussianPolyP,
    LaplacianDeltaP,
    SampledGridP,
    is_regular,
)


def thermal_gaussian(mbar: float) -> GaussianP:
    return GaussianP(center=0j, width_x=mbar, width_y=mbar)


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

    def test_singular_kinds_refuse_pointwise_values(self):
        for desc in (
            GaussianP(1.0 + 0j, 0.0, 0.0),
            GaussianP(0j, -0.25, 0.5),
            LaplacianDeltaP(0.5 + 0j),
        ):
            assert not is_regular(desc)
            with pytest.raises(TypeError):
                evaluate_p(desc, 0.0, 0.0)

    def test_sampled_grid_requires_uniform_axes(self):
        with pytest.raises(ValueError):
            SampledGridP(
                x_axis=np.array([0.0, 1.0, 3.0]),
                y_axis=np.array([0.0, 1.0, 2.0]),
                values=np.zeros((3, 3)),
            )


class TestNormalization:
    def test_gaussian_poly_enforces_unit_mass(self):
        with pytest.raises(ValueError):
            GaussianPolyP(center=0j, width=1.0, coeffs=np.array([[2.0 / math.pi]]))

    def test_unit_mass_kinds(self):
        assert integral_p(GaussianP(2.0 + 1.0j, 0.0, 0.0)) == 1.0
        assert integral_p(thermal_gaussian(0.7)) == pytest.approx(1.0)


class TestZeroTemperatureRescaling:
    def test_delta_center_contracts(self):
        out = rescale_zero_temperature(GaussianP(2.0 + 0j, 0.0, 0.0), 0.5)
        assert out.center == 1.0 + 0j
        assert out.width_x == out.width_y == 0.0

    def test_gaussian_stays_normalized(self):
        out = rescale_zero_temperature(thermal_gaussian(1.6), 0.5)
        assert isinstance(out, GaussianP)
        assert out.width_x == out.width_y == pytest.approx(0.4)
        assert integral_p(out) == pytest.approx(1.0)

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

    def test_zero_width_rescales_polynomial(self):
        # P(alpha/eta)/eta^2 multiplies the u^i v^j coefficient by eta^-(i+j+2).
        p0 = initial_p_function(StateSpec("photon-added-thermal", mbar=1.3))
        eta = 0.7
        out = rescale_zero_temperature(p0, eta)
        i, j = np.indices(p0.coeffs.shape)
        assert out.width == pytest.approx(1.3 * eta * eta, rel=1e-15)
        np.testing.assert_allclose(out.coeffs, p0.coeffs * eta ** -(i + j + 2.0), rtol=1e-14)

    def test_zero_width_folds_decay_into_delta_derivative(self):
        p0 = LaplacianDeltaP(1.0 + 0.5j)
        out = p0.convolved(0.5, 0.0).convolved(0.4, 0.0)
        assert isinstance(out, LaplacianDeltaP)
        assert out.center == p0.center and out.decay == pytest.approx(0.2)
