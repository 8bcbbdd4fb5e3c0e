"""State families: parsing, initial distributions, and closed-form moments."""

import math

import numpy as np
import pytest
from numpy.polynomial.legendre import leggauss

from phasebath import (
    FAMILIES,
    StateSpec,
    default_cutoff,
    evaluate_p,
    fock_density,
    initial_moments,
    initial_p_function,
    integral_p,
    parse_state_spec,
)
from phasebath.descriptors import GaussianP, LaplacianDeltaP

SAMPLE_SPECS = [
    StateSpec("coherent", beta=1.2 + 0.7j),
    StateSpec("thermal", mbar=1.4),
    StateSpec("displaced-thermal", beta=0.9 - 0.4j, mbar=0.6),
    StateSpec("photon-added-thermal", mbar=1.0),
    StateSpec("photon-added-coherent", beta=1.1 + 0.3j),
    StateSpec("squeezed-coherent", beta=0.8 + 0.2j, squeeze=1.8),
]


def quadrature_p_moment(desc, power_a: int, power_n: int, half: float = 9.0, n: int = 260):
    """2D Gauss-Legendre of P(alpha) * alpha^power_a * |alpha|^(2 power_n)."""
    nodes, w = leggauss(n)
    u = nodes * half
    wu = w * half
    U, V = np.meshgrid(u, u, indexing="ij")
    A = U + 1j * V
    vals = evaluate_p(desc, U, V) * A**power_a * np.abs(A) ** (2 * power_n)
    return complex(np.sum(vals * np.outer(wu, wu)))


class TestSpecValidation:
    def test_six_families(self):
        assert len(FAMILIES) == 6

    def test_rejects_unknown_family(self):
        with pytest.raises(ValueError):
            StateSpec("cat-state")

    def test_rejects_out_of_range(self):
        with pytest.raises(ValueError):
            StateSpec("thermal", mbar=-0.5)
        with pytest.raises(ValueError):
            StateSpec("photon-added-thermal", mbar=0.0)
        with pytest.raises(ValueError):
            StateSpec("squeezed-coherent", squeeze=0.0)

    def test_parse_round_trip(self):
        fields = {"family": "displaced-thermal", "beta_re": 1.0, "beta_im": -0.5, "mbar": 0.7}
        spec = parse_state_spec(fields)
        assert spec.family == "displaced-thermal"
        assert spec.beta == 1.0 - 0.5j
        assert spec.mbar == 0.7


class TestInitialMoments:
    @pytest.mark.parametrize("spec", SAMPLE_SPECS, ids=lambda s: s.family)
    def test_matches_truncated_density_matrix(self, spec):
        # Slow geometric tails (thermal families) need more basis headroom
        # than the generic heuristic provides.
        cutoff = default_cutoff(spec) + 60
        rho = fock_density(spec, cutoff)
        from phasebath import moments_from_rho

        m_closed = initial_moments(spec)
        m_num = moments_from_rho(rho)
        assert abs(m_closed.mean_a - m_num.mean_a) < 1e-7
        assert m_closed.mean_n == pytest.approx(m_num.mean_n, abs=1e-7)
        assert m_closed.second_factorial == pytest.approx(m_num.second_factorial, abs=1e-6)
        assert m_closed.var_x == pytest.approx(m_num.var_x, abs=1e-7)
        assert m_closed.var_y == pytest.approx(m_num.var_y, abs=1e-7)

    def test_added_photon_thermal_mean(self):
        m = initial_moments(StateSpec("photon-added-thermal", mbar=1.0))
        assert m.mean_n == pytest.approx(3.0)  # 2 mbar + 1

    def test_added_photon_coherent_limits(self):
        # beta -> 0 reduces to the one-photon Fock state.
        m = initial_moments(StateSpec("photon-added-coherent", beta=1e-12))
        assert m.mean_n == pytest.approx(1.0)
        assert m.mandel_q() == pytest.approx(-1.0)

    def test_squeezed_variances(self):
        s = 2.0
        m = initial_moments(StateSpec("squeezed-coherent", beta=0.5, squeeze=s))
        assert m.var_x == pytest.approx(1.0 / (4.0 * s))
        assert m.var_y == pytest.approx(s / 4.0)
        assert m.var_x * m.var_y == pytest.approx(1.0 / 16.0)

    def test_sub_poissonian_flag(self):
        assert initial_moments(StateSpec("coherent", beta=2.0)).mandel_q() == pytest.approx(0.0)
        assert initial_moments(StateSpec("thermal", mbar=1.5)).mandel_q() == pytest.approx(1.5)


class TestInitialDistributions:
    def test_coherent_is_point_mass(self):
        desc = initial_p_function(StateSpec("coherent", beta=1.0 + 2.0j))
        assert isinstance(desc, GaussianP)
        assert desc.center == 1.0 + 2.0j
        assert desc.width_x == desc.width_y == 0.0

    def test_added_photon_coherent_is_derivative_form(self):
        desc = initial_p_function(StateSpec("photon-added-coherent", beta=0.5))
        assert isinstance(desc, LaplacianDeltaP)

    def test_added_photon_thermal_negative_region(self):
        # The weight is negative inside |alpha|^2 < mbar / (mbar + 1).
        mbar = 1.0
        desc = initial_p_function(StateSpec("photon-added-thermal", mbar=mbar))
        r_in = math.sqrt(mbar / (mbar + 1.0)) * 0.9
        r_out = math.sqrt(mbar / (mbar + 1.0)) * 1.1
        assert evaluate_p(desc, r_in, 0.0) < 0.0
        assert evaluate_p(desc, r_out, 0.0) > 0.0
        assert evaluate_p(desc, 0.0, 0.0) < 0.0

    @pytest.mark.parametrize(
        "spec",
        [s for s in SAMPLE_SPECS if s.family in ("thermal", "displaced-thermal", "photon-added-thermal")],
        ids=lambda s: s.family,
    )
    def test_normalization_and_mean(self, spec):
        desc = initial_p_function(spec)
        assert integral_p(desc) == pytest.approx(1.0, abs=1e-9)
        mass = quadrature_p_moment(desc, 0, 0)
        mean = quadrature_p_moment(desc, 1, 0)
        m = initial_moments(spec)
        assert mass.real == pytest.approx(1.0, abs=1e-8)
        assert abs(mean - m.mean_a) < 1e-8

    def test_thermal_gaussian_value(self):
        mbar = 2.0
        desc = initial_p_function(StateSpec("thermal", mbar=mbar))
        assert isinstance(desc, GaussianP)
        assert evaluate_p(desc, 1.0, 1.0) == pytest.approx(
            math.exp(-2.0 / mbar) / (math.pi * mbar)
        )

    def test_zero_temperature_thermal_degenerates(self):
        desc = initial_p_function(StateSpec("thermal", mbar=0.0))
        assert isinstance(desc, GaussianP)
        assert desc.center == 0.0
        assert desc.width_x == desc.width_y == 0.0


class TestFockDensity:
    def test_thermal_populations(self):
        rho = fock_density(StateSpec("thermal", mbar=1.0), 60)
        diag = np.real(np.diagonal(rho.elements))
        expected = 0.5 * 0.5 ** np.arange(60)
        np.testing.assert_allclose(diag, expected, atol=1e-15)

    def test_trace_near_one(self):
        for spec in SAMPLE_SPECS:
            rho = fock_density(spec, default_cutoff(spec))
            assert abs(np.trace(rho.elements).real - 1.0) < 1e-6

    def test_rejects_tiny_cutoff_for_large_state(self):
        with pytest.raises(ValueError):
            fock_density(StateSpec("coherent", beta=6.0), 5)
