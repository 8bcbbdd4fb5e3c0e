"""State families: parsing, initial distributions, and initial moments."""

import cmath
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
    parse_state_spec,
)
from phasebath.descriptors import GaussianP, normal_moments, singular_part
from phasebath.fock import annihilation
from phasebath.states import MomentSet

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
            StateSpec("photon-added-thermal", mbar=-0.5)
        with pytest.raises(ValueError):
            StateSpec("squeezed-coherent", squeeze=0.0)

    def test_unread_parameters_are_neutral(self):
        # A parameter the family does not read is set to beta = 0, mbar = 0 or
        # s = 1 after the finiteness checks and before the range checks.
        spec = StateSpec("coherent", beta=1.0, mbar=-1.0, squeeze=0.0)
        assert (spec.beta, spec.mbar, spec.squeeze) == (1.0, 0.0, 1.0)
        spec = StateSpec("thermal", beta=2.0j, mbar=0.5, squeeze=3.0)
        assert (spec.beta, spec.mbar, spec.squeeze) == (0j, 0.5, 1.0)
        with pytest.raises(ValueError):
            StateSpec("coherent", mbar=math.nan)

    def test_parse_round_trip(self):
        fields = {"family": "displaced-thermal", "beta_re": 1.0, "beta_im": -0.5, "mbar": 0.7}
        spec = parse_state_spec(fields)
        assert spec.family == "displaced-thermal"
        assert spec.beta == 1.0 - 0.5j
        assert spec.mbar == 0.7


def seeded_specs(family: str, count: int = 12) -> list:
    """Seeded specs of one family: |beta| up to 2, mbar in [0.05, 2], squeeze in [1/4, 4]."""
    rng = np.random.default_rng(FAMILIES.index(family))
    return [
        StateSpec(
            family,
            beta=cmath.rect(rng.uniform(0.0, 2.0), rng.uniform(0.0, 2.0 * math.pi)),
            mbar=rng.uniform(0.05, 2.0),
            squeeze=4.0 ** rng.uniform(-1.0, 1.0),
        )
        for _ in range(count)
    ]


class TestInitialMoments:
    @pytest.mark.parametrize("spec", SAMPLE_SPECS, ids=lambda s: s.family)
    def test_matches_truncated_density_matrix(self, spec):
        from phasebath import moments_from_rho

        for case in [spec, *seeded_specs(spec.family)]:
            # Slow geometric tails (thermal families) need more basis headroom
            # than the generic heuristic provides.
            cutoff = default_cutoff(initial_p_function(case)) + 60
            rho = fock_density(case, cutoff)
            m_closed = initial_moments(case)
            m_num = moments_from_rho(rho)
            assert abs(m_closed.mean_a - m_num.mean_a) < 1e-7, case
            assert m_closed.mean_n == pytest.approx(m_num.mean_n, abs=1e-7), case
            assert m_closed.second_factorial == pytest.approx(m_num.second_factorial, abs=1e-6), case
            assert m_closed.var_x == pytest.approx(m_num.var_x, abs=1e-7), case
            assert m_closed.var_y == pytest.approx(m_num.var_y, abs=1e-7), case
            assert abs(m_closed.a_squared - m_num.a_squared) < 1e-7, case

    @pytest.mark.parametrize("spec", SAMPLE_SPECS, ids=lambda s: s.family)
    def test_a_squared_matches_truncated_density_matrix(self, spec):
        # <a^2> against Tr[rho a^2] from the annihilation matrix, apart from moments_from_rho.
        for case in [spec, *seeded_specs(spec.family)]:
            cutoff = default_cutoff(initial_p_function(case)) + 60
            a = annihilation(cutoff)
            expected = np.trace(fock_density(case, cutoff).elements @ a @ a)
            assert abs(normal_moments(initial_p_function(case))[3] - expected) < 1e-7, case

    @pytest.mark.parametrize(
        "fields, message",
        [
            ({"mean_n": -1e-6}, "photon-number moments must be nonnegative"),
            ({"second_factorial": -1e-6}, "photon-number moments must be nonnegative"),
            ({"var_x": -0.25, "var_y": -0.25}, "quadrature variances must be positive"),
            ({"var_x": 0.2}, "uncertainty product below the quantum floor"),
        ],
        ids=["mean-n", "second-factorial", "variances", "uncertainty"],
    )
    def test_moment_set_refuses_unphysical_moments(self, fields, message):
        # Each set changes the vacuum's moments so that one check alone fails.
        vacuum = {"mean_a": 0j, "mean_n": 0.0, "second_factorial": 0.0, "var_x": 0.25, "var_y": 0.25,
                  "a_squared": 0j}
        MomentSet(**vacuum)
        with pytest.raises(ValueError, match=message):
            MomentSet(**{**vacuum, **fields})

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
        assert singular_part(desc) == "a delta derivative"

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
        assert desc.coeffs[0, 0] == pytest.approx(1.0, abs=1e-9)
        mass = quadrature_p_moment(desc, 0, 0)
        mean = quadrature_p_moment(desc, 1, 0)
        m = initial_moments(spec)
        assert mass.real == pytest.approx(1.0, abs=1e-8)
        assert abs(mean - m.mean_a) < 1e-8

    @pytest.mark.parametrize(
        "added, base",
        [
            (StateSpec("photon-added-coherent", beta=1.1 - 0.7j), StateSpec("coherent", beta=1.1 - 0.7j)),
            (StateSpec("photon-added-coherent", beta=0j), StateSpec("coherent", beta=0j)),
            (StateSpec("photon-added-thermal", mbar=1.3), StateSpec("thermal", mbar=1.3)),
            (StateSpec("photon-added-thermal", mbar=0.0), StateSpec("thermal", mbar=0.0)),
        ],
        ids=["coherent", "coherent-0", "thermal", "thermal-0"],
    )
    def test_added_photon_multiplies_q_by_intensity(self, added, base):
        # <alpha| a^dag = alpha* <alpha|, so Q of a^dag rho a / <a a^dag> is
        # |alpha|^2 Q_rho / <a a^dag>, with <a a^dag> = |beta|^2 + mbar + 1.
        axis = np.linspace(-4.0, 4.0, 41)
        x, y = axis[:, None], axis[None, :]
        q = evaluate_p(initial_p_function(added).convolved(1.0, 1.0), x, y)
        q_base = evaluate_p(initial_p_function(base).convolved(1.0, 1.0), x, y)
        expected = (x * x + y * y) * q_base / (abs(base.beta) ** 2 + base.mbar + 1.0)
        assert np.max(np.abs(q - expected)) <= 4e-15 * np.max(expected)

    def test_added_photon_thermal_at_zero_mbar_is_one_photon(self, tmp_path):
        # a^dag |0><0| a = |1><1|: the photon-added-coherent state at beta = 0.
        from phasebath.cli import main

        spec = StateSpec("photon-added-thermal", mbar=0.0)
        p0 = initial_p_function(spec)
        fock1 = initial_p_function(StateSpec("photon-added-coherent", beta=0j))
        assert (p0.center, p0.width_x, p0.width_y) == (fock1.center, fock1.width_x, fock1.width_y)
        assert p0.coeffs.tobytes() == fock1.coeffs.tobytes()
        expected = np.zeros((12, 12))
        expected[1, 1] = 1.0
        assert np.max(np.abs(fock_density(spec, 12).elements - expected)) <= 1e-15
        for nbar in ("0", "0.4"):
            argv = ["run", "--state", "photon-added-thermal", "--mbar", "0", "--gamma", "1",
                    "--nbar", nbar, "--times", "0,0.5", "--outputs", "moments,w-grid",
                    "--compare", "--grid=-3:3:9", "--out", str(tmp_path / nbar)]
            assert main(argv) == 0

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
            rho = fock_density(spec, default_cutoff(initial_p_function(spec)))
            assert abs(np.trace(rho.elements).real - 1.0) < 1e-6

    @pytest.mark.parametrize("nbar", [0.0, 1.2])
    @pytest.mark.parametrize("spec", SAMPLE_SPECS, ids=lambda s: s.family)
    def test_default_cutoff_holds_second_factorial(self, spec, nbar):
        # Never below the mean-photon-number rule, and large enough that the
        # state's own tail leaves <a+^2 a^2> intact (thermal at 1.4 lost 9e-5 at 30).
        from phasebath import moments_from_rho

        m = initial_moments(spec)
        cutoff = default_cutoff(initial_p_function(spec), nbar)
        assert cutoff >= max(30, math.ceil(8.0 * (m.mean_n + nbar + 1.0)))
        rho = fock_density(spec, cutoff)
        assert moments_from_rho(rho).second_factorial == pytest.approx(m.second_factorial, abs=1e-7)

    def test_rejects_tiny_cutoff_for_large_state(self):
        with pytest.raises(ValueError):
            fock_density(StateSpec("coherent", beta=6.0), 5)
