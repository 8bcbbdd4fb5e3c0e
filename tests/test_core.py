"""Bath parameter scaling and the half-integer Tricomi polynomial branch."""

import math
from fractions import Fraction

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from phasebath import (
    BathParams,
    check_amplitude,
    scale_bath,
    tricomi_u_half,
    u_series,
)


def exact_u_half(n: int, x: Fraction) -> Fraction:
    """Oracle: U(-n, 1/2, x) = (-1)^n n! L_n^{(-1/2)}(x) in exact rationals."""
    prev = Fraction(1)
    if n == 0:
        return prev
    curr = Fraction(1, 2) - x  # L_1^{(-1/2)}
    for k in range(1, n):
        nxt = ((2 * k + Fraction(1, 2) - x) * curr - (k - Fraction(1, 2)) * prev) / (k + 1)
        prev, curr = curr, nxt
    sign = 1 if n % 2 == 0 else -1
    return sign * math.factorial(n) * curr


class TestScaleBath:
    def test_example_half_life(self):
        scaled = scale_bath(BathParams(gamma=1.0, nbar=2.0), math.log(2.0))
        assert scaled.decay_factor == pytest.approx(0.5)
        assert scaled.nbar_t == pytest.approx(1.5)

    def test_zero_time_is_identity(self):
        scaled = scale_bath(BathParams(gamma=0.7, nbar=1.3), 0.0)
        assert scaled.decay_factor == 1.0
        assert scaled.nbar_t == 0.0

    def test_long_time_limit(self):
        scaled = scale_bath(BathParams(gamma=1.0, nbar=0.8), 50.0)
        assert scaled.decay_factor == pytest.approx(0.0, abs=1e-20)
        assert scaled.nbar_t == pytest.approx(0.8)

    @given(
        gamma=st.floats(0.05, 5.0),
        nbar=st.floats(0.0, 5.0),
        t1=st.floats(0.0, 3.0),
        t2=st.floats(0.0, 3.0),
    )
    @settings(max_examples=200, deadline=None)
    def test_semigroup_composition(self, gamma, nbar, t1, t2):
        bath = BathParams(gamma=gamma, nbar=nbar)
        a = scale_bath(bath, t1)
        b = scale_bath(bath, t2)
        c = scale_bath(bath, t1 + t2)
        assert c.decay_factor == pytest.approx(a.decay_factor * b.decay_factor, rel=1e-12)
        # Occupation composes as: evolve t1, then damp that occupation for t2 more.
        assert c.nbar_t == pytest.approx(
            b.nbar_t + a.nbar_t * b.decay_factor**2, rel=1e-12, abs=1e-15
        )

    def test_rejects_bad_parameters(self):
        with pytest.raises(ValueError):
            BathParams(gamma=0.0, nbar=1.0)
        with pytest.raises(ValueError):
            BathParams(gamma=1.0, nbar=-0.1)
        with pytest.raises(ValueError):
            scale_bath(BathParams(gamma=1.0, nbar=0.0), -1.0)


class TestAmplitudes:
    def test_displacement_decays(self):
        # An initially coherent amplitude beta is damped to beta eta.
        scaled = scale_bath(BathParams(gamma=2.0, nbar=0.5), 0.5)
        assert (2.0 + 1.0j) * scaled.decay_factor == pytest.approx(
            (2.0 + 1.0j) * math.exp(-1.0)
        )

    def test_rejects_non_finite(self):
        with pytest.raises(ValueError):
            check_amplitude(complex("inf"))


class TestTricomiPolynomialBranch:
    def test_low_order_closed_forms(self):
        assert tricomi_u_half(0, 3.7) == pytest.approx(1.0)
        # U(-1, 1/2, x) = x - 1/2
        assert tricomi_u_half(1, 0.7) == pytest.approx(0.2)
        # U(-2, 1/2, x) = x^2 - 3x + 3/4
        assert tricomi_u_half(2, 2.0) == pytest.approx(4.0 - 6.0 + 0.75)

    def test_matches_exact_rational_recurrence(self):
        rng = np.random.default_rng(7)
        worst = 0.0
        for _ in range(300):
            n = int(rng.integers(0, 21))
            x = float(rng.uniform(-50.0, 50.0))
            exact = float(exact_u_half(n, Fraction(x)))
            got = float(tricomi_u_half(n, x))
            worst = max(worst, abs(got - exact) / max(abs(exact), 1e-300))
        assert worst < 1e-12

    def test_array_input(self):
        x = np.array([0.0, 1.0, 2.5])
        np.testing.assert_allclose(tricomi_u_half(1, x), x - 0.5)

    def test_series_zero_gain(self):
        np.testing.assert_allclose(u_series(0.0, np.array([0.3, 4.0]), 10), 1.0)

    def test_series_matches_term_sum(self):
        x = np.array([0.5, 2.0, 9.0])
        gain = 0.6
        total = sum(
            gain**k / math.factorial(k) * tricomi_u_half(k, x) for k in range(13)
        )
        np.testing.assert_allclose(u_series(gain, x, 12), total, rtol=1e-12)

    @pytest.mark.parametrize("gain", [-0.9, -0.5, 0.5, 0.9])
    def test_series_converges_to_closed_sum(self, gain):
        # sum (-g)^k L_k^{(-1/2)}(x) = (1 + g)^{-1/2} e^{g x/(1 + g)} (DLMF 18.12.13),
        # the Gaussian factor of the evolved squeezed P.
        x = np.linspace(0.0, 6.0, 241)
        closed = (1.0 + gain) ** -0.5 * np.exp(gain * x / (1.0 + gain))
        errs = [
            float(np.max(np.abs(u_series(gain, x, n) - closed) * np.exp(-x)))
            for n in (10, 30, 60, 120)
        ]
        # Each order does better until the error reaches roundoff.
        assert all(b < a or b < 1e-15 for a, b in zip(errs, errs[1:]))
        if abs(gain) == 0.5:
            assert errs[2] < 1e-10
