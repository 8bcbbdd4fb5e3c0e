"""floattext: bulk shortest round-trip text, held to ``repr`` byte for byte."""

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from phasebath import floattext


def _assert_reprs(values) -> None:
    values = np.asarray(values, dtype=float)
    (text,) = floattext.reprs([values])
    expected = "".join(repr(v) + "\n" for v in values.tolist())
    assert text.decode("ascii") == expected


def _neighbours(values: np.ndarray) -> np.ndarray:
    """Each value, the doubles on either side of it, and their negatives."""
    values = np.concatenate([values, np.nextafter(values, 0.0), np.nextafter(values, np.inf)])
    values = values[np.isfinite(values)]
    return np.concatenate([values, -values])


class TestMatchesRepr:
    def test_random_bit_patterns(self):
        # Every exponent field and both signs: finite bit patterns, uniform.
        rng = np.random.default_rng(20201)
        bits = rng.integers(0, 0x7FF0_0000_0000_0000, size=50_000, dtype=np.int64)
        bits[::2] |= np.int64(-0x8000_0000_0000_0000)
        _assert_reprs(bits.view(np.float64))

    def test_random_fractions_of_every_exponent(self):
        rng = np.random.default_rng(7)
        exponents = np.repeat(np.arange(2047, dtype=np.int64), 16)
        fractions = rng.integers(0, 1 << 52, size=exponents.size, dtype=np.int64)
        _assert_reprs((exponents << 52 | fractions).view(np.float64))

    def test_powers_of_two(self):
        # All 2,098 of them, subnormal ones included: where the rounding
        # interval below a value is half the one above.
        powers = np.ldexp(1.0, np.arange(-1074, 1024))
        assert powers.size == 2098 and np.all(powers > 0) and np.all(np.isfinite(powers))
        _assert_reprs(_neighbours(powers))

    def test_powers_of_ten(self):
        powers = np.array([float(f"1e{e}") for e in range(-323, 309)])
        _assert_reprs(_neighbours(powers))

    def test_extremes(self):
        _assert_reprs([0.0, -0.0, 5e-324, -5e-324, 2.2250738585072014e-308, 2.225073858507201e-308,
                       1.7976931348623157e308, -1.7976931348623157e308])

    def test_notation_switches(self):
        # repr writes 0.0001 but 1e-05, and 1e+16 but 1000000000000000.0.
        edges = np.array([1e-4, 1e-5, 1e15, 1e16, 1.5e-4, 9.5e-5, 1.2345e15, 1.2345e16,
                          9999999999999998.0, 1.0000000000000002e16, 123456789012345.67, 0.00012345678901234567])
        _assert_reprs(_neighbours(edges))
        assert floattext.reprs([np.array([1e-4, 1e-5, 1e16, 1e15])]) == [
            b"0.0001\n1e-05\n1e+16\n1000000000000000.0\n"
        ]

    def test_integers_and_rounded_decimals(self):
        rng = np.random.default_rng(3)
        _assert_reprs(np.arange(-3000.0, 3000.0))
        scale = 10.0 ** rng.integers(0, 12, size=20_000)
        _assert_reprs(np.round(rng.standard_normal(20_000) * scale) / scale)

    @given(st.lists(st.floats(allow_nan=False, allow_infinity=False), min_size=1, max_size=40))
    @settings(max_examples=150, deadline=None)
    def test_any_finite_double(self, values):
        _assert_reprs(values)


class TestArrays:
    def test_each_array_gets_its_own_texts(self):
        # Arrays of every size around the chunk length, empty ones included,
        # in one pass; a 2-D array is read row-major.
        sizes = [0, 3, 0, floattext._CHUNK - 1, 1, floattext._CHUNK + 1, 0]
        rng = np.random.default_rng(11)
        arrays = [rng.standard_normal(size) for size in sizes] + [np.arange(6.0).reshape(2, 3)]
        texts = floattext.reprs(arrays)
        assert texts == ["".join(repr(v) + "\n" for v in a.ravel().tolist()).encode() for a in arrays]

    @pytest.mark.parametrize("bad", [np.nan, np.inf, -np.inf])
    def test_non_finite_values_are_refused(self, bad):
        with pytest.raises(ValueError, match="finite"):
            floattext.reprs([np.array([1.0, bad])])
