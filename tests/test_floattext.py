"""floattext: bulk shortest round-trip text, held to ``repr`` byte for byte."""

import gc
import tracemalloc

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
        # Arrays of every size around the chunk length and the gather's row
        # block, empty ones included, in one pass; the array of 2 chunks + 5
        # values spans three chunks, and a 2-D array is read row-major.
        chunk, block = floattext._CHUNK, floattext._BLOCK
        sizes = [0, 3, 0, block - 1, 1, block + 1, chunk - 1, 1, chunk + 1, 0, 2 * chunk + 5, 0]
        rng = np.random.default_rng(11)
        arrays = [rng.standard_normal(size) for size in sizes] + [np.arange(6.0).reshape(2, 3)]
        texts = floattext.reprs(arrays)
        assert texts == ["".join(repr(v) + "\n" for v in a.ravel().tolist()).encode() for a in arrays]

    @pytest.mark.parametrize("bad", [np.nan, np.inf, -np.inf])
    def test_non_finite_values_are_refused(self, bad):
        with pytest.raises(ValueError, match="finite"):
            floattext.reprs([np.array([1.0, bad])])


class TestMemory:
    def test_a_runs_pass_peaks_at_most_640_kb(self):
        # About the distinct doubles of a phase-space run: an axis and four
        # off-centre Gaussian 41 x 41 grids, tails included.  The chunk
        # length and the kernel's in-place temporaries go together: with
        # 2,048-value chunks, stacked candidates and a whole-chunk gather
        # index peaked near 860 KB here, and 512-value chunks near 420 KB.
        axis = np.linspace(-4.0, 4.0, 41)
        x, y = axis[:, None], axis[None, :]
        arrays = [axis] + [
            np.exp(-((x - cx) ** 2 + (y - cy) ** 2) / w) / (np.pi * w)
            for cx, cy, w in [(0.3, -0.7, 0.5), (1.1, 0.4, 1.0), (-0.9, 1.3, 2.0), (2.2, -1.6, 0.8)]
        ]
        assert sum(a.size for a in arrays) == 6765
        floattext.reprs(arrays)  # numpy's first-call set-up is not the pass's
        gc.collect()
        tracemalloc.start()
        try:
            floattext.reprs(arrays)
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert peak <= 640_000
