"""Truncated number-basis unitaries against scipy's matrix exponential."""

import math

import numpy as np
import pytest
from scipy.linalg import expm

from phasebath.fock import (
    FockDensityMatrix,
    annihilation,
    displacement_matrix,
    squeeze_matrix,
    thermal_populations,
)


@pytest.mark.parametrize("beta", [0.3, 1.0 + 0.5j, -2.0j, 3.0 - 2.0j, 4.0 + 1.0j, -4.0 - 1.0j])
def test_displacement_matches_expm(beta):
    a = annihilation(156)
    reference = expm(beta * a.conj().T - np.conj(beta) * a)
    assert np.max(np.abs(displacement_matrix(beta, 156) - reference)) < 1e-13


@pytest.mark.parametrize("squeeze", [0.42, 2.4, 4.0])
def test_squeeze_matches_expm(squeeze):
    # At cutoff 156 scipy's expm of this generator is itself off by up to
    # 1.7e-13 (s = 0.42, against a 30-digit reference), so the comparison runs
    # at 120, above every default cutoff of these squeezes; at 156 the result
    # must be orthogonal, as the exact exponential of a real antisymmetric
    # matrix is.
    exponent = 0.5 * math.log(squeeze)
    a = annihilation(120)
    reference = expm(0.5 * exponent * (a @ a - a.T @ a.T))
    s = squeeze_matrix(exponent, 120)
    assert s.dtype == np.float64
    assert np.max(np.abs(s - reference)) < 1e-13
    wide = squeeze_matrix(exponent, 156)
    assert np.max(np.abs(wide @ wide.T - np.eye(156))) < 1e-13


def test_density_matrix_rejects_non_finite_elements():
    # NaN fails every comparison in the Hermiticity, trace and eigenvalue checks.
    with pytest.raises(ValueError, match="finite"):
        FockDensityMatrix(3, np.diag([0.5, 0.5, np.nan]), 0.0)


@pytest.mark.parametrize(
    "cutoff, elements, message",
    [
        (1, [[1.0]], "cutoff must be >= 2"),
        (3, np.eye(2) / 2.0, "cutoff x cutoff"),
        (2, [[0.5, 0.1], [0.0, 0.5]], "not Hermitian"),
        (2, np.diag([0.6, 0.6]), "outside the admissible range"),
        (2, np.diag([0.4, 0.4]), "outside the admissible range"),
        (2, [[0.5, 0.9], [0.9, 0.5]], "negative eigenvalue"),
    ],
    ids=["cutoff", "shape", "hermiticity", "trace-above", "trace-below", "eigenvalue"],
)
def test_density_matrix_refuses_what_is_no_state(cutoff, elements, message):
    # Each input passes every check but the one it names.
    with pytest.raises(ValueError, match=message):
        FockDensityMatrix(cutoff, np.array(elements, dtype=complex), 0.0)


def test_zero_occupation_is_the_vacuum():
    expected = np.zeros(6)
    expected[0] = 1.0
    assert np.array_equal(thermal_populations(0.0, 6), expected)
