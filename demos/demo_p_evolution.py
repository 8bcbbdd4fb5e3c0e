"""Closed-form evolution of the P distribution, checked against the propagator.

A photon-added thermal state starts with a negative dip at the origin -- a
nonclassical signature -- which thermal noise washes out.  The closed-form
evolved distribution is compared pointwise with a direct numeric evaluation of
the Gaussian convolution propagator.

Run:  python3 demos/demo_p_evolution.py
"""

import numpy as np

from phasebath import (
    BathParams,
    PhaseSpaceGrid,
    StateSpec,
    convolve_p_numeric,
    evaluate_p,
    evolve_p_closed_form,
    initial_p_function,
)

spec = StateSpec("photon-added-thermal", mbar=1.0)
bath = BathParams(gamma=0.5, nbar=2.0)
axis = np.linspace(-6.0, 6.0, 61)
template = PhaseSpaceGrid(axis, axis, np.zeros((axis.size, axis.size)), {})
mid = axis.size // 2

print(f"{spec.family}, mbar={spec.mbar}; bath gamma={bath.gamma}, nbar={bath.nbar}\n")
print("    t    P(0)         closed-vs-propagator max dev")
for t in (0.2, 0.5, 1.0, 2.0):
    form = evolve_p_closed_form(spec, bath, t)
    closed = evaluate_p(form, axis[:, None], axis[None, :])
    numeric = convolve_p_numeric(initial_p_function(spec), bath, t, template)
    dev = float(np.max(np.abs(numeric.values - closed)))
    print(f"  {t:4.1f}  {closed[mid, mid]:+.6f}   {dev:.3e}")

print("\nP(0) starts negative (one added quantum forbids the vacuum) and is")
print("dragged positive as the reservoir's Gaussian noise accumulates.")
