"""The three quasiprobability layers of one state: P, Q, and Wigner.

The evolved analytic P is smoothed into the Husimi Q and compared against the
Q computed from an independently propagated density matrix; the Wigner
function, the expected parity of the displaced state at each grid point,
shows the negativity that Q hides.

Run:  python3 demos/demo_quasiprobabilities.py
"""

import numpy as np

from phasebath import (
    BathParams,
    FockDensityMatrix,
    StateSpec,
    evolve_p_closed_form,
    fock_density,
    husimi_q_grid,
    integrate,
    p_to_q_grid,
    wigner_from_characteristic,
)

spec = StateSpec("photon-added-coherent", beta=1.0)
bath = BathParams(gamma=0.5, nbar=1.0)
t = 0.5
axis = np.linspace(-3.0, 3.0, 41)

form = evolve_p_closed_form(spec, bath, t)
rho = integrate(fock_density(spec, 60), bath, [t])[0]

q_analytic = p_to_q_grid(form, axis, axis)
q_numeric = husimi_q_grid(rho, axis, axis)
print(f"{spec.family}, beta={spec.beta}; t={t}, bath nbar={bath.nbar}")
print(f"Q (analytic-P route) vs Q (Fock-basis route): "
      f"max dev {float(np.max(np.abs(q_analytic.values - q_numeric.values))):.3e}")
print(f"Q mass on the window: {q_analytic.mass():.6f}")

one_photon = FockDensityMatrix.from_array(np.diag([0.0, 1.0] + [0.0] * 28))
w = wigner_from_characteristic(one_photon, axis, axis)
mid = axis.size // 2
print(f"\nWigner of a one-quantum state at the origin: {w.values[mid, mid]:+.6f}"
      f"  (exact: {-2.0 / np.pi:+.6f})")
print("negative at the origin -- invisible in Q, which is non-negative everywhere.")
