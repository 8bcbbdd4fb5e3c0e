"""How the standard observables of each state family relax toward the bath.

Run:  python3 demos/demo_observables.py
"""

import numpy as np

from phasebath import BathParams, StateSpec, evolved_moments, initial_moments

bath = BathParams(gamma=0.5, nbar=0.5)
times = np.linspace(0.0, 6.0, 7)

catalog = [
    StateSpec("coherent", beta=1.5),
    StateSpec("thermal", mbar=1.5),
    StateSpec("displaced-thermal", beta=1.0, mbar=0.5),
    StateSpec("photon-added-thermal", mbar=1.0),
    StateSpec("photon-added-coherent", beta=1.2),
    StateSpec("squeezed-coherent", beta=1.0, squeeze=2.0),
]

print(f"bath: gamma={bath.gamma}, nbar={bath.nbar}")
print("every family relaxes to <n> -> nbar, Mandel Q -> nbar, var_x -> (2 nbar + 1)/4\n")

for spec in catalog:
    m0 = initial_moments(spec)
    print(f"{spec.family}  (initial <n> = {m0.mean_n:.3f}, Q = {m0.mandel_q():+.3f})")
    print("    t      <n>      var_x    Mandel Q")
    for t in times:
        m = evolved_moments(m0, bath, float(t))
        print(
            f"  {t:4.1f}  {m.mean_n:8.4f}  {m.var_x:8.4f}  {m.mandel_q():+9.4f}"
        )
    print()
