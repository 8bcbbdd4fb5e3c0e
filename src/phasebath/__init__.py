"""Phase-space evolution of a damped bosonic mode in a thermal bath.

Closed-form propagation of diagonal coherent-state weight functions and field
observables, cross-validated against the master equation solved exactly in a
truncated number basis and against quasiprobability transforms.
"""

from .core import (
    BathParams,
    check_amplitude,
    scale_bath,
    tricomi_u_half,
    u_series,
)
from .descriptors import (
    GaussianP,
    evaluate_p,
    fock_populations,
    rescale_zero_temperature,
)
from .evolution import (
    convolve_p_numeric,
    evolve_p_closed_form,
    evolved_moments,
)
from .fock import FockDensityMatrix
from .lindblad import (
    apply_liouvillian,
    husimi_q,
    husimi_q_grid,
    integrate,
    moments_from_rho,
)
from .quasiprob import (
    PhaseSpaceGrid,
    characteristic_function,
    p_to_q_grid,
    wigner_from_characteristic,
)
from .states import (
    FAMILIES,
    MomentSet,
    StateSpec,
    default_cutoff,
    fock_density,
    initial_moments,
    initial_p_function,
    parse_state_spec,
)

__version__ = "0.1.0"
