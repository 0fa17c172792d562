"""Simulators for a laser-driven two-level atom and the quantum Rabi /
Jaynes-Cummings system, with tooling to quantify the error of the
rotating wave approximation."""

__version__ = "0.1.0"

from .errors import (  # noqa: F401
    ModelError,
    RiccatiPoleError,
    ScenarioError,
    SimulationError,
    StiffnessError,
)
from .fock import LadderSet, commutation_defect, ladder_ops, number_state  # noqa: F401
from .integrator import (  # noqa: F401
    IntegratorConfig,
    TimeSeries,
    fidelity,
    integrate,
    observable_series,
    propagate_periodic,
)
from .linalg import (  # noqa: F401
    bch_conjugate,
    commutator,
    expm_series,
    expm_su2,
    expm_via_hadamard,
    pauli,
    tensor_product,
    walsh_hadamard,
)
from .quantum import (  # noqa: F401
    JCParams,
    hamiltonian_jc,
    hamiltonian_quantum_rabi,
    propagator_jc_detuned,
    propagator_jc_resonance,
    simulate_quantum_rabi,
)
from .semiclassical import (  # noqa: F401
    DriveParams,
    hamiltonian_full,
    hamiltonian_rwa,
    propagator_rwa_detuned,
    propagator_rwa_resonance,
    solve_beyond_rwa,
)
