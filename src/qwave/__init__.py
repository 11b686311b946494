"""Exact desk-scale simulator of second-quantized quantum registers.

Builds finite occupation-number registers of bosonic, fermionic and
two-level modes, evolves them exactly, measures them projectively with
seeded Born-rule sampling, and packages the split-particle nonlocality
experiments (entanglement swapping, chained Bell relations, coherent-state
rotations, the fermionic phase obstruction, gauge checks and
post-selection chains) as reproducible protocol runs.
"""

from .errors import (
    ConfigError,
    DimensionBudgetError,
    DuplicateLabelError,
    ImpossibleOutcomeError,
    InvalidCutoffError,
    KindMismatchError,
    NTooLargeError,
    NonCommutingSpecsError,
    NotHermitianError,
    OccupationOutOfRangeError,
    RegisterMismatchError,
    SimulationError,
    SiteMismatchError,
    TailBoundExceededError,
    UnknownModeError,
)
from .fock import (
    DensityMatrix,
    ModeKind,
    ModeRegister,
    ModeSpec,
    Site,
    StateVector,
    basis_state,
    boson,
    build_register,
    fermion,
    from_amplitudes,
    partial_trace,
    prepare_superposition,
    two_level,
    vacuum_state,
)
from .measurement import (
    MeasurementSpec,
    ShotRecord,
    born_probabilities,
    joint_distribution,
    plus_minus_basis,
    post_select,
    quadrature_basis,
    sample,
    sample_counts,
    site_locality_gap,
    spin_direction_measurement,
    vacuum_one_superposition_basis,
)
from .operators import (
    OperatorMatrix,
    annihilation,
    apply,
    coherent_state,
    commutator_norm,
    creation,
    evolve,
    identity,
    number_operator,
    pair_exchange,
    phase_kick,
    poisson_tail,
    quadrature,
    swap_coupler,
    nucleon_coupler,
)
from .protocols import (
    EmpiricalStat,
    ExperimentReport,
    ab_gauge_check,
    aux_particle_phase,
    bell_chain,
    coherent_factorization,
    coincidence_rate,
    collective_chain,
    fermion_nogo,
    lhv_max_satisfied,
    photon_swap_experiment,
    rabi_rotation,
)

__version__ = "0.1.0"

__all__ = [name for name in dir() if not name.startswith("_")]
