"""Adiabatic-evolution distance bounds, minimum runtimes, and TSP encodings.

The package splits into cleanly layered modules:

  tsp        closed-tour instances, tour/tuple codecs, exact tour statistics
  hilbert    basis specs, state vectors, matrix-free Hamiltonian operators
  evolution  interpolation schedules, fixed-step unitary integration
  bounds     start-state spread, runtime thresholds, distance-bound audits,
             spectral-gap scans
  models     marked-state search and three TSP encodings as ready bundles
  cli        the ``adiabound`` command line driver
"""
from .bounds import (
    BetaMinimum,
    BoundMargin,
    BoundReport,
    GapReport,
    beta_minimum,
    delta_ie,
    gap_scan,
    residual_norm,
    t_min,
    verify_distance_bound,
)
from .evolution import (
    EvolutionResult,
    Schedule,
    StepPolicy,
    evolve,
    make_schedule,
    reference_phase_state,
    schedule_integral,
    success_probability,
)
from .hilbert import (
    BasisSpec,
    CoherentPrep,
    Diagonal,
    GroundState,
    HamiltonianOp,
    LinearCombination,
    ModeSum,
    ProjectorComplement,
    StateVector,
    apply,
    basis_vector,
    coherent_state,
    default_fock_cutoff,
    expectation,
    ground_state,
    mode_digits,
    mode_flat,
    to_dense,
    uniform_state,
    variance,
)
from .models import (
    AsymptoteReport,
    AsymptoteRow,
    EnergyBudget,
    InvariantSector,
    ModelBundle,
    build_grover,
    build_tsp_finite,
    build_tsp_rank,
    build_tsp_tuple,
    delta_ie_asymptote_study,
    invariant_sector,
)
from .tsp import (
    BruteForceResult,
    DistanceSampler,
    DsqPolicy,
    FractionReport,
    SigmaReport,
    TspFormatError,
    TspInstance,
    brute_force_shortest,
    effective_length,
    effective_lengths_all,
    index_to_tuple,
    is_tour,
    parse_instance,
    random_instance,
    rank_to_tour,
    serialize_instance,
    sigma_m,
    sigma_scaling_study,
    tour_fraction_decay,
    tour_index_mask,
    tour_length,
    tour_lengths_by_rank,
    tour_to_rank,
    tuple_to_index,
)

__version__ = "0.1.0"

__all__ = [
    "__version__",
    # tsp
    "TspInstance", "TspFormatError", "DistanceSampler", "DsqPolicy",
    "BruteForceResult", "SigmaReport", "FractionReport",
    "random_instance", "parse_instance", "serialize_instance",
    "tour_length", "tour_lengths_by_rank", "rank_to_tour", "tour_to_rank",
    "index_to_tuple", "tuple_to_index", "is_tour", "tour_index_mask",
    "effective_length", "effective_lengths_all", "brute_force_shortest",
    "sigma_m", "sigma_scaling_study", "tour_fraction_decay",
    # hilbert
    "BasisSpec", "StateVector", "HamiltonianOp", "Diagonal",
    "ProjectorComplement", "ModeSum", "LinearCombination",
    "CoherentPrep", "GroundState",
    "basis_vector", "uniform_state", "coherent_state", "default_fock_cutoff",
    "mode_digits", "mode_flat", "apply", "expectation", "variance",
    "ground_state", "to_dense",
    # evolution
    "Schedule", "StepPolicy", "EvolutionResult",
    "make_schedule", "schedule_integral", "evolve", "reference_phase_state",
    "success_probability",
    # bounds
    "BetaMinimum", "BoundMargin", "BoundReport", "GapReport",
    "delta_ie", "residual_norm", "beta_minimum", "t_min",
    "verify_distance_bound", "gap_scan",
    # models
    "EnergyBudget", "ModelBundle", "AsymptoteRow", "AsymptoteReport",
    "build_grover", "build_tsp_rank", "build_tsp_tuple", "build_tsp_finite",
    "InvariantSector", "invariant_sector", "delta_ie_asymptote_study",
]
