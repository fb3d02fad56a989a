"""Reference models: marked-state search and three TSP Hamiltonian encodings.

Every builder returns a :class:`ModelBundle` holding the driver H_I with its
ground state g_I (always at energy 0), the problem Hamiltonian H_P, the target
index set (the full degenerate argmin, never a single representative), and an
energy budget.  Encodings:

  grover       flat N-dimensional search, H_I = 1-|u><u|, H_P = 1-|m><m|
               (the diagonal with a single 0 at the marked label)
  tsp-rank     one fock ladder; level n < M! carries the length of the tour
               with rank n+1, levels beyond carry l_max; H_I is a one-mode
               ModeSum displaced by alpha with |alpha|^2 = M! by default
  tsp-tuple    M fock ladders; in-range occupation tuples (all digits < M)
               carry effective lengths, out-of-range levels carry l_max;
               H_I sums per-mode displacements with |alpha_i|^2 = M
  tsp-finite   flat M^M space: the tuple model restricted to in-range labels,
               with a uniform-superposition driver instead of displacements
"""
from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from . import tsp
from .hilbert import (
    BasisSpec,
    CoherentPrep,
    Diagonal,
    HamiltonianOp,
    InvariantSector,
    ModeSum,
    ProjectorComplement,
    StateVector,
    argmin_set,
    coherent_state,
    default_fock_cutoff,
    mode_digits,
    uniform_state,
)

__all__ = [
    "EnergyBudget",
    "ModelBundle",
    "AsymptoteRow",
    "AsymptoteReport",
    "build_grover",
    "build_tsp_rank",
    "build_tsp_tuple",
    "build_tsp_finite",
    "invariant_sector",
    "delta_ie_asymptote_study",
]

#: tuple-model product dimension guard
_TUPLE_DIM_BUDGET = 4_000_000
_GROVER_MAX_N = 1 << 20


@dataclass(frozen=True)
class EnergyBudget:
    """alpha_cost = sum of |alpha_i|^2 (0 when nothing is displaced) plus
    operator-norm bounds; the path bound is for any schedule with f, g <= 1,
    so schedules that overshoot must scale it by their own maxima."""

    alpha_cost: float
    h_i_norm_bound: float
    h_p_norm_bound: float

    @property
    def linear_path_norm_bound(self) -> float:
        return self.h_i_norm_bound + self.h_p_norm_bound


@dataclass
class ModelBundle:
    kind: str
    name: str
    h_i: HamiltonianOp
    h_p: Diagonal
    g_i: StateVector
    e_i0: float
    target_indices: tuple[int, ...]
    target_energy: float
    budget: EnergyBudget
    instance: tsp.TspInstance | None = None
    preps: tuple[CoherentPrep, ...] = ()

    def decode(self, index: int):
        """Basis index -> problem label: the index itself (grover), a tour
        (tsp-rank), or an occupation tuple (tsp-tuple/finite).  None when the
        index lies beyond the encoded labels."""
        if not 0 <= index < self.h_p.basis.dim:
            raise ValueError(f"index {index} outside basis of dim {self.h_p.basis.dim}")
        if self.kind == "grover":
            return index
        m = self.instance.M
        if self.kind == "tsp-rank":
            return tsp.rank_to_tour(index + 1, m) if index < math.factorial(m) else None
        if self.kind == "tsp-tuple":
            digits = mode_digits(self.h_p.basis, index)
            return digits if max(digits) < m else None
        return tsp.index_to_tuple(index + 1, m)


def build_grover(n: int, marked: int = 0) -> ModelBundle:
    """Marked-state search over n flat labels."""
    if not 2 <= n <= _GROVER_MAX_N:
        raise ValueError(f"n must be in [2, {_GROVER_MAX_N}]")
    if not 0 <= marked < n:
        raise ValueError(f"marked index {marked} outside 0..{n - 1}")
    basis = BasisSpec.flat(n)
    g_i = uniform_state(basis)
    values = np.ones(n)
    values[marked] = 0.0  # 1 - |m><m|
    return _bundle("grover", f"grover-n{n}", ProjectorComplement(basis, g_i.amps.copy()),
                   Diagonal(basis, values), g_i)


def build_tsp_rank(inst: tsp.TspInstance, alpha_sq: float | None = None,
                   n_max: int | None = None) -> ModelBundle:
    """Single-ladder encoding: level n <-> the tour of rank n+1 (n < M!)."""
    m = inst.M
    if m > 6:
        raise ValueError("rank encoding capped at 6 cities (ladder of ~M! levels)")
    if alpha_sq is None:
        alpha_sq = float(math.factorial(m))
    return _ladder_model("tsp-rank", inst, tsp.tour_lengths_by_rank(inst), alpha_sq,
                         "alpha_sq", n_max)


def build_tsp_tuple(inst: tsp.TspInstance, alpha_sq_per_mode: float | None = None,
                    n_max: int | None = None,
                    policy: tsp.DsqPolicy = tsp.DsqPolicy()) -> ModelBundle:
    """M-ladder encoding with little-endian digit order: the occupation tuple
    (m_1, ..., m_M) sits at flat index sum_i m_i (n_max+1)^(i-1)."""
    m = inst.M
    if m > 4:
        raise ValueError("tuple encoding capped at 4 cities (product dimension)")
    if alpha_sq_per_mode is None:
        alpha_sq_per_mode = float(m)
    # C order puts mode 1, the fastest digit, on the last axis of both blocks
    labels = tsp.effective_lengths_all(inst, policy).reshape((m,) * m)
    return _ladder_model("tsp-tuple", inst, labels, alpha_sq_per_mode, "alpha_sq_per_mode", n_max)


def _ladder_model(kind: str, inst: tsp.TspInstance, labels: np.ndarray, alpha_sq: float,
                  alpha_name: str, n_max: int | None) -> ModelBundle:
    """``labels.ndim`` fock ladders, each displaced by alpha = sqrt(alpha_sq):
    H_P carries ``labels`` on the leading block of levels (every occupation
    below ``labels.shape[0]``) and l_max everywhere else; g_I is the product
    of the truncated coherent states."""
    n_modes, levels = labels.ndim, labels.shape[0]
    if not 0 < alpha_sq <= _TUPLE_DIM_BUDGET ** (1 / n_modes):  # tail cutoffs keep > alpha_sq levels
        raise ValueError(f"{alpha_name} must be in (0, {_TUPLE_DIM_BUDGET ** (1 / n_modes):.6g}]")
    alpha = math.sqrt(alpha_sq)
    if n_max is None:  # the smallest ladder that keeps the tail and every label level
        n_max = max(levels - 1, default_fock_cutoff(alpha))
    if n_max < levels - 1:
        raise ValueError(f"n_max={n_max} drops label levels; need at least {levels - 1}")
    basis = BasisSpec.modes(n_modes, n_max)
    if basis.dim > _TUPLE_DIM_BUDGET:
        raise ValueError(f"product dimension {basis.dim} exceeds budget {_TUPLE_DIM_BUDGET}")
    values = np.full(basis.dim, inst.l_max)
    values.reshape(basis.dims)[(slice(levels),) * n_modes] = labels
    prep = coherent_state(alpha, n_max)
    amps = prep.state.amps
    for _ in range(n_modes - 1):
        # mode 1 must vary fastest, so each new ladder goes on the slow side
        amps = np.kron(prep.state.amps, amps)
    return _bundle(kind, f"{kind}-{inst.name}", ModeSum(basis, (alpha,) * n_modes),
                   Diagonal(basis, values), StateVector(basis, amps),
                   alpha_cost=alpha_sq * n_modes, instance=inst, preps=(prep,) * n_modes)


def build_tsp_finite(inst: tsp.TspInstance,
                     policy: tsp.DsqPolicy = tsp.DsqPolicy()) -> ModelBundle:
    """Flat M^M restriction of the tuple model with a uniform driver."""
    m = inst.M
    if m > 6:
        raise ValueError("finite encoding capped at 6 cities (M^M labels)")
    basis = BasisSpec.flat(m ** m)
    g_i = uniform_state(basis)
    return _bundle("tsp-finite", f"tsp-finite-{inst.name}",
                   ProjectorComplement(basis, g_i.amps.copy()),
                   Diagonal(basis, tsp.effective_lengths_all(inst, policy)), g_i,
                   instance=inst)


def _bundle(kind: str, name: str, h_i: HamiltonianOp, h_p: Diagonal, g_i: StateVector,
            alpha_cost: float = 0.0, **extra) -> ModelBundle:
    """Every builder's tail: the targets are the argmin set of H_P's diagonal,
    and the budget holds both operators' norm bounds."""
    target_idx, e0 = argmin_set(h_p.values)
    return ModelBundle(
        kind=kind, name=name, h_i=h_i, h_p=h_p, g_i=g_i, e_i0=0.0,
        target_indices=target_idx, target_energy=e0,
        budget=EnergyBudget(alpha_cost=alpha_cost, h_i_norm_bound=h_i.norm_bound(),
                            h_p_norm_bound=h_p.norm_bound()),
        **extra,
    )


# ---------------------------------------------------------------------------
# invariant sector
# ---------------------------------------------------------------------------

def invariant_sector(bundle: ModelBundle) -> InvariantSector | None:
    """Exact reduction of a model with H_I = 1 - |g_I><g_I| and a diagonal H_P
    to its :class:`InvariantSector`, which an evolution from g_I never leaves:
    one dimension per distinct level of H_P, 2 for Grover at any N.  Any other
    structure of H_I or H_P gives None."""
    h_i, h_p, g = bundle.h_i, bundle.h_p, bundle.g_i.amps
    if not (isinstance(h_i, ProjectorComplement) and np.array_equal(h_i.vector, g)
            and isinstance(h_p, Diagonal)):
        return None
    return InvariantSector.of(h_i, h_p)


# ---------------------------------------------------------------------------
# spread asymptotics
# ---------------------------------------------------------------------------

@dataclass(frozen=True)
class AsymptoteRow:
    m: int
    delta_ie: float        # spread of H_P in the uniform start state
    non_tour_std: float    # spread over the penalty entries alone
    penalty_std_ref: float  # closed-form reference for the penalty spread
    ratio: float           # delta_ie / non_tour_std
    tour_fraction: float   # M!/M^M


@dataclass
class AsymptoteReport:
    rows: list[AsymptoteRow]


def delta_ie_asymptote_study(m_values, policy: tsp.DsqPolicy = tsp.DsqPolicy(),
                             seed: int = 0) -> AsymptoteReport:
    """How the uniform-state spread of the finite model approaches the spread
    of the penalty entries alone as the tour fraction M!/M^M dies off.

    One instance per size, drawn from the (seed, M, 0) stream.  For the parity
    policy the penalty entries alternate between l_max and 3*l_max, so the
    equal-weight closed-form reference is l_max itself; for the random policy
    it is sqrt(2)*sigma_d^2, the std of a squared centered normal.
    """
    rows = []
    for m in m_values:
        inst = tsp.random_instance(m, seed, stream=0)
        eff, mask = tsp.effective_lengths_all(inst, policy), tsp.tour_index_mask(m)
        # uniform start state: the spread is the population std of the diagonal
        delta = float(np.std(eff))
        non_tour = float(np.std(eff[~mask]))
        if policy.kind == "parity":
            ref = inst.l_max
        else:
            ref = math.sqrt(2.0) * policy.sigma_d ** 2
        rows.append(AsymptoteRow(
            m=m, delta_ie=delta, non_tour_std=non_tour, penalty_std_ref=ref,
            ratio=delta / non_tour,
            tour_fraction=math.factorial(m) / m ** m,
        ))
    return AsymptoteReport(rows=rows)
