"""Initial-spread time bounds, distance-inequality audits, and gap scans.

The central inequality: for evolution from the ground state g_I of H_I under
H(t) = f H_I + g H_P, the distance to the phase-only reference state obeys

    || psi(T) - phi(T) || / || (H_P - beta) g_I ||  <=  integral_0^T g dt

for every real beta, and the distance itself never exceeds 2.  Minimizing the
denominator over beta gives the initial spread Delta_I E = std of H_P in g_I,
hence a smallest credible time T_min from  integral_0^{T_min} g = 2 / Delta_I E.
"""
from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from .evolution import Schedule, make_schedule, reference_phase_state, schedule_integral
from .hilbert import (
    HamiltonianOp,
    StateVector,
    degeneracy_tol,
    expectation,
    lowest_levels,
    variance,
)

__all__ = [
    "BoundMargin",
    "BoundReport",
    "BetaMinimum",
    "GapReport",
    "delta_ie",
    "residual_norm",
    "beta_minimum",
    "t_min",
    "verify_distance_bound",
    "gap_scan",
]

#: any slack below this is an invariant violation, not roundoff
SLACK_TOL = -1e-7
#: a denominator at or below this times max(||H_P g_I||, |beta|, 1) counts as vanishing
DENOM_FLOOR = 1e-12
#: each :func:`gap_scan` refinement round shrinks the grid step by this factor
REFINE_FACTOR = 5
#: fixed annotation copied into every BoundReport
THETA_NOTE = ("the intermediate time where g attains its mean value is not located; "
              "only T_min and the schedule integral are reported")


def delta_ie(g_i: StateVector, h_p: HamiltonianOp) -> float:
    """Standard deviation of H_P in the initial state (the initial spread)."""
    return math.sqrt(variance(h_p, g_i))


def residual_norm(g_i: StateVector, h_p: HamiltonianOp, beta: float) -> float:
    """|| (H_P - beta) g_I ||."""
    return float(np.linalg.norm(h_p.apply_amps(g_i.amps) - beta * g_i.amps))


@dataclass(frozen=True)
class BetaMinimum:
    h_p_mean: float  # where beta -> ||(H_P - beta) g_I|| is smallest
    delta: float     # its value there


def beta_minimum(g_i: StateVector, h_p: HamiltonianOp) -> BetaMinimum:
    """Minimum of beta -> ||(H_P - beta) g_I||, in closed form: its square is
    Delta_I E^2 + (beta - <H_P>)^2, so it is least at beta = <H_P>, where it
    equals Delta_I E."""
    return BetaMinimum(h_p_mean=expectation(h_p, g_i), delta=delta_ie(g_i, h_p))


def t_min(kind: str, delta: float, *, n: int | None = None,
          eps: float | None = None) -> float:
    """Smallest T with integral_0^T g = 2/delta for the given schedule family.

    g(t) = G(t/T) for every kind, so the integral is T times the mean of g
    and T_min = (2/delta) / mean.  ``eps`` is accepted for call compatibility
    with :func:`make_schedule`; it does not affect T_min.
    """
    if not delta > 0:
        raise ValueError("delta must be positive")
    return (2.0 / delta) / make_schedule(kind, 1.0, n=n).mean_g()


# ---------------------------------------------------------------------------
# distance-bound audit
# ---------------------------------------------------------------------------

@dataclass(frozen=True)
class BoundMargin:
    beta: float
    denominator: float   # ||(H_P - beta) g_I||
    distance: float      # ||psi(T) - phi(T)||
    lhs: float           # distance / denominator
    rhs: float           # integral of g over [0, T]
    slack: float         # rhs - lhs, negative slack below SLACK_TOL is a violation
    cap_slack: float     # 2 - distance
    applicable: bool     # False when the denominator vanishes


def verify_distance_bound(final_state: StateVector, g_i: StateVector, e_i0: float,
                          h_p: HamiltonianOp, schedule: Schedule, betas) -> list[BoundMargin]:
    """Audit the distance inequality for one evolved state over many betas.

    A vanishing denominator (g_I an eigenstate of H_P at beta) makes the ratio
    inapplicable; the row is kept but flagged rather than divided through.
    """
    if final_state.basis != g_i.basis:
        raise ValueError("final state and initial state live on different bases")
    rhs = schedule_integral(schedule, "g")
    hp_gi = h_p.apply_amps(g_i.amps)
    scale = max(1.0, float(np.linalg.norm(hp_gi)))
    rows = []
    for beta in betas:
        beta = float(beta)
        denom = float(np.linalg.norm(hp_gi - beta * g_i.amps))
        phi = reference_phase_state(g_i, e_i0, schedule, beta)
        dist = float(np.linalg.norm(final_state.amps - phi.amps))
        ok = denom > DENOM_FLOOR * max(scale, abs(beta))
        lhs = dist / denom if ok else math.inf
        rows.append(BoundMargin(
            beta=beta, denominator=denom, distance=dist,
            lhs=lhs if ok else math.nan,
            rhs=rhs,
            slack=rhs - lhs if ok else math.nan,
            cap_slack=2.0 - dist,
            applicable=ok,
        ))
    return rows


@dataclass
class BoundReport:
    """One audited run: spread, schedule integral, implied T_min, margins."""

    model: str
    schedule_kind: str
    t_total: float
    delta_ie: float
    integral_g: float
    t_min: float
    beta_star: float
    margins: list[BoundMargin]
    theta_note: str = THETA_NOTE

    def worst_slack(self) -> float:
        """The least slack of the applicable rows, NaN if any is NaN, in any
        row order; inf when no row applies."""
        vals = [m.slack for m in self.margins if m.applicable]
        return float(np.min(vals)) if vals else math.inf


# ---------------------------------------------------------------------------
# gap scan
# ---------------------------------------------------------------------------

@dataclass
class GapReport:
    """t_adb is ||H_P - H_I|| / g_min^2 for every schedule kind.  That is
    the adiabatic time proxy max ||dH/ds|| / g_min^2 on the linear path
    only, where dH/ds = H_P - H_I; on das_wei and local_adiabatic_grover,
    f(sT) and g(sT) do not move at unit rate, and it is not."""

    schedule_kind: str
    t_total: float
    s_grid: np.ndarray
    e0: np.ndarray
    e1: np.ndarray
    g_min: float
    s_at_min: float
    t_adb: float       # dh_norm / g_min^2; inf for a closed gap
    dh_norm: float     # ||H_P - H_I||, from its lowest and highest eigenvalue


def gap_scan(h_i: HamiltonianOp, h_p: HamiltonianOp, schedule: Schedule,
             grid: int = 201, refine_rounds: int = 3) -> GapReport:
    """Lowest two levels of H(sT) over s in [0,1] with local refinement.

    The coarse grid is refined ``refine_rounds`` times around the running
    minimum, each round shrinking the step by ``REFINE_FACTOR``; it ends early
    once the step no longer moves s.  The levels of the coarse grid, of each
    round's new points and of the two points +-(H_P - H_I) come from one
    :func:`hilbert.lowest_levels` call each.  For a projector-plus-diagonal
    pair (Grover, tsp-finite) that call is a stacked sector eigensolve that
    builds no full-space vector, and every level equals
    :func:`hilbert.lowest`'s bit for bit.
    """
    if grid < 3:
        raise ValueError("grid needs at least 3 points")
    if refine_rounds < 0:
        raise ValueError("refine_rounds must be nonnegative")
    if h_i.basis != h_p.basis:
        raise ValueError("operator bases differ")
    if h_i.basis.dim < 2:
        raise ValueError("need at least a 2-dimensional space")
    t_total = schedule.t_total
    cache: dict[float, tuple[float, float]] = {}

    def evaluate(points) -> None:
        new = [s for s in dict.fromkeys(points) if s not in cache]
        if new:
            f = [schedule.f(s * t_total) for s in new]
            g = [schedule.g(s * t_total) for s in new]
            cache.update(zip(new, map(tuple, lowest_levels(((f, h_i), (g, h_p)), 2).tolist())))

    evaluate(float(s) for s in np.linspace(0.0, 1.0, grid))
    step = 1.0 / (grid - 1)
    for _ in range(refine_rounds):
        s_star = min(cache, key=lambda s: cache[s][1] - cache[s][0])
        lo = max(0.0, s_star - step)
        hi = min(1.0, s_star + step)
        step /= REFINE_FACTOR
        if lo == hi or step == 0.0:  # the step no longer moves s: no later round adds a point
            break
        evaluate(float(min(max(s, 0.0), 1.0)) for s in np.arange(lo, hi + 0.5 * step, step))

    s_sorted = np.array(sorted(cache))
    e0 = np.array([cache[s][0] for s in s_sorted])
    e1 = np.array([cache[s][1] for s in s_sorted])
    gaps = e1 - e0
    pos = int(np.argmin(gaps))
    g_min = float(gaps[pos])
    # ||H_P - H_I|| = max |lambda_min(+-(H_P - H_I))|
    diffs = lowest_levels((([-1.0, 1.0], h_i), ([1.0, -1.0], h_p)), 1)
    dh_norm = max(abs(e) for e in diffs[:, 0].tolist())
    # a gap inside the degeneracy rule is closed, whatever roundoff it shows
    t_adb = math.inf if g_min <= degeneracy_tol(e0[pos]) else dh_norm / g_min ** 2
    return GapReport(schedule_kind=schedule.kind, t_total=t_total,
                     s_grid=s_sorted, e0=e0, e1=e1, g_min=g_min,
                     s_at_min=float(s_sorted[pos]), t_adb=t_adb, dh_norm=dh_norm)
