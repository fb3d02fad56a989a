"""Interpolation schedules and fixed-step unitary evolution.

The Hamiltonian path is H(t) = f(t) H_I + g(t) H_P on t in [0, T] with
f(0) = 1, f(T) = 0, g(0) = 0, g(T) = 1.  f + g = 1 is *not* assumed; the
das_wei schedule overshoots g = 1 mid-run and the step-size rule accounts
for that through the schedule's own maxima.
"""
from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from .hilbert import (
    Diagonal,
    HamiltonianOp,
    LinearCombination,
    NumericGuardError,
    ProjectorComplement,
    StateVector,
    ground_state,
    lowest,
)

__all__ = [
    "Schedule",
    "StepPolicy",
    "EvolutionResult",
    "plan_steps",
    "make_schedule",
    "schedule_integral",
    "evolve",
    "reference_phase_state",
    "success_probability",
]

#: boundary conditions are enforced to this absolute tolerance
BOUNDARY_TOL = 1e-12
SCHEDULE_KINDS = ("linear", "das_wei", "local_adiabatic_grover")
#: bytes of precomputed RK4 tables per chunk of steps; bounds evolve's table memory
_STAGE_TABLE_BYTES = 1 << 19
#: the largest dimension whose projector-plus-diagonal steps are K x K matrices
_MATRIX_DIM = 4
#: the most steps a plan may take: the step index must fit an int64
_MAX_STEPS = np.iinfo(np.int64).max


@dataclass(frozen=True)
class Schedule:
    """One interpolation path.  Use :func:`make_schedule` to construct.

    kinds:
      linear                  f = 1 - t/T, g = t/T
      das_wei                 f = 1 - t/T, g = t/T + sqrt(n) (t/T)(1 - t/T)
      local_adiabatic_grover  s(t) advances at a rate proportional to the
                              squared two-level gap 1/n + 4(1-1/n)(s-1/2)^2;
                              f = 1 - s, g = s
    """

    kind: str
    t_total: float
    n: int | None = None

    def __post_init__(self):
        if self.kind not in SCHEDULE_KINDS:
            raise ValueError(f"unknown schedule kind {self.kind!r}")
        if not (math.isfinite(self.t_total) and self.t_total > 0):
            raise ValueError("total time must be positive and finite")
        if self.kind in ("das_wei", "local_adiabatic_grover"):
            if self.n is None or self.n < 2:
                raise ValueError(f"{self.kind} needs n >= 2")
        (f0, f1), (g0, g1) = self._fg(np.array([0.0, self.t_total]))
        for name, val, want in (("f(0)", f0, 1.0), ("f(T)", f1, 0.0),
                                ("g(0)", g0, 0.0), ("g(T)", g1, 1.0)):
            if abs(val - want) > BOUNDARY_TOL:
                raise ValueError(f"schedule boundary {name} = {float(val)!r}, expected {want}")

    def _fg(self, t):
        """(f, g) at a time or an array of times; the one shape of every kind."""
        x = np.asarray(t, dtype=float) / self.t_total
        if self.kind == "linear":
            return 1.0 - x, x
        if self.kind == "das_wei":
            return 1.0 - x, x + math.sqrt(self.n) * x * (1.0 - x)
        root = math.sqrt(self.n - 1.0)
        theta0 = math.atan(root)
        s = 0.5 + np.tan(-theta0 + x * (2.0 * theta0)) / (2.0 * root)
        return 1.0 - s, s

    def f(self, t):
        return self._fg(t)[0]

    def g(self, t):
        return self._fg(t)[1]

    def max_f(self) -> float:
        return 1.0  # f decreases from 1 for every kind

    def max_g(self) -> float:
        if self.kind == "das_wei":
            # stationary point of x + sqrt(n) x (1-x) at x = 1/2 + 1/(2 sqrt(n))
            r = math.sqrt(self.n)
            return (1.0 + r) ** 2 / (4.0 * r)
        return 1.0

    def mean_g(self) -> float:
        """Mean of g over [0, T].  The local_adiabatic_grover s - 1/2 is odd
        about T/2, so its mean is 1/2 as for the linear ramp."""
        if self.kind == "das_wei":
            return 0.5 + math.sqrt(self.n) / 6.0
        return 0.5


def make_schedule(kind: str, t_total: float, *, n: int | None = None,
                  eps: float | None = None) -> Schedule:
    """Build a schedule.  ``eps`` is accepted for call compatibility and
    ignored, as :func:`bounds.t_min` ignores it."""
    return Schedule(kind=kind, t_total=float(t_total), n=n)


def schedule_integral(schedule: Schedule, component: str = "g") -> float:
    """Integral of f or g over [0, T], in closed form: f - 1/2 is odd about
    T/2 for every kind, so int f = T/2, and int g = T * mean of g."""
    if component not in ("f", "g"):
        raise ValueError("component must be 'f' or 'g'")
    if component == "f":
        return 0.5 * schedule.t_total
    return schedule.t_total * schedule.mean_g()


# ---------------------------------------------------------------------------
# integration
# ---------------------------------------------------------------------------

@dataclass(frozen=True)
class StepPolicy:
    """Fixed-step RK4 controls.

    The step obeys h * B <= step_bound_factor, with B the schedule-weighted
    operator-norm bound.  On long runs the step shrinks further, so that the
    worst-case accumulated drift stays at half of norm_tol (:func:`plan_steps`).
    That drift budget sees each operator's spectrum centered on zero: RK4
    integrates f (H_I - c_I) + g (H_P - c_P), with c the midpoint of the
    operator's known spectral range.  So the budget grows with the half-widths
    of the two spectra, not with their norms.  The exact global phase of the
    shift is put back at the end.  Norm drift past norm_tol aborts the run; it
    is never silently renormalized.
    """

    step_bound_factor: float = 0.1
    norm_tol: float = 1e-8
    samples_per_run: int = 256
    track_ground_overlap: bool = False
    n_steps_override: int | None = None

    def __post_init__(self):
        if not 0 < self.step_bound_factor <= 1.0:
            raise ValueError("step_bound_factor must sit in (0, 1]")
        if not self.norm_tol > 0:
            raise ValueError("norm_tol must be positive")
        if self.samples_per_run < 0:
            raise ValueError("samples_per_run must be nonnegative")
        if self.n_steps_override is not None and self.n_steps_override < 1:
            raise ValueError("n_steps_override must be >= 1")


@dataclass
class EvolutionResult:
    state: StateVector          # final state, carrying its true (drifted) norm
    times: np.ndarray
    norms: np.ndarray
    ground_overlaps: np.ndarray  # |<ground(H(t))|psi(t)>|^2, NaN when not tracked
    n_steps: int
    h: float
    norm_bound: float
    max_drift: float


def evolve(h_i: HamiltonianOp, h_p: HamiltonianOp, schedule: Schedule,
           policy: StepPolicy = StepPolicy(), psi0: StateVector | None = None) -> EvolutionResult:
    """Integrate i dpsi/dt = (f H_I + g H_P) psi from the ground state of H_I.

    Classical fixed-step RK4 on the spectrally centered path (see
    :class:`StepPolicy`).  The state is never renormalized: the drift it
    accumulates is the accuracy meter, and a drift beyond ``policy.norm_tol``
    raises :class:`NumericGuardError` instead of passing silently.

    A ``ProjectorComplement`` H_I with a ``Diagonal`` H_P (Grover and
    tsp-finite, in full space or sector) takes each step as one diagonal
    product and a rank-4 correction, or at dimension 4 and below (the
    Grover sector) as one K x K increment matrix times the state
    (:func:`_projector_diagonal_steps`); every other pair takes the four
    stages (:func:`_stage_steps`).  Both
    take the same steps, to roundoff, and hand over the states of a block of
    steps at a time; the drift is checked on every state of each block, so
    the first step past ``policy.norm_tol`` is the one reported.
    """
    if h_i.basis != h_p.basis:
        raise ValueError(f"operator bases differ: {h_i.basis} vs {h_p.basis}")
    if psi0 is None:
        psi0 = ground_state(h_i).state
    elif psi0.basis != h_i.basis:
        raise ValueError(f"initial state basis {psi0.basis} does not match {h_i.basis}")

    n_steps = plan_steps(h_i, h_p, schedule, policy)
    h = schedule.t_total / n_steps
    c_i, c_p = _centering(h_i)[0], _centering(h_p)[0]

    samples = sorted(_sample_steps(n_steps, policy.samples_per_run))

    psi = psi0.amps.astype(np.complex128, copy=True)
    times, norms, overlaps = [], [], []
    max_drift = 0.0

    def record(step: int, amps: np.ndarray, nrm: float) -> None:
        t = step * h
        times.append(t)
        norms.append(nrm)
        overlaps.append(_ground_overlap(h_i, h_p, schedule, t, amps)
                        if policy.track_ground_overlap else math.nan)

    # the kernel goes by operator type alone; both take the same steps
    pair = isinstance(h_i, ProjectorComplement) and isinstance(h_p, Diagonal)
    blocks = (_projector_diagonal_steps if pair else _stage_steps)(h_i, h_p, schedule, n_steps, psi)
    if samples and samples[0] == 0:
        record(samples.pop(0), psi, float(_row_norms(psi[None])[0]))
    done = 0
    for block in blocks:
        first, done = done + 1, done + len(block)
        nrm = _row_norms(block)
        drift = np.abs(nrm - 1.0)
        bad = ~(drift <= policy.norm_tol)  # a NaN drift fails too
        if bad.any():
            i = int(bad.argmax())
            raise NumericGuardError(
                f"norm drift {float(drift[i]):.3e} exceeded {policy.norm_tol:.1e} at step "
                f"{first + i}/{n_steps}; shrink step_bound_factor")
        max_drift = max(max_drift, float(drift.max()))
        while samples and samples[0] <= done:
            step = samples.pop(0)
            record(step, block[step - first], float(nrm[step - first]))
    psi *= np.exp(-1j * (c_i * schedule_integral(schedule, "f")
                         + c_p * schedule_integral(schedule, "g")))

    return EvolutionResult(
        state=StateVector(h_i.basis, psi, unnormalized=True),
        times=np.array(times),
        norms=np.array(norms),
        ground_overlaps=np.array(overlaps),
        n_steps=n_steps,
        h=h,
        norm_bound=_path_bound(h_i, h_p, schedule),
        max_drift=max_drift,
    )


def plan_steps(h_i: HamiltonianOp, h_p: HamiltonianOp, schedule: Schedule,
               policy: StepPolicy = StepPolicy()) -> int:
    """The number of RK4 steps :func:`evolve` takes on this path.

    Two caps on h: the stability rule h * B <= step_bound_factor, with B the
    schedule-weighted norm bound, and the accumulated worst-case drift held
    at half of norm_tol.  A spectral component at the instantaneous bound
    E(t) = f r_I + g r_P of the centered path loses |R(ihE)| ~ 1 - (hE)^6/144
    of its weight per RK4 step, so total drift is at most
    (h^5/144) * (integral of E^6 dt + h max(E)^6).  A plan of more steps
    than an int64 holds, or of no finite count, raises ValueError.
    """
    t_total = schedule.t_total
    if policy.n_steps_override is not None:
        steps = policy.n_steps_override
    else:
        r_i, r_p = _centering(h_i)[1], _centering(h_p)[1]
        bound = _path_bound(h_i, h_p, schedule)
        h_stab = policy.step_bound_factor / bound if bound > 0.0 else t_total

        def drift_step(h_guard: float) -> float:
            q = _drift_budget(schedule, r_i, r_p, h_guard)
            return min((72.0 * policy.norm_tol / q) ** 0.2, t_total) if q > 0.0 else t_total

        # the guard term's h need only bound the final step from above: the
        # cap from the integral alone does, and unlike h_stab it does not move
        # when an operator is shifted by a constant
        steps = t_total / min(h_stab, drift_step(drift_step(0.0)))
    if not steps <= _MAX_STEPS:
        raise ValueError(f"the step plan needs {float(steps):.3g} steps, more than the "
                         f"{_MAX_STEPS} an int64 holds")
    return max(1, math.ceil(steps))


def _path_bound(h_i: HamiltonianOp, h_p: HamiltonianOp, schedule: Schedule) -> float:
    """max f * ||H_I|| + max g * ||H_P||, from each operator's norm bound."""
    return schedule.max_f() * h_i.norm_bound() + schedule.max_g() * h_p.norm_bound()


def _centering(op: HamiltonianOp) -> tuple[float, float, float]:
    """(center, half-width, norm bound) of the operator's known spectral range.

    A constant shift changes the evolved state only by a global phase, so the
    integrator evolves op - center, whose norm is at most the half-width.
    """
    hi = op.norm_bound()
    lo = max(op.lower_bound(), -hi)
    return 0.5 * (hi + lo), 0.5 * (hi - lo), hi


def _stage_steps(h_i: HamiltonianOp, h_p: HamiltonianOp, schedule: Schedule, n_steps: int,
                 psi: np.ndarray):
    """Advance psi in place by the n_steps RK4 steps of the centered path
    H_c = f (H_I - c_I) + g (H_P - c_P): the kernel for any pair of
    operators.  Per chunk of :func:`_stage_scalars`, it yields a (steps, dim)
    block whose row j is the state after the chunk's step j; psi already
    holds the last row, and the block is overwritten on the next resume.

    Stage s returns K_s = a H_I y_s + b H_P y_s - (a c_I + b c_P) y_s, with
    (a, b) = -i h w_s (f, g) at the stage time (:func:`_stage_scalars`) and
    each operator applied through its own ``apply_amps``.  Then
    y_2 = psi + K_1, y_3 = psi + K_2 / 2, y_4 = psi + K_3, and classic RK4 is
    psi + (K_1 + K_2 + K_3 + K_4) / 3.  That sum is elementwise, so its bits
    do not depend on how BLAS threads.
    """
    c_i, c_p = _centering(h_i)[0], _centering(h_p)[0]
    k = np.empty((4, psi.size), dtype=np.complex128)
    k1, k2, k3, k4 = k
    y, tmp = np.empty_like(psi), np.empty_like(psi)
    block = None

    def stage(a: complex, b: complex, v: np.ndarray, out: np.ndarray) -> None:
        np.multiply(h_i.apply_amps(v), a, out=out)
        np.multiply(h_p.apply_amps(v), b, out=tmp)
        out += tmp
        np.multiply(v, a * c_i + b * c_p, out=tmp)
        out -= tmp

    for cf, cg in _stage_scalars(schedule, n_steps, psi.size):
        if block is None:  # one block for every chunk; the first is the largest
            block = np.empty((cf.shape[1], psi.size), dtype=np.complex128)
        prev = psi
        for row, (a_lo, a_mid, a_hi), (b_lo, b_mid, b_hi) in zip(block, cf.T.tolist(),
                                                                 cg.T.tolist()):
            stage(a_lo, b_lo, prev, k1)
            np.add(prev, k1, out=y)
            stage(a_mid, b_mid, y, k2)
            np.multiply(k2, 0.5, out=y)
            y += prev
            stage(a_mid, b_mid, y, k3)
            np.add(prev, k3, out=y)
            stage(a_hi, b_hi, y, k4)
            np.add.reduce(k, axis=0, out=y)
            y *= 1.0 / 3.0
            np.add(prev, y, out=row)
            prev = row
        psi[...] = prev
        yield block[:cf.shape[1]]


def _stage_scalars(schedule: Schedule, n_steps: int, dim: int):
    """Per chunk of steps, the RK4 stage scalars -i h w f and -i h w g at t,
    t + h/2 and t + h of every step, with w = (1/2, 1, 1/2); each has shape
    (3, steps).  A step is budgeted one complex row of dim (a state in
    :func:`_stage_steps` or :func:`_projector_diagonal_steps`, a Horner row
    in :func:`_step_maps`) and ~2 KB: what :func:`_step_increment` takes to
    build its 4x4 map, or, at dim ``_MATRIX_DIM`` and below, the stage
    matrices and the increment of :func:`_step_matrices`.  A chunk stays
    under ``_STAGE_TABLE_BYTES`` (one step at least), so memory stays flat
    however many steps the run takes; dim 0 budgets the 2 KB alone.  A
    step's scalars have the same bits in any chunking."""
    h = schedule.t_total / n_steps
    chunk = max(1, _STAGE_TABLE_BYTES // (16 * dim + 2048))
    weight = -1j * h * np.array([0.5, 1.0, 0.5])[:, None]
    for lo in range(0, n_steps, chunk):
        t_lo = np.arange(lo, min(lo + chunk, n_steps)) * h
        f, g = schedule._fg(np.stack([t_lo, t_lo + 0.5 * h, t_lo + h]))
        yield weight * f, weight * g


def _projector_diagonal_steps(h_i: HamiltonianOp, h_p: HamiltonianOp, schedule: Schedule,
                              n_steps: int, psi: np.ndarray):
    """The steps of :func:`_stage_steps` when H_I is 1 - |u><u| and H_P is
    diag(d), yielded in blocks of states as there.

    With lam = d - c_d and P = |u><u|, every stage operator of the centered
    path is a + b diag(lam) - g P for scalars a, b, g.  Adding each step's
    increment, as the stage kernel does, keeps its rounding small:
    multiplying by 1 + E instead put the norm 1e-14 off a long-double RK4
    within 1,500 steps.

    Up to dimension ``_MATRIX_DIM`` (the Grover sector is 2), a step is its
    K x K increment (:func:`_step_matrices`) times the state, added to the
    state: 4 x K rank-4 factors would hold no fewer numbers than that matrix.

    Above it, P diag(lam^r) P = mu_r P with mu_r = sum |u|^2 lam^r, so a
    whole step adds E(lam) psi + sum_{r+k<=3} C[r, k] |lam^r u><lam^k u|psi>
    to psi, with E a polynomial of degree 4 (:func:`_step_maps`): one
    diagonal product and a rank-4 correction.  Each step's row of the E
    table becomes that step's state, so the block of states costs no memory
    beyond the table.  The rank-4 term is three gemv calls, made through
    ``ndarray.dot``, which dispatches them at about half the cost of
    ``matmul``.  Their bits need not hold across BLAS thread counts: with
    OpenBLAS they match at 1 and 2 threads up to dim 4096
    (``test_projector_diagonal_kernel_ignores_the_blas_thread_count``), but
    not at dim 32768 or 100,003.
    """
    lam = h_p.values - _centering(h_p)[0]
    u = h_i.vector
    shift = 1.0 - _centering(h_i)[0]
    y = np.empty_like(psi)
    if lam.size <= _MATRIX_DIM:
        block = None
        for deltas in _step_matrices(schedule, n_steps, shift, lam, u):
            if block is None:  # one block for every chunk; the first is the largest
                block = np.empty((len(deltas), lam.size), dtype=np.complex128)
            prev = psi
            for row, d in zip(block, deltas):
                d.dot(prev, out=y)
                np.add(prev, y, out=row)
                prev = row
            psi[...] = prev
            yield block[:len(deltas)]
        return
    powers = lam ** np.arange(4.0)[:, None]
    rows, cols = powers * u.conj(), (powers * u).T.copy()
    mu = (powers[:3] * np.abs(u) ** 2).sum(axis=1)
    for table, maps in _step_maps(schedule, n_steps, shift, lam, mu):
        prev = psi
        for row, c in zip(table, maps):
            cols.dot(c.dot(rows.dot(prev)), out=y)
            row *= prev  # E(lam) psi
            row += y
            row += prev
            prev = row
        psi[...] = prev
        yield table


def _step_matrices(schedule: Schedule, n_steps: int, shift: float, lam: np.ndarray,
                   u: np.ndarray):
    """Per chunk of :func:`_stage_scalars`, the RK4 increment of every step of
    :func:`_projector_diagonal_steps` as a K x K matrix, shape (steps, K, K).

    Stage s is B_s = x_s (shift - u u^H) + y_s diag(lam), with x and y the
    stage scalars -i h w f and -i h w g at t, t + h/2 and t + h.  Then
    K_1 = B_lo, K_2 = B_mid (1 + K_1), K_3 = B_mid (1 + K_2 / 2) and
    K_4 = B_hi (1 + K_3), and the increment is (K_1 + K_2 + K_3 + K_4) / 3.
    The steps sit on the last axis, and each product is summed term by term
    elementwise, with no BLAS call, so a step has the same bits in any
    chunking and at any BLAS thread count.  At most five K x K matrices per
    step are alive at once: 1,280 bytes at K = 4.
    """
    k = lam.size
    base = shift * np.eye(k) - np.outer(u, u.conj())

    def stage(x, y):  # B_s over the chunk, shape (K, K, steps)
        b = base[:, :, None] * x
        b.reshape(k * k, -1)[::k + 1] += lam[:, None] * y
        return b

    def times_one_plus(b, m, scale):  # B (1 + scale m), as B + (B m) scale
        out = b[:, :1] * m[:1]
        for j in range(1, k):
            out += b[:, j:j + 1] * m[j:j + 1]
        out *= scale
        out += b
        return out

    for x, y in _stage_scalars(schedule, n_steps, k):
        total = step = stage(x[0], y[0])
        for s, scales in ((1, (1.0, 0.5)), (2, (1.0,))):  # B_mid serves K_2 and K_3
            b = stage(x[s], y[s])
            for scale in scales:
                step = times_one_plus(b, step, scale)
                total += step
        total *= 1.0 / 3.0
        yield np.ascontiguousarray(np.moveaxis(total, -1, 0))


def _step_maps(schedule: Schedule, n_steps: int, shift: float, lam: np.ndarray, mu: np.ndarray):
    """Per block of steps, the increments of :func:`_projector_diagonal_steps`:
    E(lam) of every step, shape (steps, dim), and C, shape (steps, 4, 4).

    Stage s is B_s = a + b D - g P with D = diag(lam) and (a, b, g) =
    (shift x, y, x), where x and y are the stage scalars -i h w f and -i h w g
    (:func:`_stage_scalars`).  The K_s
    of :func:`_stage_steps` are then the operators K_1 = B_1,
    K_2 = B_2 (1 + K_1), K_3 = B_2 (1 + K_2 / 2) and K_4 = B_4 (1 + K_3), and
    the increment is (K_1 + K_2 + K_3 + K_4) / 3.  Each is carried as (e, C),
    meaning sum_j e_j D^j + sum C[r, k] D^r P D^k, with every scalar an array
    over the chunk's steps, and E is summed by Horner.  The scalars come in
    chunks of the 2 KB step budget alone (256 steps at the default budget),
    whatever the dimension, and E fills one table of the full budget's rows
    at a time.  All of it is elementwise, with no BLAS call, so a step has
    the same bits in any chunking and at any BLAS thread count.
    """
    rows = max(1, _STAGE_TABLE_BYTES // (16 * lam.size + 2048))
    table = np.empty((min(rows, n_steps), lam.size), dtype=np.complex128)
    for x, y in _stage_scalars(schedule, n_steps, 0):
        e, maps = _step_increment(shift * x, y, x, mu)
        for lo in range(0, x.shape[1], rows):
            hi = min(lo + rows, x.shape[1])
            out = table[:hi - lo]
            np.multiply(e[4, lo:hi, None], lam, out=out)
            for j in (3, 2, 1):
                out += e[j, lo:hi, None]
                out *= lam
            out += e[0, lo:hi, None]
            yield out, maps[lo:hi]


def _step_increment(a: np.ndarray, b: np.ndarray, g: np.ndarray, mu: np.ndarray):
    """(e, C) of (K_1 + K_2 + K_3 + K_4) / 3 from the stage scalars a, b, g,
    each of shape (3, steps) for t, t + h/2 and t + h; C comes as
    (steps, 4, 4)."""
    n = a.shape[1]
    e, c = np.zeros((5, n), dtype=np.complex128), np.zeros((4, 4, n), dtype=np.complex128)
    sum_e, sum_c = e.copy(), c.copy()
    # K_s = B_s (1 + scale K_{s-1}), scales 0, 1, 1/2, 1 as in classic RK4
    for s, scale in ((0, 0.0), (1, 1.0), (1, 0.5), (2, 1.0)):
        e, c = _stage_after((a[s], b[s], g[s]), mu, scale * e, scale * c)
        sum_e += e
        sum_c += c
    sum_e *= 1.0 / 3.0
    sum_c *= 1.0 / 3.0
    return sum_e, np.ascontiguousarray(np.moveaxis(sum_c, -1, 0))


def _stage_after(stage: tuple, mu: np.ndarray, e: np.ndarray, c: np.ndarray):
    """B (1 + X) for the stage B = a + b D - g P, (a, b, g) = stage, and X =
    (e, c) as in :func:`_step_maps`, using P D^r P = mu_r P.  X is 0, K_1,
    K_2 / 2 or K_3: e has degree at most 3 and C no row past 2, so nothing
    is truncated."""
    a, b, g = stage
    e = e.copy()
    e[0] += 1.0
    e_out, c_out = a * e, a * c
    e_out[1:] += b * e[:-1]
    c_out[1:] += b * c[:-1]
    c_out[0] -= g * (e[:4] + mu[0] * c[0] + mu[1] * c[1] + mu[2] * c[2])
    return e_out, c_out


def _drift_budget(schedule: Schedule, b_i: float, b_p: float, h_cap: float) -> float:
    """Upper bound on integral of E(t)^6 plus an h*max(E)^6 Riemann-sum guard,
    where E(t) = f(t) b_i + g(t) b_p dominates the instantaneous spectrum
    (b_i, b_p are the half-widths of the centered operators)."""
    t = schedule.t_total
    if schedule.kind == "linear":
        # E runs linearly from b_i to b_p
        if abs(b_p - b_i) < 1e-12 * max(b_i, b_p, 1.0):
            integral = t * b_i ** 6
        else:
            integral = t * (b_p ** 7 - b_i ** 7) / (7.0 * (b_p - b_i))
        e_max = max(b_i, b_p)
    elif schedule.kind == "local_adiabatic_grover":
        e_max = max(b_i, b_p)  # f + g = 1 along this path
        integral = t * e_max ** 6
    else:
        e_max = schedule.max_f() * b_i + schedule.max_g() * b_p
        integral = t * e_max ** 6
    return integral + h_cap * e_max ** 6


def _row_norms(block: np.ndarray) -> np.ndarray:
    """The 2-norm of each row of a complex block, summed by einsum over the
    float64 view: no BLAS call and no temporary the size of the block."""
    v = block.view(np.float64)
    return np.sqrt(np.einsum("ij,ij->i", v, v))


def _sample_steps(n_steps: int, samples: int) -> set[int]:
    if samples == 0:
        return set()
    k = min(samples, n_steps)
    return {int(round(x)) for x in np.linspace(0, n_steps, k + 1)}


def _ground_overlap(h_i, h_p, schedule, t, psi) -> float:
    h_t = LinearCombination(h_i.basis, ((schedule.f(t), h_i), (schedule.g(t), h_p)))
    return float(abs(np.vdot(lowest(h_t, 1).vectors[:, 0], psi)) ** 2)


# ---------------------------------------------------------------------------
# reference dynamics and readout
# ---------------------------------------------------------------------------

def reference_phase_state(g_i: StateVector, e_i0: float, schedule: Schedule,
                          beta: float) -> StateVector:
    """The comparison state: the initial ground state times the global phase
    exp(i xi(T)) with xi(T) = -(E_I0 * int f + beta * int g)."""
    xi = -(e_i0 * schedule_integral(schedule, "f") + beta * schedule_integral(schedule, "g"))
    return StateVector(g_i.basis, np.exp(1j * xi) * g_i.amps, unnormalized=g_i.unnormalized)


def success_probability(psi: StateVector, indices) -> float:
    """Total probability of the given basis indices (e.g. a degenerate argmin set)."""
    idx = np.asarray(list(indices), dtype=int)
    if idx.size == 0:
        raise ValueError("need at least one target index")
    if np.any(idx < 0) or np.any(idx >= psi.basis.dim):
        raise ValueError("target index outside basis")
    ordered = np.sort(idx)  # np.unique would import numpy.ma on its first call
    if np.any(ordered[1:] == ordered[:-1]):
        raise ValueError("duplicate target indices")
    return float(np.sum(np.abs(psi.amps[idx]) ** 2))
