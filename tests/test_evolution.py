import hashlib
import math
import os
import subprocess
import sys
from pathlib import Path

import numpy as np
import pytest
from scipy.integrate import quad, solve_ivp

from adiabound import (
    BasisSpec,
    Diagonal,
    DsqPolicy,
    LinearCombination,
    NumericGuardError,
    ProjectorComplement,
    Schedule,
    StepPolicy,
    StateVector,
    basis_vector,
    build_grover,
    build_tsp_finite,
    build_tsp_rank,
    delta_ie,
    evolve,
    invariant_sector,
    plan_steps,
    random_instance,
    reference_phase_state,
    schedule_integral,
    success_probability,
    t_min,
    to_dense,
    uniform_state,
)
import adiabound
from adiabound import evolution

SEED = 20260825


def _grover_ops(n):
    basis = BasisSpec.flat(n)
    start = uniform_state(basis)
    marked = basis_vector(basis, 0)
    return ProjectorComplement(basis, start.amps), ProjectorComplement(basis, marked.amps), start


def _two_level_grover_success(n, schedule):
    # dense oracle: the dynamics closes on span{|m>, |r>} with |r> the
    # uniform state over unmarked items
    a = 1.0 / math.sqrt(n)
    v = np.array([a, math.sqrt(1.0 - a * a)], dtype=complex)
    h_i2 = np.eye(2, dtype=complex) - np.outer(v, v.conj())
    h_p2 = np.diag([0.0, 1.0]).astype(complex)

    def rhs(t, y):
        h = schedule.f(t) * h_i2 + schedule.g(t) * h_p2
        return -1j * (h @ y)

    sol = solve_ivp(rhs, (0.0, schedule.t_total), v, method="DOP853",
                    rtol=1e-11, atol=1e-13)
    assert sol.success
    return abs(sol.y[0, -1]) ** 2


# ---------------------------------------------------------------------------
# schedules
# ---------------------------------------------------------------------------

def test_schedule_validation():
    with pytest.raises(ValueError):
        Schedule("cosine", 1.0)  # unknown kind
    with pytest.raises(ValueError):
        Schedule("linear", 0.0)  # boundary values cannot coexist at T=0
    with pytest.raises(ValueError):
        Schedule("linear", -2.0)
    with pytest.raises(ValueError):
        Schedule("linear", math.inf)
    with pytest.raises(ValueError):
        Schedule("das_wei", 1.0)  # needs n
    with pytest.raises(ValueError):
        Schedule("local_adiabatic_grover", 1.0, n=1)  # n >= 2


def test_schedule_boundaries():
    for sch in (Schedule("linear", 3.0),
                Schedule("das_wei", 3.0, n=9),
                Schedule("local_adiabatic_grover", 3.0, n=4)):
        assert sch.f(0.0) == pytest.approx(1.0, abs=1e-12)
        assert sch.f(sch.t_total) == pytest.approx(0.0, abs=1e-12)
        assert sch.g(0.0) == pytest.approx(0.0, abs=1e-12)
        assert sch.g(sch.t_total) == pytest.approx(1.0, abs=1e-12)


def test_schedule_named_values():
    lin = Schedule("linear", 2.0)
    assert (lin.f(1.0), lin.g(1.0)) == (0.5, 0.5)
    dw4 = Schedule("das_wei", 2.0, n=4)
    assert dw4.g(1.0) == pytest.approx(1.0)  # 0.5 + 2*0.25


def test_das_wei_overshoot():
    sch = Schedule("das_wei", 1.0, n=9)
    # stationary point of x + 3x(1-x) at x = 2/3, value 4/3
    assert sch.max_g() == pytest.approx(4.0 / 3.0, rel=1e-12)
    assert sch.g(2.0 / 3.0) == pytest.approx(4.0 / 3.0, rel=1e-12)
    grid = np.linspace(0.0, 1.0, 20001)
    gmax = max(sch.g(t) for t in grid)
    assert gmax <= sch.max_g() + 1e-12
    assert gmax == pytest.approx(sch.max_g(), abs=1e-6)
    assert sch.g(0.5) > 1.0  # exceeds 1 mid-run
    assert Schedule("linear", 1.0).max_g() == 1.0
    assert sch.max_f() == 1.0


def test_schedule_integral_closed_forms():
    assert schedule_integral(Schedule("linear", 10.0)) == 5.0
    assert schedule_integral(Schedule("das_wei", 1.0, n=9)) == pytest.approx(1.0, rel=1e-12)
    assert schedule_integral(Schedule("das_wei", 3.0, n=9), "f") == 1.5
    # s - 1/2 is odd about T/2, so both integrals are T/2
    lag = Schedule("local_adiabatic_grover", 3.0, n=9)
    assert (schedule_integral(lag, "f"), schedule_integral(lag, "g")) == (1.5, 1.5)
    with pytest.raises(ValueError):
        schedule_integral(Schedule("linear", 1.0), "h")


def test_schedule_integral_quadrature_cross_check():
    for sch in (Schedule("linear", 7.0),
                Schedule("das_wei", 7.0, n=16),
                Schedule("local_adiabatic_grover", 7.0, n=2),
                Schedule("local_adiabatic_grover", 7.0, n=16),
                Schedule("local_adiabatic_grover", 7.0, n=4096)):
        for comp in ("f", "g"):
            func = sch.f if comp == "f" else sch.g
            want, _ = quad(func, 0.0, sch.t_total, epsabs=1e-12, epsrel=1e-12, limit=200)
            assert schedule_integral(sch, comp) == pytest.approx(want, abs=1e-9)


def test_vectorized_schedule_table_matches_scalar():
    rng = np.random.default_rng(SEED)
    for sch in (Schedule("linear", 5.0),
                Schedule("das_wei", 5.0, n=25),
                Schedule("local_adiabatic_grover", 5.0, n=25)):
        ts = rng.uniform(0.0, sch.t_total, size=200)
        # one array call gives the same bits as a scalar call per element
        assert sch.f(ts).tolist() == [float(sch.f(t)) for t in ts]
        assert sch.g(ts).tolist() == [float(sch.g(t)) for t in ts]


# ---------------------------------------------------------------------------
# step policy and basic evolve plumbing
# ---------------------------------------------------------------------------

def test_step_policy_validation():
    with pytest.raises(ValueError):
        StepPolicy(step_bound_factor=0.0)
    with pytest.raises(ValueError):
        StepPolicy(step_bound_factor=1.5)
    with pytest.raises(ValueError):
        StepPolicy(norm_tol=0.0)
    with pytest.raises(ValueError):
        StepPolicy(samples_per_run=-1)
    with pytest.raises(ValueError):
        StepPolicy(n_steps_override=0)


def test_evolve_checks_bases():
    h_i, h_p, start = _grover_ops(4)
    other = Diagonal(BasisSpec.flat(5), np.zeros(5))
    with pytest.raises(ValueError):
        evolve(h_i, other, Schedule("linear", 1.0))
    with pytest.raises(ValueError):
        evolve(h_i, h_p, Schedule("linear", 1.0), psi0=uniform_state(BasisSpec.flat(5)))


def test_evolve_default_start_is_driver_ground():
    h_i, h_p, start = _grover_ops(4)
    pol = StepPolicy(n_steps_override=200)
    auto = evolve(h_i, h_p, Schedule("linear", 2.0), pol)
    explicit = evolve(h_i, h_p, Schedule("linear", 2.0), pol, psi0=start)
    assert np.array_equal(auto.state.amps, explicit.state.amps)


def test_step_rule_respects_norm_bound():
    h_i, h_p, _ = _grover_ops(4)
    sch = Schedule("das_wei", 5.0, n=4)
    res = evolve(h_i, h_p, sch, StepPolicy())
    # B = max_f * 1 + max_g * 1 with das_wei max_g = 9/8
    assert res.norm_bound == pytest.approx(1.0 + 9.0 / 8.0)
    assert res.h * res.norm_bound <= 0.1 + 1e-12


def test_trajectory_sampling():
    h_i, h_p, _ = _grover_ops(4)
    res = evolve(h_i, h_p, Schedule("linear", 3.0),
                 StepPolicy(samples_per_run=8))
    assert res.times[0] == 0.0
    assert res.times[-1] == pytest.approx(3.0)
    assert len(res.times) <= 10
    assert np.all(np.abs(res.norms - 1.0) <= 1e-8)
    assert np.all(np.isnan(res.ground_overlaps))  # not tracked

    none = evolve(h_i, h_p, Schedule("linear", 3.0),
                  StepPolicy(samples_per_run=0))
    assert none.times.size == 0


# ---------------------------------------------------------------------------
# physics checks
# ---------------------------------------------------------------------------

def test_stationary_eigenstate_preserved():
    basis = BasisSpec.flat(2)
    op = Diagonal(basis, np.array([0.0, 1.0]))
    res = evolve(op, op, Schedule("linear", 5.0), StepPolicy())
    target = basis_vector(basis, 0)
    assert abs(np.vdot(target.amps, res.state.amps)) == pytest.approx(1.0, abs=1e-8)


def test_stationary_phase_matches_integrals():
    # H_I = H_P = D makes |k> stationary with accumulated phase
    # -d_k * (int f + int g); checks evolve and schedule_integral against
    # each other on a das_wei path where f+g != 1
    basis = BasisSpec.flat(3)
    op = Diagonal(basis, np.array([-1.0, 0.0, 3.0]))
    sch = Schedule("das_wei", 4.0, n=9)
    res = evolve(op, op, sch, StepPolicy(),
                 psi0=basis_vector(basis, 0))
    phase = -(-1.0) * (schedule_integral(sch, "f") + schedule_integral(sch, "g"))
    assert res.state.amps[0] == pytest.approx(np.exp(1j * phase), abs=1e-7)
    assert abs(res.state.amps[1]) == 0.0
    assert abs(res.state.amps[2]) == 0.0


def test_grover_adiabatic_limit_against_two_level_oracle():
    n = 4
    h_i, h_p, _ = _grover_ops(n)
    sch = Schedule("linear", 100.0)
    res = evolve(h_i, h_p, sch, StepPolicy())
    got = success_probability(res.state, [0])
    want = _two_level_grover_success(n, sch)
    assert got >= 0.99
    assert got == pytest.approx(want, abs=1e-6)


def test_ground_overlap_tracking():
    h_i, h_p, _ = _grover_ops(4)
    pol = StepPolicy(samples_per_run=32, track_ground_overlap=True)
    res = evolve(h_i, h_p, Schedule("linear", 100.0), pol)
    assert res.ground_overlaps[0] == pytest.approx(1.0, abs=1e-10)
    assert res.ground_overlaps[-1] >= 0.99
    assert np.min(res.ground_overlaps) >= 0.9  # stays adiabatic throughout


def test_ground_overlap_tracking_past_dimension_512():
    # each sample solves the 2-level sector of H(t), so no dimension cap applies
    bundle = build_grover(1024)
    sch = Schedule("linear", 2.0 * t_min("linear", delta_ie(bundle.g_i, bundle.h_p), n=1024))
    pol = StepPolicy(samples_per_run=32, track_ground_overlap=True)
    res = evolve(bundle.h_i, bundle.h_p, sch, pol)
    assert res.ground_overlaps.size == 33
    assert np.all(np.isfinite(res.ground_overlaps))
    assert res.ground_overlaps[0] == pytest.approx(1.0, abs=1e-10)


def test_phase_exactness_against_reference():
    # H_P = beta * identity leaves the driver ground stationary; the numeric
    # state must land on the closed-form phase within 1e-8 in vector norm
    basis = BasisSpec.flat(4)
    start = uniform_state(basis)
    h_i = ProjectorComplement(basis, start.amps)
    beta = 0.7
    h_p = Diagonal(basis, np.full(4, beta))
    for sch in (Schedule("linear", 3.0), Schedule("das_wei", 3.0, n=4)):
        res = evolve(h_i, h_p, sch, StepPolicy(), psi0=start)
        want = reference_phase_state(start, 0.0, sch, beta)
        assert np.linalg.norm(res.state.amps - want.amps) <= 1e-8


def test_reference_phase_state_values():
    basis = BasisSpec.flat(4)
    start = uniform_state(basis)
    assert np.array_equal(reference_phase_state(start, 0.0, Schedule("linear", 2.0), 0.0).amps,
                          start.amps)
    got = reference_phase_state(start, 0.0, Schedule("linear", 2.0), 1.0)
    assert np.allclose(got.amps, np.exp(-1j) * start.amps, atol=1e-15)
    # Grover N=4 at beta = <H_P> = 3/4 over T=1: phase -(3/4)*(1/2)
    got = reference_phase_state(start, 0.0, Schedule("linear", 1.0), 0.75)
    assert np.allclose(got.amps, np.exp(-0.375j) * start.amps, atol=1e-15)


def test_reparameterization_invariance():
    # same path shape at T and at T/2 with doubled operators, steps rescaled:
    # identical final states
    h_i, h_p, start = _grover_ops(4)
    h_i2 = LinearCombination(h_i.basis, ((2.0, h_i),))
    h_p2 = LinearCombination(h_p.basis, ((2.0, h_p),))
    pol = StepPolicy(n_steps_override=500)
    slow = evolve(h_i, h_p, Schedule("das_wei", 6.0, n=4), pol, psi0=start)
    fast = evolve(h_i2, h_p2, Schedule("das_wei", 3.0, n=4), pol, psi0=start)
    assert np.max(np.abs(slow.state.amps - fast.state.amps)) <= 1e-12


def test_shifted_problem_operator_moves_only_the_global_phase():
    # H_P + 100 changes psi(T) by exp(-i 100 int g) only; with the stability
    # cap slack, the centered drift budget plans the same steps for both
    rng = np.random.default_rng(SEED)
    basis = BasisSpec.flat(6)
    start = uniform_state(basis)
    h_i = ProjectorComplement(basis, start.amps)
    values = rng.uniform(0.0, 30.0, size=6)
    pol = StepPolicy(step_bound_factor=1.0)
    for sch in (Schedule("linear", 10.0), Schedule("das_wei", 10.0, n=6)):
        base = evolve(h_i, Diagonal(basis, values), sch, pol, psi0=start)
        shifted = evolve(h_i, Diagonal(basis, values + 100.0), sch, pol, psi0=start)
        assert shifted.n_steps == base.n_steps
        want = np.exp(-100j * schedule_integral(sch, "g")) * base.state.amps
        assert np.max(np.abs(shifted.state.amps - want)) <= 1e-10


def _projector_diagonal(dim, order, values_max=1.0, seed=SEED):
    """1 - |u><u| with a complex unit u and diag(d), d uniform in [0, values_max],
    in the given order, and u as the start."""
    rng = np.random.default_rng(seed)
    basis = BasisSpec.flat(dim)
    u = rng.normal(size=dim) + 1j * rng.normal(size=dim)
    u /= np.linalg.norm(u)
    pc = ProjectorComplement(basis, u)
    diag = Diagonal(basis, rng.uniform(0.0, values_max, size=dim))
    return (pc, diag) if order == "projector-first" else (diag, pc), StateVector(basis, u)


def _chunking_pairs():
    yield "two-projectors", _grover_ops(4)
    (h_i, h_p), start = _projector_diagonal(4, "projector-first")
    yield "projector-diagonal", (h_i, h_p, start)
    sector = invariant_sector(build_grover(1024))
    yield "grover-sector", (sector.h_i, sector.h_p, sector.g_i)


@pytest.mark.parametrize("pair", list(_chunking_pairs()), ids=lambda pair: pair[0])
def test_chunked_step_tables_match_bit_for_bit(monkeypatch, pair):
    # the four-stage kernel and the projector-plus-diagonal kernel read their
    # stage scalars under one budget rule, so one budget sets both chunkings
    _, (h_i, h_p, start) = pair
    pol = StepPolicy(n_steps_override=1000, samples_per_run=16)
    step_bytes = 16 * 4 + 2048  # one step of the budget at dim 4
    for sch in (Schedule("linear", 7.0), Schedule("local_adiabatic_grover", 7.0, n=4)):
        whole = evolve(h_i, h_p, sch, pol, psi0=start)
        # chunks of 7 steps, and of 1 step
        for table_bytes, chunks in ((7 * step_bytes, [7] * 142 + [6]), (1, [1] * 1000)):
            monkeypatch.setattr(evolution, "_STAGE_TABLE_BYTES", table_bytes)
            assert [f.shape[1] for f, _ in evolution._stage_scalars(sch, 1000, 4)] == chunks
            chunked = evolve(h_i, h_p, sch, pol, psi0=start)
            monkeypatch.undo()
            assert np.array_equal(chunked.state.amps, whole.state.amps)
            assert np.array_equal(chunked.norms, whole.norms)


def _dense_rk4(h_i, h_p, schedule, n_steps, psi0):
    """Textbook RK4 on dense matrices, on the same spectrally centered path as
    evolve, with the exact phase of the centering put back at the end."""
    (c_i, _, _), (c_p, _, _) = evolution._centering(h_i), evolution._centering(h_p)
    a = to_dense(h_i) - c_i * np.eye(h_i.basis.dim)
    b = to_dense(h_p) - c_p * np.eye(h_p.basis.dim)

    def rhs(t, y):
        return -1j * ((schedule.f(t) * a + schedule.g(t) * b) @ y)

    h, psi = schedule.t_total / n_steps, psi0.amps.astype(complex)
    for n in range(n_steps):
        t = n * h
        k1 = rhs(t, psi)
        k2 = rhs(t + h / 2, psi + h / 2 * k1)
        k3 = rhs(t + h / 2, psi + h / 2 * k2)
        k4 = rhs(t + h, psi + h * k3)
        psi = psi + h / 6 * (k1 + 2 * k2 + 2 * k3 + k4)
    phase = c_i * schedule_integral(schedule, "f") + c_p * schedule_integral(schedule, "g")
    return np.exp(-1j * phase) * psi


def _oracle_cases():
    h_i, h_p, start = _grover_ops(8)
    yield "grover", h_i, h_p, start, Schedule("linear", 6.0), 300
    finite = build_tsp_finite(random_instance(3, 2))
    yield "tsp-finite", finite.h_i, finite.h_p, finite.g_i, Schedule("linear", 3.0), 400
    sector = invariant_sector(finite)
    yield "sector", sector.h_i, sector.h_p, sector.g_i, Schedule("linear", 3.0), 400
    rng = np.random.default_rng(SEED)
    basis = BasisSpec.flat(6)
    d_i, d_p = Diagonal(basis, rng.normal(size=6)), Diagonal(basis, rng.normal(size=6))
    psi = rng.normal(size=6) + 1j * rng.normal(size=6)
    yield ("diagonals", d_i, d_p, StateVector(basis, psi / np.linalg.norm(psi)),
           Schedule("local_adiabatic_grover", 2.0, n=6), 100)
    rank = build_tsp_rank(random_instance(3, 2))
    yield "tsp-rank", rank.h_i, rank.h_p, rank.g_i, Schedule("linear", 0.2), 200
    mixed = LinearCombination(finite.h_i.basis, ((0.7, finite.h_i), (0.3, finite.h_p)))
    yield ("linear-combination", mixed, finite.h_p, finite.g_i,
           Schedule("das_wei", 2.0, n=27), 400)


@pytest.mark.parametrize("case", list(_oracle_cases()), ids=lambda case: case[0])
def test_evolve_matches_a_dense_rk4_oracle(case):
    _, h_i, h_p, start, sch, n_steps = case
    pol = StepPolicy(n_steps_override=n_steps, samples_per_run=0, track_ground_overlap=False)
    res = evolve(h_i, h_p, sch, pol, psi0=start)
    want = _dense_rk4(h_i, h_p, sch, n_steps, start)
    assert res.n_steps == n_steps
    assert np.max(np.abs(res.state.amps - want)) <= 1e-12


def _stage_kernel_run(h_i, h_p, schedule, n_steps, start, samples):
    """The general stage kernel driven directly: the final state with the
    centering phase put back, and the norms at evolve's sample steps."""
    psi = start.amps.astype(complex)
    sample_steps = evolution._sample_steps(n_steps, samples)
    norms = [math.sqrt(np.vdot(psi, psi).real)] if 0 in sample_steps else []
    done = 0
    for block in evolution._stage_steps(h_i, h_p, schedule, n_steps, psi):
        for step, row in enumerate(block, done + 1):
            if step in sample_steps:
                norms.append(math.sqrt(np.vdot(row, row).real))
        done += len(block)
    (c_i, _, _), (c_p, _, _) = evolution._centering(h_i), evolution._centering(h_p)
    phase = c_i * schedule_integral(schedule, "f") + c_p * schedule_integral(schedule, "g")
    return np.exp(-1j * phase) * psi, np.array(norms)


@pytest.mark.parametrize("dim", [2, 3, 4, 8])
@pytest.mark.parametrize("kind", evolution.SCHEDULE_KINDS)
@pytest.mark.parametrize("order", ["projector-first", "diagonal-first"])
def test_projector_diagonal_kernel_matches_stage_kernel_and_dense_rk4(order, kind, dim):
    # values in [0, 1e3] make the step's degree-4 polynomial and rank-4 terms
    # count; dims up to 4 take the K x K step matrices, dim 8 the rank-4 terms
    (h_i, h_p), start = _projector_diagonal(dim, order, values_max=1e3)
    sch, n_steps = Schedule(kind, 0.05, n=8), 1500
    pol = StepPolicy(n_steps_override=n_steps, samples_per_run=16, track_ground_overlap=False)
    res = evolve(h_i, h_p, sch, pol, psi0=start)
    stage, norms = _stage_kernel_run(h_i, h_p, sch, n_steps, start, 16)
    assert res.n_steps == n_steps
    assert np.max(np.abs(res.state.amps - stage)) <= 1e-12
    assert np.max(np.abs(res.state.amps - _dense_rk4(h_i, h_p, sch, n_steps, start))) <= 1e-12
    assert res.norms.shape == norms.shape
    assert np.max(np.abs(res.norms - norms)) <= 1e-14


def test_projector_diagonal_kernel_ignores_the_blas_thread_count(tmp_path):
    # BLAS fixes its thread count at import, so each count gets a fresh
    # interpreter; dim 4096 is large enough for OpenBLAS to thread a gemv
    script = (
        "import hashlib, sys\n"
        "sys.path.insert(0, {tests!r})\n"
        "from test_evolution import _projector_diagonal\n"
        "from adiabound import Schedule, StepPolicy, evolve\n"
        "(h_i, h_p), start = _projector_diagonal(4096, 'projector-first')\n"
        "pol = StepPolicy(n_steps_override=200, samples_per_run=0)\n"
        "res = evolve(h_i, h_p, Schedule('linear', 2.0), pol, psi0=start)\n"
        "print(hashlib.sha256(res.state.amps.tobytes()).hexdigest())\n"
    ).format(tests=str(Path(__file__).resolve().parent))
    pkg_root = str(Path(adiabound.__file__).resolve().parents[1])
    inherited = os.environ.get("PYTHONPATH")
    digests = []
    for threads in ("1", "2"):
        env = {**os.environ, "OPENBLAS_NUM_THREADS": threads,
               "PYTHONPATH": pkg_root + (os.pathsep + inherited if inherited else "")}
        proc = subprocess.run([sys.executable, "-c", script], capture_output=True, text=True,
                              env=env, cwd=tmp_path)
        assert proc.returncode == 0, proc.stderr
        digests.append(proc.stdout.strip())
    assert digests[0] == digests[1]


def test_integrator_is_fourth_order():
    h_i, h_p, start = _grover_ops(4)
    sch = Schedule("linear", 5.0)

    def final(n_steps):
        pol = StepPolicy(n_steps_override=n_steps)
        return evolve(h_i, h_p, sch, pol, psi0=start).state.amps

    ref = final(16384)
    err_coarse = np.linalg.norm(final(128) - ref)
    err_fine = np.linalg.norm(final(256) - ref)
    ratio = err_coarse / err_fine
    assert 12.0 <= ratio <= 20.0  # 4th order halving gain ~16


def test_norm_drift_stays_within_tolerance():
    h_i, h_p, _ = _grover_ops(16)
    res = evolve(h_i, h_p, Schedule("linear", 30.0), StepPolicy())
    assert res.max_drift <= 1e-8
    assert res.state.norm() == pytest.approx(1.0, abs=1e-8)


def test_step_policy_rejects_a_nan_norm_tol():
    # a NaN tolerance would pass every drift check
    with pytest.raises(ValueError, match="norm_tol"):
        StepPolicy(norm_tol=math.nan)


@pytest.mark.parametrize("pair", ["projector-diagonal", "two-diagonals"])
def test_a_nan_drift_trips_the_guard(pair):
    # one step over a 1e300 spectrum overflows, and inf - inf makes the state NaN
    basis = BasisSpec.flat(4)
    start = uniform_state(basis)
    h_p = Diagonal(basis, [0.0, 1e300, 1e300, 1e300])
    h_i = (ProjectorComplement(basis, start.amps.copy()) if pair == "projector-diagonal"
           else Diagonal(basis, [0.0, 1e300, 0.0, 1e300]))
    with np.errstate(all="ignore"), pytest.raises(NumericGuardError, match="norm drift nan"):
        evolve(h_i, h_p, Schedule("linear", 1.0), StepPolicy(n_steps_override=1), psi0=start)


@pytest.mark.parametrize("t_total, policy", [
    (1e300, StepPolicy()),
    (1.0, StepPolicy(norm_tol=1e-300)),
    (1.0, StepPolicy(step_bound_factor=1e-300)),
    (1.0, StepPolicy(n_steps_override=2 ** 63)),
])
def test_a_step_plan_past_int64_is_a_value_error(t_total, policy):
    h_i, h_p, start = _grover_ops(4)
    sch = Schedule("linear", t_total)
    with pytest.raises(ValueError, match="an int64 holds"):
        plan_steps(h_i, h_p, sch, policy)
    with pytest.raises(ValueError, match="an int64 holds"):
        evolve(h_i, h_p, sch, policy, psi0=start)


def test_evolve_takes_the_planned_steps():
    h_i, h_p, start = _grover_ops(16)
    for sch in (Schedule("linear", 30.0), Schedule("das_wei", 5.0, n=16)):
        res = evolve(h_i, h_p, sch, StepPolicy(samples_per_run=0), psi0=start)
        assert res.n_steps == plan_steps(h_i, h_p, sch) > 1


def test_norm_drift_violation_raises():
    h_i, h_p, _ = _grover_ops(4)
    pol = StepPolicy(n_steps_override=40)
    with pytest.raises(NumericGuardError, match="norm drift"):
        evolve(h_i, h_p, Schedule("linear", 10.0), pol)


def _guard_pairs():
    # test_norm_drift_violation_raises's operators, and the projector-plus-
    # diagonal pair with the same spectrum
    basis = BasisSpec.flat(4)
    start = uniform_state(basis)
    pc = ProjectorComplement(basis, start.amps)
    yield "stage", pc, ProjectorComplement(basis, basis_vector(basis, 0).amps), start
    yield "projector-diagonal", pc, Diagonal(basis, [0.0, 1.0, 1.0, 1.0]), start


@pytest.mark.parametrize("fault", ["drift", "nan"])
@pytest.mark.parametrize("pair", list(_guard_pairs()), ids=lambda pair: pair[0])
def test_the_block_drift_guard_reports_the_first_failing_step(monkeypatch, pair, fault):
    # blocks of 5 steps, and a first failing step inside one: a tolerance the
    # drift crosses mid-run, or a NaN stage scalar at step 7
    _, h_i, h_p, start = pair
    n_steps = 40
    monkeypatch.setattr(evolution, "_STAGE_TABLE_BYTES", 5 * (16 * 4 + 2048))
    if fault == "drift":
        sch, pol = Schedule("linear", 10.0), StepPolicy(n_steps_override=n_steps, norm_tol=1e-7)
    else:
        sch, pol = Schedule("linear", 1.0), StepPolicy(n_steps_override=n_steps)
        scalars = evolution._stage_scalars

        def nan_at_step_7(schedule, n, dim):
            done = 0
            for f, g in scalars(schedule, n, dim):
                if done < 7 <= done + f.shape[1]:
                    f = f.copy()
                    f[1, 6 - done] = math.nan
                done += f.shape[1]
                yield f, g

        monkeypatch.setattr(evolution, "_stage_scalars", nan_at_step_7)
    pair_kernel = isinstance(h_i, ProjectorComplement) and isinstance(h_p, Diagonal)
    kernel = evolution._projector_diagonal_steps if pair_kernel else evolution._stage_steps
    psi, step, first = start.amps.astype(complex), 0, None
    for block in kernel(h_i, h_p, sch, n_steps, psi):
        assert len(block) == 5
        for row in block:
            step += 1
            drift = abs(math.sqrt(np.vdot(row, row).real) - 1.0)
            if first is None and not drift <= pol.norm_tol:
                first, drift_text = step, "nan" if math.isnan(drift) else f"{drift:.3e}"
    assert first is not None and first % 5 not in (0, 1)
    assert (drift_text == "nan") == (fault == "nan")
    with pytest.raises(NumericGuardError,
                       match=rf"norm drift {drift_text} exceeded .* at step {first}/{n_steps};"):
        evolve(h_i, h_p, sch, pol, psi0=start)


def _frozen_state_cases():
    # one full-space projector-plus-diagonal run and one four-stage run
    finite = build_tsp_finite(random_instance(4, 3),
                              policy=DsqPolicy("random", sigma_d=0.5, seed=5))
    yield ("tsp-finite-random", finite, Schedule("linear", 20.0),
           "8253d7a9a0cad08ee16462d1b8f74ef6577783044930b1c00f15355fe7cc4a04")
    # n_max 41, the cutoff this digest was frozen at
    yield ("tsp-rank", build_tsp_rank(random_instance(3, 3), n_max=41), Schedule("linear", 0.5),
           "e23f6a05ab439994a0f0574d25bb7d743d455ca56fa14616ea795fe3594d8d62")


@pytest.mark.parametrize("case", list(_frozen_state_cases()), ids=lambda case: case[0])
def test_final_state_bits_are_frozen(case):
    # a kernel change that moves any RK4 step's arithmetic moves these digests
    _, bundle, sch, digest = case
    pol = StepPolicy(n_steps_override=2000, samples_per_run=0, track_ground_overlap=False)
    res = evolve(bundle.h_i, bundle.h_p, sch, pol, psi0=bundle.g_i)
    assert hashlib.sha256(res.state.amps.tobytes()).hexdigest() == digest


# ---------------------------------------------------------------------------
# readout
# ---------------------------------------------------------------------------

def test_success_probability_values():
    basis = BasisSpec.flat(16)
    start = uniform_state(basis)
    assert success_probability(start, [3]) == pytest.approx(1.0 / 16.0, rel=1e-12)
    assert success_probability(start, range(16)) == pytest.approx(1.0, rel=1e-12)
    assert success_probability(basis_vector(basis, 2), [5]) == 0.0


def test_success_probability_validation():
    sv = uniform_state(BasisSpec.flat(4))
    with pytest.raises(ValueError):
        success_probability(sv, [])
    with pytest.raises(ValueError):
        success_probability(sv, [4])
    with pytest.raises(ValueError):
        success_probability(sv, [-1])
    for dup in ([1, 1], [2, 0, 3, 2]):
        with pytest.raises(ValueError, match="duplicate target indices"):
            success_probability(sv, dup)
