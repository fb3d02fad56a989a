import json
import math
import os
import subprocess
import sys
import tracemalloc
from dataclasses import asdict
from pathlib import Path

import numpy as np
import pytest
from scipy.integrate import quad

from adiabound import (
    BasisSpec,
    BoundReport,
    Diagonal,
    DsqPolicy,
    ProjectorComplement,
    Schedule,
    StateVector,
    StepPolicy,
    basis_vector,
    beta_minimum,
    build_grover,
    build_tsp_finite,
    delta_ie,
    evolve,
    expectation,
    gap_scan,
    invariant_sector,
    make_schedule,
    random_instance,
    residual_norm,
    t_min,
    to_dense,
    uniform_state,
    verify_distance_bound,
)
import adiabound
from adiabound import bounds, hilbert
from adiabound.cli import strict_json

SEED = 20260825


def _no_constant(token):
    raise ValueError(f"{token} is not RFC 8259 JSON")


def _grover_pieces(n):
    basis = BasisSpec.flat(n)
    start = uniform_state(basis)
    h_i = ProjectorComplement(basis, start.amps)
    h_p = ProjectorComplement(basis, basis_vector(basis, 0).amps)
    return h_i, h_p, start


# ---------------------------------------------------------------------------
# spread and the beta minimum
# ---------------------------------------------------------------------------

def test_delta_ie_projector_closed_form():
    # uniform start on a rank-one projector complement: std = sqrt(N-1)/N
    for n in (2, 4, 8, 64, 1024):
        _, h_p, start = _grover_pieces(n)
        assert delta_ie(start, h_p) == pytest.approx(math.sqrt(n - 1.0) / n, abs=1e-12)


def test_delta_ie_diagonal_hand_value():
    basis = BasisSpec.flat(4)
    h_p = Diagonal(basis, np.arange(4.0))
    assert delta_ie(uniform_state(basis), h_p) == pytest.approx(math.sqrt(1.25), rel=1e-12)


def test_residual_norm_hand_value():
    basis = BasisSpec.flat(4)
    h_p = Diagonal(basis, np.arange(4.0))
    # ||(diag - 1.5) * (1/2, ...)|| = sqrt(5)/2
    got = residual_norm(uniform_state(basis), h_p, 1.5)
    assert got == pytest.approx(math.sqrt(5.0) / 2.0, rel=1e-12)


def test_residual_identity_random_betas():
    # ||(H_P - beta) g_I||^2 - Delta^2 == (beta - <H_P>)^2
    rng = np.random.default_rng(SEED)
    cases = []
    _, h_p, start = _grover_pieces(8)
    cases.append((start, h_p))
    basis = BasisSpec.flat(12)
    amps = rng.standard_normal(12) + 1j * rng.standard_normal(12)
    psi = StateVector(basis, amps / np.linalg.norm(amps))
    cases.append((psi, Diagonal(basis, rng.uniform(-2.0, 2.0, size=12))))
    for g_i, h_p in cases:
        mean = expectation(h_p, g_i)
        delta = delta_ie(g_i, h_p)
        for _ in range(100):
            beta = mean + rng.uniform(-3.0 * delta - 1.0, 3.0 * delta + 1.0)
            lhs = residual_norm(g_i, h_p, beta) ** 2 - delta ** 2
            assert lhs == pytest.approx((beta - mean) ** 2, abs=1e-9)


def test_beta_minimum_lands_on_mean():
    _, h_p, start = _grover_pieces(16)
    got = beta_minimum(start, h_p)
    delta = delta_ie(start, h_p)
    mean = expectation(h_p, start)
    assert got.h_p_mean == pytest.approx(mean, rel=1e-12)
    assert got.delta == pytest.approx(delta, rel=1e-12)
    # the closed form is the minimum: no beta on a fine grid around it does better
    assert residual_norm(start, h_p, got.h_p_mean) == pytest.approx(got.delta, rel=1e-12)
    grid = np.linspace(mean - 3.0 * delta, mean + 3.0 * delta, 601)
    assert min(residual_norm(start, h_p, b) for b in grid) >= got.delta * (1.0 - 1e-12)


# ---------------------------------------------------------------------------
# t_min
# ---------------------------------------------------------------------------

def test_t_min_closed_forms():
    delta = math.sqrt(3.0) / 4.0  # the n=4 projector spread
    assert t_min("linear", delta) == pytest.approx(16.0 / math.sqrt(3.0), rel=1e-12)
    assert t_min("das_wei", delta, n=4) == pytest.approx(48.0 / (5.0 * math.sqrt(3.0)), rel=1e-12)
    assert t_min("das_wei", delta, n=4) == pytest.approx(5.542562584220408, rel=1e-12)


def test_t_min_validation():
    with pytest.raises(ValueError):
        t_min("linear", 0.0)
    with pytest.raises(ValueError):
        t_min("das_wei", 1.0)  # needs n


def test_t_min_generic_solves_the_integral_equation():
    delta = math.sqrt(3.0) / 4.0
    for kind, n in (("linear", None), ("das_wei", 16), ("local_adiabatic_grover", 4)):
        got = t_min(kind, delta, n=n)
        sch = make_schedule(kind, got, n=n)
        want, _ = quad(sch.g, 0.0, got, epsabs=1e-12, epsrel=1e-12, limit=200)
        assert want == pytest.approx(2.0 / delta, rel=1e-12)


@pytest.mark.parametrize("n, delta, frozen", [
    # the Grover spread sqrt(n-1)/n; T_min from the earlier brentq root solve
    (4, 0.4330127018922193, 9.237604307034013),
    (64, 0.12401959270615269, 32.25296836345405),
    (4096, 0.015623092534937653, 256.0312557232103),
])
def test_t_min_local_adiabatic_grover_matches_the_root_solve(n, delta, frozen):
    assert t_min("local_adiabatic_grover", delta, n=n) == pytest.approx(frozen, rel=1e-14)


# ---------------------------------------------------------------------------
# distance-bound audit
# ---------------------------------------------------------------------------

def test_distance_bound_holds_on_grover_runs():
    h_i, h_p, start = _grover_pieces(4)
    mean = expectation(h_p, start)
    delta = delta_ie(start, h_p)
    betas = [0.0, mean, mean - delta, mean + delta]
    for t_total in (1.0, 5.0, 20.0):
        sch = Schedule("linear", t_total)
        res = evolve(h_i, h_p, sch, StepPolicy(), psi0=start)
        rows = verify_distance_bound(res.state, start, 0.0, h_p, sch, betas)
        assert len(rows) == 4
        for row in rows:
            assert row.applicable
            assert row.slack >= bounds.SLACK_TOL
            assert row.cap_slack >= -1e-7  # distance never beats 2
            assert row.lhs == pytest.approx(row.distance / row.denominator, rel=1e-12)
            assert row.rhs == pytest.approx(t_total / 2.0, rel=1e-12)


def test_distance_bound_tightest_at_the_mean():
    # the spread minimizes the denominator, so beta = <H_P> gives the
    # largest lhs and the smallest slack of any beta
    h_i, h_p, start = _grover_pieces(4)
    mean = expectation(h_p, start)
    sch = Schedule("linear", 2.0)
    res = evolve(h_i, h_p, sch, StepPolicy(), psi0=start)
    rows = verify_distance_bound(res.state, start, 0.0, h_p, sch,
                                 [mean, mean + 0.5, mean - 0.5, 10.0])
    assert all(rows[0].slack <= r.slack + 1e-12 for r in rows)


def test_distance_bound_flags_vanishing_denominator():
    basis = BasisSpec.flat(4)
    start = uniform_state(basis)
    h_p = ProjectorComplement(basis, start.amps)  # start is its zero mode
    rows = verify_distance_bound(start, start, 0.0, h_p, Schedule("linear", 1.0), [0.0, 0.5])
    assert not rows[0].applicable  # H_P g_I = 0 and beta = 0
    assert math.isnan(rows[0].slack)
    assert math.isnan(rows[0].lhs)
    assert rows[1].applicable


def test_distance_bound_checks_basis():
    h_i, h_p, start = _grover_pieces(4)
    other = uniform_state(BasisSpec.flat(5))
    with pytest.raises(ValueError):
        verify_distance_bound(other, start, 0.0, h_p, Schedule("linear", 1.0), [0.0])


def test_bound_report_serialization():
    h_i, h_p, start = _grover_pieces(4)
    sch = Schedule("linear", 1.0)
    res = evolve(h_i, h_p, sch, StepPolicy(), psi0=start)
    margins = verify_distance_bound(res.state, start, 0.0, h_p, sch, [0.0, 0.75])
    delta = delta_ie(start, h_p)
    report = BoundReport(model="grover-4", schedule_kind="linear", t_total=1.0,
                         delta_ie=delta, integral_g=0.5, t_min=t_min("linear", delta),
                         beta_star=0.75, margins=margins)
    assert report.worst_slack() == min(m.slack for m in margins)

    # the CLI writes a report as the JSON of its fields
    blob = json.loads(strict_json(asdict(report)))
    assert blob["model"] == "grover-4"
    assert len(blob["margins"]) == 2
    assert blob["margins"][1]["applicable"] is True
    assert blob["theta_note"] == bounds.THETA_NOTE


def test_worst_slack_is_nan_whatever_the_row_order():
    # min() drops a NaN unless it comes first; the worst slack must not
    rows = [bounds.BoundMargin(beta=b, denominator=1.0, distance=0.5, lhs=0.5, rhs=1.0,
                               slack=s, cap_slack=1.5, applicable=True)
            for b, s in ((0.0, 0.5), (1.0, math.nan))]
    for margins in (rows, rows[::-1]):
        report = BoundReport(model="x", schedule_kind="linear", t_total=1.0, delta_ie=1.0,
                             integral_g=0.5, t_min=4.0, beta_star=0.0, margins=margins)
        assert math.isnan(report.worst_slack())


def test_worst_slack_skips_inapplicable_rows():
    basis = BasisSpec.flat(4)
    start = uniform_state(basis)
    h_p = ProjectorComplement(basis, start.amps)
    margins = verify_distance_bound(start, start, 0.0, h_p, Schedule("linear", 1.0), [0.0])
    report = BoundReport(model="degenerate", schedule_kind="linear", t_total=1.0,
                         delta_ie=0.0, integral_g=0.5, t_min=math.inf,
                         beta_star=0.0, margins=margins)
    assert report.worst_slack() == math.inf
    # strict JSON: the infinite t_min and the inapplicable row's NaN ratio are null
    blob = json.loads(strict_json(asdict(report)), parse_constant=_no_constant)
    assert blob["t_min"] is None
    assert (blob["margins"][0]["lhs"], blob["margins"][0]["slack"]) == (None, None)


# ---------------------------------------------------------------------------
# gap scan
# ---------------------------------------------------------------------------

def test_gap_scan_grover_closed_form():
    h_i, h_p, _ = _grover_pieces(4)
    rep = gap_scan(h_i, h_p, Schedule("linear", 1.0))
    # two-level closed form: gap(s) = sqrt(1 - 4(1-1/N)s(1-s)), minimum 1/sqrt(N) at s=1/2
    assert rep.g_min == pytest.approx(0.5, abs=1e-6)
    assert rep.s_at_min == pytest.approx(0.5, abs=1e-6)
    want = np.sqrt(1.0 - 4.0 * 0.75 * rep.s_grid * (1.0 - rep.s_grid))
    assert np.allclose(rep.e1 - rep.e0, want, atol=1e-9)
    # ||H_P - H_I|| for two rank-one projectors: sqrt(1 - |<v|m>|^2)
    assert rep.dh_norm == pytest.approx(math.sqrt(3.0) / 2.0, abs=1e-8)
    assert rep.t_adb == pytest.approx(rep.dh_norm / rep.g_min ** 2, rel=1e-12)
    assert rep.t_adb == pytest.approx(2.0 * math.sqrt(3.0), abs=1e-5)


def test_gap_scan_matches_dense_oracle_pointwise():
    h_i, h_p, _ = _grover_pieces(4)
    sch = Schedule("linear", 1.0)
    rep = gap_scan(h_i, h_p, sch, grid=21, refine_rounds=1)
    dense_i, dense_p = to_dense(h_i), to_dense(h_p)
    for s, a, b in zip(rep.s_grid, rep.e0, rep.e1):
        evals = np.linalg.eigvalsh(sch.f(s) * dense_i + sch.g(s) * dense_p)
        assert a == pytest.approx(float(evals[0]), abs=1e-10)
        assert b == pytest.approx(float(evals[1]), abs=1e-10)


def test_gap_scan_iterative_path_matches_dense(monkeypatch):
    h_i, h_p, _ = _grover_pieces(8)
    sch = Schedule("linear", 1.0)
    dense = gap_scan(h_i, h_p, sch, grid=9, refine_rounds=1)
    monkeypatch.setattr(hilbert, "DENSE_LIMIT", 2)
    lanczos = gap_scan(h_i, h_p, sch, grid=9, refine_rounds=1)
    assert lanczos.g_min == pytest.approx(dense.g_min, abs=1e-8)
    assert np.allclose(lanczos.e0, dense.e0, atol=1e-8)
    assert np.allclose(lanczos.e1, dense.e1, atol=1e-8)


def test_gap_scan_finds_the_grover_zero_mode_at_s1():
    # dim 4096 with 2 levels: the projector-plus-diagonal sector gives the
    # zero mode at s = 1 exactly
    bundle = build_grover(4096)
    rep = gap_scan(bundle.h_i, bundle.h_p, make_schedule("linear", 1.0), grid=41)
    assert rep.s_grid[-1] == 1.0
    assert abs(rep.e0[-1]) <= 1e-10
    assert abs(rep.e1[-1] - 1.0) <= 1e-10
    assert rep.g_min == pytest.approx(1.0 / 64.0, abs=1e-10)


def test_full_space_grover_gap_scan_rows_hold_across_fresh_interpreters():
    # every point of this dim-4096 scan is a 2-level sector solve, so its rows,
    # the 4095-fold degenerate level at s = 1 among them, repeat bit for bit
    script = (
        "import hashlib\n"
        "import numpy as np\n"
        "from adiabound import build_grover, gap_scan, make_schedule\n"
        "b = build_grover(4096)\n"
        "rep = gap_scan(b.h_i, b.h_p, make_schedule('linear', 1.0), grid=41)\n"
        "rows = np.stack([rep.s_grid, rep.e0, rep.e1])\n"
        "print(hashlib.sha256(rows.tobytes()).hexdigest(), rep.g_min == 1 / 64, rep.e0[-1] == 0)\n"
    )
    pkg_root = str(Path(adiabound.__file__).resolve().parents[1])
    inherited = os.environ.get("PYTHONPATH")
    env = {**os.environ, "PYTHONPATH": pkg_root + (os.pathsep + inherited if inherited else "")}
    outputs = set()
    for _ in range(3):
        proc = subprocess.run([sys.executable, "-c", script], capture_output=True, text=True,
                              env=env)
        assert proc.returncode == 0, proc.stderr
        outputs.add(proc.stdout)
    [out] = outputs
    assert out.split()[1:] == ["True", "True"]


def test_sector_gap_scan_builds_no_full_space_vector(monkeypatch):
    # InvariantSector.lift is the only place a sector pair becomes a full-space
    # vector; the scan reads levels alone
    def no_lift(*args):
        raise AssertionError("a full-space vector was built")

    monkeypatch.setattr(hilbert.InvariantSector, "lift", no_lift)
    bundle = build_grover(4096)
    rep = gap_scan(bundle.h_i, bundle.h_p, make_schedule("linear", 1.0), grid=41)
    assert rep.g_min == 1.0 / 64.0 and rep.e0[-1] == 0.0
    assert rep.dh_norm == pytest.approx(math.sqrt(1.0 - 1.0 / 4096), abs=1e-12)


def test_sector_gap_scan_memory_stays_bounded():
    # the 238-level sector of tsp-finite random M=4: the scan before stacked
    # sector solves peaked at 1.373 MB traced, one 453 kB sector matrix and its
    # temporaries at a time; the stacks stay under that
    sector = invariant_sector(build_tsp_finite(random_instance(4, 1), DsqPolicy("random")))
    assert sector.levels.size == 238
    schedule = make_schedule("linear", 1.0)
    gap_scan(sector.h_i, sector.h_p, schedule, grid=41)
    tracemalloc.start()
    try:
        gap_scan(sector.h_i, sector.h_p, schedule, grid=41)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert peak <= 1.37e6


def test_gap_scan_recovers_the_grover_zero_mode_through_eigsh(monkeypatch):
    # below 2 levels the sector is off and dim 4096 goes to eigsh, which alone
    # returns (1, 1) at s = 1; the Rayleigh-Ritz step with H_P's exact ground
    # vector recovers the zero mode
    monkeypatch.setattr(hilbert, "DENSE_LIMIT", 1)
    bundle = build_grover(4096)
    h_s = hilbert.LinearCombination(bundle.h_i.basis, ((0.0, bundle.h_i), (1.0, bundle.h_p)))
    assert hilbert.lowest(h_s, 2).matvecs > 2  # not the sector's one block apply
    rep = gap_scan(bundle.h_i, bundle.h_p, make_schedule("linear", 1.0), grid=41)
    assert rep.s_grid[-1] == 1.0
    assert abs(rep.e0[-1]) <= 1e-10
    assert abs(rep.e1[-1] - 1.0) <= 1e-10
    assert rep.g_min == pytest.approx(1.0 / 64.0, abs=1e-10)


def test_gap_scan_point_obeys_the_matvec_budget(monkeypatch):
    h_i, h_p, _ = _grover_pieces(64)
    monkeypatch.setattr(hilbert, "DENSE_LIMIT", 2)
    monkeypatch.setattr(hilbert, "MATVEC_BUDGET", 5)
    with pytest.raises(hilbert.NumericGuardError, match="exceeded 5 matvecs"):
        gap_scan(h_i, h_p, Schedule("linear", 1.0), grid=3, refine_rounds=0)


@pytest.mark.parametrize("ratio, closed", [(0.5, True), (3.0, False)])
def test_gap_scan_closes_a_gap_within_the_degeneracy_rule(ratio, closed):
    # H(s) = (1 - s) diag(0, 1) + s diag(0, gap): the gap is smallest at s = 1
    basis = BasisSpec.flat(2)
    gap = ratio * hilbert.DEGENERACY_RTOL
    rep = gap_scan(Diagonal(basis, np.array([0.0, 1.0])), Diagonal(basis, np.array([0.0, gap])),
                   Schedule("linear", 1.0), grid=5, refine_rounds=0)
    assert (rep.g_min, rep.s_at_min) == (gap, 1.0)
    assert rep.t_adb == (math.inf if closed else rep.dh_norm / gap ** 2)


def test_gap_scan_reads_a_roundoff_gap_as_closed():
    # eigsh path (dim 3125, 3029 levels, past the sector's limit): the rotated
    # optimal tours tie at s = 1, and the measured gap there is 0 only up to
    # roundoff
    bundle = build_tsp_finite(random_instance(5, 1), DsqPolicy("random"))
    assert invariant_sector(bundle).levels.size > hilbert.DENSE_LIMIT
    rep = gap_scan(bundle.h_i, bundle.h_p, make_schedule("linear", 1.0), grid=5, refine_rounds=0)
    assert rep.s_at_min == 1.0
    assert 0.0 <= rep.g_min <= hilbert.degeneracy_tol(rep.e0[-1])
    assert rep.t_adb == math.inf


@pytest.mark.parametrize("bundle", [build_grover(4), build_tsp_finite(random_instance(4, 1))],
                         ids=["grover-n4", "tsp-finite-m4"])
def test_gap_scan_dh_norm_is_exact(bundle):
    rep = gap_scan(bundle.h_i, bundle.h_p, Schedule("linear", 1.0), grid=3, refine_rounds=0)
    levels = np.linalg.eigvalsh(to_dense(bundle.h_p) - to_dense(bundle.h_i))
    exact = max(abs(levels[0]), abs(levels[-1]))
    assert abs(rep.dh_norm - exact) <= 1e-12 * exact


def test_gap_scan_validation_and_serialization():
    h_i, h_p, _ = _grover_pieces(4)
    with pytest.raises(ValueError):
        gap_scan(h_i, h_p, Schedule("linear", 1.0), grid=2)
    with pytest.raises(ValueError, match="refine_rounds"):
        gap_scan(h_i, h_p, Schedule("linear", 1.0), refine_rounds=-1)
    other = Diagonal(BasisSpec.flat(5), np.zeros(5))
    with pytest.raises(ValueError):
        gap_scan(h_i, other, Schedule("linear", 1.0))

    rep = gap_scan(h_i, h_p, Schedule("linear", 1.0), grid=11, refine_rounds=1)
    blob = json.loads(strict_json(asdict(rep)))
    assert blob["schedule_kind"] == "linear"
    assert blob["s_grid"] == rep.s_grid.tolist()
