"""The invariant-sector reduction against the full-space oracle.

Grover and tsp-finite evolve in the span of the vectors P_lam g_I; the CLI's
evolve-and-audit path runs them there.  Every audited number must match the
same run in the full space.
"""
import dataclasses
import math

import numpy as np
import pytest

from adiabound import (
    Diagonal,
    DsqPolicy,
    InvariantSector,
    NumericGuardError,
    ProjectorComplement,
    StateVector,
    StepPolicy,
    basis_vector,
    build_grover,
    build_tsp_finite,
    build_tsp_rank,
    build_tsp_tuple,
    gap_scan,
    invariant_sector,
    make_schedule,
    random_instance,
    to_dense,
)
from adiabound import cli

SCHEDULES = ("linear", "das_wei", "local_adiabatic_grover")
POLICIES = {"parity": DsqPolicy(), "random": DsqPolicy("random", sigma_d=0.5, seed=123)}
STEP = StepPolicy(samples_per_run=64)
TOL = 1e-12


def _cells(bundle, kind):
    raw = {"model": {"model": bundle.kind}, "schedule": {"kind": kind},
           "betas": ["mean", "mean+delta", "mean-delta", 0.0]}
    return cli._audit_cells(bundle, cli._typed(raw, cli.EXPERIMENTS["bound-audit"].schema))


def _close(sector, full):
    return math.isclose(sector, full, rel_tol=0.0, abs_tol=TOL * max(1.0, abs(full)))


def _assert_sector_matches_full(bundle, kind):
    (cell,) = _cells(bundle, kind)
    assert isinstance(cell.space, InvariantSector)
    report, row = cli._audit_one(cell, STEP)
    full_report, full_row = cli._audit_one(dataclasses.replace(cell, space=bundle), STEP)
    assert row["n_steps"] == full_row["n_steps"]
    assert _close(row["success_prob"], full_row["success_prob"])
    assert len(report.margins) == len(full_report.margins) == 4
    for margin, full in zip(report.margins, full_report.margins):
        assert margin.applicable == full.applicable
        for field in dataclasses.fields(margin):
            a, b = getattr(margin, field.name), getattr(full, field.name)
            assert (math.isnan(a) and math.isnan(b)) or _close(a, b), (field.name, a, b)


@pytest.mark.parametrize("kind", SCHEDULES)
@pytest.mark.parametrize("n", [4, 64, 1024, 4096])
def test_grover_sector_matches_full_space(n, kind):
    _assert_sector_matches_full(build_grover(n, marked=n // 3), kind)


@pytest.mark.parametrize("kind", SCHEDULES[:2])
@pytest.mark.parametrize("policy", sorted(POLICIES))
@pytest.mark.parametrize("m", [3, 4])
def test_tsp_finite_sector_matches_full_space(m, policy, kind):
    bundle = build_tsp_finite(random_instance(m, seed=1), POLICIES[policy])
    _assert_sector_matches_full(bundle, kind)


def test_sector_trips_the_same_drift_guard():
    # the Grover-tuned local schedule is too fast for this TSP model at t_min
    bundle = build_tsp_finite(random_instance(4, seed=1), POLICIES["parity"])
    (cell,) = _cells(bundle, "local_adiabatic_grover")
    messages = []
    for space in (cell.space, bundle):
        with pytest.raises(NumericGuardError, match="norm drift") as err:
            cli._audit_one(dataclasses.replace(cell, space=space), STEP)
        messages.append(str(err.value))
    assert messages[0] == messages[1]


@pytest.mark.parametrize("n", [2, 4, 1024])
def test_grover_sector_has_two_levels(n):
    sector = invariant_sector(build_grover(n, marked=n - 1))
    assert sector.h_p.basis.dim == 2
    assert sector.h_p.values.tolist() == [0.0, 1.0]
    # the marked label, and everything else
    assert np.allclose(sector.g_i.amps, [math.sqrt(1.0 / n), math.sqrt(1.0 - 1.0 / n)])
    assert sector.target_indices == (0,)


@pytest.mark.parametrize("policy", sorted(POLICIES))
@pytest.mark.parametrize("m", [3, 4, 5])
def test_tsp_finite_sector_has_one_dimension_per_level(m, policy):
    bundle = build_tsp_finite(random_instance(m, seed=2), POLICIES[policy])
    sector = invariant_sector(bundle)
    levels = np.unique(bundle.h_p.values)
    assert sector.h_p.basis.dim == levels.size
    assert np.array_equal(sector.h_p.values, levels)
    assert isinstance(sector.h_i, ProjectorComplement)
    assert np.array_equal(sector.h_i.vector, sector.g_i.amps)
    # each weight is the start-state mass on its level
    counts = np.array([np.count_nonzero(bundle.h_p.values == lam) for lam in levels])
    assert np.allclose(sector.g_i.amps ** 2, counts / bundle.h_p.basis.dim, rtol=1e-14)
    # the targets are the levels holding the full model's targets
    full = np.unique(bundle.h_p.values[list(bundle.target_indices)])
    assert sector.target_indices == tuple(np.searchsorted(levels, full).tolist())


@pytest.mark.parametrize("m, g_min, s_at_min", [(5, 5.044e-2, 0.194), (6, 1.577e-2, 0.144)])
def test_tsp_finite_sector_has_one_level_per_cycle(m, g_min, s_at_min):
    # rotations tie exactly, so the optimal cycle is one level and the scan
    # finds the avoided crossing, not a roundoff gap between its rotations
    sector = invariant_sector(build_tsp_finite(random_instance(m, seed=1)))
    assert sector.h_p.basis.dim == math.factorial(m - 1) + 2  # and the two parity penalties
    assert len(sector.target_indices) == 1
    report = gap_scan(sector.h_i, sector.h_p, make_schedule("linear", 1.0))
    assert math.isfinite(report.t_adb) and report.g_min > 1e-3
    assert report.g_min == pytest.approx(g_min, rel=1e-3)
    assert report.s_at_min == pytest.approx(s_at_min, abs=1e-3)


def test_tsp_finite_sector_levels_are_full_space_levels():
    bundle = build_tsp_finite(random_instance(4, seed=1))
    sector = invariant_sector(bundle)
    assert sector.h_p.basis.dim == 8
    schedule = make_schedule("linear", 1.0)
    report = gap_scan(sector.h_i, sector.h_p, schedule, grid=41)
    full = (to_dense(bundle.h_i), to_dense(bundle.h_p))
    reduced = (to_dense(sector.h_i), to_dense(sector.h_p))
    for s in report.s_grid:
        f, g = schedule.f(s), schedule.g(s)
        spectrum = np.linalg.eigvalsh(f * full[0] + g * full[1])
        for level in np.linalg.eigvalsh(f * reduced[0] + g * reduced[1]):
            assert np.min(np.abs(spectrum - level)) <= 1e-12


def test_sector_keeps_a_level_that_the_start_state_misses():
    # g_I is 0 on the marked label, so the lowest level of H_P has weight 0;
    # the sector still holds it, and it is still the target
    grover = build_grover(8)
    basis = grover.h_p.basis
    amps = np.full(8, 1.0 / math.sqrt(7.0))
    amps[0] = 0.0
    start = StateVector(basis, amps)
    bundle = dataclasses.replace(grover, h_i=ProjectorComplement(basis, amps), g_i=start)
    sector = invariant_sector(bundle)
    assert sector.h_p.values.tolist() == [0.0, 1.0]
    assert sector.g_i.amps[0] == 0.0 and sector.g_i.amps[1] == pytest.approx(1.0, rel=1e-15)
    assert np.array_equal(sector.h_i.vector, sector.g_i.amps)
    assert sector.target_indices == (0,)
    assert sector.reached.tolist() == [1]


def test_sectors_of_one_diagonal_share_its_level_split(monkeypatch):
    calls = []
    unique = np.unique
    monkeypatch.setattr(np, "unique", lambda *a, **kw: calls.append(1) or unique(*a, **kw))
    grover = build_grover(8)
    tilted = ProjectorComplement(grover.h_p.basis, basis_vector(grover.h_p.basis, 3).amps)
    first = InvariantSector.of(grover.h_i, grover.h_p)
    second = InvariantSector.of(tilted, grover.h_p)
    assert first.levels is second.levels and first.group is second.group
    # a gap scan then sorts H_P no more
    gap_scan(grover.h_i, grover.h_p, make_schedule("linear", 1.0), grid=11)
    assert len(calls) == 1


def test_sector_needs_a_rank_one_driver_and_a_diagonal_problem():
    inst = random_instance(3, seed=0)
    assert invariant_sector(build_tsp_rank(inst)) is None
    assert invariant_sector(build_tsp_tuple(inst)) is None
    grover = build_grover(8)
    # a projector off a basis vector is not diagonal
    not_diagonal = ProjectorComplement(grover.h_p.basis, grover.g_i.amps)
    assert invariant_sector(dataclasses.replace(grover, h_p=not_diagonal)) is None
    # a driver whose axis is not the start state
    tilted = ProjectorComplement(grover.h_i.basis, basis_vector(grover.h_i.basis, 0).amps)
    assert invariant_sector(dataclasses.replace(grover, h_i=tilted)) is None
    diagonal = Diagonal(grover.h_p.basis, np.arange(8.0))
    assert invariant_sector(dataclasses.replace(grover, h_i=diagonal)) is None
