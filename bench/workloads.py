"""The benchmark's three workloads: inputs made from a seed, checked items,
and the extra work a traced run does.

Every workload is a closed loop with a single client: its items run one
after another, each starting when the previous one has returned, in a fresh
process.  Each item returns one ``(ok, known)`` pair per checked output;
``known`` marks the one output whose failure is a standing, documented defect.

Why these workloads, and where each mechanism is predicted to move nothing:

=====================================  ======================  ==========================
mechanism                              used by                 bypassed by
=====================================  ======================  ==========================
RK4 step count                         anneal, grover-cli      stats-spectrum
per-step overhead, batching of cells   anneal                  stats-spectrum (grover-cli
                                                               only weakly)
thread pool and cli output             grover-cli              anneal, stats-spectrum
tour enumeration                       stats-spectrum          anneal, grover-cli
gap scan and eigensolvers              stats-spectrum          anneal, grover-cli
=====================================  ======================  ==========================

* ``anneal`` calls the library directly: three long criterion-06 cells and the
  48-run criterion-04 audit.  At dim <= 256 an RK4 step is per-call overhead,
  not arithmetic; mixing few long runs with many short ones shows work moved
  between per-run set-up and per-step cost.
* ``grover-cli`` runs ``adiabound.cli.main`` in-process on two pinned
  grover-sweep configs at dims 1024 and 4096, where a step is array
  arithmetic; it is the only workload through config checks, the thread pool,
  hashing and atomic writes.
* ``stats-spectrum`` never evolves: tour enumeration, the tour-spread studies,
  dense and eigsh gap scans on either side of ``bounds._DENSE_LIMIT`` and two
  iterative ground states.  Standing known failure: on Grover N=4096 the eigsh
  path returns (1, 1) at s = 1, missing the zero mode.
"""
from __future__ import annotations

import contextlib
import dataclasses
import io
import json
import math
from dataclasses import dataclass
from functools import partial
from pathlib import Path
from typing import Callable

import numpy as np

import adiabound as ab
from adiabound import cli
from adiabound.bounds import SLACK_TOL

from tracing import apply_bytes, op_key, time_apply

#: operators whose ``apply_amps`` a traced run times, as ``<class>-<dim>``
APPLY_OPS = ("Diagonal-27", "Diagonal-256", "ProjectorComplement-27",
             "ProjectorComplement-256", "ProjectorComplement-1024",
             "ProjectorComplement-4096", "CoherentQuadratic-84", "ModeSum-32768")

LONG_POLICY = ab.StepPolicy(track_ground_overlap=False, samples_per_run=0)
AUDIT_POLICY = ab.StepPolicy(step_bound_factor=0.05, track_ground_overlap=False,
                             samples_per_run=0)
# what the cli builds from {"samples_per_run": 64}
CLI_POLICY = ab.StepPolicy(samples_per_run=64, track_ground_overlap=False)
LONG_DSQ = ab.DsqPolicy("random", sigma_d=0.5, seed=123)
SCHEDULE_KINDS = ("linear", "das_wei")


def ok(cond) -> tuple[bool, bool]:
    return bool(cond), False


@dataclass
class Item:
    id: str
    outputs: int  # checked outputs; all of them fail if the item raises
    run: Callable[[], list[tuple[bool, bool]]]


class Workload:
    name = ""

    def __init__(self, seed: int, quick: bool, tmp: Path, tracer):
        self.seed = seed
        self.quick = quick
        self.tmp = tmp
        self.tr = tracer
        self.notes: dict = {}
        self.ops: dict = {}  # traced runs: operators to micro-time, by key

    def setup(self) -> None:
        """Make the workload's inputs from the seed."""

    def items(self) -> list[Item]:
        raise NotImplementedError

    def extras(self) -> tuple[dict[str, float], list[tuple[bool, bool]]]:
        """Traced runs only: work kept out of timed runs, and its checks."""
        return {}, []

    def keep_ops(self, *ops) -> None:
        if self.tr.enabled:
            for op in ops:
                self.ops.setdefault(op_key(op), op)

    def time_ops(self) -> dict[str, float]:
        out = {}
        for key, op in self.ops.items():
            if key in APPLY_OPS:
                with self.tr.span("bench.apply_amps"):
                    out[f"hilbert.apply_amps.us.{key}"] = time_apply(op)
                out[f"hilbert.apply_amps.bytes.{key}"] = float(apply_bytes(op))
        return out

    def evolve(self, bundle, schedule, policy, psi0):
        res = self.tr.call("evolution.evolve", ab.evolve, bundle.h_i, bundle.h_p, schedule,
                           policy, psi0=psi0)
        tr = self.tr
        tr.count("evolution.evolve.steps", res.n_steps)
        # same arithmetic as evolve's stability cap, so equality means it bound
        h_stab = (policy.step_bound_factor / res.norm_bound if res.norm_bound > 0.0
                  else schedule.t_total)
        tr.count("evolution.evolve.drift_capped_runs",
                 int(res.n_steps > max(1, math.ceil(schedule.t_total / h_stab))))
        tr.peak("evolution.evolve.drift_use", res.max_drift / policy.norm_tol)
        return res


# ---------------------------------------------------------------------------
# anneal
# ---------------------------------------------------------------------------

class Anneal(Workload):
    name = "anneal"

    def setup(self):
        tr, s = self.tr, self.seed
        sym = ab.DistanceSampler(symmetric=True)
        long_cells = [(3, s)] if self.quick else [(3, s), (4, s), (4, s + 1)]
        self.long = [(f"cell-m{m}-s{k}",
                      tr.call("tsp.random_instance", ab.random_instance, m, k, sampler=sym))
                     for m, k in long_cells]
        self.mult = 2.0 if self.quick else 50.0
        self.audit_mults = (0.1, 1.0) if self.quick else (0.1, 1.0, 10.0)
        audit_cells = [(3, s)] if self.quick else [(m, s + k) for m in (3, 4) for k in range(3)]
        self.audit = [(f"audit-grover-n{n}", "models.build_grover", partial(ab.build_grover, n))
                      for n in ((4,) if self.quick else (4, 16))]
        for m, k in audit_cells:
            inst = tr.call("tsp.random_instance", ab.random_instance, m, k)
            self.audit.append((f"audit-finite-m{m}-s{k}", "models.build_tsp_finite",
                               partial(ab.build_tsp_finite, inst)))
        self.kept = []  # traced runs: long cells for the 2x-step reference

    def items(self):
        per_run = 1 + 5  # drift plus one row per beta
        out = [Item(label, per_run, partial(self.long_cell, label, inst))
               for label, inst in self.long]
        out += [Item(label, per_run * len(SCHEDULE_KINDS) * len(self.audit_mults),
                     partial(self.audit_bundle, build_name, build))
                for label, build_name, build in self.audit]
        return out

    def run_and_audit(self, bundle, delta, mean, schedule, policy):
        res = self.evolve(bundle, schedule, policy, bundle.g_i)
        betas = [0.0, mean, mean - delta, mean + delta, 1e3]
        rows = self.tr.call("bounds.verify_distance_bound", ab.verify_distance_bound,
                            res.state, bundle.g_i, bundle.e_i0, bundle.h_p, schedule, betas)
        checks = [ok(res.max_drift <= policy.norm_tol)]
        checks += [ok(r.applicable and r.slack >= SLACK_TOL and r.cap_slack >= SLACK_TOL)
                   for r in rows]
        return res, checks

    def long_cell(self, label, inst):
        tr = self.tr
        bundle = tr.call("models.build_tsp_finite", ab.build_tsp_finite, inst, policy=LONG_DSQ)
        dim = bundle.h_p.basis.dim
        delta = tr.call("bounds.delta_ie", ab.delta_ie, bundle.g_i, bundle.h_p)
        mean = tr.call("hilbert.expectation", ab.expectation, bundle.h_p, bundle.g_i)
        t_total = self.mult * tr.call("bounds.t_min", ab.t_min, "linear", delta, n=dim)
        schedule = tr.call("evolution.make_schedule", ab.make_schedule, "linear", t_total)
        res, checks = self.run_and_audit(bundle, delta, mean, schedule, LONG_POLICY)
        # success belongs to the instance (M=4 seed 8 reaches 0.81): recorded, not checked
        self.notes.setdefault("success_prob", {})[label] = tr.call(
            "evolution.success_probability", ab.success_probability, res.state,
            bundle.target_indices)
        if tr.enabled:
            self.kept.append((bundle, schedule, res))
            self.keep_ops(bundle.h_i, bundle.h_p)
        return checks

    def audit_bundle(self, build_name, build):
        tr = self.tr
        bundle = tr.call(build_name, build)
        dim = bundle.h_p.basis.dim
        delta = tr.call("bounds.delta_ie", ab.delta_ie, bundle.g_i, bundle.h_p)
        mean = tr.call("hilbert.expectation", ab.expectation, bundle.h_p, bundle.g_i)
        checks = []
        for kind in SCHEDULE_KINDS:
            base = tr.call("bounds.t_min", ab.t_min, kind, delta, n=dim)
            for mult in self.audit_mults:
                schedule = tr.call("evolution.make_schedule", ab.make_schedule, kind,
                                   mult * base, n=dim)
                checks += self.run_and_audit(bundle, delta, mean, schedule, AUDIT_POLICY)[1]
        return checks

    def extras(self):
        errs = []
        for bundle, schedule, res in self.kept:
            policy = dataclasses.replace(LONG_POLICY, n_steps_override=2 * res.n_steps)
            with self.tr.span("bench.ref2x"):
                ref = ab.evolve(bundle.h_i, bundle.h_p, schedule, policy, psi0=bundle.g_i)
            errs.append(float(np.linalg.norm(res.state.amps - ref.state.amps)))
        values = self.time_ops()
        values["evolution.evolve.err_vs_2x"] = max(errs)
        return values, []


# ---------------------------------------------------------------------------
# grover-cli
# ---------------------------------------------------------------------------

class GroverCli(Workload):
    name = "grover-cli"
    threads = 2

    def setup(self):
        self.n_values = [16, 64] if self.quick else [1024, 4096]
        self.configs = {}
        for kind in SCHEDULE_KINDS:
            cfg = {"experiment": "grover-sweep", "n_values": self.n_values,
                   "schedule": {"kind": kind}, "t_multipliers": [1.0],
                   "betas": ["mean", "mean+delta", "mean-delta", 0.0],
                   "step_policy": {"samples_per_run": 64}}
            path = self.tmp / f"grover-{kind}.json"
            path.write_text(json.dumps(cfg, indent=2))
            self.configs[kind] = path
        self.runs = 0
        self.out_dirs = []

    def items(self):
        return [Item(f"cli-{kind}", 1 + len(self.n_values), partial(self.cli_item, kind))
                for kind in SCHEDULE_KINDS]

    def run_cli(self, kind, threads, span):
        """One ``adiabound grover-sweep`` with a fresh --out; returns its checks,
        its content hash and its output directory."""
        self.runs += 1
        out = self.tmp / f"out-{self.runs:03d}-{kind}-t{threads}"
        argv = ["grover-sweep", "--config", str(self.configs[kind]), "--out", str(out),
                "--threads", str(threads), "--seed", str(self.seed)]
        sink = io.StringIO()
        with contextlib.redirect_stdout(sink), contextlib.redirect_stderr(sink):
            code = self.tr.call(span, cli.main, argv)
        rows, digest = [], None
        if code == 0:
            manifest = json.loads((out / "manifest.json").read_text())
            rows, digest = manifest["rows"], manifest["content_hash"]
        else:
            self.notes.setdefault("cli_errors", []).append(sink.getvalue()[-2000:])
        checks = [ok(code == 0)]
        checks += [ok(i < len(rows) and rows[i]["slack_min"] >= SLACK_TOL)
                   for i in range(len(self.n_values))]
        return checks, digest, out

    def cli_item(self, kind):
        checks, digest, out = self.run_cli(kind, self.threads, "cli.main")
        self.tr.count(f"cli.main.{kind}.s", self.tr.last_s)
        self.notes.setdefault("content_hash", {})[kind] = digest
        self.out_dirs.append(out)
        return checks

    def replay(self, kind):
        """The library calls the grover-sweep runner makes for one config."""
        tr = self.tr
        for n in self.n_values:
            bundle = tr.call("models.build_grover", ab.build_grover, n, 0)
            delta = tr.call("bounds.delta_ie", ab.delta_ie, bundle.g_i, bundle.h_p)
            t_total = tr.call("bounds.t_min", ab.t_min, kind, delta, n=n, eps=None)
            schedule = tr.call("evolution.make_schedule", ab.make_schedule, kind, t_total,
                               n=n, eps=None)
            res = self.evolve(bundle, schedule, CLI_POLICY, None)  # the cli passes no psi0
            mean = tr.call("bounds.beta_minimum", ab.beta_minimum, bundle.g_i,
                           bundle.h_p).h_p_mean
            tr.call("bounds.verify_distance_bound", ab.verify_distance_bound, res.state,
                    bundle.g_i, bundle.e_i0, bundle.h_p, schedule,
                    [mean, mean + delta, mean - delta, 0.0])
            tr.call("bounds.t_min", ab.t_min, kind, delta, n=n, eps=None)
            tr.call("evolution.success_probability", ab.success_probability, res.state,
                    bundle.target_indices)
            self.keep_ops(bundle.h_i)

    def extras(self):
        tr = self.tr
        checks, t1, replay = [], 0.0, 0.0
        for kind in SCHEDULE_KINDS:
            c, digest, _ = self.run_cli(kind, 1, "bench.cli_threads1")
            t1 += tr.last_s
            checks += c
            checks.append(ok(digest is not None
                             and digest == self.notes.get("content_hash", {}).get(kind)))
            with tr.span("bench.replay"):
                self.replay(kind)
            replay += tr.last_s
        files = [p for d in self.out_dirs for p in d.rglob("*") if p.is_file()]
        t2 = sum(tr.counts[f"cli.main.{kind}.s"] for kind in SCHEDULE_KINDS)
        values = self.time_ops()
        values.update({
            "cli.files_written": float(len(files)),
            "cli.bytes_written": float(sum(p.stat().st_size for p in files)),
            "cli.self_s": t1 - replay,
            "cli.threads2_over_1": t2 / t1,
        })
        return values, checks


# ---------------------------------------------------------------------------
# stats-spectrum
# ---------------------------------------------------------------------------

class StatsSpectrum(Workload):
    name = "stats-spectrum"

    def setup(self):
        tr, s = self.tr, self.seed
        m_small = 3 if self.quick else 4
        self.inst_small = tr.call("tsp.random_instance", ab.random_instance, m_small, s)
        self.inst3 = tr.call("tsp.random_instance", ab.random_instance, 3, s)
        self.sigma_ms = range(5, 8) if self.quick else range(5, 10)
        self.sigma_samples = 10 if self.quick else 100
        self.asym_ms = (3, 4, 5) if self.quick else (3, 4, 5, 6)
        self.big_m = 8 if self.quick else 10
        self.brute_m = 7 if self.quick else 9
        self.dense_grid = 21 if self.quick else 201
        self.grover_n = 4096
        self.grover_grid = 41

    def items(self):
        n_sigma = len(self.sigma_ms)
        n_asym = len(self.asym_ms) + sum(2 if m <= 4 else 1 for m in self.asym_ms)
        return [
            Item("sigma-study", 2 * n_sigma - 1, self.sigma_study),
            Item("asymptote", n_asym, self.asymptote),
            Item(f"instance-m{self.big_m}", 2, self.big_instance),
            Item(f"brute-force-m{self.brute_m}", 2, self.brute_force),
            Item("gap-finite", 2, self.gap_finite),
            Item(f"gap-grover-n{self.grover_n}", self.grover_grid, self.gap_grover),
            Item("ground-rank", 1, partial(self.ground, "models.build_tsp_rank",
                                           partial(ab.build_tsp_rank, self.inst_small))),
            Item("ground-tuple", 1, partial(self.ground, "models.build_tsp_tuple",
                                            partial(ab.build_tsp_tuple, self.inst3))),
        ]

    def sigma_study(self):
        ms, samples = self.sigma_ms, self.sigma_samples
        rep = self.tr.call("tsp.sigma_scaling_study", ab.sigma_scaling_study,
                           ab.DistanceSampler(), ms, samples, self.seed)
        self.tr.count("tsp.sigma_scaling_study.rows",
                      sum(samples * math.factorial(m) for m in ms))
        ratios = [row.ratio_sqrtm for row in rep.rows]
        ratios += [math.nan] * (len(ms) - len(ratios))
        # criterion 07's window on successive sigma/sqrt(M) quotients
        return ([ok(r > 0) for r in ratios]
                + [ok(0.75 <= b / a <= 1.33) for a, b in zip(ratios, ratios[1:])])

    def asymptote(self):
        """Random surcharge: one Philox draw per index.  Whether the ratio column
        falls monotonically depends on the instance, so the oracles are
        identities, an exact scalar recount for M <= 4, and the spread of the
        squared-normal surcharge itself for M >= 5."""
        tr, s = self.tr, self.seed
        policy = ab.DsqPolicy("random", sigma_d=1.0, seed=s)
        rep = tr.call("models.delta_ie_asymptote_study", ab.delta_ie_asymptote_study,
                      self.asym_ms, policy, s)
        checks = []
        for m, row in zip(self.asym_ms, rep.rows):
            checks.append(ok(row.m == m and row.ratio == row.delta_ie / row.non_tour_std
                             and row.tour_fraction == math.factorial(m) / m ** m
                             and row.penalty_std_ref == math.sqrt(2.0) * policy.sigma_d ** 2))
            if m <= 4:
                inst = tr.call("tsp.random_instance", ab.random_instance, m, s)
                eff = np.array([tr.call("tsp.effective_length", ab.effective_length, inst, k,
                                        policy) for k in range(1, m ** m + 1)])
                tour = np.array([tr.call("tsp.is_tour", ab.is_tour,
                                         tr.call("tsp.index_to_tuple", ab.index_to_tuple, k, m))
                                 for k in range(1, m ** m + 1)])
                checks.append(ok(abs(np.std(eff) / row.delta_ie - 1.0) <= 1e-12))
                checks.append(ok(abs(np.std(eff[~tour]) / row.non_tour_std - 1.0) <= 1e-12))
            else:
                # sample std of M^M - M! squared normals; the window is >= 7 standard errors
                window = 0.25 if m == 5 else 0.05
                checks.append(ok(abs(row.non_tour_std / row.penalty_std_ref - 1.0) <= window))
        return checks

    def big_instance(self):
        tr, m, s = self.tr, self.big_m, self.seed
        inst = tr.call("tsp.random_instance", ab.random_instance, m, s)
        rng = np.random.default_rng(np.random.SeedSequence(entropy=s, spawn_key=(m, 0)))
        d = rng.uniform(0.0, 1.0, size=(m, m))
        np.fill_diagonal(d, 0.0)
        # l_max is 1.1 times the longest tour: above every sampled tour, below 1.1 M max(d)
        tours = [rng.permutation(m).tolist() for _ in range(200)]
        longest = max(tr.call("tsp.tour_length", ab.tour_length, inst, t) for t in tours)
        tol = 1.0 + 1e-12
        return [ok(np.array_equal(inst.d, d)),
                ok(1.1 * longest <= inst.l_max * tol and inst.l_max <= 1.1 * m * d.max() * tol)]

    def brute_force(self):
        tr = self.tr
        inst = tr.call("tsp.random_instance", ab.random_instance, self.brute_m, self.seed)
        best = tr.call("tsp.brute_force_shortest", ab.brute_force_shortest, inst)
        lengths = tr.call("tsp.tour_lengths_by_rank", ab.tour_lengths_by_rank, inst)
        length = tr.call("tsp.tour_length", ab.tour_length, inst, best.tour)
        return [ok(best.length == float(np.min(lengths))),
                ok(abs(length - best.length) <= 1e-12 * max(1.0, best.length))]

    def scan(self, bundle, grid):
        tr = self.tr
        schedule = tr.call("evolution.make_schedule", ab.make_schedule, "linear", 1.0)
        rep = tr.call("bounds.gap_scan", ab.gap_scan, tr.wrap(bundle.h_i), tr.wrap(bundle.h_p),
                      schedule, grid=grid)
        path = "dense" if bundle.h_p.basis.dim <= 2048 else "eigsh"  # gap_scan's default limit
        tr.count("bounds.gap_scan.points", len(rep.s_grid))
        tr.count(f"bounds.gap_scan.{path}.points", len(rep.s_grid))
        tr.count(f"bounds.gap_scan.{path}.s", tr.last_s)
        return rep

    def gap_finite(self):
        bundle = self.tr.call("models.build_tsp_finite", ab.build_tsp_finite, self.inst_small)
        rep = self.scan(bundle, self.dense_grid)
        if self.tr.enabled:
            self.dense_op = ab.LinearCombination(bundle.h_i.basis,
                                                 ((0.5, bundle.h_i), (0.5, bundle.h_p)))
        target = bundle.target_energy
        return [ok(abs(rep.e0[0]) <= 1e-9),
                ok(abs(rep.e0[-1] - target) <= 1e-9 * (1.0 + abs(target)))]

    def gap_grover(self):
        n = self.grover_n
        bundle = self.tr.call("models.build_grover", ab.build_grover, n)
        rep = self.scan(bundle, self.grover_grid)
        s = rep.s_grid
        root = np.sqrt(1.0 - 4.0 * (1.0 - 1.0 / n) * s * (1.0 - s))
        good = (np.abs(rep.e0 - (1.0 - root) / 2.0) <= 1e-8) & \
               (np.abs(rep.e1 - (1.0 + root) / 2.0) <= 1e-8)
        # known failure: eigsh misses the zero mode at s = 1 for N > _DENSE_LIMIT
        return [(bool(g), bool(x == 1.0)) for g, x in zip(good, s)]

    def ground(self, build_name, build):
        tr = self.tr
        bundle = tr.call(build_name, build)
        op = bundle.h_i
        gs = tr.call("hilbert.ground_state", ab.ground_state, op)
        tr.count("hilbert.ground_state.matvecs", gs.matvecs)
        vec = gs.state.amps
        residual = np.linalg.norm(tr.call("hilbert.apply_amps", op.apply_amps, vec)
                                  - gs.energy * vec)
        self.keep_ops(op)
        return [ok(residual <= 1e-8)]

    def extras(self):
        times = []
        for _ in range(3):
            self.tr.call("hilbert.to_dense", ab.to_dense, self.dense_op)
            times.append(self.tr.last_s)
        values = self.time_ops()
        values["hilbert.to_dense.s"] = float(np.median(times))
        return values, []


WORKLOADS = {w.name: w for w in (Anneal, GroverCli, StatsSpectrum)}
