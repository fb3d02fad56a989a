"""The package's public surface, and the library calls the benchmark makes.

Each module declares its public names once, in its ``__all__``; the package
exports exactly those.  The benchmark under ``bench/`` calls some names that
nothing else in the repository uses, so deleting one of them must fail here
and not only when the benchmark runs.
"""
import importlib
import inspect
import sys
from pathlib import Path

import adiabound as ab
from adiabound import bounds, evolution, hilbert, models, tsp

BENCH = Path(__file__).resolve().parents[1] / "bench"


def test_package_exports_each_module_list_once():
    modules = (tsp, hilbert, evolution, bounds, models)
    assert ab.__all__ == ["__version__", *(name for m in modules for name in m.__all__)]
    assert len(set(ab.__all__)) == len(ab.__all__)
    for module in modules:
        for name in module.__all__:
            assert getattr(ab, name) is getattr(module, name), name


def test_bench_workloads_import(monkeypatch):
    # workloads.py builds its StepPolicy objects at import time
    monkeypatch.syspath_prepend(str(BENCH))
    try:
        workloads = importlib.import_module("workloads")
        assert set(workloads.WORKLOADS) == {"anneal", "grover-cli", "stats-spectrum"}
    finally:
        for name in ("workloads", "tracing"):
            sys.modules.pop(name, None)


def test_bench_replay_calls_still_bind():
    # the keyword calls of the grover-cli replay and of anneal's 2x reference run
    inspect.signature(ab.t_min).bind("linear", 0.5, n=4, eps=None)
    inspect.signature(ab.make_schedule).bind("linear", 1.0, n=4, eps=None)
    inspect.signature(ab.StepPolicy).bind(samples_per_run=0, track_ground_overlap=False,
                                          n_steps_override=2)
    mean = ab.beta_minimum(ab.uniform_state(ab.BasisSpec.flat(4)),
                           ab.Diagonal(ab.BasisSpec.flat(4), [0.0, 1.0, 1.0, 1.0])).h_p_mean
    assert mean == 0.75


def test_result_fields_the_bench_reads_still_exist():
    # every result attribute bench/workloads.py reads, one small object each
    inst = ab.random_instance(3, 7)
    bundle = ab.build_tsp_finite(inst)
    schedule = ab.make_schedule("linear", 1.0)
    policy = ab.StepPolicy()
    res = ab.evolve(bundle.h_i, bundle.h_p, schedule, policy, psi0=bundle.g_i)
    margin = ab.verify_distance_bound(res.state, bundle.g_i, bundle.e_i0, bundle.h_p, schedule,
                                      [0.0])[0]
    sigma = ab.sigma_scaling_study(ab.DistanceSampler(), [3], 1, 7)
    dsq = ab.DsqPolicy("random", sigma_d=1.0, seed=7)
    asymptote = ab.delta_ie_asymptote_study([3], dsq, 7)
    reads = [
        (res, ("state", "n_steps", "norm_bound", "max_drift")),
        (ab.ground_state(bundle.h_i), ("energy", "state", "matvecs")),
        (ab.gap_scan(bundle.h_i, bundle.h_p, schedule, grid=3), ("s_grid", "e0", "e1")),
        (ab.brute_force_shortest(inst), ("length", "tour")),
        (sigma, ("rows",)),
        (sigma.rows[0], ("ratio_sqrtm",)),
        (asymptote, ("rows",)),
        (asymptote.rows[0], ("m", "ratio", "delta_ie", "non_tour_std", "tour_fraction",
                             "penalty_std_ref")),
        (margin, ("applicable", "slack", "cap_slack")),
        (ab.beta_minimum(bundle.g_i, bundle.h_p), ("h_p_mean",)),
        (bundle, ("e_i0", "target_indices", "target_energy", "g_i", "h_i", "h_p")),
        (inst, ("d", "l_max")),
        (policy, ("step_bound_factor", "norm_tol")),
        (dsq, ("sigma_d",)),
    ]
    missing = [f"{type(obj).__name__}.{name}" for obj, names in reads for name in names
               if not hasattr(obj, name)]
    assert missing == []
