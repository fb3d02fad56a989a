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
