"""One workload pass in a fresh interpreter; started by ``bench/run.py``.

    python bench/worker.py setup|body|trace --workload NAME --seed N
        --tmp DIR [--result FILE] [--spans FILE] [--quick]

``setup`` imports adiabound and makes the inputs, then exits: the parent
times the whole process.  ``body`` also runs every item untraced and writes
wall, CPU and peak RSS to ``--result``.  ``trace`` runs the items with spans
on, then the traced-only extras, and adds the per-layer metrics.
"""
from __future__ import annotations

import argparse
import json
import os
import platform
import resource
import sys
import time
import traceback
from pathlib import Path

import numpy as np
import scipy

from tracing import NullTracer, Tracer
from workloads import APPLY_OPS, WORKLOADS


def add_checks(tally: dict, checks) -> None:
    tally["attempted"] += len(checks)
    for good, known in checks:
        if not good:
            tally["failed"] += 1
            if known:
                tally["known_failed"] += 1
            else:
                tally["correct"] = False


def run_items(workload) -> dict:
    tally = {"attempted": 0, "failed": 0, "known_failed": 0, "correct": True, "errors": []}
    for item in workload.items():
        workload.tr.item = item.id
        try:
            with workload.tr.span("bench.item"):
                checks = item.run()
        except Exception:  # an exception fails every output of its item
            tally["errors"].append(f"{item.id}: {traceback.format_exc(limit=4)}")
            add_checks(tally, [(False, False)] * item.outputs)
            continue
        add_checks(tally, checks)
    workload.tr.item = None
    return tally


def layer_metrics(tr: Tracer, extra: dict[str, float]) -> dict[str, float]:
    st, calls, counts = tr.self_times(), tr.calls(), tr.counts

    def ratio(num, den, scale=1.0):
        return num * scale / den if den else 0.0

    evolve_s = st["evolution.evolve"]
    rows, sigma_s = counts["tsp.sigma_scaling_study.rows"], st["tsp.sigma_scaling_study"]
    values = {
        "tsp.random_instance.s": st["tsp.random_instance"],
        "tsp.random_instance.calls": calls["tsp.random_instance"],
        "tsp.sigma_scaling_study.s": sigma_s,
        "tsp.sigma_scaling_study.rows": rows,
        "tsp.sigma_scaling_study.rows_per_s": ratio(rows, sigma_s),
        "tsp.brute_force_shortest.s": st["tsp.brute_force_shortest"],
        "models.build_tsp_finite.s": st["models.build_tsp_finite"],
        "models.build_tsp_finite.calls": calls["models.build_tsp_finite"],
        "models.build_grover.s": st["models.build_grover"],
        "models.build_tsp_rank.s": st["models.build_tsp_rank"],
        "models.build_tsp_tuple.s": st["models.build_tsp_tuple"],
        "models.delta_ie_asymptote_study.s": st["models.delta_ie_asymptote_study"],
        "hilbert.to_dense.s": 0.0,
        "hilbert.ground_state.s": st["hilbert.ground_state"],
        "hilbert.ground_state.matvecs": counts["hilbert.ground_state.matvecs"],
        "evolution.evolve.s": evolve_s,
        "evolution.evolve.calls": calls["evolution.evolve"],
        "evolution.evolve.steps": counts["evolution.evolve.steps"],
        "evolution.evolve.us_per_step": ratio(evolve_s, counts["evolution.evolve.steps"], 1e6),
        "evolution.evolve.drift_capped_runs": counts["evolution.evolve.drift_capped_runs"],
        "evolution.evolve.drift_use": tr.peaks.get("evolution.evolve.drift_use", 0.0),
        "evolution.evolve.err_vs_2x": 0.0,
        "bounds.delta_ie.s": st["bounds.delta_ie"],
        "bounds.t_min.s": st["bounds.t_min"],
        "bounds.verify_distance_bound.s": st["bounds.verify_distance_bound"],
        "bounds.gap_scan.s": st["bounds.gap_scan"],
        "bounds.gap_scan.points": counts["bounds.gap_scan.points"],
        "bounds.gap_scan.dense.ms_per_point": ratio(counts["bounds.gap_scan.dense.s"],
                                                    counts["bounds.gap_scan.dense.points"], 1e3),
        "bounds.gap_scan.eigsh.ms_per_point": ratio(counts["bounds.gap_scan.eigsh.s"],
                                                    counts["bounds.gap_scan.eigsh.points"], 1e3),
        "bounds.gap_scan.applies": tr.applies(),
        "cli.main.linear.s": counts["cli.main.linear.s"],
        "cli.main.das_wei.s": counts["cli.main.das_wei.s"],
        "cli.files_written": 0.0,
        "cli.bytes_written": 0.0,
        "cli.self_s": 0.0,
        "cli.threads2_over_1": 0.0,
    }
    for key in APPLY_OPS:
        values[f"hilbert.apply_amps.us.{key}"] = 0.0
        values[f"hilbert.apply_amps.bytes.{key}"] = 0.0
    unknown = set(extra) - set(values)
    if unknown:
        raise KeyError(f"extras produced undeclared metrics: {sorted(unknown)}")
    values.update(extra)
    return {k: float(v) for k, v in values.items()}


def runtime_env() -> dict:
    try:
        blas = np.show_config(mode="dicts")["Build Dependencies"]["blas"]
        vendor = f"{blas.get('name', '?')} {blas.get('version', '')}".strip()
    except (TypeError, KeyError):
        vendor = "unknown"
    return {"python": platform.python_version(), "numpy": np.__version__,
            "scipy": scipy.__version__, "blas": vendor,
            "blas_threads": os.environ.get("OPENBLAS_NUM_THREADS"),
            "omp_threads": os.environ.get("OMP_NUM_THREADS")}


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("mode", choices=("setup", "body", "trace"))
    parser.add_argument("--workload", required=True, choices=sorted(WORKLOADS))
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--tmp", required=True)
    parser.add_argument("--result")
    parser.add_argument("--spans")
    parser.add_argument("--quick", action="store_true")
    args = parser.parse_args(argv)

    tracer = Tracer() if args.mode == "trace" else NullTracer()
    workload = WORKLOADS[args.workload](args.seed, args.quick, Path(args.tmp), tracer)
    workload.setup()
    if args.mode == "setup":
        return 0

    tracer.phase = "body"
    ru0 = resource.getrusage(resource.RUSAGE_SELF)
    t0 = time.perf_counter()
    tally = run_items(workload)
    wall = time.perf_counter() - t0
    ru1 = resource.getrusage(resource.RUSAGE_SELF)
    result = {
        "wall_s": wall,
        "cpu_s": (ru1.ru_utime - ru0.ru_utime) + (ru1.ru_stime - ru0.ru_stime),
        "peak_rss_mb": ru1.ru_maxrss / 1024.0,
        **tally,
        "notes": workload.notes,
        "env": runtime_env(),
    }
    if args.mode == "trace":
        tracer.phase = "extra"
        values, checks = workload.extras()
        add_checks(result, checks)
        result["layers"] = layer_metrics(tracer, values)
        tracer.dump(args.spans)
    Path(args.result).write_text(json.dumps(result))
    return 0


if __name__ == "__main__":
    sys.exit(main())
