"""Config-driven command line front end.

Usage:
    adiabound <experiment> --config <path> [--out <dir>] [--threads <n>] [--seed <u64>]
    adiabound validate --config <path>

Experiments: grover-sweep, tsp-run, bound-audit, sigma-scan, gap-scan,
fraction-decay.  Configs are JSON with a documented schema (see README);
unknown keys are hard errors.  All outputs are written atomically and listed
in a manifest.json carrying a deterministic content hash, so reruns of the
same config can be byte-audited.  Exit codes: 0 success, 1 usage error,
2 invariant violation detected during the run.
"""
from __future__ import annotations

import argparse
import hashlib
import json
import math
import os
import sys
import tempfile
import time
from concurrent.futures import ThreadPoolExecutor
from dataclasses import dataclass
from pathlib import Path

import numpy as np

from . import __version__
from .bounds import (
    SLACK_TOL,
    BoundReport,
    delta_ie,
    gap_scan,
    t_min,
    verify_distance_bound,
)
from .evolution import (
    Schedule,
    StepPolicy,
    evolve,
    make_schedule,
    schedule_integral,
    success_probability,
)
from .hilbert import expectation
from .models import ModelBundle, build_grover, build_tsp_finite, build_tsp_rank, build_tsp_tuple
from .tsp import (
    MAX_ENUM_CITIES,
    DistanceSampler,
    DsqPolicy,
    TspFormatError,
    TspInstance,
    parse_instance,
    random_instance,
    sigma_scaling_study,
    tour_fraction_decay,
)

__all__ = ["main", "run_experiment", "UsageError", "InvariantViolation"]

EXPERIMENTS = ("grover-sweep", "tsp-run", "bound-audit", "sigma-scan",
               "gap-scan", "fraction-decay")
#: special beta spellings resolved against the built model
BETA_WORDS = ("mean", "mean+delta", "mean-delta")


class UsageError(Exception):
    """Bad invocation or config; maps to exit code 1."""


class InvariantViolation(Exception):
    """A run crossed a hard tolerance; maps to exit code 2."""


# ---------------------------------------------------------------------------
# config loading and key checking
# ---------------------------------------------------------------------------

_STEP_SCHEMA = {"step_bound_factor": None, "norm_tol": None, "samples_per_run": None}
_SCHEDULE_SCHEMA = {"kind": None, "eps": None}
_SAMPLER_SCHEMA = {"kind": None, "low": None, "high": None, "value": None, "symmetric": None}
_MODEL_SCHEMA = {"model": None, "n": None, "marked": None, "alpha_scale": None,
                 "n_max_override": None, "dsq_policy": None, "sigma_d": None, "seed": None}
_INSTANCE_SCHEMA = {"path": None, "format": None, "cities": None, "seed": None,
                    "stream": None, "name": None, "sampler": _SAMPLER_SCHEMA}
_COMMON = {"experiment": None, "out_dir": None, "seed": None, "threads": None}

_SCHEMAS = {
    "grover-sweep": {**_COMMON, "n_values": None, "marked": None,
                     "schedule": _SCHEDULE_SCHEMA, "t_multipliers": None,
                     "t_values": None, "betas": None, "step_policy": _STEP_SCHEMA},
    "tsp-run": {**_COMMON, "model": _MODEL_SCHEMA, "instance": _INSTANCE_SCHEMA,
                "schedule": _SCHEDULE_SCHEMA, "t_multipliers": None, "t_values": None,
                "betas": None, "step_policy": _STEP_SCHEMA},
    "bound-audit": {**_COMMON, "model": _MODEL_SCHEMA, "instance": _INSTANCE_SCHEMA,
                    "schedule": _SCHEDULE_SCHEMA, "t_multipliers": None, "t_values": None,
                    "betas": None, "step_policy": _STEP_SCHEMA},
    "sigma-scan": {**_COMMON, "m_values": None, "samples": None, "sampler": _SAMPLER_SCHEMA},
    "gap-scan": {**_COMMON, "model": _MODEL_SCHEMA, "instance": _INSTANCE_SCHEMA,
                 "schedule": _SCHEDULE_SCHEMA, "t_total": None, "grid": None,
                 "refine_rounds": None},
    "fraction-decay": {**_COMMON, "m_values": None},
}


def _check_keys(obj, schema, path: str) -> None:
    """Reject any dict key not present in the schema tree."""
    if not isinstance(obj, dict):
        return
    for key, value in obj.items():
        if key not in schema:
            allowed = ", ".join(sorted(schema))
            raise UsageError(f"unknown key {path + key!r}; allowed keys: {allowed}")
        sub = schema[key]
        if sub is not None:
            _check_keys(value, sub, f"{path}{key}.")


def load_config(path, experiment: str) -> dict:
    path = Path(path)
    if not path.exists():
        raise UsageError(f"config file not found: {path}")
    try:
        cfg = json.loads(path.read_text())
    except json.JSONDecodeError as exc:
        raise UsageError(f"config {path} is not valid JSON: {exc}") from exc
    if not isinstance(cfg, dict):
        raise UsageError(f"config {path} must hold a JSON object at top level")
    if experiment not in _SCHEMAS:
        raise UsageError(f"unknown experiment {experiment!r}")
    _check_keys(cfg, _SCHEMAS[experiment], "")
    declared = cfg.get("experiment")
    if declared is not None and declared != experiment:
        raise UsageError(f"config declares experiment {declared!r} but "
                         f"{experiment!r} was requested")
    return cfg


# ---------------------------------------------------------------------------
# config -> domain objects
# ---------------------------------------------------------------------------

def _require(cfg: dict, key: str, experiment: str):
    if key not in cfg:
        raise UsageError(f"{experiment} config needs {key!r}")
    return cfg[key]


def _int_list(values, what: str, low: int | None = None) -> list[int]:
    if not isinstance(values, list) or not values:
        raise UsageError(f"{what} must be a nonempty list")
    out = []
    for v in values:
        if not isinstance(v, int) or isinstance(v, bool):
            raise UsageError(f"{what} entries must be integers, got {v!r}")
        if low is not None and v < low:
            raise UsageError(f"{what} entries must be >= {low}, got {v}")
        out.append(v)
    return out


def _float_list(values, what: str) -> list[float]:
    if not isinstance(values, list) or not values:
        raise UsageError(f"{what} must be a nonempty list")
    out = []
    for v in values:
        if not isinstance(v, (int, float)) or isinstance(v, bool):
            raise UsageError(f"{what} entries must be numbers, got {v!r}")
        out.append(float(v))
    return out


def _sampler_from(cfg) -> DistanceSampler:
    if cfg is None:
        return DistanceSampler()
    try:
        return DistanceSampler(
            kind=cfg.get("kind", "uniform"),
            low=float(cfg.get("low", 0.0)),
            high=float(cfg.get("high", 1.0)),
            value=float(cfg.get("value", 1.0)),
            symmetric=bool(cfg.get("symmetric", False)),
        )
    except (TypeError, ValueError) as exc:
        raise UsageError(f"bad sampler config: {exc}") from exc


def _dsq_policy_from(model_cfg: dict) -> DsqPolicy:
    try:
        return DsqPolicy(
            kind=model_cfg.get("dsq_policy", "parity"),
            sigma_d=float(model_cfg.get("sigma_d", 1.0)),
            seed=int(model_cfg.get("seed", 0)),
        )
    except (TypeError, ValueError) as exc:
        raise UsageError(f"bad d^2 policy config: {exc}") from exc


def _step_policy_from(cfg) -> StepPolicy:
    if cfg is None:
        return StepPolicy(track_ground_overlap=False)
    try:
        return StepPolicy(
            step_bound_factor=float(cfg.get("step_bound_factor", 0.1)),
            norm_tol=float(cfg.get("norm_tol", 1e-8)),
            samples_per_run=int(cfg.get("samples_per_run", 256)),
            track_ground_overlap=False,
        )
    except (TypeError, ValueError) as exc:
        raise UsageError(f"bad step policy config: {exc}") from exc


def _instance_from(cfg, default_seed: int) -> TspInstance:
    if cfg is None:
        raise UsageError("this model needs an 'instance' section")
    if "path" in cfg:
        path = Path(cfg["path"])
        if not path.exists():
            raise UsageError(f"instance file not found: {path}")
        try:
            return parse_instance(path, cfg.get("format", "tsplib"))
        except TspFormatError as exc:
            raise UsageError(f"could not parse {path}: {exc}") from exc
    if "cities" in cfg:
        m = cfg["cities"]
        if not isinstance(m, int) or isinstance(m, bool):
            raise UsageError("instance.cities must be an integer")
        try:
            return random_instance(
                m, int(cfg.get("seed", default_seed)), _sampler_from(cfg.get("sampler")),
                stream=int(cfg.get("stream", 0)), name=cfg.get("name"))
        except ValueError as exc:
            raise UsageError(f"bad instance config: {exc}") from exc
    raise UsageError("instance config needs either 'path' or 'cities'")


def _model_from(model_cfg, instance_cfg, default_seed: int) -> ModelBundle:
    if model_cfg is None:
        raise UsageError("config needs a 'model' section")
    kind = model_cfg.get("model")
    try:
        if kind == "grover":
            n = model_cfg.get("n")
            if not isinstance(n, int) or isinstance(n, bool):
                raise UsageError("grover model needs integer 'n'")
            return build_grover(n, int(model_cfg.get("marked", 0)))
        if kind in ("tsp-rank", "tsp-tuple", "tsp-finite"):
            inst = _instance_from(instance_cfg, default_seed)
            scale = float(model_cfg.get("alpha_scale", 1.0))
            n_max = model_cfg.get("n_max_override")
            if n_max is not None and (not isinstance(n_max, int) or isinstance(n_max, bool)):
                raise UsageError("n_max_override must be an integer")
            if kind == "tsp-rank":
                return build_tsp_rank(inst, alpha_sq=scale * math.factorial(inst.M),
                                      n_max=n_max)
            policy = _dsq_policy_from(model_cfg)
            if kind == "tsp-tuple":
                return build_tsp_tuple(inst, alpha_sq_per_mode=scale * inst.M,
                                       n_max=n_max, policy=policy)
            return build_tsp_finite(inst, policy=policy)
    except ValueError as exc:
        raise UsageError(f"bad model config: {exc}") from exc
    raise UsageError(f"model must be one of grover, tsp-rank, tsp-tuple, tsp-finite; "
                     f"got {kind!r}")


def _schedule_spec(cfg) -> tuple[str, float | None]:
    if cfg is None:
        return "linear", None
    kind = cfg.get("kind", "linear")
    eps = cfg.get("eps")
    if eps is not None and (not isinstance(eps, (int, float)) or isinstance(eps, bool)):
        raise UsageError(f"schedule.eps must be a number, got {eps!r}")
    return kind, (float(eps) if eps is not None else None)


def _resolve_betas(raw, mean: float, delta: float) -> list[float]:
    if raw is None:
        return [mean]
    if not isinstance(raw, list) or not raw:
        raise UsageError("betas must be a nonempty list")
    out = []
    for b in raw:
        if isinstance(b, str):
            if b == "mean":
                out.append(mean)
            elif b == "mean+delta":
                out.append(mean + delta)
            elif b == "mean-delta":
                out.append(mean - delta)
            else:
                raise UsageError(f"unknown beta word {b!r}; use {', '.join(BETA_WORDS)} "
                                 "or a number")
        elif isinstance(b, (int, float)) and not isinstance(b, bool):
            out.append(float(b))
        else:
            raise UsageError(f"beta entries must be numbers or words, got {b!r}")
    return out


def _t_grid(cfg: dict, experiment: str, base: float) -> list[tuple[str, float]]:
    """Resolve the run times: explicit t_values, or t_multipliers of t_min."""
    has_values = "t_values" in cfg
    has_mult = "t_multipliers" in cfg
    if has_values and has_mult:
        raise UsageError(f"{experiment} config must give t_values or t_multipliers, not both")
    if has_values:
        return [(f"T={t:g}", t) for t in _float_list(cfg["t_values"], "t_values")]
    mults = _float_list(cfg["t_multipliers"], "t_multipliers") if has_mult else [1.0]
    return [(f"{m:g}*t_min", m * base) for m in mults]


@dataclass(frozen=True)
class _Cell:
    """One evolve-and-audit run, resolved before any output is written."""

    bundle: ModelBundle
    label: str
    schedule: Schedule
    delta: float
    t_min: float
    mean: float
    betas: list[float]


def _audit_cells(bundle: ModelBundle, cfg: dict, experiment: str) -> list[_Cell]:
    """Every run of one model: its schedule, t_min and resolved betas."""
    kind, eps = _schedule_spec(cfg.get("schedule"))
    n = bundle.h_p.basis.dim
    delta = delta_ie(bundle.g_i, bundle.h_p)
    mean = expectation(bundle.h_p, bundle.g_i)
    betas = _resolve_betas(cfg.get("betas"), mean, delta)
    try:
        base = t_min(kind, delta, n=n, eps=eps)
        return [_Cell(bundle, label, make_schedule(kind, t, n=n, eps=eps), delta, base, mean, betas)
                for label, t in _t_grid(cfg, experiment, base)]
    except ValueError as exc:
        raise UsageError(f"bad schedule config for {bundle.name}: {exc}") from exc


# ---------------------------------------------------------------------------
# output plumbing
# ---------------------------------------------------------------------------

def _json_ready(obj):
    if isinstance(obj, dict):
        return {k: _json_ready(v) for k, v in obj.items()}
    if isinstance(obj, (list, tuple)):
        return [_json_ready(v) for v in obj]
    if isinstance(obj, (np.floating, np.integer)):
        return obj.item()
    if isinstance(obj, np.ndarray):
        return [_json_ready(v) for v in obj.tolist()]
    if isinstance(obj, float) and math.isnan(obj):
        return None
    return obj


def _canonical_json(obj) -> str:
    return json.dumps(_json_ready(obj), sort_keys=True, separators=(",", ":"))


class OutputDir:
    """Atomic writer that remembers every file it produced, with hashes."""

    def __init__(self, root: Path):
        self.root = Path(root)
        self.root.mkdir(parents=True, exist_ok=True)
        self.outputs: list[dict] = []

    def write_text(self, rel: str, text: str) -> None:
        dest = self.root / rel
        dest.parent.mkdir(parents=True, exist_ok=True)
        fd, tmp = tempfile.mkstemp(dir=dest.parent, prefix=f".{dest.name}.")
        try:
            with os.fdopen(fd, "w") as handle:
                handle.write(text)
            os.replace(tmp, dest)
        except BaseException:
            if os.path.exists(tmp):
                os.unlink(tmp)
            raise
        self.outputs.append({"file": rel,
                             "sha256": hashlib.sha256(text.encode()).hexdigest()})
        print(f"wrote {dest}", file=sys.stderr)

    def write_json(self, rel: str, obj) -> None:
        self.write_text(rel, json.dumps(_json_ready(obj), indent=2) + "\n")

    def write_series(self, rel: str, header: str, columns) -> None:
        """Whitespace-separated plot data with a self-describing '#' header."""
        cols = [np.asarray(c, dtype=float) for c in columns]
        lines = [f"# {header}"]
        for row in zip(*cols):
            lines.append(" ".join(repr(float(v)) for v in row))
        self.write_text(rel, "\n".join(lines) + "\n")


def _finish_manifest(out: OutputDir, experiment: str, cfg: dict, rows) -> dict:
    body = {
        "experiment": experiment,
        "version": __version__,
        "config": cfg,
        "rows": rows,
        "outputs": out.outputs,
    }
    manifest = dict(body)
    manifest["content_hash"] = hashlib.sha256(_canonical_json(body).encode()).hexdigest()
    manifest["wallclock_utc"] = time.strftime("%Y-%m-%dT%H:%M:%SZ", time.gmtime())
    out.write_json("manifest.json", manifest)
    return manifest


def _print_table(header: list[str], rows: list[list[str]]) -> None:
    widths = [max(len(header[i]), *(len(r[i]) for r in rows)) if rows else len(header[i])
              for i in range(len(header))]
    fmt = "  ".join(f"{{:<{w}}}" for w in widths)
    print(fmt.format(*header))
    for row in rows:
        print(fmt.format(*row))


def _pool_map(fn, cells, threads: int):
    """Run cells in a bounded pool; results come back in submission order."""
    if threads <= 1 or len(cells) <= 1:
        return [fn(c) for c in cells]
    with ThreadPoolExecutor(max_workers=threads) as pool:
        return list(pool.map(fn, cells))


# ---------------------------------------------------------------------------
# experiments
# ---------------------------------------------------------------------------

def _audit_one(cell: _Cell, step: StepPolicy) -> tuple[BoundReport, dict]:
    bundle, schedule = cell.bundle, cell.schedule
    result = evolve(bundle.h_i, bundle.h_p, schedule, step)
    margins = verify_distance_bound(result.state, bundle.g_i, bundle.e_i0,
                                    bundle.h_p, schedule, cell.betas)
    report = BoundReport(
        model=bundle.name, schedule_kind=schedule.kind, t_total=schedule.t_total,
        delta_ie=cell.delta, integral_g=schedule_integral(schedule, "g"),
        t_min=cell.t_min, beta_star=cell.mean, margins=margins,
    )
    success = success_probability(result.state, bundle.target_indices)
    row = {
        "model": bundle.name,
        "schedule": schedule.kind,
        "t_total": schedule.t_total,
        "delta_ie": cell.delta,
        "t_min": report.t_min,
        "success_prob": success,
        "slack_min": report.worst_slack(),
        "cap_slack_min": min(m.cap_slack for m in margins),
        "norm_drift": result.max_drift,
        "n_steps": result.n_steps,
        "alpha_cost": bundle.budget.alpha_cost,
        "path_norm_bound": bundle.budget.linear_path_norm_bound,
        "t_label": cell.label,
    }
    return report, row


def _check_run_invariants(cell: dict) -> None:
    if cell["slack_min"] < SLACK_TOL:
        raise InvariantViolation(
            f"distance bound violated: slack {cell['slack_min']:.3e} < {SLACK_TOL:.1e} "
            f"(model {cell['model']}, T={cell['t_total']:g})")
    if cell["cap_slack_min"] < SLACK_TOL:
        raise InvariantViolation(
            f"distance cap violated: 2 - distance = {cell['cap_slack_min']:.3e} "
            f"(model {cell['model']}, T={cell['t_total']:g})")


def _run_grover_sweep(plan: dict, out: OutputDir, threads: int) -> list[dict]:
    def work(cell):
        report, row = _audit_one(cell, plan["step"])
        row["n"] = cell.bundle.h_p.basis.dim
        return report, row

    results = _pool_map(work, plan["cells"], threads)
    rows = []
    for idx, (report, cell) in enumerate(results):
        out.write_json(f"cells/cell-{idx:03d}.json", cell)
        rows.append(cell)
    csv_lines = ["N,delta_ie,t_min,success_prob,slack_min"]
    for cell in rows:
        csv_lines.append(f"{cell['n']},{cell['delta_ie']!r},{cell['t_min']!r},"
                         f"{cell['success_prob']!r},{cell['slack_min']!r}")
    out.write_text("sweep.csv", "\n".join(csv_lines) + "\n")
    out.write_series("tmin-vs-sqrtN.dat", "sqrt(N) t_min",
                     ([math.sqrt(c["n"]) for c in rows], [c["t_min"] for c in rows]))
    out.write_series("success-vs-N.dat", "N success_prob",
                     ([c["n"] for c in rows], [c["success_prob"] for c in rows]))
    _print_table(["N", "delta_ie", "t_min", "T", "success", "slack_min"],
                 [[str(c["n"]), f"{c['delta_ie']:.6g}", f"{c['t_min']:.6g}",
                   f"{c['t_total']:.6g}", f"{c['success_prob']:.6f}",
                   f"{c['slack_min']:.3e}"] for c in rows])
    for cell in rows:
        _check_run_invariants(cell)
    return rows


def _run_model_audit(plan: dict, out: OutputDir, threads: int) -> list[dict]:
    results = _pool_map(lambda cell: _audit_one(cell, plan["step"]), plan["cells"], threads)
    rows = []
    for idx, (report, cell) in enumerate(results):
        out.write_json(f"cells/cell-{idx:03d}.json", cell)
        out.write_text(f"cells/margins-{idx:03d}.csv", report.to_csv())
        out.write_text(f"cells/report-{idx:03d}.json", report.to_json() + "\n")
        rows.append(cell)
    out.write_series("slack-vs-T.dat", "t_total slack_min",
                     ([c["t_total"] for c in rows], [c["slack_min"] for c in rows]))
    out.write_series("success-vs-T.dat", "t_total success_prob",
                     ([c["t_total"] for c in rows], [c["success_prob"] for c in rows]))
    _print_table(
        ["model", "schedule", "T", "delta_ie", "t_min", "success", "slack_min", "alpha_cost"],
        [[c["model"], c["schedule"], f"{c['t_total']:.6g}", f"{c['delta_ie']:.6g}",
          f"{c['t_min']:.6g}", f"{c['success_prob']:.6f}", f"{c['slack_min']:.3e}",
          f"{c['alpha_cost']:g}"] for c in rows])
    for cell in rows:
        _check_run_invariants(cell)
    return rows


def _run_sigma_scan(plan: dict, out: OutputDir, threads: int) -> list[dict]:
    report = sigma_scaling_study(plan["sampler"], plan["m_values"], plan["samples"], plan["seed"])
    out.write_text("sigma.csv", report.to_csv())
    rows = [{"m": r.m, "samples": r.samples, "sigma_mean": r.sigma_mean,
             "sigma_stderr": r.sigma_stderr, "ratio_sqrtM": r.ratio_sqrtm}
            for r in report.rows]
    out.write_series("sigma-vs-sqrtM.dat", "sqrt(M) sigma_mean ratio_sqrtM",
                     ([math.sqrt(r["m"]) for r in rows],
                      [r["sigma_mean"] for r in rows],
                      [r["ratio_sqrtM"] for r in rows]))
    _print_table(["M", "samples", "sigma_mean", "stderr", "sigma/sqrt(M)"],
                 [[str(r["m"]), str(r["samples"]), f"{r['sigma_mean']:.6g}",
                   f"{r['sigma_stderr']:.2e}", f"{r['ratio_sqrtM']:.6g}"] for r in rows])
    return rows


def _run_gap_scan(plan: dict, out: OutputDir, threads: int) -> list[dict]:
    bundle, schedule = plan["bundle"], plan["schedule"]
    report = gap_scan(bundle.h_i, bundle.h_p, schedule, grid=plan["grid"],
                      refine_rounds=plan["rounds"])
    out.write_text("gap.json", report.to_json() + "\n")
    out.write_text("gap.csv", report.to_csv())
    out.write_series("E0.dat", "s E0", (report.s_grid, report.e0))
    out.write_series("E1.dat", "s E1", (report.s_grid, report.e1))
    out.write_series("gap.dat", "s gap", (report.s_grid, report.e1 - report.e0))
    row = {"model": bundle.name, "schedule": schedule.kind, "g_min": report.g_min,
           "s_at_min": report.s_at_min, "t_adb": report.t_adb, "dh_norm": report.dh_norm}
    _print_table(["model", "schedule", "g_min", "s_at_min", "t_adb"],
                 [[row["model"], row["schedule"], f"{row['g_min']:.8g}",
                   f"{row['s_at_min']:.6g}", f"{row['t_adb']:.6g}"]])
    return [row]


def _run_fraction_decay(plan: dict, out: OutputDir, threads: int) -> list[dict]:
    report = tour_fraction_decay(plan["m_values"])
    out.write_text("fraction.csv", report.to_csv())
    rows = [{"m": r.m, "exact_ratio": r.exact_ratio, "stirling": r.stirling,
             "stirling_rel_dev": r.stirling_rel_dev, "sqrt_m_form": r.sqrt_m_form,
             "sqrt_m_form_rel_dev": r.sqrt_m_form_rel_dev, "log_exact": r.log_exact}
            for r in report.rows]
    out.write_series("fraction-vs-M.dat", "M exact_ratio",
                     ([r["m"] for r in rows], [r["exact_ratio"] for r in rows]))
    out.write_series("log-fraction-vs-M.dat", "M log_exact",
                     ([r["m"] for r in rows], [r["log_exact"] for r in rows]))
    _print_table(["M", "exact", "stirling_dev", "sqrtM_form_dev", "log_exact"],
                 [[str(r["m"]), f"{r['exact_ratio']:.6e}", f"{r['stirling_rel_dev']:.4%}",
                   f"{r['sqrt_m_form_rel_dev']:.4%}", f"{r['log_exact']:.6g}"] for r in rows])
    return rows


_RUNNERS = {
    "grover-sweep": _run_grover_sweep,
    "tsp-run": _run_model_audit,
    "bound-audit": _run_model_audit,
    "sigma-scan": _run_sigma_scan,
    "gap-scan": _run_gap_scan,
    "fraction-decay": _run_fraction_decay,
}


# ---------------------------------------------------------------------------
# preflight: everything a run needs, built before any output exists
# ---------------------------------------------------------------------------

def _model_checks(bundle: ModelBundle) -> list[tuple[str, str]]:
    return [("model build", f"ok ({bundle.name}, dim {bundle.h_p.basis.dim})"),
            ("energy budget", f"alpha_cost {bundle.budget.alpha_cost:g}, "
                              f"path bound {bundle.budget.linear_path_norm_bound:g}"),
            ("spread", f"delta_ie {delta_ie(bundle.g_i, bundle.h_p):.6g}")]


def _run_times(cells: list[_Cell]) -> tuple[str, str]:
    return "run times", ", ".join(f"{c.schedule.t_total:.4g}" for c in cells)


def _plan_grover_sweep(cfg: dict, seed: int) -> dict:
    n_values = _int_list(_require(cfg, "n_values", "grover-sweep"), "n_values")
    marked = cfg.get("marked", 0)
    if not isinstance(marked, int) or isinstance(marked, bool):
        raise UsageError(f"marked must be an integer, got {marked!r}")
    cells = []
    for n in n_values:
        try:
            bundle = build_grover(n, marked)
        except ValueError as exc:
            raise UsageError(f"bad grover cell n={n}: {exc}") from exc
        cells += _audit_cells(bundle, cfg, "grover-sweep")
    return {"cells": cells, "step": _step_policy_from(cfg.get("step_policy")),
            "checks": [("grover cells", f"ok ({len(n_values)} models)"), _run_times(cells)]}


def _plan_model_audit(cfg: dict, seed: int, experiment: str) -> dict:
    bundle = _model_from(cfg.get("model"), cfg.get("instance"), seed)
    cells = _audit_cells(bundle, cfg, experiment)
    return {"cells": cells, "step": _step_policy_from(cfg.get("step_policy")),
            "checks": [*_model_checks(bundle), _run_times(cells)]}


def _plan_sigma_scan(cfg: dict, seed: int) -> dict:
    m_values = _int_list(_require(cfg, "m_values", "sigma-scan"), "m_values")
    for m in m_values:
        if not 3 <= m <= MAX_ENUM_CITIES:
            raise UsageError(f"sigma-scan m={m} outside exact-enumeration range "
                             f"3..{MAX_ENUM_CITIES}")
    samples = cfg.get("samples", 200)
    if not isinstance(samples, int) or isinstance(samples, bool) or samples < 1:
        raise UsageError("samples must be a positive integer")
    return {"m_values": m_values, "samples": samples, "seed": seed,
            "sampler": _sampler_from(cfg.get("sampler")), "checks": [("m range", "ok")]}


def _plan_gap_scan(cfg: dict, seed: int) -> dict:
    bundle = _model_from(cfg.get("model"), cfg.get("instance"), seed)
    kind, eps = _schedule_spec(cfg.get("schedule"))
    t_total = cfg.get("t_total", 1.0)
    grid = cfg.get("grid", 201)
    rounds = cfg.get("refine_rounds", 3)
    if not isinstance(t_total, (int, float)) or isinstance(t_total, bool):
        raise UsageError(f"t_total must be a number, got {t_total!r}")
    if not isinstance(grid, int) or isinstance(grid, bool) or grid < 3:
        raise UsageError("grid must be an integer >= 3")
    if not isinstance(rounds, int) or isinstance(rounds, bool) or rounds < 0:
        raise UsageError("refine_rounds must be a nonnegative integer")
    try:
        schedule = make_schedule(kind, float(t_total), n=bundle.h_p.basis.dim, eps=eps)
    except ValueError as exc:
        raise UsageError(f"bad schedule config for {bundle.name}: {exc}") from exc
    return {"bundle": bundle, "schedule": schedule, "grid": grid, "rounds": rounds,
            "checks": [*_model_checks(bundle), ("schedule", f"{kind}, T={schedule.t_total:g}")]}


def _plan_fraction_decay(cfg: dict, seed: int) -> dict:
    m_values = _int_list(_require(cfg, "m_values", "fraction-decay"), "m_values", low=1)
    return {"m_values": m_values, "checks": [("m values", "ok")]}


_PREFLIGHTS = {
    "grover-sweep": _plan_grover_sweep,
    "tsp-run": lambda cfg, seed: _plan_model_audit(cfg, seed, "tsp-run"),
    "bound-audit": lambda cfg, seed: _plan_model_audit(cfg, seed, "bound-audit"),
    "sigma-scan": _plan_sigma_scan,
    "gap-scan": _plan_gap_scan,
    "fraction-decay": _plan_fraction_decay,
}


def run_experiment(experiment: str, cfg: dict, out_dir, threads: int, seed: int) -> dict:
    """Execute one experiment config and return its manifest.

    The same preflight as ``validate`` runs first, so a config error raises
    :class:`UsageError` before the output directory is created.
    """
    plan = _PREFLIGHTS[experiment](cfg, seed)
    out = OutputDir(Path(out_dir))
    rows = _RUNNERS[experiment](plan, out, threads)
    return _finish_manifest(out, experiment, cfg, rows)


def _validate(experiment: str, cfg: dict, seed: int) -> None:
    """Dry run: the run's own preflight, then its checks as a table."""
    plan = _PREFLIGHTS[experiment](cfg, seed)
    _print_table(["check", "result"], [["config keys", "ok"], *plan["checks"]])


# ---------------------------------------------------------------------------
# entry point
# ---------------------------------------------------------------------------

class _Parser(argparse.ArgumentParser):
    def error(self, message):  # usage problems must exit 1, not argparse's 2
        raise UsageError(message)


def _build_parser() -> argparse.ArgumentParser:
    parser = _Parser(prog="adiabound",
                     description="Adiabatic-evolution bound experiments, config driven.")
    sub = parser.add_subparsers(dest="experiment", metavar="<experiment>")
    for name in (*EXPERIMENTS, "validate"):
        p = sub.add_parser(name, help=f"run the {name} experiment"
                           if name != "validate" else "dry-run a config against budgets")
        p.add_argument("--config", required=True, help="path to a JSON experiment config")
        p.add_argument("--out", default=None, help="output directory (default from config)")
        p.add_argument("--threads", type=int, default=None,
                       help="worker threads (fallback: ADIABOUND_THREADS, then config)")
        p.add_argument("--seed", type=int, default=None,
                       help="base seed override (fallback: config, then 0)")
    return parser


def _resolve_threads(flag: int | None, cfg: dict) -> int:
    if flag is not None:
        value = flag
    elif os.environ.get("ADIABOUND_THREADS"):
        try:
            value = int(os.environ["ADIABOUND_THREADS"])
        except ValueError as exc:
            raise UsageError(f"ADIABOUND_THREADS must be an integer: "
                             f"{os.environ['ADIABOUND_THREADS']!r}") from exc
    else:
        value = cfg.get("threads", 1)
        if not isinstance(value, int) or isinstance(value, bool):
            raise UsageError("config 'threads' must be an integer")
    if value < 1:
        raise UsageError(f"threads must be >= 1, got {value}")
    return value


def _resolve_seed(flag: int | None, cfg: dict) -> int:
    if flag is not None:
        return flag
    value = cfg.get("seed", 0)
    if not isinstance(value, int) or isinstance(value, bool):
        raise UsageError("config 'seed' must be an integer")
    return value


def main(argv=None) -> int:
    parser = _build_parser()
    try:
        args = parser.parse_args(argv)
        if args.experiment is None:
            raise UsageError("pick an experiment: " + ", ".join((*EXPERIMENTS, "validate")))
        if args.experiment == "validate":
            cfg_path = Path(args.config)
            if not cfg_path.exists():
                raise UsageError(f"config file not found: {cfg_path}")
            try:
                declared = json.loads(cfg_path.read_text()).get("experiment")
            except (json.JSONDecodeError, AttributeError) as exc:
                raise UsageError(f"config {cfg_path} is not a valid JSON object: {exc}") from exc
            if declared not in _SCHEMAS:
                raise UsageError(f"config must declare its experiment; got {declared!r}")
            cfg = load_config(cfg_path, declared)
            _validate(declared, cfg, _resolve_seed(args.seed, cfg))
            return 0
        cfg = load_config(args.config, args.experiment)
        threads = _resolve_threads(args.threads, cfg)
        seed = _resolve_seed(args.seed, cfg)
        out_dir = args.out or cfg.get("out_dir")
        if out_dir is None:
            raise UsageError("give --out or set out_dir in the config")
        run_experiment(args.experiment, cfg, out_dir, threads, seed)
        return 0
    except UsageError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 1
    except InvariantViolation as exc:
        print(f"invariant violation: {exc}", file=sys.stderr)
        return 2
    except RuntimeError as exc:
        # numeric guards (norm drift, eigensolver budgets) abort mid-run
        print(f"invariant violation: {exc}", file=sys.stderr)
        return 2


if __name__ == "__main__":
    sys.exit(main())
