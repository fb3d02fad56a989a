"""Config-driven command line front end.

Usage:
    adiabound <experiment> --config <path> [--out <dir>] [--threads <n>] [--seed <u64>]
    adiabound validate --config <path>

Experiments: grover-sweep, bound-audit, sigma-scan, gap-scan,
fraction-decay.  Configs are JSON checked against one typed schema per
experiment (see README); unknown keys and wrong JSON types are hard errors.
All outputs are written atomically and listed in a manifest.json carrying a
deterministic content hash, so reruns of the same config can be
byte-audited.  Exit codes: 0 success, 1 usage error,
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
from collections.abc import Callable
from dataclasses import asdict, astuple, dataclass
from pathlib import Path

import numpy as np

from . import __version__
from .bounds import (
    SLACK_TOL,
    BoundReport,
    delta_ie,
    gap_scan,
    residual_norm,
    t_min,
    verify_distance_bound,
)
from .evolution import (
    Schedule,
    StepPolicy,
    evolve,
    make_schedule,
    plan_steps,
    schedule_integral,
    success_probability,
)
from .hilbert import InvariantSector, NumericGuardError, expectation
from .models import (
    ModelBundle,
    build_grover,
    build_tsp_finite,
    build_tsp_rank,
    build_tsp_tuple,
    invariant_sector,
)
from .tsp import (
    MAX_SPREAD_CITIES,
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

#: special beta spellings resolved against the built model
BETA_WORDS = ("mean", "mean+delta", "mean-delta")
#: gap-scan grid points and sigma-scan samples per size, each held in memory
MAX_GRID = 100_000
MAX_SAMPLES = 1_000_000


class UsageError(Exception):
    """Bad invocation or config; maps to exit code 1."""


class InvariantViolation(Exception):
    """A run crossed a hard tolerance; maps to exit code 2."""


# ---------------------------------------------------------------------------
# config schema: one typed table per experiment, checked by one walker
# ---------------------------------------------------------------------------

#: schema default of a key that the config must give
_REQUIRED = object()

# A leaf is (type, default), (type, default, low) or (type, default, low,
# high).  [type] is a nonempty list of that type, a tuple of types accepts any
# one of them, and a dict is a nested object whose absent keys take their own
# defaults.
_STEP_SCHEMA = {"step_bound_factor": (float, 0.1), "norm_tol": (float, 1e-8),
                "samples_per_run": (int, 256)}
_SCHEDULE_SCHEMA = {"kind": (str, "linear")}
_SAMPLER_SCHEMA = {"kind": (str, "uniform"), "low": (float, 0.0), "high": (float, 1.0),
                   "value": (float, 1.0), "symmetric": (bool, False)}
_MODEL_SCHEMA = {"model": (str, _REQUIRED), "n": (int, None), "marked": (int, 0),
                 "alpha_scale": (float, 1.0), "n_max_override": (int, None),
                 "dsq_policy": (str, "parity"), "sigma_d": (float, 1.0), "seed": (int, 0, 0)}
_INSTANCE_SCHEMA = {"path": (str, None), "format": (str, "tsplib"), "cities": (int, None),
                    "seed": (int, None, 0), "stream": (int, 0), "name": (str, None),
                    "sampler": _SAMPLER_SCHEMA}
_COMMON = {"experiment": (str, None), "out_dir": (str, None), "seed": (int, 0, 0),
           "threads": (int, 1, 1)}
#: shared keys that no output reads, so the hashed config leaves them out;
#: :func:`_preflight` drops step_policy.samples_per_run for the same reason
_UNHASHED = ("out_dir", "threads")
_TIMED = {"schedule": _SCHEDULE_SCHEMA, "t_multipliers": ([float], None),
          "t_values": ([float], None), "betas": ([(float, str)], ["mean"]),
          "step_policy": _STEP_SCHEMA}

#: keys that one config object may not give together
_EXCLUSIVE = (("t_values", "t_multipliers"), ("path", "cities"))
#: the model keys each model kind reads; it rejects every other one
_MODEL_READS = {"grover": ("n", "marked"), "tsp-rank": ("alpha_scale", "n_max_override"),
                "tsp-tuple": ("alpha_scale", "n_max_override", "dsq_policy", "sigma_d", "seed"),
                "tsp-finite": ("dsq_policy", "sigma_d", "seed")}
#: instance keys that only a sampled instance reads
_SAMPLED_ONLY = ("seed", "stream", "name", "sampler")
#: the keys that each d^2 policy kind, and each sampler kind, reads of its object
_POLICY_READS = {"parity": (), "random": ("sigma_d", "seed")}
_SAMPLER_READS = {"uniform": ("low", "high"), "constant": ("value",)}

#: python type -> (JSON values it accepts, name in error messages)
_JSON_TYPES = {int: (int, "an integer"), float: ((int, float), "a number"),
               str: (str, "a string"), bool: (bool, "true or false")}


def _shown(value) -> str:
    """A config value as an error message shows it: its JSON text, or its
    repr when JSON cannot encode it (a library caller's Path or numpy int)."""
    try:
        return json.dumps(value)
    except (TypeError, ValueError):
        return repr(value)


def _leaf(value, typ, limits: list, where: str):
    """One checked config value, converted to ``typ``; a bool is never a
    number, and a number must be finite and inside ``limits`` (low, high)."""
    if isinstance(typ, list):
        if not isinstance(value, list) or not value:
            raise UsageError(f"{where} must be a nonempty list, got {_shown(value)}")
        return [_leaf(v, typ[0], limits, f"{where}[{i}]") for i, v in enumerate(value)]
    kinds = typ if isinstance(typ, tuple) else (typ,)
    kind = next((k for k in kinds if isinstance(value, _JSON_TYPES[k][0])
                 and (k is bool or not isinstance(value, bool))), None)
    if kind is None:
        names = " or ".join(_JSON_TYPES[k][1] for k in kinds)
        raise UsageError(f"{where} must be {names}, got {_shown(value)}")
    try:
        out = kind(value)
    except OverflowError:  # an integer beyond the float range
        raise UsageError(f"{where} is too large for a number") from None
    if kind is float and not math.isfinite(out):  # json reads NaN and Infinity
        raise UsageError(f"{where} must be a finite number, got {_shown(value)}")
    if limits and out < limits[0]:
        raise UsageError(f"{where} must be >= {limits[0]}, got {value}")
    if limits[1:] and out > limits[1]:
        raise UsageError(f"{where} must be <= {limits[1]}, got {value}")
    return out


def _typed(obj, schema: dict, path: str = "", fill: bool = True) -> dict:
    """Check a config object against its schema and return a typed copy.

    Unknown keys, wrong JSON types, missing required keys and an
    ``_EXCLUSIVE`` pair given together raise :class:`UsageError`.  Absent
    keys take their defaults; an explicit null counts as absent only where
    the default is None.  With ``fill=False`` the copy holds only the keys
    given, at every level, less each null and each empty object: the config
    as the manifest hashes it, one copy however an absent key is spelled.
    """
    if not isinstance(obj, dict):
        raise UsageError(f"{path[:-1] or 'config'} must be an object, got {_shown(obj)}")
    for key in obj:
        if key not in schema:
            allowed = ", ".join(sorted(schema))
            raise UsageError(f"unknown key {path + key!r}; allowed keys: {allowed}")
    out = {}
    for key, spec in schema.items():
        where = path + key
        if isinstance(spec, dict):
            sub = _typed(obj.get(key, {}), spec, where + ".", fill)
            if fill or sub:
                out[key] = sub
            continue
        typ, default, *limits = spec
        if key in obj and not (obj[key] is None and default is None):
            out[key] = _leaf(obj[key], typ, limits, where)
        elif default is _REQUIRED:
            raise UsageError(f"config needs {where!r}")
        elif fill:
            out[key] = default
    for a, b in _EXCLUSIVE:
        if out.get(a) is not None and out.get(b) is not None:
            raise UsageError(f"config must give {path + a} or {path + b}, not both")
    return out


def _kind_reads(obj: dict, kind: str, reads: dict, where: str, label: str) -> None:
    """Reject a key of ``obj`` that only another kind of ``reads`` reads; an
    unknown kind is left for its constructor to name."""
    if kind in reads:
        for key in sorted({k for keys in reads.values() for k in keys} - {*reads[kind]}):
            if key in obj:
                raise UsageError(f"{where}{key} is not read by {label} {kind}")


def _unread_keys(raw: dict, cfg: dict) -> None:
    """Reject a key that the run never reads: it would move the manifest hash
    and nothing else.  ``raw`` is the config as given, where a null counts as
    absent, and ``cfg`` its typed copy, whose defaults name each kind."""
    if "sampler" in raw:  # sigma-scan's
        _kind_reads(raw["sampler"], cfg["sampler"]["kind"], _SAMPLER_READS, "sampler.", "sampler")
    if "model" not in raw:
        return
    model = {k: v for k, v in raw["model"].items() if v is not None}
    kind = cfg["model"]["model"]
    reads = _MODEL_READS.get(kind)
    if reads is None:  # _model_from names the unknown kind
        return
    for key in model:
        if key not in (*reads, "model"):
            raise UsageError(f"model.{key} is not read by model {kind}")
    if "dsq_policy" in reads:
        _kind_reads(model, cfg["model"]["dsq_policy"], _POLICY_READS, "model.", "dsq_policy")
    inst = {k: v for k, v in raw.get("instance", {}).items() if v is not None}
    if inst and kind == "grover":
        raise UsageError(f"instance.{min(inst)} is not read by model grover")
    if "path" in inst:
        for key in _SAMPLED_ONLY:
            if key in inst:
                raise UsageError(f"instance.{key} is not read with instance.path")
    elif "format" in inst:
        raise UsageError("instance.format is read only with instance.path")
    elif "sampler" in inst:
        _kind_reads(inst["sampler"], cfg["instance"]["sampler"]["kind"], _SAMPLER_READS,
                    "instance.sampler.", "sampler")


def _reads_seed(experiment: str, cfg: dict) -> bool:
    """Whether the run reads the top-level ``seed``: sigma-scan's samples do,
    and so does a sampled TSP instance that gives no seed of its own."""
    if experiment == "sigma-scan":
        return True
    inst = cfg.get("instance")
    return (inst is not None and cfg["model"]["model"] != "grover"
            and inst["path"] is None and inst["seed"] is None)


def load_config(path) -> dict:
    """Read a JSON config file and return it as parsed; the preflight that
    ``validate`` and every run share checks it."""
    path = Path(path)
    if not path.exists():
        raise UsageError(f"config file not found: {path}")
    try:
        return json.loads(path.read_text())
    except json.JSONDecodeError as exc:
        raise UsageError(f"config {path} is not valid JSON: {exc}") from exc


# ---------------------------------------------------------------------------
# typed config -> domain objects
# ---------------------------------------------------------------------------

def _instance_from(cfg: dict, default_seed: int) -> TspInstance:
    if cfg["path"] is not None:
        path = Path(cfg["path"])
        if not path.exists():
            raise UsageError(f"instance file not found: {path}")
        try:
            return parse_instance(path, cfg["format"])
        except TspFormatError as exc:
            raise UsageError(f"could not parse {path}: {exc}") from exc
    if cfg["cities"] is None:
        raise UsageError("instance config needs either 'path' or 'cities'")
    seed = default_seed if cfg["seed"] is None else cfg["seed"]
    return random_instance(cfg["cities"], seed, DistanceSampler(**cfg["sampler"]),
                           stream=cfg["stream"], name=cfg["name"])


def _model_from(cfg: dict) -> ModelBundle:
    model = cfg["model"]
    kind = model["model"]
    if kind not in _MODEL_READS:
        raise UsageError(f"model must be one of {', '.join(_MODEL_READS)}; got {kind!r}")
    if kind == "grover":
        if model["n"] is None:
            raise UsageError("grover model needs integer 'n'")
        return build_grover(model["n"], model["marked"])
    inst = _instance_from(cfg["instance"], cfg["seed"])
    scale, n_max = model["alpha_scale"], model["n_max_override"]
    if kind == "tsp-rank":
        return build_tsp_rank(inst, alpha_sq=scale * math.factorial(inst.M), n_max=n_max)
    policy = DsqPolicy(kind=model["dsq_policy"], sigma_d=model["sigma_d"], seed=model["seed"])
    if kind == "tsp-tuple":
        return build_tsp_tuple(inst, alpha_sq_per_mode=scale * inst.M, n_max=n_max,
                               policy=policy)
    return build_tsp_finite(inst, policy=policy)


def _resolve_betas(raw: list, mean: float, delta: float) -> list[float]:
    words = dict(zip(BETA_WORDS, (mean, mean + delta, mean - delta)))
    for b in raw:
        if isinstance(b, str) and b not in words:
            raise UsageError(f"unknown beta word {b!r}; use {', '.join(BETA_WORDS)} "
                             "or a number")
    return [words[b] if isinstance(b, str) else b for b in raw]


def _t_grid(cfg: dict, base: float) -> list[tuple[str, float]]:
    """Resolve the run times: explicit t_values, or t_multipliers of t_min."""
    if cfg["t_values"] is not None:
        return [(f"T={t:g}", t) for t in cfg["t_values"]]
    return [(f"{m:g}*t_min", m * base) for m in cfg["t_multipliers"] or [1.0]]


@dataclass(frozen=True)
class _Cell:
    """One evolve-and-audit run, resolved before any output is written.

    ``space`` is what the run evolves and audits: the model's invariant
    sector where it has one, else the model itself.  Everything else comes
    from the full model.
    """

    bundle: ModelBundle
    space: InvariantSector | ModelBundle
    label: str
    schedule: Schedule
    delta: float
    t_min: float
    mean: float
    betas: list[float]


def _audit_cells(bundle: ModelBundle, cfg: dict) -> list[_Cell]:
    """Every run of one model: its schedule, t_min and resolved betas.  Each
    beta's denominator ||(H_P - beta) g_I||, and its phase beta * int g in
    every cell, must be finite."""
    kind = cfg["schedule"]["kind"]
    n = bundle.h_p.basis.dim
    delta = delta_ie(bundle.g_i, bundle.h_p)
    mean = expectation(bundle.h_p, bundle.g_i)
    betas = _resolve_betas(cfg["betas"], mean, delta)
    base = t_min(kind, delta, n=n)
    space = invariant_sector(bundle) or bundle
    cells = [_Cell(bundle, space, label, make_schedule(kind, t, n=n), delta, base, mean, betas)
             for label, t in _t_grid(cfg, base)]
    for beta in betas:
        with np.errstate(over="ignore"):  # an overflow is what this check looks for
            denominator = residual_norm(space.g_i, space.h_p, beta)
        if not math.isfinite(denominator):
            raise UsageError(f"beta {beta:g} gives a denominator ||(H_P - beta) g_I|| "
                             "that is not finite")
        for cell in cells:
            if not math.isfinite(beta * schedule_integral(cell.schedule, "g")):
                raise UsageError(f"beta {beta:g} gives a phase beta * int g that is not "
                                 f"finite at T={cell.schedule.t_total:g}")
    return cells


# ---------------------------------------------------------------------------
# output plumbing
# ---------------------------------------------------------------------------

def strict_json(obj, **dump_args) -> str:
    """RFC 8259 JSON text of ``obj``: numpy values become plain ones and every
    non-finite float becomes null, which ``allow_nan=False`` then enforces."""
    return json.dumps(_plain(obj), allow_nan=False, **dump_args)


def _plain(obj):
    if isinstance(obj, (np.ndarray, np.generic)):
        obj = obj.tolist()
    if isinstance(obj, dict):
        return {k: _plain(v) for k, v in obj.items()}
    if isinstance(obj, (list, tuple)):
        return [_plain(v) for v in obj]
    if isinstance(obj, float) and not math.isfinite(obj):
        return None
    return obj


def _field(value) -> str:
    """One number of a CSV or series row: an int (a bool as 0 or 1) as written,
    anything else as the repr of its float, which reads back bit for bit."""
    return str(int(value)) if isinstance(value, int) else repr(float(value))


def _canonical_json(obj) -> str:
    return strict_json(obj, sort_keys=True, separators=(",", ":"))


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
        self.write_text(rel, strict_json(obj, indent=2) + "\n")

    def write_rows(self, rel: str, header: str, rows, sep: str = ",") -> None:
        """A header line, then one line of :func:`_field` numbers per row."""
        lines = [header, *(sep.join(map(_field, row)) for row in rows)]
        self.write_text(rel, "\n".join(lines) + "\n")

    def write_series(self, rel: str, header: str, columns) -> None:
        """Whitespace-separated plot data with a self-describing '#' header;
        every column is written as floats."""
        cols = [np.asarray(c, dtype=float) for c in columns]
        self.write_rows(rel, f"# {header}", zip(*cols), sep=" ")


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


# ---------------------------------------------------------------------------
# experiments
# ---------------------------------------------------------------------------

def _audit_one(cell: _Cell, step: StepPolicy) -> tuple[BoundReport, dict]:
    bundle, space, schedule = cell.bundle, cell.space, cell.schedule
    result = evolve(space.h_i, space.h_p, schedule, step, psi0=space.g_i)
    margins = verify_distance_bound(result.state, space.g_i, bundle.e_i0,
                                    space.h_p, schedule, cell.betas)
    report = BoundReport(
        model=bundle.name, schedule_kind=schedule.kind, t_total=schedule.t_total,
        delta_ie=cell.delta, integral_g=schedule_integral(schedule, "g"),
        t_min=cell.t_min, beta_star=cell.mean, margins=margins,
    )
    success = success_probability(result.state, space.target_indices)
    row = {
        "model": bundle.name,
        "schedule": schedule.kind,
        "t_total": schedule.t_total,
        "delta_ie": cell.delta,
        "t_min": report.t_min,
        "success_prob": success,
        "slack_min": report.worst_slack(),
        "cap_slack_min": float(np.min([m.cap_slack for m in margins])),
        "norm_drift": result.max_drift,
        "n_steps": result.n_steps,
        "alpha_cost": bundle.budget.alpha_cost,
        "path_norm_bound": bundle.budget.linear_path_norm_bound,
        "t_label": cell.label,
    }
    return report, row


def _check_run_invariants(cell: dict) -> None:
    """Both checks are written so that a NaN fails them."""
    if not cell["slack_min"] >= SLACK_TOL:
        raise InvariantViolation(
            f"distance bound violated: slack {cell['slack_min']:.3e} < {SLACK_TOL:.1e} "
            f"(model {cell['model']}, T={cell['t_total']:g})")
    if not cell["cap_slack_min"] >= SLACK_TOL:
        raise InvariantViolation(
            f"distance cap violated: 2 - distance = {cell['cap_slack_min']:.3e} "
            f"(model {cell['model']}, T={cell['t_total']:g})")


def _run_grover_sweep(plan: dict, out: OutputDir) -> list[dict]:
    rows = []
    for cell in plan["cells"]:
        _, row = _audit_one(cell, plan["step"])
        rows.append({**row, "n": cell.bundle.h_p.basis.dim})
    for idx, row in enumerate(rows):
        out.write_json(f"cells/cell-{idx:03d}.json", row)
    out.write_rows("sweep.csv", "N,delta_ie,t_min,success_prob,slack_min",
                   ([c["n"], c["delta_ie"], c["t_min"], c["success_prob"], c["slack_min"]]
                    for c in rows))
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


def _run_model_audit(plan: dict, out: OutputDir) -> list[dict]:
    results = [_audit_one(cell, plan["step"]) for cell in plan["cells"]]
    rows = []
    for idx, (report, cell) in enumerate(results):
        out.write_json(f"cells/cell-{idx:03d}.json", cell)
        out.write_rows(f"cells/margins-{idx:03d}.csv",
                       "beta,denominator,distance,lhs,rhs,slack,cap_slack,applicable",
                       map(astuple, report.margins))
        out.write_json(f"cells/report-{idx:03d}.json", asdict(report))
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


def _run_sigma_scan(plan: dict, out: OutputDir) -> list[dict]:
    report = sigma_scaling_study(plan["sampler"], plan["m_values"], plan["samples"], plan["seed"])
    out.write_rows("sigma.csv", "M,samples,sigma_mean,sigma_stderr,ratio_sqrtM",
                   map(astuple, report.rows))
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


def _run_gap_scan(plan: dict, out: OutputDir) -> list[dict]:
    bundle, space, schedule = plan["bundle"], plan["space"], plan["schedule"]
    report = gap_scan(space.h_i, space.h_p, schedule, grid=plan["grid"],
                      refine_rounds=plan["rounds"])
    scanned = {"space": "full" if space is bundle else "sector", "dim": space.h_p.basis.dim}
    out.write_json("gap.json", {**scanned, **asdict(report)})
    out.write_rows("gap.csv", "s,e0,e1,gap",
                   zip(report.s_grid, report.e0, report.e1, report.e1 - report.e0))
    out.write_series("E0.dat", "s E0", (report.s_grid, report.e0))
    out.write_series("E1.dat", "s E1", (report.s_grid, report.e1))
    out.write_series("gap.dat", "s gap", (report.s_grid, report.e1 - report.e0))
    row = {"model": bundle.name, "schedule": schedule.kind, **scanned, "g_min": report.g_min,
           "s_at_min": report.s_at_min, "t_adb": report.t_adb, "dh_norm": report.dh_norm}
    _print_table(["model", "schedule", "space", "g_min", "s_at_min", "t_adb"],
                 [[row["model"], row["schedule"], f"{row['space']} {row['dim']}",
                   f"{row['g_min']:.8g}", f"{row['s_at_min']:.6g}", f"{row['t_adb']:.6g}"]])
    return [row]


def _run_fraction_decay(plan: dict, out: OutputDir) -> list[dict]:
    report = plan["report"]
    out.write_rows("fraction.csv", "M,exact_ratio,stirling,stirling_rel_dev,sqrt_m_form,"
                   "sqrt_m_form_rel_dev,log_exact", map(astuple, report.rows))
    rows = [asdict(r) for r in report.rows]
    out.write_series("fraction-vs-M.dat", "M exact_ratio",
                     ([r["m"] for r in rows], [r["exact_ratio"] for r in rows]))
    out.write_series("log-fraction-vs-M.dat", "M log_exact",
                     ([r["m"] for r in rows], [r["log_exact"] for r in rows]))
    _print_table(["M", "exact", "stirling_dev", "sqrtM_form_dev", "log_exact"],
                 [[str(r["m"]), f"{r['exact_ratio']:.6e}", f"{r['stirling_rel_dev']:.4%}",
                   f"{r['sqrt_m_form_rel_dev']:.4%}", f"{r['log_exact']:.6g}"] for r in rows])
    return rows


# ---------------------------------------------------------------------------
# preflight: everything a run needs, built before any output exists
# ---------------------------------------------------------------------------

def _model_checks(bundle: ModelBundle,
                  space: InvariantSector | ModelBundle) -> list[tuple[str, str]]:
    size = f", sector {space.h_p.basis.dim}" if space is not bundle else ""
    return [("model build", f"ok ({bundle.name}, dim {bundle.h_p.basis.dim}{size})"),
            ("energy budget", f"alpha_cost {bundle.budget.alpha_cost:g}, "
                              f"path bound {bundle.budget.linear_path_norm_bound:g}"),
            ("spread", f"delta_ie {delta_ie(bundle.g_i, bundle.h_p):.6g}")]


def _run_plan(cells: list[_Cell], step: StepPolicy) -> list[tuple[str, str]]:
    """Each cell's run time and the steps :func:`evolve` will take on it."""
    steps = [plan_steps(c.space.h_i, c.space.h_p, c.schedule, step) for c in cells]
    return [("run times", ", ".join(f"{c.schedule.t_total:.4g}" for c in cells)),
            ("planned steps", ", ".join(map(str, steps)))]


def _plan_grover_sweep(cfg: dict) -> dict:
    cells, step = [], StepPolicy(**cfg["step_policy"])
    for n in cfg["n_values"]:
        cells += _audit_cells(build_grover(n, cfg["marked"]), cfg)
    return {"cells": cells, "step": step,
            "checks": [("grover cells", f"ok ({len(cfg['n_values'])} models)"),
                       *_run_plan(cells, step)]}


def _plan_model_audit(cfg: dict) -> dict:
    bundle, step = _model_from(cfg), StepPolicy(**cfg["step_policy"])
    cells = _audit_cells(bundle, cfg)
    return {"cells": cells, "step": step,
            "checks": [*_model_checks(bundle, cells[0].space), *_run_plan(cells, step)]}


def _plan_sigma_scan(cfg: dict) -> dict:
    return {"m_values": cfg["m_values"], "samples": cfg["samples"], "seed": cfg["seed"],
            "sampler": DistanceSampler(**cfg["sampler"]), "checks": [("m range", "ok")]}


def _plan_gap_scan(cfg: dict) -> dict:
    """The scan runs in the model's invariant sector where it has one, as the
    evolving experiments do; the schedule (and its n) is the full model's.
    Every schedule is a function of t/T, so H(sT) does not depend on T, and
    the scan runs at T = 1."""
    bundle = _model_from(cfg)
    kind = cfg["schedule"]["kind"]
    schedule = make_schedule(kind, 1.0, n=bundle.h_p.basis.dim)
    space = invariant_sector(bundle) or bundle
    return {"bundle": bundle, "space": space, "schedule": schedule,
            "grid": cfg["grid"], "rounds": cfg["refine_rounds"],
            "checks": [*_model_checks(bundle, space), ("schedule", kind)]}


def _plan_fraction_decay(cfg: dict) -> dict:
    return {"report": tour_fraction_decay(cfg["m_values"]), "checks": [("m values", "ok")]}


@dataclass(frozen=True)
class _Experiment:
    """One subcommand: its config schema, its preflight and its runner."""

    schema: dict
    plan: Callable[[dict], dict]
    run: Callable[[dict, OutputDir], list[dict]]


EXPERIMENTS = {
    "grover-sweep": _Experiment(
        {**_COMMON, "n_values": ([int], _REQUIRED), "marked": (int, 0), **_TIMED},
        _plan_grover_sweep, _run_grover_sweep),
    "bound-audit": _Experiment(
        {**_COMMON, "model": _MODEL_SCHEMA, "instance": _INSTANCE_SCHEMA, **_TIMED},
        _plan_model_audit, _run_model_audit),
    "sigma-scan": _Experiment(
        {**_COMMON, "m_values": ([int], _REQUIRED, 3, MAX_SPREAD_CITIES),
         "samples": (int, 200, 1, MAX_SAMPLES), "sampler": _SAMPLER_SCHEMA},
        _plan_sigma_scan, _run_sigma_scan),
    "gap-scan": _Experiment(
        {**_COMMON, "model": _MODEL_SCHEMA, "instance": _INSTANCE_SCHEMA,
         "schedule": _SCHEDULE_SCHEMA, "grid": (int, 201, 3, MAX_GRID),
         "refine_rounds": (int, 3, 0)},
        _plan_gap_scan, _run_gap_scan),
    "fraction-decay": _Experiment({**_COMMON, "m_values": ([int], _REQUIRED, 1)},
                                  _plan_fraction_decay, _run_fraction_decay),
}


def _preflight(experiment: str | None, raw, **flags) -> tuple[str, dict, dict, dict]:
    """The one check of a config, shared by ``validate``, every CLI run and
    :func:`run_experiment`: the experiment name, then the declared
    ``experiment`` (which names it for ``validate``, where ``experiment`` is
    None), then the keys and the flags given over them.  Returns the
    experiment, the typed config, the copy the manifest hashes and the plan
    of everything the run needs.  The hashed copy holds ``experiment`` always
    and leaves out what no output reads: ``out_dir``, ``threads``,
    ``step_policy.samples_per_run``, and ``seed`` where the run reads none;
    where it reads one, it holds the seed the run reads, after any flag.
    No output exists yet, so every config error leaves nothing behind; a
    domain constructor's ValueError is a usage error.
    """
    names = ", ".join(EXPERIMENTS)
    if experiment is not None and experiment not in EXPERIMENTS:
        raise UsageError(f"unknown experiment {experiment!r}; use one of {names}")
    declared = raw.get("experiment") if isinstance(raw, dict) else None
    if experiment is None and not (isinstance(declared, str) and declared in EXPERIMENTS):
        raise UsageError(f"config must declare its experiment, one of {names}; got {declared!r}")
    if declared is not None and experiment not in (None, declared):
        raise UsageError(f"config declares experiment {declared!r} but "
                         f"{experiment!r} was requested")
    experiment = experiment or declared
    spec = EXPERIMENTS[experiment]
    flags = {k: v for k, v in flags.items() if v is not None}
    cfg = {**_typed(raw, spec.schema), **_typed(flags, {k: _COMMON[k] for k in flags})}
    _unread_keys(raw, cfg)
    given = _typed(raw, spec.schema, fill=False)
    given.get("step_policy", {}).pop("samples_per_run", None)
    given = {k: v for k, v in given.items() if k not in _UNHASHED and v != {}}
    if _reads_seed(experiment, cfg):
        given["seed"] = cfg["seed"]
    else:
        given.pop("seed", None)
    given["experiment"] = experiment
    try:
        return experiment, cfg, given, spec.plan(cfg)
    except ValueError as exc:
        raise UsageError(f"bad {experiment} config: {exc}") from exc


def run_experiment(experiment: str, cfg: dict, out_dir=None, threads: int | None = None,
                   seed: int | None = None) -> dict:
    """Execute one experiment config and return its manifest.

    ``out_dir``, ``threads`` and ``seed``, when given, override the config's
    keys.  The same preflight as ``validate`` runs first, so a config error
    raises :class:`UsageError` before the output directory is created.
    ``threads`` is checked (an int >= 1) and left out of the hash, but has
    no effect: every cell runs on the calling thread, in order, because a
    cell's many small numpy calls would only contend for the GIL in a pool.
    """
    _, typed, given, plan = _preflight(experiment, cfg, out_dir=out_dir, threads=threads,
                                       seed=seed)
    if typed["out_dir"] is None:
        raise UsageError("give --out or set out_dir in the config")
    if typed["threads"] > 1:
        print(f"note: threads {typed['threads']} has no effect; cells run one after another",
              file=sys.stderr)
    out = OutputDir(Path(typed["out_dir"]))
    rows = EXPERIMENTS[experiment].run(plan, out)
    return _finish_manifest(out, experiment, given, rows)


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
                       help="checked (int >= 1) but has no effect: cells run one after another")
        p.add_argument("--seed", type=int, default=None,
                       help="base seed override (fallback: config, then 0)")
    return parser


def main(argv=None) -> int:
    parser = _build_parser()
    try:
        args = parser.parse_args(argv)
        if args.experiment is None:
            raise UsageError("pick an experiment: " + ", ".join((*EXPERIMENTS, "validate")))
        cfg = load_config(args.config)
        flags = {"out_dir": args.out or None, "threads": args.threads, "seed": args.seed}
        if args.experiment == "validate":
            *_, plan = _preflight(None, cfg, **flags)
            _print_table(["check", "result"], [["config keys", "ok"], *plan["checks"]])
        else:
            run_experiment(args.experiment, cfg, **flags)
        return 0
    except UsageError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 1
    except (InvariantViolation, NumericGuardError) as exc:
        print(f"invariant violation: {exc}", file=sys.stderr)
        return 2


if __name__ == "__main__":
    sys.exit(main())
