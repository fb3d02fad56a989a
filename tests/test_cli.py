import hashlib
import json
import math
import os
import re
import shutil
import subprocess
import sys
from importlib.metadata import EntryPoint
from pathlib import Path

import numpy as np
import pytest

import adiabound
from adiabound import (
    build_tsp_finite,
    gap_scan,
    invariant_sector,
    make_schedule,
    random_instance,
    serialize_instance,
)
from adiabound.bounds import SLACK_TOL
from adiabound.cli import (
    InvariantViolation,
    UsageError,
    _check_run_invariants,
    main,
)
from adiabound import cli, hilbert

SEED = 20260825


def _write_config(tmp_path, name, payload):
    path = tmp_path / name
    path.write_text(json.dumps(payload, indent=2))
    return str(path)


def _grover_sweep_cfg():
    return {
        "experiment": "grover-sweep",
        "n_values": [2, 4],
        "t_multipliers": [0.25, 1.0],
        "betas": ["mean", "mean+delta", "mean-delta", 0.0],
        "step_policy": {"samples_per_run": 8},
    }


def _tsp_run_cfg():
    return {
        "experiment": "bound-audit",
        "model": {"model": "tsp-finite", "dsq_policy": "random", "sigma_d": 0.5, "seed": 123},
        "instance": {"cities": 3, "seed": 0, "sampler": {"symmetric": True}},
        "t_values": [2.0, 5.0],
        "betas": ["mean", 0.0],
    }


# ---------------------------------------------------------------------------
# exit codes and config validation
# ---------------------------------------------------------------------------

def test_no_experiment_is_usage_error(capsys):
    assert main([]) == 1
    assert "pick an experiment" in capsys.readouterr().err


def test_unknown_subcommand_is_usage_error(capsys):
    assert main(["frobnicate", "--config", "x.json"]) == 1


def test_missing_config_flag_is_usage_error():
    assert main(["grover-sweep"]) == 1


def test_missing_config_file(tmp_path, capsys):
    assert main(["grover-sweep", "--config", str(tmp_path / "nope.json"),
                 "--out", str(tmp_path / "out")]) == 1
    assert "config file not found" in capsys.readouterr().err


def test_invalid_json_config(tmp_path, capsys):
    path = tmp_path / "bad.json"
    path.write_text("{not json")
    assert main(["grover-sweep", "--config", str(path), "--out", str(tmp_path / "o")]) == 1
    assert "not valid JSON" in capsys.readouterr().err


def test_unknown_key_lists_allowed(tmp_path, capsys):
    cfg = _write_config(tmp_path, "c.json", {"experiment": "fraction-decay",
                                             "m_values": [8], "typo_key": 1})
    assert main(["fraction-decay", "--config", cfg, "--out", str(tmp_path / "o")]) == 1
    err = capsys.readouterr().err
    assert "unknown key 'typo_key'" in err
    assert "m_values" in err  # allowed keys are listed


def test_nested_unknown_key(tmp_path, capsys):
    payload = _tsp_run_cfg()
    payload["model"]["surprise"] = True
    cfg = _write_config(tmp_path, "c.json", payload)
    assert main(["bound-audit", "--config", cfg, "--out", str(tmp_path / "o")]) == 1
    assert "unknown key 'model.surprise'" in capsys.readouterr().err


def test_experiment_mismatch(tmp_path, capsys):
    cfg = _write_config(tmp_path, "c.json", {"experiment": "sigma-scan", "m_values": [3]})
    assert main(["fraction-decay", "--config", cfg, "--out", str(tmp_path / "o")]) == 1
    assert "declares experiment" in capsys.readouterr().err


def test_missing_out_dir(tmp_path, capsys):
    cfg = _write_config(tmp_path, "c.json", {"experiment": "fraction-decay", "m_values": [8]})
    assert main(["fraction-decay", "--config", cfg]) == 1
    assert "out_dir" in capsys.readouterr().err


def test_missing_instance_file_names_path(tmp_path, capsys):
    payload = _tsp_run_cfg()
    payload["instance"] = {"path": str(tmp_path / "ghost.tsp")}
    cfg = _write_config(tmp_path, "c.json", payload)
    assert main(["bound-audit", "--config", cfg, "--out", str(tmp_path / "o")]) == 1
    err = capsys.readouterr().err
    assert "instance file not found" in err
    assert "ghost.tsp" in err


def test_both_t_values_and_multipliers(tmp_path, capsys):
    payload = _tsp_run_cfg()
    payload["t_multipliers"] = [1.0]
    cfg = _write_config(tmp_path, "c.json", payload)
    assert main(["bound-audit", "--config", cfg, "--out", str(tmp_path / "o")]) == 1
    assert "not both" in capsys.readouterr().err


def test_unknown_beta_word(tmp_path, capsys):
    payload = _grover_sweep_cfg()
    payload["betas"] = ["median"]
    cfg = _write_config(tmp_path, "c.json", payload)
    assert main(["grover-sweep", "--config", cfg, "--out", str(tmp_path / "o")]) == 1
    assert "unknown beta word" in capsys.readouterr().err


@pytest.mark.parametrize("name", ["zebra", "tsp-run"])
def test_an_unknown_experiment_names_the_five(tmp_path, capsys, name):
    out = tmp_path / "o"
    cfg = _write_config(tmp_path, "c.json", {"m_values": [8]})
    assert main([name, "--config", cfg, "--out", str(out)]) == 1
    err = capsys.readouterr().err
    assert all(f"'{experiment}'" in err for experiment in cli.EXPERIMENTS)
    with pytest.raises(UsageError) as exc:
        cli.run_experiment(name, {"m_values": [8]}, out_dir=str(out))
    assert str(exc.value) == (f"unknown experiment {name!r}; use one of grover-sweep, "
                              "bound-audit, sigma-scan, gap-scan, fraction-decay")
    assert not out.exists()


def test_run_experiment_rejects_a_mismatched_experiment_key(tmp_path):
    # the library checks the declared experiment as validate and the CLI do
    out = tmp_path / "o"
    with pytest.raises(UsageError, match="declares experiment 'gap-scan' but "
                                         "'fraction-decay' was requested"):
        cli.run_experiment("fraction-decay", {"experiment": "gap-scan", "m_values": [8]},
                           out_dir=str(out))
    assert not out.exists()


@pytest.mark.parametrize("flag, value", [("out_dir", Path("o")), ("seed", np.int64(1))],
                         ids=["out_dir-Path", "seed-int64"])
def test_run_experiment_names_a_value_json_cannot_encode(tmp_path, flag, value):
    # a library caller's Path or numpy integer is a usage error that names its key
    out = tmp_path / "o"
    cfg = {"experiment": "fraction-decay", "m_values": [8], "out_dir": str(out)}
    kind = "a string" if flag == "out_dir" else "an integer"
    with pytest.raises(UsageError) as err:
        cli.run_experiment("fraction-decay", cfg, **{flag: value})
    assert str(err.value) == f"{flag} must be {kind}, got {value!r}"
    assert not out.exists()


# ---------------------------------------------------------------------------
# invariant mapping to exit code 2
# ---------------------------------------------------------------------------

def test_bad_slack_raises_invariant_violation():
    cell = {"slack_min": -1.0, "cap_slack_min": 0.5, "model": "x", "t_total": 1.0}
    with pytest.raises(InvariantViolation, match="distance bound violated"):
        _check_run_invariants(cell)
    cell = {"slack_min": 0.5, "cap_slack_min": -1.0, "model": "x", "t_total": 1.0}
    with pytest.raises(InvariantViolation, match="distance cap violated"):
        _check_run_invariants(cell)
    _check_run_invariants({"slack_min": 0.0, "cap_slack_min": 0.0,
                           "model": "x", "t_total": 1.0})  # clean cell passes


def test_a_nan_slack_fails_the_run_invariants():
    cell = {"slack_min": math.nan, "cap_slack_min": 0.5, "model": "x", "t_total": 1.0}
    with pytest.raises(InvariantViolation, match="distance bound violated"):
        _check_run_invariants(cell)
    cell = {"slack_min": 0.5, "cap_slack_min": math.nan, "model": "x", "t_total": 1.0}
    with pytest.raises(InvariantViolation, match="distance cap violated"):
        _check_run_invariants(cell)


def test_invariant_violation_exits_two(tmp_path, capsys, monkeypatch):
    def boom(experiment, cfg, out_dir, threads, seed):
        raise InvariantViolation("synthetic violation")

    monkeypatch.setattr(cli, "run_experiment", boom)
    cfg = _write_config(tmp_path, "c.json", {"experiment": "fraction-decay", "m_values": [8]})
    assert main(["fraction-decay", "--config", cfg, "--out", str(tmp_path / "o")]) == 2
    assert "synthetic violation" in capsys.readouterr().err


def test_runtime_guard_exits_two(tmp_path, capsys, monkeypatch):
    def boom(experiment, cfg, out_dir, threads, seed):
        raise hilbert.NumericGuardError("norm drift 1e-2 exceeded 1e-8")

    monkeypatch.setattr(cli, "run_experiment", boom)
    cfg = _write_config(tmp_path, "c.json", {"experiment": "fraction-decay", "m_values": [8]})
    assert main(["fraction-decay", "--config", cfg, "--out", str(tmp_path / "o")]) == 2
    assert "invariant violation" in capsys.readouterr().err


def test_real_drift_abort_exits_two(tmp_path, capsys):
    # the Grover-tuned local schedule is too fast for this TSP model at t_min
    payload = {"experiment": "bound-audit", "model": {"model": "tsp-finite"},
               "instance": {"cities": 4, "seed": 1},
               "schedule": {"kind": "local_adiabatic_grover"}}
    cfg = _write_config(tmp_path, "c.json", payload)
    assert main(["bound-audit", "--config", cfg, "--out", str(tmp_path / "o")]) == 2
    assert "invariant violation: norm drift" in capsys.readouterr().err


def test_a_bug_is_not_an_invariant_violation(tmp_path, monkeypatch):
    # NotImplementedError is a RuntimeError, but only the numeric guards map to exit 2
    def boom(experiment, cfg, out_dir, threads, seed):
        raise NotImplementedError

    monkeypatch.setattr(cli, "run_experiment", boom)
    cfg = _write_config(tmp_path, "c.json", {"experiment": "fraction-decay", "m_values": [8]})
    with pytest.raises(NotImplementedError):
        main(["fraction-decay", "--config", cfg, "--out", str(tmp_path / "o")])


# ---------------------------------------------------------------------------
# experiments end to end
# ---------------------------------------------------------------------------

def test_grover_sweep_outputs(tmp_path, capsys):
    cfg = _write_config(tmp_path, "c.json", _grover_sweep_cfg())
    out = tmp_path / "out"
    assert main(["grover-sweep", "--config", cfg, "--out", str(out)]) == 0
    captured = capsys.readouterr()
    assert "success" in captured.out      # summary table on stdout
    assert "wrote" not in captured.out    # diagnostics stay on stderr
    assert "wrote" in captured.err

    csv_lines = (out / "sweep.csv").read_text().strip().split("\n")
    assert csv_lines[0] == "N,delta_ie,t_min,success_prob,slack_min"
    assert len(csv_lines) == 5  # 2 sizes x 2 time multipliers

    manifest = json.loads((out / "manifest.json").read_text())
    assert manifest["experiment"] == "grover-sweep"
    assert len(manifest["rows"]) == 4
    assert "content_hash" in manifest
    listed = {entry["file"] for entry in manifest["outputs"]}
    assert {"sweep.csv", "tmin-vs-sqrtN.dat", "success-vs-N.dat",
            "cells/cell-000.json"} <= listed
    # hashes in the manifest match the files on disk
    for entry in manifest["outputs"]:
        digest = hashlib.sha256((out / entry["file"]).read_bytes()).hexdigest()
        assert digest == entry["sha256"]

    # full sweep satisfied the inequality everywhere
    for row in manifest["rows"]:
        assert row["slack_min"] >= -1e-7
        assert row["cap_slack_min"] >= -1e-7
        assert row["norm_drift"] <= 1e-8

    dat = (out / "tmin-vs-sqrtN.dat").read_text().strip().split("\n")
    assert dat[0].startswith("# sqrt(N) t_min")
    assert len(dat) == 5
    first = dat[1].split()
    assert float(first[0]) == pytest.approx(math.sqrt(2.0))


def test_grover_sweep_deterministic_reruns(tmp_path, capsys):
    cfg = _write_config(tmp_path, "c.json", _grover_sweep_cfg())
    out_a, out_b = tmp_path / "a", tmp_path / "b"
    assert main(["grover-sweep", "--config", cfg, "--out", str(out_a)]) == 0
    assert main(["grover-sweep", "--config", cfg, "--out", str(out_b)]) == 0
    capsys.readouterr()
    assert (out_a / "sweep.csv").read_bytes() == (out_b / "sweep.csv").read_bytes()
    hash_a = json.loads((out_a / "manifest.json").read_text())["content_hash"]
    hash_b = json.loads((out_b / "manifest.json").read_text())["content_hash"]
    assert hash_a == hash_b


def test_tsp_run_outputs(tmp_path, capsys):
    cfg = _write_config(tmp_path, "c.json", _tsp_run_cfg())
    out = tmp_path / "out"
    assert main(["bound-audit", "--config", cfg, "--out", str(out)]) == 0
    capsys.readouterr()
    for rel in ("slack-vs-T.dat", "success-vs-T.dat", "cells/cell-000.json",
                "cells/margins-000.csv", "cells/report-000.json", "manifest.json"):
        assert (out / rel).exists(), rel
    margins = (out / "cells/margins-000.csv").read_text().strip().split("\n")
    assert margins[0] == "beta,denominator,distance,lhs,rhs,slack,cap_slack,applicable"
    assert len(margins) == 3  # two betas
    assert all(line.endswith(",1") for line in margins[1:])  # applicable, written as 1
    report = json.loads((out / "cells/report-000.json").read_text())
    assert report["theta_note"] == adiabound.bounds.THETA_NOTE
    assert [m["beta"] for m in report["margins"]] == [float(line.split(",")[0])
                                                      for line in margins[1:]]
    cell = json.loads((out / "cells/cell-000.json").read_text())
    for key in ("model", "schedule", "t_total", "delta_ie", "t_min", "success_prob",
                "slack_min", "cap_slack_min", "norm_drift", "n_steps", "alpha_cost",
                "path_norm_bound"):
        assert key in cell
    assert cell["model"].startswith("tsp-finite")
    assert cell["alpha_cost"] == 0.0


def test_tsp_rank_run_evolves_from_the_audited_g_i(tmp_path, capsys, monkeypatch):
    # the audit compares against g_I itself, so the run must start from it and
    # not from an eigensolver vector with its own global phase; below the dense
    # limit that phase happens to agree, so force the iterative path
    monkeypatch.setattr(hilbert, "DENSE_LIMIT", 16)
    payload = {"experiment": "bound-audit", "model": {"model": "tsp-rank"},
               "instance": {"cities": 3}, "t_values": [1.0]}
    out = tmp_path / "out"
    assert main(["bound-audit", "--config", _write_config(tmp_path, "c.json", payload),
                 "--out", str(out)]) == 0
    capsys.readouterr()
    [row] = json.loads((out / "manifest.json").read_text())["rows"]
    assert row["slack_min"] >= SLACK_TOL


def test_threads_do_not_change_results(tmp_path, capsys):
    cfg = _write_config(tmp_path, "c.json", _tsp_run_cfg())
    out_a, out_b = tmp_path / "a", tmp_path / "b"
    assert main(["bound-audit", "--config", cfg, "--out", str(out_a), "--threads", "1"]) == 0
    assert main(["bound-audit", "--config", cfg, "--out", str(out_b), "--threads", "2"]) == 0
    capsys.readouterr()
    hash_a = json.loads((out_a / "manifest.json").read_text())["content_hash"]
    hash_b = json.loads((out_b / "manifest.json").read_text())["content_hash"]
    assert hash_a == hash_b


def test_config_spelling_does_not_move_the_hash(tmp_path, capsys):
    # the manifest hashes the given keys typed by the schema, so an integer
    # written where the schema takes a number hashes as that float
    manifests = []
    for name, mults in (("ints", [1, 2]), ("floats", [1.0, 2.0])):
        payload = {"experiment": "bound-audit", "model": {"model": "grover", "n": 16},
                   "t_multipliers": mults}
        out = tmp_path / name
        assert main(["bound-audit", "--config", _write_config(tmp_path, f"{name}.json", payload),
                     "--out", str(out), "--seed", "1"]) == 0
        manifests.append(json.loads((out / "manifest.json").read_text()))
    capsys.readouterr()
    ints, floats = manifests
    assert ints["content_hash"] == floats["content_hash"]
    assert ints["config"] == floats["config"] == {
        "experiment": "bound-audit", "model": {"model": "grover", "n": 16},
        "t_multipliers": [1.0, 2.0]}  # no default filled in
    assert ints["rows"] == floats["rows"] and ints["outputs"] == floats["outputs"]


#: the content_hash prefix of bound-audit grover n 4 t_values [1.0] at --seed 1,
#: which every spelling of that config in the tests below must give
_GROVER_N4_HASH = "536ffd97cc03"

#: one config per output writer, with the content_hash prefix each gives at --seed 1
_FROZEN_HASHES = [
    ({"experiment": "fraction-decay", "m_values": [8, 10, 12]}, "1dcbd95072da"),
    ({"experiment": "sigma-scan", "m_values": [3, 4], "samples": 5}, "42481cad8609"),
    ({"experiment": "gap-scan", "model": {"model": "grover", "n": 4}, "grid": 41},
     "b7c326d463a2"),
    ({"experiment": "bound-audit", "model": {"model": "grover", "n": 16},
      "t_multipliers": [1.0, 2.0]}, "c417cb7b11f2"),
    ({"experiment": "gap-scan", "model": {"model": "tsp-finite"}, "instance": {"cities": 3},
      "grid": 41}, "e0ec7a387278"),
    ({"experiment": "grover-sweep", "n_values": [64]}, "0e3e72eac413"),
]


@pytest.mark.parametrize("payload, prefix", _FROZEN_HASHES,
                         ids=[f"{p['experiment']}-{i}" for i, (p, _) in enumerate(_FROZEN_HASHES)])
def test_output_bytes_are_frozen(tmp_path, capsys, payload, prefix):
    manifest = cli.run_experiment(payload["experiment"], payload, out_dir=str(tmp_path), seed=1)
    capsys.readouterr()
    assert manifest["content_hash"][:12] == prefix


def test_a_null_or_an_empty_object_does_not_move_the_hash(tmp_path, capsys):
    # each spelling leaves a key absent, so the manifest records one config
    base = {"experiment": "bound-audit", "model": {"model": "grover", "n": 4},
            "t_values": [1.0]}
    spellings = [base, {**base, "model": {**base["model"], "n_max_override": None}},
                 {**base, "instance": {}}]
    manifests = [cli.run_experiment("bound-audit", payload, out_dir=str(tmp_path / str(i)),
                                    seed=1) for i, payload in enumerate(spellings)]
    capsys.readouterr()
    assert {m["content_hash"][:12] for m in manifests} == {_GROVER_N4_HASH}
    assert all(m["config"] == base for m in manifests)


def test_the_hashed_config_records_the_seed_the_run_reads(tmp_path, capsys):
    # a seed flag over the config's seed is the seed the samples come from
    base = {"experiment": "sigma-scan", "m_values": [3], "samples": 4}
    flagged = cli.run_experiment("sigma-scan", {**base, "seed": 9}, out_dir=str(tmp_path / "a"),
                                 seed=5)
    spelled = cli.run_experiment("sigma-scan", {**base, "seed": 5}, out_dir=str(tmp_path / "b"))
    capsys.readouterr()
    assert flagged["config"] == spelled["config"] == {**base, "seed": 5}
    assert flagged["content_hash"] == spelled["content_hash"]


def test_threads_and_out_dir_do_not_move_the_hash(tmp_path, capsys):
    # no output reads either key, so the hashed config leaves both out
    base = {"experiment": "bound-audit", "model": {"model": "grover", "n": 4},
            "t_values": [1.0]}
    spellings = [base, {**base, "threads": 2}, {**base, "out_dir": str(tmp_path / "ignored")}]
    manifests = [cli.run_experiment("bound-audit", payload, out_dir=str(tmp_path / str(i)),
                                    seed=1) for i, payload in enumerate(spellings)]
    capsys.readouterr()
    assert {m["content_hash"][:12] for m in manifests} == {_GROVER_N4_HASH}
    assert all(m["config"] == base for m in manifests)


def test_samples_per_run_does_not_move_the_hash(tmp_path, capsys):
    # no output reads the trajectory samples, so the hashed config leaves the
    # key out, and an emptied step_policy with it
    base = {"experiment": "bound-audit", "model": {"model": "grover", "n": 4},
            "t_values": [1.0]}
    spellings = [base, *({**base, "step_policy": {"samples_per_run": n}} for n in (8, 0, 256))]
    manifests = [cli.run_experiment("bound-audit", payload, out_dir=str(tmp_path / str(i)),
                                    seed=1) for i, payload in enumerate(spellings)]
    capsys.readouterr()
    assert {m["content_hash"][:12] for m in manifests} == {_GROVER_N4_HASH}
    assert all(m["config"] == base for m in manifests)
    assert {m["rows"][0]["success_prob"] for m in manifests} == {0.2654678942378125}


def test_a_seed_that_the_run_never_reads_does_not_move_the_hash(tmp_path, capsys):
    # fraction-decay reads no seed, nor does a grover model
    for base, prefix in (({"experiment": "fraction-decay", "m_values": [8]}, "2c79093caeb9"),
                         ({"experiment": "bound-audit", "model": {"model": "grover", "n": 4},
                           "t_values": [1.0]}, _GROVER_N4_HASH)):
        manifests = [cli.run_experiment(base["experiment"], payload,
                                        out_dir=str(tmp_path / f"{prefix}-{i}"), seed=1)
                     for i, payload in enumerate((base, {**base, "seed": 3}))]
        assert {m["content_hash"][:12] for m in manifests} == {prefix}
        assert all(m["config"] == base for m in manifests)
    capsys.readouterr()


def test_the_experiment_key_is_always_hashed(tmp_path, capsys):
    # the manifest records the experiment whether or not the config names it
    base = {"experiment": "bound-audit", "model": {"model": "grover", "n": 4},
            "t_values": [1.0]}
    keyless = {k: v for k, v in base.items() if k != "experiment"}
    manifests = [cli.run_experiment("bound-audit", payload, out_dir=str(tmp_path / str(i)),
                                    seed=1) for i, payload in enumerate((base, keyless))]
    capsys.readouterr()
    assert {m["content_hash"][:12] for m in manifests} == {_GROVER_N4_HASH}
    assert all(m["config"] == base for m in manifests)


def test_threads_come_from_the_flag_then_the_config_then_one(tmp_path, capsys, monkeypatch):
    seen = []
    pool_map = cli._pool_map
    monkeypatch.setattr(cli, "_pool_map", lambda fn, cells, threads:
                        seen.append(threads) or pool_map(fn, cells, threads))
    monkeypatch.setenv("ADIABOUND_THREADS", "zebra")  # no environment variable is read
    payload = {"experiment": "grover-sweep", "n_values": [4], "t_values": [1.0]}
    with_key = _write_config(tmp_path, "k.json", {**payload, "threads": 2})
    bare = _write_config(tmp_path, "b.json", payload)
    for i, argv in enumerate((["--config", with_key, "--threads", "3"], ["--config", with_key],
                              ["--config", bare])):
        assert main(["grover-sweep", *argv, "--out", str(tmp_path / f"o{i}")]) == 0
    capsys.readouterr()
    assert seen == [3, 2, 1]


def test_out_dir_from_config(tmp_path, capsys):
    out = tmp_path / "from-config"
    cfg = _write_config(tmp_path, "c.json", {"experiment": "fraction-decay",
                                             "m_values": [8], "out_dir": str(out)})
    assert main(["fraction-decay", "--config", cfg]) == 0
    capsys.readouterr()
    assert (out / "fraction.csv").exists()


def test_gap_scan_outputs(tmp_path, capsys):
    cfg = _write_config(tmp_path, "c.json", {
        "experiment": "gap-scan",
        "model": {"model": "grover", "n": 4},
        "grid": 41,
        "refine_rounds": 2,
    })
    out = tmp_path / "out"
    assert main(["gap-scan", "--config", cfg, "--out", str(out)]) == 0
    stdout = capsys.readouterr().out
    assert "g_min" in stdout
    for rel in ("gap.json", "gap.csv", "E0.dat", "E1.dat", "gap.dat"):
        assert (out / rel).exists(), rel
    blob = json.loads((out / "gap.json").read_text())
    assert (blob["space"], blob["dim"]) == ("sector", 2)
    assert blob["g_min"] == pytest.approx(0.5, abs=1e-4)
    gap_rows = (out / "gap.dat").read_text().strip().split("\n")
    assert gap_rows[0] == "# s gap"
    s0, gap0 = map(float, gap_rows[1].split())
    assert (s0, gap0) == (0.0, pytest.approx(1.0, abs=1e-12))
    # every gap.csv field is a plain number that round-trips the JSON values
    csv_lines = (out / "gap.csv").read_text().strip().split("\n")
    assert csv_lines[0] == "s,e0,e1,gap"
    rows = [tuple(map(float, line.split(","))) for line in csv_lines[1:]]
    assert rows == [(s, a, b, b - a) for s, a, b in zip(blob["s_grid"], blob["e0"], blob["e1"])]


def _no_constant(token):
    raise ValueError(f"{token} is not RFC 8259 JSON")


@pytest.mark.parametrize("payload", [
    {"experiment": "gap-scan", "model": {"model": "tsp-rank"}, "instance": {"cities": 3},
     "grid": 11},
    _tsp_run_cfg(),
], ids=["gap-scan-closed-gap", "bound-audit"])
def test_json_outputs_are_strict(tmp_path, capsys, payload):
    cfg = _write_config(tmp_path, "c.json", payload)
    out = tmp_path / "out"
    assert main([payload["experiment"], "--config", cfg, "--out", str(out), "--seed", "1"]) == 0
    capsys.readouterr()
    blobs = {path.relative_to(out).as_posix(): json.loads(path.read_text(),
                                                          parse_constant=_no_constant)
             for path in out.rglob("*.json")}
    assert "manifest.json" in blobs and len(blobs) > 1
    if "gap.json" in blobs:
        # the closed end-of-path gap has an infinite adiabatic time, written as null
        assert blobs["gap.json"]["t_adb"] is None
        assert blobs["manifest.json"]["rows"][0]["t_adb"] is None


def test_gap_scan_from_instance_file(tmp_path, capsys):
    inst = random_instance(3, SEED)
    inst_path = tmp_path / "inst.matrix"
    inst_path.write_text(serialize_instance(inst))
    cfg = _write_config(tmp_path, "c.json", {
        "experiment": "gap-scan",
        "model": {"model": "tsp-rank"},
        "instance": {"path": str(inst_path), "format": "matrix"},
        "grid": 11,
        "refine_rounds": 1,
    })
    out = tmp_path / "out"
    assert main(["gap-scan", "--config", cfg, "--out", str(out)]) == 0
    capsys.readouterr()
    blob = json.loads((out / "gap.json").read_text())
    assert (blob["space"], blob["dim"]) == ("full", 28)  # tsp-rank has no sector
    # rotations of the optimal tour tie, so the end-of-path gap collapses
    assert blob["g_min"] <= 1e-12
    assert blob["s_at_min"] == pytest.approx(1.0, abs=1e-6)


def test_gap_scan_scans_the_tsp_finite_sector(tmp_path, capsys):
    # the full space closes E1 - E0 at s = 1 between target states that never
    # couple to the run; the sector merges them into one level
    payload = {"experiment": "gap-scan", "model": {"model": "tsp-finite"},
               "instance": {"cities": 3}, "grid": 41}
    manifest = cli.run_experiment("gap-scan", payload, out_dir=str(tmp_path), seed=1)
    capsys.readouterr()
    row, = manifest["rows"]
    blob = json.loads((tmp_path / "gap.json").read_text())
    sector = invariant_sector(build_tsp_finite(random_instance(3, 1)))
    want = gap_scan(sector.h_i, sector.h_p, make_schedule("linear", 1.0), grid=41)
    assert (row["space"], row["dim"]) == (blob["space"], blob["dim"]) == ("sector", 4)
    assert (row["g_min"], row["s_at_min"], row["t_adb"]) == (want.g_min, want.s_at_min,
                                                             want.t_adb)
    assert row["g_min"] == pytest.approx(0.2839, abs=1e-4)
    assert row["s_at_min"] == pytest.approx(0.451, abs=1e-3)
    assert row["t_adb"] == pytest.approx(80.5, abs=0.1)


def test_grover_gap_scan_hash_holds_across_fresh_interpreters(tmp_path):
    # the CLI scans the 2-dimensional sector; test_bounds checks the rows of
    # the library's full-space scan across fresh interpreters
    cfg = _write_config(tmp_path, "c.json", {"experiment": "gap-scan",
                                             "model": {"model": "grover", "n": 4096},
                                             "grid": 41})
    hashes = []
    for run in range(2):
        out = tmp_path / f"out-{run}"
        proc = subprocess.run(
            [sys.executable, "-m", "adiabound.cli", "gap-scan", "--config", cfg,
             "--out", str(out), "--seed", "1"],
            capture_output=True, text=True, env=_child_env())
        assert proc.returncode == 0, proc.stderr
        manifest = json.loads((out / "manifest.json").read_text())
        assert manifest["rows"][0]["space"] == "sector"
        hashes.append(manifest["content_hash"])
    assert hashes[0] == hashes[1]


def test_gap_scan_refinement_ends_when_the_step_stops_moving_s(tmp_path, capsys):
    # by round ~25 the step is below an ulp of s; 600 rounds once divided it to 0
    blobs = []
    for rounds in (300, 600):
        payload = {"experiment": "gap-scan", "model": {"model": "grover", "n": 4}, "grid": 3,
                   "refine_rounds": rounds}
        cfg = _write_config(tmp_path, f"c{rounds}.json", payload)
        assert main(["validate", "--config", cfg]) == 0
        out = tmp_path / f"o{rounds}"
        assert main(["gap-scan", "--config", cfg, "--out", str(out)]) == 0
        blobs.append((out / "gap.json").read_bytes())
    capsys.readouterr()
    assert blobs[0] == blobs[1]


def test_sigma_scan_outputs(tmp_path, capsys):
    cfg = _write_config(tmp_path, "c.json", {
        "experiment": "sigma-scan",
        "m_values": [3, 4],
        "samples": 5,
        "sampler": {"kind": "uniform", "symmetric": False},
    })
    out = tmp_path / "out"
    assert main(["sigma-scan", "--config", cfg, "--out", str(out)]) == 0
    capsys.readouterr()
    csv_lines = (out / "sigma.csv").read_text().strip().split("\n")
    assert csv_lines[0] == "M,samples,sigma_mean,sigma_stderr,ratio_sqrtM"
    assert len(csv_lines) == 3
    dat = (out / "sigma-vs-sqrtM.dat").read_text().strip().split("\n")
    assert dat[0] == "# sqrt(M) sigma_mean ratio_sqrtM"
    assert len(dat[1].split()) == 3  # ratio column present for the sqrt(M) fit


def test_sigma_scan_seed_flag_overrides_config(tmp_path, capsys):
    base = {"experiment": "sigma-scan", "m_values": [3], "samples": 4}
    cfg_five = _write_config(tmp_path, "five.json", {**base, "seed": 5})
    cfg_nine = _write_config(tmp_path, "nine.json", {**base, "seed": 9})
    out_a, out_b, out_c = (tmp_path / x for x in ("a", "b", "c"))
    assert main(["sigma-scan", "--config", cfg_five, "--out", str(out_a)]) == 0
    assert main(["sigma-scan", "--config", cfg_nine, "--out", str(out_b), "--seed", "5"]) == 0
    assert main(["sigma-scan", "--config", cfg_nine, "--out", str(out_c)]) == 0
    capsys.readouterr()
    a = (out_a / "sigma.csv").read_bytes()
    b = (out_b / "sigma.csv").read_bytes()
    c = (out_c / "sigma.csv").read_bytes()
    assert a == b       # flag wins over config
    assert a != c       # and the seed really matters


def test_fraction_decay_outputs(tmp_path, capsys):
    cfg = _write_config(tmp_path, "c.json", {"experiment": "fraction-decay",
                                             "m_values": [8, 10, 12]})
    out = tmp_path / "out"
    assert main(["fraction-decay", "--config", cfg, "--out", str(out)]) == 0
    capsys.readouterr()
    csv_lines = (out / "fraction.csv").read_text().strip().split("\n")
    assert csv_lines[0] == ("M,exact_ratio,stirling,stirling_rel_dev,"
                            "sqrt_m_form,sqrt_m_form_rel_dev,log_exact")
    assert len(csv_lines) == 4
    assert (out / "fraction-vs-M.dat").exists()
    assert (out / "log-fraction-vs-M.dat").exists()


# ---------------------------------------------------------------------------
# validate
# ---------------------------------------------------------------------------

def test_validate_ok(tmp_path, capsys):
    cfg = _write_config(tmp_path, "c.json", _tsp_run_cfg())
    assert main(["validate", "--config", cfg]) == 0
    out = capsys.readouterr().out
    assert "model build" in out
    assert "run times" in out


@pytest.mark.parametrize("model, instance, expect", [
    ({"model": "grover", "n": 4096}, {}, "(grover-n4096, dim 4096, sector 2)"),
    ({"model": "tsp-finite"}, {"cities": 3, "sampler": {"kind": "constant"}},
     # one tour length and the two parity penalties
     "(tsp-finite-random-m3-s0-0, dim 27, sector 3)"),
    ({"model": "tsp-rank"}, {"cities": 3}, "(tsp-rank-random-m3-s0-0, dim 28)"),
])
def test_validate_reports_the_sector(tmp_path, capsys, model, instance, expect):
    payload = {"experiment": "bound-audit", "model": model, "instance": instance}
    assert main(["validate", "--config", _write_config(tmp_path, "c.json", payload)]) == 0
    assert expect in capsys.readouterr().out


def test_validate_takes_the_default_cutoff_it_builds(tmp_path, capsys):
    # below alpha_scale 0.78 the tail alone would cut M = 6's 720 tour levels
    payload = {"experiment": "bound-audit", "model": {"model": "tsp-rank", "alpha_scale": 0.5},
               "instance": {"cities": 6}, "t_values": [1.0]}
    assert main(["validate", "--config", _write_config(tmp_path, "c.json", payload)]) == 0
    assert "(tsp-rank-random-m6-s0-0, dim 720)" in capsys.readouterr().out


def test_grover_sweep_rows_come_from_the_full_model(tmp_path, capsys):
    # the run evolves a 2-dimensional sector; n, the spread, t_min, the
    # schedule and the step plan must still be the 64-label model's
    payload = {"experiment": "grover-sweep", "n_values": [64], "schedule": {"kind": "das_wei"},
               "t_multipliers": [1.0, 2.0], "step_policy": {"samples_per_run": 8}}
    out = tmp_path / "out"
    assert main(["grover-sweep", "--config", _write_config(tmp_path, "c.json", payload),
                 "--out", str(out)]) == 0
    capsys.readouterr()
    rows = json.loads((out / "manifest.json").read_text())["rows"]
    bundle = adiabound.build_grover(64)
    delta = adiabound.delta_ie(bundle.g_i, bundle.h_p)
    base = adiabound.t_min("das_wei", delta, n=64)
    policy = adiabound.StepPolicy(samples_per_run=8)
    for row, mult in zip(rows, [1.0, 2.0], strict=True):
        schedule = adiabound.make_schedule("das_wei", mult * base, n=64)
        full = adiabound.evolve(bundle.h_i, bundle.h_p, schedule, policy)
        assert [row[k] for k in ("n", "delta_ie", "t_min", "t_total", "n_steps")] == \
            [64, delta, base, schedule.t_total, full.n_steps]


@pytest.mark.parametrize("payload", [
    _tsp_run_cfg(),
    {"experiment": "grover-sweep", "n_values": [4, 64], "t_multipliers": [0.5, 2.0],
     "schedule": {"kind": "das_wei"}},
    {"experiment": "bound-audit", "model": {"model": "tsp-rank"}, "instance": {"cities": 3},
     "t_values": [0.2], "step_policy": {"step_bound_factor": 0.5}},
], ids=["tsp-finite", "grover-das_wei", "tsp-rank"])
def test_validate_prints_the_steps_each_run_takes(tmp_path, capsys, payload):
    cfg = _write_config(tmp_path, "c.json", payload)
    assert main(["validate", "--config", cfg]) == 0
    line = next(ln for ln in capsys.readouterr().out.splitlines()
                if ln.startswith("planned steps"))
    planned = [int(n) for n in line.removeprefix("planned steps").split(",")]
    manifest = cli.run_experiment(payload["experiment"], payload, out_dir=str(tmp_path / "o"))
    capsys.readouterr()
    assert planned == [row["n_steps"] for row in manifest["rows"]]


def test_validate_needs_declared_experiment(tmp_path, capsys):
    cfg = _write_config(tmp_path, "c.json", {"m_values": [3]})
    assert main(["validate", "--config", cfg]) == 1
    assert "must declare its experiment" in capsys.readouterr().err


def test_validate_rejects_out_of_range(tmp_path, capsys):
    cfg = _write_config(tmp_path, "c.json", {"experiment": "sigma-scan",
                                             "m_values": [2049]})
    assert main(["validate", "--config", cfg]) == 1
    assert "m_values[0] must be <= 2048, got 2049" in capsys.readouterr().err


def test_sigma_scan_runs_past_the_enumeration_cap(tmp_path, capsys):
    cfg = _write_config(tmp_path, "c.json", {"experiment": "sigma-scan",
                                             "m_values": [12, 64], "samples": 3})
    out = tmp_path / "out"
    assert main(["sigma-scan", "--config", cfg, "--out", str(out)]) == 0
    capsys.readouterr()
    rows = (out / "sigma.csv").read_text().strip().split("\n")[1:]
    assert [int(r.split(",")[0]) for r in rows] == [12, 64]


TSP_RUN = {"experiment": "bound-audit", "model": {"model": "tsp-finite"},
           "instance": {"cities": 3}, "t_values": [1.0]}
GROVER_AUDIT = {"experiment": "bound-audit", "model": {"model": "grover", "n": 4},
                "t_values": [1.0]}
#: exits 2 by its drift guard at the default norm_tol
DRIFT_ABORT = {"experiment": "bound-audit", "model": {"model": "tsp-finite"},
               "instance": {"cities": 4, "seed": 1},
               "schedule": {"kind": "local_adiabatic_grover"}}


@pytest.mark.parametrize("payload, message", [
    ({"experiment": "grover-sweep", "n_values": [4], "t_values": [-1]},
     "total time must be positive"),
    ({"experiment": "grover-sweep", "n_values": [4], "schedule": {"kind": "bogus"}},
     "unknown schedule kind 'bogus'"),
    ({"experiment": "grover-sweep", "n_values": [4], "schedule": {"eps": "fast"}},
     "unknown key 'schedule.eps'"),
    # every schedule is a function of t/T, so a gap scan has no time to give
    ({"experiment": "gap-scan", "model": {"model": "grover", "n": 4}, "t_total": -1.0},
     "unknown key 't_total'"),
    ({"experiment": "fraction-decay", "m_values": [0]}, "must be >= 1"),
    # wrong JSON types and out-of-range values must not end in a traceback
    ({"experiment": "gap-scan", "model": {"model": "grover", "n": 4, "marked": [1]}},
     "model.marked must be an integer, got [1]"),
    ({"experiment": "gap-scan", "model": "grover"}, 'model must be an object, got "grover"'),
    ({"experiment": "grover-sweep", "n_values": [4], "schedule": "linear"},
     'schedule must be an object, got "linear"'),
    ({**TSP_RUN, "instance": {"cities": 3, "seed": [1]}}, "instance.seed must be an integer"),
    ({**TSP_RUN, "model": {"model": "tsp-rank", "alpha_scale": [1]}},
     "model.alpha_scale must be a number"),
    # no cutoff that keeps the coherent tail fits the dimension budget
    ({**TSP_RUN, "model": {"model": "tsp-rank", "alpha_scale": 1e12}},
     "alpha_sq must be in (0, 4e+06]"),
    ({**TSP_RUN, "instance": {"path": 5}}, "instance.path must be a string, got 5"),
    ({"experiment": "fraction-decay", "m_values": [8], "out_dir": 5},
     "out_dir must be a string, got 5"),
    ({"experiment": "sigma-scan", "m_values": [3], "samples": 2, "seed": -1},
     "seed must be >= 0, got -1"),
    ({"experiment": "gap-scan", "model": {"model": "grover", "n": 4}, "t_total": 10**400},
     "unknown key 't_total'"),
    # values that int(), float() or bool() would misread
    ({"experiment": "sigma-scan", "m_values": [3], "sampler": {"symmetric": "false"}},
     'sampler.symmetric must be true or false, got "false"'),
    ({"experiment": "grover-sweep", "n_values": [4], "step_policy": {"samples_per_run": 2.9}},
     "step_policy.samples_per_run must be an integer, got 2.9"),
    ({"experiment": "grover-sweep", "n_values": [4], "step_policy": {"norm_tol": "1e-3"}},
     'step_policy.norm_tol must be a number, got "1e-3"'),
    ({**TSP_RUN, "instance": {"cities": 3, "seed": 2.7}},
     "instance.seed must be an integer, got 2.7"),
    ({"experiment": "sigma-scan", "m_values": [3], "sampler": {"low": "0.5"}},
     'sampler.low must be a number, got "0.5"'),
    # validate must reject what the run rejects
    ({"experiment": "fraction-decay", "m_values": [8], "threads": True},
     "threads must be an integer, got true"),
    # a file and a city count name two different instances
    ({**TSP_RUN, "instance": {"path": "i4.matrix", "format": "matrix", "cities": 3}},
     "config must give instance.path or instance.cities, not both"),
    # the closed-form spread has one bound, checked before any output exists
    ({"experiment": "sigma-scan", "m_values": [3, 2049]}, "m_values[1] must be <= 2048, got 2049"),
    # a sampler may draw only distances an instance accepts
    ({"experiment": "sigma-scan", "m_values": [3], "sampler": {"low": -1.0}},
     "sampler low must be finite and >= 0, got -1.0"),
    ({"experiment": "sigma-scan", "m_values": [3], "sampler": {"kind": "constant", "value": -2.0}},
     "sampler value must be finite and >= 0, got -2.0"),
    ({"experiment": "fraction-decay", "m_values": [8, 10**400]},
     "bad fraction-decay config: sizes must be in 1..2**53 - 1"),
    ({**GROVER_AUDIT, "t_values": [10**400]}, "t_values[0] is too large for a number"),
    # json reads NaN and Infinity; no check may pass them
    ({**DRIFT_ABORT, "step_policy": {"norm_tol": math.nan}},
     "step_policy.norm_tol must be a finite number, got NaN"),
    ({**GROVER_AUDIT, "betas": [math.nan, "mean"]}, "betas[0] must be a finite number, got NaN"),
    ({**GROVER_AUDIT, "betas": ["mean", math.inf]},
     "betas[1] must be a finite number, got Infinity"),
    ({**GROVER_AUDIT, "betas": [1e308]},
     "beta 1e+308 gives a denominator ||(H_P - beta) g_I|| that is not finite"),
    ({**GROVER_AUDIT, "betas": [1e150], "t_values": [1e160]},
     "beta 1e+150 gives a phase beta * int g that is not finite at T=1e+160"),
    # a step count past int64, and a grid or sample count past what memory holds
    ({**GROVER_AUDIT, "t_values": [1e300]}, "the step plan needs inf steps"),
    ({"experiment": "grover-sweep", "n_values": [4], "t_multipliers": [1e300]},
     "the step plan needs inf steps"),
    ({**GROVER_AUDIT, "step_policy": {"norm_tol": 1e-300}}, "the step plan needs 1.85e+59 steps"),
    ({**GROVER_AUDIT, "step_policy": {"step_bound_factor": 1e-300}},
     "the step plan needs 2e+300 steps"),
    ({"experiment": "gap-scan", "model": {"model": "grover", "n": 4}, "grid": 10**10},
     f"grid must be <= {cli.MAX_GRID}, got 10000000000"),
    ({"experiment": "sigma-scan", "m_values": [3], "samples": 10**12},
     f"samples must be <= {cli.MAX_SAMPLES}, got 1000000000000"),
    # a key the chosen model never reads
    ({**GROVER_AUDIT, "model": {"model": "grover", "n": 4, "alpha_scale": 5}},
     "model.alpha_scale is not read by model grover"),
    ({**TSP_RUN, "model": {"model": "tsp-rank", "dsq_policy": "random"}},
     "model.dsq_policy is not read by model tsp-rank"),
    ({**TSP_RUN, "model": {"model": "tsp-tuple", "n": 7}}, "model.n is not read by model tsp-tuple"),
    ({**TSP_RUN, "model": {"model": "tsp-finite", "alpha_scale": 5, "n_max_override": 3}},
     "model.alpha_scale is not read by model tsp-finite"),
    ({**GROVER_AUDIT, "instance": {"cities": 9}}, "instance.cities is not read by model grover"),
    ({**TSP_RUN, "instance": {"cities": 3, "format": "matrix"}},
     "instance.format is read only with instance.path"),
    ({**TSP_RUN, "instance": {"path": "i4.matrix", "seed": 1}},
     "instance.seed is not read with instance.path"),
    ({**TSP_RUN, "instance": {"path": "i4.matrix", "stream": 1}},
     "instance.stream is not read with instance.path"),
    ({**TSP_RUN, "instance": {"path": "i4.matrix", "name": "x"}},
     "instance.name is not read with instance.path"),
    ({**TSP_RUN, "instance": {"path": "i4.matrix", "sampler": {}}},
     "instance.sampler is not read with instance.path"),
    # a key that the chosen d^2 policy or sampler kind never reads
    ({**TSP_RUN, "model": {"model": "tsp-finite", "sigma_d": 3.0}},
     "model.sigma_d is not read by dsq_policy parity"),
    ({**TSP_RUN, "model": {"model": "tsp-tuple", "dsq_policy": "parity", "seed": 5}},
     "model.seed is not read by dsq_policy parity"),
    ({**TSP_RUN, "instance": {"cities": 3, "sampler": {"value": 7.0}}},
     "instance.sampler.value is not read by sampler uniform"),
    ({**TSP_RUN, "instance": {"cities": 3, "sampler": {"kind": "constant", "high": 4.0}}},
     "instance.sampler.high is not read by sampler constant"),
    ({**TSP_RUN, "instance": {"cities": 3, "sampler": {"kind": "constant", "low": 0.0}}},
     "instance.sampler.low is not read by sampler constant"),
    ({"experiment": "sigma-scan", "m_values": [3], "sampler": {"kind": "constant", "low": 0.5}},
     "sampler.low is not read by sampler constant"),
    ({"experiment": "sigma-scan", "m_values": [3], "sampler": {"value": 2.0}},
     "sampler.value is not read by sampler uniform"),
])
def test_validate_and_run_share_one_preflight(tmp_path, capsys, payload, message):
    cfg = _write_config(tmp_path, "c.json", payload)
    assert main(["validate", "--config", cfg]) == 1
    assert message in capsys.readouterr().err
    out = tmp_path / "o"
    assert main([payload["experiment"], "--config", cfg, "--out", str(out)]) == 1
    err = capsys.readouterr().err
    assert err.startswith("error: ") and message in err
    assert not out.exists()  # rejected before any output directory is made


def _schema_keys(schema):
    for key, spec in schema.items():
        yield key
        if isinstance(spec, dict):
            yield from _schema_keys(spec)


README = Path(__file__).resolve().parents[1] / "README.md"


def test_readme_documents_every_schema_key():
    section = README.read_text().split("### Config schema", 1)[1].split("\n### ", 1)[0]
    keys = {key for exp in cli.EXPERIMENTS.values() for key in _schema_keys(exp.schema)}
    assert len(keys) > 30
    assert sorted(k for k in keys if f"`{k}`" not in section) == []


def test_readme_lists_the_experiments_and_its_example_validates(tmp_path, capsys):
    readme = README.read_text()
    listed = readme.split("\nExperiments: ", 1)[1].split(".  ", 1)[0]
    assert [name.strip(" `\n") for name in listed.split(",")] == list(cli.EXPERIMENTS)
    example = readme.split("### Config schema", 1)[1].split("```json\n", 1)[1].split("```", 1)[0]
    assert main(["validate", "--config", _write_config(tmp_path, "c.json",
                                                       json.loads(example))]) == 0
    assert "planned steps" in capsys.readouterr().out


# ---------------------------------------------------------------------------
# console entry point
# ---------------------------------------------------------------------------

PYPROJECT = Path(__file__).resolve().parents[1] / "pyproject.toml"


def _declared_entry_point():
    """The `adiabound` console script that pyproject.toml declares."""
    if sys.version_info >= (3, 11):
        import tomllib
    else:
        tomllib = pytest.importorskip("tomli")
    with PYPROJECT.open("rb") as fh:
        scripts = tomllib.load(fh)["project"].get("scripts", {})
    assert "adiabound" in scripts, "pyproject.toml declares no adiabound script"
    return EntryPoint("adiabound", scripts["adiabound"], "console_scripts")


def _child_env():
    # children import the same adiabound as this test, whatever the cwd
    pkg_root = str(Path(adiabound.__file__).resolve().parents[1])
    inherited = os.environ.get("PYTHONPATH")
    env = dict(os.environ)
    env["PYTHONPATH"] = pkg_root + (os.pathsep + inherited if inherited else "")
    return env


def _assert_validate_ok(proc):
    assert proc.returncode == 0, proc.stderr
    assert "m values" in proc.stdout


def _assert_unknown_experiment(proc):
    assert proc.returncode == 1, proc.stderr
    assert "invalid choice: 'nope'" in proc.stderr


@pytest.fixture
def decay_cfg(tmp_path):
    return _write_config(tmp_path, "c.json", {"experiment": "fraction-decay",
                                              "m_values": [8]})


#: the scipy packages that nothing but ARPACK's Lanczos branch may load
_SCIPY_AT_RUN_TIME = {"scipy.linalg", "scipy.sparse", "scipy.special", "scipy.stats",
                      "scipy.optimize", "scipy.integrate"}


def _modules_after(code: str) -> set[str]:
    """The modules loaded once a fresh interpreter has run ``code``."""
    code += "\nimport sys; print(' '.join(sys.modules))"
    proc = subprocess.run([sys.executable, "-c", code], capture_output=True, text=True,
                          env=_child_env(), check=True)
    return set(proc.stdout.split())


def test_import_leaves_out_unused_scipy_packages():
    loaded = _modules_after("import adiabound, adiabound.cli")
    assert "adiabound.cli" in loaded
    assert not loaded & _SCIPY_AT_RUN_TIME


def test_dense_scans_and_ground_states_load_no_scipy():
    # the gap scans and ground states of the benchmark's stats-spectrum pass
    loaded = _modules_after("""
import adiabound as ab
schedule = ab.make_schedule("linear", 1.0)
for bundle in (ab.build_grover(4096), ab.build_tsp_finite(ab.random_instance(4, 7))):
    ab.gap_scan(bundle.h_i, bundle.h_p, schedule, grid=41)
ab.ground_state(ab.build_tsp_rank(ab.random_instance(4, 7)).h_i)
ab.ground_state(ab.build_tsp_tuple(ab.random_instance(3, 7)).h_i)
""")
    assert "adiabound.bounds" in loaded
    assert not loaded & _SCIPY_AT_RUN_TIME


def test_blas_thread_count_does_not_move_the_hash(tmp_path):
    # BLAS fixes its thread count at import, so each count gets a fresh interpreter
    cfg = _write_config(tmp_path, "c.json", {"experiment": "grover-sweep", "n_values": [64]})
    hashes = []
    for threads in ("1", "2"):
        out = tmp_path / f"out-{threads}"
        proc = subprocess.run(
            [sys.executable, "-m", "adiabound.cli", "grover-sweep", "--config", cfg,
             "--out", str(out), "--seed", "1"],
            capture_output=True, text=True, env={**_child_env(), "OPENBLAS_NUM_THREADS": threads})
        assert proc.returncode == 0, proc.stderr
        hashes.append(json.loads((out / "manifest.json").read_text())["content_hash"])
    assert hashes[0] == hashes[1]


def test_readme_quotes_the_one_thread_hash_of_its_blas_example(tmp_path):
    # README names a gap scan whose hash moves with the BLAS thread count; its
    # one-thread value must stay what a fresh one-thread interpreter writes
    readme = " ".join(README.read_text().split())
    quoted = re.search(r"gap-scan tsp-finite `dsq_policy random` `cities 4` `grid 11` "
                       r"`--seed 1` \(a 238-dimensional sector\) gives `([0-9a-f]{12})` "
                       r"with one BLAS thread", readme).group(1)
    cfg = _write_config(tmp_path, "c.json", {
        "experiment": "gap-scan", "model": {"model": "tsp-finite", "dsq_policy": "random"},
        "instance": {"cities": 4}, "grid": 11})
    out = tmp_path / "out"
    proc = subprocess.run(
        [sys.executable, "-m", "adiabound.cli", "gap-scan", "--config", cfg,
         "--out", str(out), "--seed", "1"],
        capture_output=True, text=True, env={**_child_env(), "OPENBLAS_NUM_THREADS": "1"})
    assert proc.returncode == 0, proc.stderr
    assert json.loads((out / "manifest.json").read_text())["content_hash"][:12] == quoted


def test_console_script_installed(decay_cfg):
    entry = _declared_entry_point()
    assert entry.load() is cli.main

    # what a generated console-script wrapper runs
    wrapper = (f"import sys; from {entry.module} import {entry.attr}; "
               f"sys.exit({entry.attr}())")
    env = _child_env()
    proc = subprocess.run([sys.executable, "-c", wrapper, "validate", "--config", decay_cfg],
                          capture_output=True, text=True, env=env)
    _assert_validate_ok(proc)

    bad = subprocess.run([sys.executable, "-m", "adiabound.cli", "nope", "--config", decay_cfg],
                         capture_output=True, text=True, env=env)
    _assert_unknown_experiment(bad)


@pytest.mark.skipif(shutil.which("adiabound") is None,
                    reason="no adiabound executable on PATH (needs pip install)")
def test_console_script_executable(decay_cfg):
    env = _child_env()
    proc = subprocess.run(["adiabound", "validate", "--config", decay_cfg],
                          capture_output=True, text=True, env=env)
    _assert_validate_ok(proc)

    bad = subprocess.run(["adiabound", "nope", "--config", decay_cfg],
                         capture_output=True, text=True, env=env)
    _assert_unknown_experiment(bad)
