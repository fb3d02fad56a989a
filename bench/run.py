"""adiabound benchmark: one workload per invocation, end to end or traced.

    python3 bench/run.py --workload anneal|grover-cli|stats-spectrum
        [--seed N] [--seconds S] [--trace 0|1] [--quick]

Run it from the root of a source checkout; it imports ``adiabound`` from
``src/`` and installs nothing.  The workload, its inputs (all drawn from
``--seed``) and its output checks live in ``bench/workloads.py``.

``--trace 0`` prints the end-to-end metrics of BENCHMARK.json:

* ``setup_s``: median wall time of three fresh interpreters that import
  adiabound and make the workload's inputs, spawn to exit.
* ``wall_s``, ``cpu_s`` (user + system, all threads) and ``peak_rss_mb``
  (``ru_maxrss``): medians over passes.  A pass runs every item of the
  workload once and checks its outputs, in a fresh process, so caches start
  cold.  Passes repeat until ``--seconds`` have gone by, and at least twice:
  on a shared host the speed drifts over tens of seconds, and a second pass
  averages over more of it.

``--trace 1`` runs one untraced pass and one traced pass and prints the
per-layer metrics, derived from spans around every call the benchmark makes
into adiabound; ``bench.trace_overhead_s`` is the traced pass's wall time
minus the untraced one.  Spans are written to ``.bench_out/``.

Every process started gets OPENBLAS_NUM_THREADS=OMP_NUM_THREADS=1, so the
cli's two worker threads keep the total at or below two cores.  Scratch
files go to a temporary directory under ``.bench_tmp/``, removed on exit.

The last line of stdout is one JSON object: ``correct``, ``attempted``,
``failed`` and ``metrics``.  ``failed / attempted`` is the failed fraction
of checked outputs.  ``correct`` is false when any output fails other than
the standing known failure that ``bench/workloads.py`` marks.  Exit codes:
0 after a result, 2 when the checkout has no ``src/adiabound``, 3 when a
pass crashed or ran out of time.
"""
from __future__ import annotations

import argparse
import json
import os
import shutil
import statistics
import subprocess
import sys
import tempfile
import time
from pathlib import Path

BENCH = Path(__file__).resolve().parent
ROOT = BENCH.parent
WORKLOAD_NAMES = ("anneal", "grover-cli", "stats-spectrum")
SETUP_REPEATS = 3
MIN_PASSES = 2
TIME_LIMIT_S = 170.0  # a run must end within 180 s


class BenchError(Exception):
    pass


def child_env() -> dict:
    env = dict(os.environ)
    src = str(ROOT / "src")
    env["PYTHONPATH"] = src + (os.pathsep + env["PYTHONPATH"] if env.get("PYTHONPATH") else "")
    for var in ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS"):
        env[var] = "1"
    env.pop("ADIABOUND_THREADS", None)
    return env


class Runner:
    def __init__(self, args, tmp: Path):
        self.args = args
        self.tmp = tmp
        self.env = child_env()
        self.deadline = time.monotonic() + TIME_LIMIT_S
        self.count = 0

    def worker(self, mode: str) -> tuple[float, dict | None]:
        """Run bench/worker.py once; returns (spawn-to-exit seconds, result)."""
        self.count += 1
        result = self.tmp / f"result-{self.count}.json"
        work = self.tmp / f"work-{self.count}"
        work.mkdir()
        cmd = [sys.executable, str(BENCH / "worker.py"), mode,
               "--workload", self.args.workload, "--seed", str(self.args.seed),
               "--tmp", str(work), "--result", str(result)]
        if mode == "trace":
            out_dir = ROOT / ".bench_out"
            out_dir.mkdir(exist_ok=True)
            cmd += ["--spans", str(out_dir / f"spans-{self.args.workload}-s{self.args.seed}.json")]
        if self.args.quick:
            cmd.append("--quick")
        remaining = self.deadline - time.monotonic()
        if remaining <= 0:
            raise BenchError("time limit reached before the next pass")
        t0 = time.perf_counter()
        try:
            proc = subprocess.run(cmd, env=self.env, cwd=ROOT, capture_output=True,
                                  text=True, timeout=remaining)
        except subprocess.TimeoutExpired as exc:
            raise BenchError(f"{mode} pass exceeded the {TIME_LIMIT_S:.0f} s limit") from exc
        elapsed = time.perf_counter() - t0
        if proc.returncode != 0:
            raise BenchError(f"{mode} pass exited {proc.returncode}:\n{proc.stderr[-4000:]}")
        data = json.loads(result.read_text()) if mode != "setup" else None
        shutil.rmtree(work, ignore_errors=True)
        return elapsed, data


def tally(passes: list[dict]) -> dict:
    out = {"attempted": sum(p["attempted"] for p in passes),
           "failed": sum(p["failed"] for p in passes),
           "known_failed": sum(p["known_failed"] for p in passes),
           "correct": all(p["correct"] for p in passes),
           "errors": [e for p in passes for e in p["errors"]]}
    # the cli's content hashes must not change between passes or thread counts
    hashes = [p["notes"]["content_hash"] for p in passes if "content_hash" in p["notes"]]
    for kind in sorted(hashes[0]) if hashes else ():
        out["attempted"] += 1
        if len({h[kind] for h in hashes}) != 1 or hashes[0][kind] is None:
            out["failed"] += 1
            out["correct"] = False
            out["errors"].append(f"content_hash of {kind} differs between passes")
    return out


def declared(kind: str) -> dict[str, str]:
    spec = json.loads((ROOT / "BENCHMARK.json").read_text())
    return {m["name"]: m["unit"] for m in spec[kind]}


def cpu_model() -> str:
    try:
        for line in Path("/proc/cpuinfo").read_text().splitlines():
            if line.startswith("model name"):
                return line.split(":", 1)[1].strip()
    except OSError:
        pass
    return "unknown"


def git_commit() -> str:
    git = ROOT / ".git"
    try:
        head = (git / "HEAD").read_text().strip()
        if not head.startswith("ref: "):
            return head
        ref = head[5:]
        if (git / ref).is_file():
            return (git / ref).read_text().strip()
        for line in (git / "packed-refs").read_text().splitlines():
            if line.endswith(" " + ref):
                return line.split()[0]
    except OSError:
        pass
    return "unknown (not a git checkout)"


def src_lines() -> int:
    return sum(len(p.read_text().splitlines()) for p in (ROOT / "src").rglob("*.py"))


def environment(args, runtime: dict) -> dict:
    return {"workload": args.workload, "seed": args.seed, "nproc": os.cpu_count(),
            "affinity": len(os.sched_getaffinity(0)), "cpu": cpu_model(), **runtime,
            "git_commit": git_commit(), "src_lines": src_lines()}


def measure(runner: Runner, args) -> tuple[dict, dict, dict]:
    """Untraced run: set-up timings, then passes for --seconds."""
    setups = [runner.worker("setup")[0] for _ in range(SETUP_REPEATS)]
    passes = []
    t0 = time.monotonic()
    while len(passes) < MIN_PASSES or time.monotonic() - t0 < args.seconds:
        passes.append(runner.worker("body")[1])
    metrics = {
        "setup_s": statistics.median(setups),
        "wall_s": statistics.median(p["wall_s"] for p in passes),
        "cpu_s": statistics.median(p["cpu_s"] for p in passes),
        "peak_rss_mb": statistics.median(p["peak_rss_mb"] for p in passes),
    }
    info = {"setup_runs_s": setups, "pass_wall_s": [p["wall_s"] for p in passes],
            "notes": [p["notes"] for p in passes]}
    return metrics, tally(passes), {**info, "env": passes[0]["env"]}


def traced(runner: Runner, args) -> tuple[dict, dict, dict]:
    """One untraced pass for the overhead baseline, then one traced pass."""
    plain = runner.worker("body")[1]
    trace = runner.worker("trace")[1]
    metrics = dict(trace["layers"])
    metrics["bench.trace_overhead_s"] = trace["wall_s"] - plain["wall_s"]
    info = {"untraced_wall_s": plain["wall_s"], "traced_wall_s": trace["wall_s"],
            "notes": [plain["notes"], trace["notes"]]}
    return metrics, tally([plain, trace]), {**info, "env": trace["env"]}


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description="adiabound benchmark (see module docstring)")
    parser.add_argument("--workload", required=True, choices=WORKLOAD_NAMES)
    parser.add_argument("--seed", type=int, default=0)
    parser.add_argument("--seconds", type=float, default=10.0)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--quick", action="store_true",
                        help="reduced sizes, for the benchmark's own test")
    args = parser.parse_args(argv)
    if args.seed < 0:
        parser.error("--seed must be >= 0")
    if not (ROOT / "src" / "adiabound" / "__init__.py").is_file():
        print(f"error: no adiabound sources under {ROOT / 'src'}; run from a source checkout",
              file=sys.stderr)
        return 2

    kind = "per_layer" if args.trace else "end_to_end"
    units = declared(kind)
    (ROOT / ".bench_tmp").mkdir(exist_ok=True)
    tmp = Path(tempfile.mkdtemp(prefix=f"{args.workload}-", dir=ROOT / ".bench_tmp"))
    try:
        runner = Runner(args, tmp)
        metrics, counts, info = (traced if args.trace else measure)(runner, args)
    except BenchError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 3
    finally:
        shutil.rmtree(tmp, ignore_errors=True)

    if set(metrics) != set(units):
        print(f"error: metrics {sorted(set(metrics) ^ set(units))} do not match "
              f"BENCHMARK.json's {kind}", file=sys.stderr)
        return 3
    print("env " + json.dumps(environment(args, info.pop("env"))))
    print("info " + json.dumps(info))
    for err in counts["errors"]:
        print("item error: " + err.replace("\n", " | "))
    for name in units:
        print(f"{name} = {metrics[name]!r} {units[name]}")
    attempted, failed = counts["attempted"], counts["failed"]
    print(f"fail_frac = {failed / attempted!r} ratio ({failed} failed of {attempted} "
          f"checked outputs; {counts['known_failed']} of them the standing known failure)")
    print(json.dumps({"correct": counts["correct"], "attempted": attempted, "failed": failed,
                      "metrics": {n: {"value": metrics[n], "unit": units[n]} for n in units}}))
    return 0


if __name__ == "__main__":
    sys.exit(main())
