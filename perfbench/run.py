"""Wall-clock benchmark of the SCALO reproduction: serve, seizure, ingest-churn.

Run from the repository root:

    python3 perfbench/run.py --workload serve --seed 0 --seconds 10 --trace 0

Every set-up measurement and every timed phase runs in a fresh
interpreter (``perfbench/worker.py``), one after another, so this process
starts no threads.  ``--trace 0`` reports the end-to-end metrics of
``BENCHMARK.json``: it sets the workload up ``SETUPS`` times (the last
one goes on to the timed phase) and reports the median set-up time.
``--trace 1`` reports the per-layer metrics: half the time untraced,
half with every layer probe installed, so the tracing overhead is
measured too.  ``--workload all`` runs the three workloads in turn.

The human-readable table goes to standard output; the last line is one
JSON object with ``correct``, ``attempted``, ``failed`` and
``metrics``.  The full result (machine, commit, seed, item and repeat
counts, digests, samples) is written under ``--results``.  The exit
code is 1 when an output check failed, 2 when the benchmark could not
run.
"""

from __future__ import annotations

import argparse
import compileall
import hashlib
import json
import os
import platform
import statistics
import subprocess
import sys
import time
from pathlib import Path

from workloads import WORKLOADS

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
SRC = ROOT / "src"
SPEC = ROOT / "BENCHMARK.json"
#: fresh-interpreter set-ups per end-to-end run (median reported)
SETUPS = 5
#: wall-clock cap on any one worker
WORKER_TIMEOUT_S = 150


class BenchError(RuntimeError):
    """The benchmark could not run (as opposed to: it ran and was wrong)."""


def worker_env() -> dict:
    env = dict(os.environ)
    env["PYTHONPATH"] = os.pathsep.join([str(SRC), str(HERE)])
    # fixed hashing and one BLAS thread: fewer run-to-run layout and
    # scheduling differences on a small shared machine
    env["PYTHONHASHSEED"] = "0"
    for var in ("OMP_NUM_THREADS", "OPENBLAS_NUM_THREADS", "MKL_NUM_THREADS"):
        env[var] = "1"
    return env


def run_worker(workload: str, seed: int, mode: str, seconds: float = 0.0,
               extra=()) -> dict:
    """Run one worker interpreter to completion; return its JSON result."""
    cmd = [
        sys.executable, str(HERE / "worker.py"), "--workload", workload,
        "--seed", str(seed), "--mode", mode, "--seconds", str(seconds),
        *extra,
    ]
    spawned = time.monotonic()
    try:
        proc = subprocess.run(
            cmd, cwd=ROOT, env=worker_env(), stdout=subprocess.PIPE,
            timeout=WORKER_TIMEOUT_S, text=True,
        )
    except subprocess.TimeoutExpired as exc:
        raise BenchError(f"{mode} worker for {workload} timed out") from exc
    if proc.returncode != 0:
        raise BenchError(
            f"{mode} worker for {workload} exited {proc.returncode}"
        )
    lines = proc.stdout.strip().splitlines()
    if not lines:
        raise BenchError(f"{mode} worker for {workload} printed nothing")
    result = json.loads(lines[-1])
    result["setup_s"] = result["ready_monotonic"] - spawned
    return result


# -- provenance ----------------------------------------------------------------------


def commit_id() -> str | None:
    """HEAD's commit when the tree is a git checkout, else ``None``."""
    git = ROOT / ".git"
    try:
        head = (git / "HEAD").read_text().strip()
        if not head.startswith("ref: "):
            return head
        ref = head[5:]
        loose = git / ref
        if loose.exists():
            return loose.read_text().strip()
        for line in (git / "packed-refs").read_text().splitlines():
            if line.endswith(" " + ref):
                return line.split()[0]
    except OSError:
        return None
    return None


def source_digest() -> str:
    """SHA-256 over every ``src/**/*.py`` path and content."""
    h = hashlib.sha256()
    for path in sorted(SRC.rglob("*.py")):
        h.update(str(path.relative_to(ROOT)).encode())
        h.update(path.read_bytes())
    return h.hexdigest()


def machine() -> dict:
    versions = {}
    for module in ("numpy", "scipy"):
        try:
            versions[module] = __import__(module).__version__
        except ImportError:
            versions[module] = None
    return {
        "nproc": os.cpu_count(),
        "python": platform.python_version(),
        "platform": platform.platform(),
        **versions,
    }


# -- one workload ---------------------------------------------------------------------


def load_spec() -> dict:
    return json.loads(SPEC.read_text())


def end_to_end(workload: str, seed: int, seconds: float, extra) -> dict:
    setups = [
        run_worker(workload, seed, "setup", extra=extra)
        for _ in range(SETUPS - 1)
    ]
    timed = run_worker(workload, seed, "timed", seconds, extra)
    setups.append(timed)
    problems = list(timed["problems"])
    metrics = {
        "setup_s": statistics.median(s["setup_s"] for s in setups),
        "throughput_per_s": timed["throughput_per_s"],
        "peak_rss_mb": timed["peak_rss_mb"],
    }
    return {
        "attempted": timed["attempted"],
        "failed": timed["failed"],
        "problems": problems,
        "metrics": metrics,
        "runs": {"setup_s": [s["setup_s"] for s in setups], "timed": timed},
        "error_rate": timed["failed"] / timed["attempted"],
    }


def per_layer(workload: str, seed: int, seconds: float, spans: Path,
              extra) -> dict:
    plain = run_worker(workload, seed, "timed", seconds / 2, extra)
    traced = run_worker(workload, seed, "traced", seconds / 2,
                        [*extra, "--spans", str(spans)])
    problems = list(plain["problems"]) + list(traced["problems"])
    metrics = dict(traced["layers"])
    metrics["startup.import_s"] = statistics.median(
        [plain["import_s"], traced["import_s"]]
    )
    counters = traced["counters"]
    lookups = counters.get("query.cache_hit", 0) + counters.get(
        "query.cache_miss", 0
    )
    metrics["query.cache_hit_ratio"] = (
        counters["query.cache_hit"] / lookups if lookups else 0.0
    )
    waves = counters.get("serving.waves", 0)
    metrics["serving.coalesce_ratio"] = (
        counters["serving.responses"] / waves if waves else 0.0
    )
    metrics["core.round_ms_p50"] = plain["round_ms_p50"]
    metrics["core.round_ms_p99"] = plain["round_ms_p99"]
    slow = traced["throughput_per_s"]
    metrics["trace.overhead_pct"] = (
        (plain["throughput_per_s"] / slow - 1.0) * 100.0 if slow else 0.0
    )
    attempted = plain["attempted"] + traced["attempted"]
    failed = plain["failed"] + traced["failed"]
    return {
        "attempted": attempted,
        "failed": failed,
        "problems": problems,
        "metrics": metrics,
        "runs": {"untraced": plain, "traced": traced},
        "error_rate": failed / attempted,
    }


def describe(spec_metrics: list[dict], values: dict) -> dict:
    """Order and label the metrics the way ``BENCHMARK.json`` lists them."""
    missing = [m["name"] for m in spec_metrics if m["name"] not in values]
    if missing:
        raise BenchError(f"metrics not measured: {missing}")
    return {
        m["name"]: {"value": values[m["name"]], "unit": m["unit"]}
        for m in spec_metrics
    }


def print_table(workload: str, result: dict) -> None:
    print(f"== {workload}: seed {result['seed']}, "
          f"{result['episodes']} episodes ({result['passes']:g} passes of "
          f"{result['items_per_pass']} items), attempted "
          f"{result['attempted']}, failed {result['failed']}, error_rate "
          f"{result['error_rate']:.4f}")
    for name, metric in result["metrics"].items():
        print(f"  {name:28s} {metric['value']:14.6g} {metric['unit']}")
    for key, value in result["sim"].items():
        print(f"  sim.{key:24s} {value!s:>14}")
    for problem in result["problems"]:
        print(f"  CHECK FAILED: {problem}")


def run_workload(workload: str, seed: int, seconds: float, trace: bool,
                 results: Path, spec: dict, extra=()) -> dict:
    if trace:
        spans = results / f"{workload}-seed{seed}-spans.json.gz"
        raw = per_layer(workload, seed, seconds, spans, extra)
        metrics = describe(spec["per_layer"], raw["metrics"])
        timed = raw["runs"]["traced"]
    else:
        raw = end_to_end(workload, seed, seconds, extra)
        metrics = describe(spec["end_to_end"], raw["metrics"])
        timed = raw["runs"]["timed"]
    result = {
        "workload": workload,
        "seed": seed,
        "trace": int(trace),
        "seconds": seconds,
        "commit": commit_id(),
        "source_sha256": source_digest(),
        "machine": machine(),
        "episodes": timed["episodes"],
        "passes": timed["passes"],
        "items_per_pass": timed["items_per_pass"],
        "attempted": raw["attempted"],
        "failed": raw["failed"],
        "error_rate": raw["error_rate"],
        "problems": raw["problems"],
        "digests": timed["digests"],
        "sim": timed["sim"],
        "metrics": metrics,
        "runs": raw["runs"],
    }
    out = results / f"{workload}-seed{seed}-trace{int(trace)}.json"
    out.write_text(json.dumps(result, indent=1) + "\n")
    return result


def parse_args(argv=None):
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True,
                        choices=(*WORKLOADS, "all"))
    parser.add_argument("--seed", type=int, default=0)
    parser.add_argument("--seconds", type=float, default=None,
                        help="timed seconds per run (default: run_seconds "
                             "of BENCHMARK.json)")
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--results", type=Path,
                        default=ROOT / ".perfbench" / "results",
                        help="directory for the full result files")
    parser.add_argument("--delay", action="append", default=[],
                        metavar="MODULE:NAME=SECONDS",
                        help="slow one function down per call in the timed "
                             "phase (the negative control)")
    return parser.parse_args(argv)


def main(argv=None) -> int:
    args = parse_args(argv)
    if not (SRC / "repro" / "__init__.py").exists():
        print(f"perfbench: no program source at {SRC}", file=sys.stderr)
        return 2
    spec = load_spec()
    seconds = args.seconds if args.seconds is not None else spec["run_seconds"]
    args.results.mkdir(parents=True, exist_ok=True)
    # compile once up front, so set-up times measure imports, not compiles
    compileall.compile_dir(str(SRC), quiet=1)
    extra = [arg for delay in args.delay for arg in ("--delay", delay)]
    names = tuple(WORKLOADS) if args.workload == "all" else (args.workload,)
    summary = {"correct": True, "attempted": 0, "failed": 0, "metrics": {}}
    try:
        for name in names:
            result = run_workload(name, args.seed, seconds, bool(args.trace),
                                  args.results, spec, extra)
            print_table(name, result)
            summary["correct"] &= not result["problems"]
            summary["attempted"] += result["attempted"]
            summary["failed"] += result["failed"]
            prefix = "" if len(names) == 1 else f"{name}."
            for key, metric in result["metrics"].items():
                summary["metrics"][prefix + key] = metric
    except BenchError as exc:
        print(f"perfbench: {exc}", file=sys.stderr)
        return 2
    print(json.dumps(summary))
    return 0 if summary["correct"] else 1


if __name__ == "__main__":
    sys.exit(main())
