"""One benchmark interpreter: set a workload up, then time or trace it.

``run.py`` starts this script in a fresh interpreter for every set-up
measurement and every timed phase, so each pays the real import and
set-up cost.  The result is one JSON line on standard output.

    python3 perfbench/worker.py --workload serve --seed 0 --mode timed \
        --seconds 10

Modes: ``setup`` (set up, report when ready, exit), ``timed`` (run
episodes untraced for ``--seconds``) and ``traced`` (the same with every
layer probe of :mod:`tracer` installed, whole passes only).
"""

from __future__ import annotations

import argparse
import hashlib
import json
import resource
import statistics
import sys
import time
import traceback
from pathlib import Path

import numpy as np

HERE = Path(__file__).resolve().parent

#: host seconds :func:`calibrate` takes on the reference machine (see
#: README.md); throughput is reported at this machine speed
CALIBRATION_REF_S = 0.0105

_CAL_SIGNAL = np.random.default_rng(0).standard_normal(512)
_CAL_PAGE = np.random.default_rng(1).integers(0, 256, 4096, dtype=np.uint8)


def calibrate() -> float:
    """Host seconds for a fixed mix of interpreter, hashlib and numpy work.

    The mix resembles the workloads' own (small-array numpy, dict and
    loop code, blake2b digests, whole-page bit operations) but calls
    nothing in ``repro``, so a change to the program cannot move it.
    Timed next to every episode, it tracks how fast this shared machine
    is running at that moment.
    """
    t0 = time.perf_counter()
    acc = 0.0
    for i in range(400):
        acc += float(np.abs(_CAL_SIGNAL[i : i + 64]).sum())
    counts: dict[int, int] = {}
    for i in range(16000):
        counts[i % 97] = counts.get(i % 97, 0) + i
    raw = _CAL_SIGNAL.tobytes()
    for i in range(400):
        hashlib.blake2b(raw[i : i + 64], digest_size=8).digest()
    for _ in range(30):
        bits = np.unpackbits(_CAL_PAGE)
        np.bitwise_xor.reduce(np.flatnonzero(bits))
    return time.perf_counter() - t0


def parse_args(argv=None):
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--mode", choices=("setup", "timed", "traced"),
                        required=True)
    parser.add_argument("--seconds", type=float, default=10.0)
    parser.add_argument("--spans", help="write the traced spans here (.json.gz)")
    parser.add_argument("--delay", action="append", default=[],
                        metavar="MODULE:NAME=SECONDS",
                        help="slow one function down per call "
                             "(negative control)")
    return parser.parse_args(argv)


def run_episodes(workload, seconds: float, tracer=None, expected=None) -> dict:
    """Cycle through the sub-episodes until ``seconds`` of host time pass.

    Sub-episode ``m`` must reproduce ``expected[m]`` (the recorded
    reference digests) when given, else the digest of its first run.

    Every sub-episode runs at least once.  Untraced, a new episode starts
    only while one more of the last episode's length fits in the time
    left; traced, only whole passes over the sub-episodes run, so
    per-pass figures cover the same work.
    """
    from workloads import EpisodeClock

    n_sub = workload.n_sub
    reference = dict(enumerate(expected)) if expected else {}
    sims = {}
    samples = []  # (m, items, busy_s, calibration_s)
    scales = []  # per episode: CALIBRATION_REF_S / calibration_s
    problems = []
    rounds = []
    counters: dict[str, float] = {}
    attempted = failed = 0
    t_start = time.perf_counter()
    deadline = t_start + seconds
    k = 0
    while True:
        m = k % n_sub
        clock = EpisodeClock(tracer)
        if tracer is not None:
            tracer.run_id = k
        before = min(calibrate(), calibrate())
        t0 = time.perf_counter()
        try:
            outcome = workload.episode(m, clock)
        except Exception:  # one broken episode must not hide the others
            traceback.print_exc(file=sys.stderr)
            outcome = None
            if tracer is not None:
                tracer.on = False
        wall = time.perf_counter() - t0
        speed = (before + min(calibrate(), calibrate())) / 2
        scales.append(CALIBRATION_REF_S / speed)
        items = workload.items(m)
        attempted += items
        bad = outcome is None or bool(outcome.problems)
        if outcome is not None:
            if reference.setdefault(m, outcome.digest) != outcome.digest:
                outcome.problems.append(
                    f"sub-episode {m}: digest {outcome.digest} "
                    f"!= expected {reference[m]}"
                )
                bad = True
            sims.setdefault(m, outcome.sim)
            problems.extend(outcome.problems)
            rounds.extend(t * scales[-1] for t in outcome.round_s)
            for key, value in outcome.counters.items():
                counters[key] = counters.get(key, 0) + value
            if not bad:
                samples.append((m, items, clock.busy_s, speed))
        else:
            problems.append(f"sub-episode {m} raised")
        if bad:
            failed += items
        k += 1
        now = time.perf_counter()
        if k < n_sub:
            continue
        if tracer is not None:
            if k % n_sub == 0 and now + wall * n_sub > deadline:
                break
        elif now + wall > deadline:
            break
    return {
        "episodes": k,
        "passes": k / n_sub,
        "wall_s": time.perf_counter() - t_start,
        "samples": samples,
        "digests": [reference.get(m) for m in range(n_sub)],
        "reference_checked": bool(expected),
        "sim": workload.sim_summary([sims[m] for m in sorted(sims)])
        if sims else {},
        "problems": problems[:20],
        "attempted": attempted,
        "failed": failed,
        "round_s": rounds,
        "scales": scales,
        "counters": counters,
    }


def throughput(samples, workload, normalise: bool = True) -> float:
    """Items per host second over one pass: each sub-episode's median time.

    With ``normalise``, every episode's time is first rescaled by
    ``CALIBRATION_REF_S / calibration``: the calibration timed just
    before and after it says how fast the machine ran meanwhile, so the
    figure is the throughput at reference machine speed.  The median
    per sub-episode then discards what rescaling missed, and summing
    over sub-episodes keeps every drawn input with its own weight.
    """
    by_m: dict[int, list[float]] = {}
    for m, _, busy, cal in samples:
        scale = CALIBRATION_REF_S / cal if normalise else 1.0
        by_m.setdefault(m, []).append(busy * scale)
    if len(by_m) < workload.n_sub:
        return 0.0
    items = sum(workload.items(m) for m in by_m)
    return items / sum(statistics.median(v) for v in by_m.values())


def main(argv=None) -> int:
    args = parse_args(argv)
    t_import = time.perf_counter()
    import repro.api  # noqa: F401  -- the package's public import path

    import_s = time.perf_counter() - t_import

    from tracer import Patcher, Tracer, add_delay, percentile
    from workloads import WORKLOADS

    cls = WORKLOADS[args.workload]
    workload = cls(args.seed)
    ready = time.monotonic()
    result = {"ready_monotonic": ready, "import_s": import_s}
    if args.mode != "setup":
        patcher = Patcher()
        for spec in args.delay:
            target, _, seconds = spec.rpartition("=")
            add_delay(patcher, target, float(seconds))
        tracer = None
        if args.mode == "traced":
            tracer = Tracer()
            tracer.install()
        recorded = json.loads((HERE / "reference.json").read_text())
        expected = (
            recorded["digests"][args.workload]
            if args.seed == recorded["seed"] else None
        )
        run = run_episodes(workload, args.seconds, tracer, expected)
        run["throughput_per_s"] = throughput(run["samples"], workload)
        run["raw_throughput_per_s"] = throughput(
            run["samples"], workload, normalise=False
        )
        run["calibration_s"] = (
            statistics.median(s[3] for s in run["samples"])
            if run["samples"] else 0.0
        )
        run["items_per_pass"] = sum(workload.items(m) for m in range(cls.n_sub))
        rounds_ms = sorted(t * 1e3 for t in run.pop("round_s"))
        run["round_ms_p50"] = percentile(rounds_ms, 50)
        run["round_ms_p99"] = percentile(rounds_ms, 99)
        if tracer is not None:
            tracer.uninstall()
            busy = sum(s[2] * CALIBRATION_REF_S / s[3] for s in run["samples"])
            run["layers"] = tracer.summary(run["passes"], busy, run["scales"])
            if args.spans:
                tracer.write(args.spans)
        patcher.restore()
        result.update(run)
    result["peak_rss_mb"] = (
        resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0
    )
    print(json.dumps(result))
    return 0


if __name__ == "__main__":
    sys.exit(main())
