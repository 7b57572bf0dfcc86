"""Negative control: a slower ECC decoder must be caught, and only where it runs.

The benchmark is run twice per workload on the same seeds: once as is
and once with ``decode_page`` slowed from outside by a 200 us busy wait
per call.  ``compare.py`` must flag ``throughput_per_s`` as worse on
``serve`` (reads decode every page) and ``ingest-churn`` (every partial
page write decodes first), and must not flag ``seizure``, which never
touches NVM.  This proves that the bounds can fail and that the
layer-to-workload mapping in ``README.md`` holds.

Takes about three minutes: ``python3 -m pytest perfbench/tests -q``.
"""

from __future__ import annotations

import json
import subprocess
import sys
from pathlib import Path

import pytest

HERE = Path(__file__).resolve().parent.parent
ROOT = HERE.parent
sys.path.insert(0, str(HERE))

from compare import compare, load  # noqa: E402

SEEDS = (1, 2, 3)
SECONDS = "8"
DELAY = "repro.recovery.ecc:decode_page=0.0002"


def bench(workload: str, seed: int, results: Path, *extra: str) -> None:
    proc = subprocess.run(
        [sys.executable, str(HERE / "run.py"), "--workload", workload,
         "--seed", str(seed), "--seconds", SECONDS, "--trace", "0",
         "--results", str(results), *extra],
        cwd=ROOT, stdout=subprocess.PIPE, text=True, timeout=300,
    )
    assert proc.returncode == 0, proc.stdout
    assert json.loads(proc.stdout.splitlines()[-1])["correct"]


@pytest.mark.parametrize(
    "workload, flagged",
    [("serve", True), ("ingest-churn", True), ("seizure", False)],
)
def test_slow_decode_is_flagged_only_where_pages_are_decoded(
    workload, flagged, tmp_path
):
    base, slow = tmp_path / "base", tmp_path / "slow"
    for seed in SEEDS:
        bench(workload, seed, base)
        bench(workload, seed, slow, "--delay", DELAY)
    spec = json.loads((ROOT / "BENCHMARK.json").read_text())
    report = compare(load(base), load(slow), spec)
    row = report["end_to_end"][(workload, "throughput_per_s")]
    if flagged:
        assert row["verdict"] == "worse", row
    else:
        assert row["verdict"] != "worse", row
