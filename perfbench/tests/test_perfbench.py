"""Tests of the benchmark's own machinery: the tracer and the comparison.

Run from the repository root with ``python3 -m pytest perfbench/tests``.
The negative control, which runs the benchmark itself, is in
``test_negative_control.py``.
"""

from __future__ import annotations

import sys
import time
from pathlib import Path

import pytest

HERE = Path(__file__).resolve().parent.parent
sys.path[:0] = [str(HERE.parent / "src"), str(HERE)]

from compare import verdict  # noqa: E402
from tracer import PROBES, Patcher, Tracer, add_delay, percentile, resolve  # noqa: E402


def test_every_probe_resolves():
    for _, _, target in PROBES:
        _, _, original = resolve(target)
        assert callable(original), target


def test_module_function_is_wrapped_where_imported_by_name():
    import repro.storage.nvm as nvm
    from repro.recovery import ecc

    original = ecc.decode_page
    patcher = Patcher()
    patcher.replace("repro.recovery.ecc:decode_page", lambda f: lambda *a: f(*a))
    try:
        assert nvm.decode_page is not original
        assert ecc.decode_page is nvm.decode_page
    finally:
        patcher.restore()
    assert nvm.decode_page is original and ecc.decode_page is original


def test_self_time_subtracts_children_and_counts_outermost_calls():
    import numpy as np
    from repro.storage.controller import StorageController

    controller = StorageController()
    tracer = Tracer()
    tracer.install()
    try:
        tracer.on = True
        start = time.perf_counter()
        controller.store_window(0, 0, np.arange(120))
        controller.read_window(0, 0)
        wall = time.perf_counter() - start
        tracer.on = False
    finally:
        tracer.uninstall()
    out = tracer.summary(passes=1, wall_s=wall)
    # store_window -> rewrite/program_page are one outermost write call;
    # read_window -> NVMDevice.read is one outermost read call
    assert out["storage.write_calls"] == 1
    assert out["storage.read_calls"] == 1
    assert out["ecc.decode_calls"] >= 1 and out["ecc.encode_calls"] >= 1
    layer_self = sum(v for k, v in out.items() if k.endswith(".self_ms"))
    assert layer_self + out["trace.unattributed_ms"] == pytest.approx(
        wall * 1e3
    )
    assert out["storage.write_ms"] >= out["storage.self_ms"] - 1e-9
    assert out["ecc.clean_ratio"] == 1.0


def test_tracer_records_nothing_while_off():
    import numpy as np
    from repro.storage.controller import StorageController

    tracer = Tracer()
    tracer.install()
    try:
        StorageController().store_window(0, 0, np.arange(120))
    finally:
        tracer.uninstall()
    assert len(tracer) == 0


def test_delay_slows_the_wrapped_function():
    from repro.recovery import ecc

    data = bytes(4096)
    code = ecc.compute_ecc(data)
    patcher = Patcher()
    add_delay(patcher, "repro.recovery.ecc:decode_page", 0.01)
    try:
        start = time.perf_counter()
        assert ecc.decode_page(data, code).ok
        assert time.perf_counter() - start >= 0.01
    finally:
        patcher.restore()


@pytest.mark.parametrize(
    "base, change, better, expected",
    [
        ([100, 101, 99, 100], [70, 71, 69, 70], "higher", "worse"),
        ([100, 101, 99, 100], [99, 100, 101, 100], "higher", "unchanged"),
        ([100, 101, 99, 100], [130, 131, 129, 130], "higher", "better"),
        ([1.0, 1.0, 1.0, 1.0], [1.3, 1.3, 1.3, 1.3], "lower", "worse"),
        ([60, 100, 140, 100], [95, 100, 105, 100], "higher", "unresolved"),
    ],
)
def test_verdicts(base, change, better, expected):
    assert verdict(base, change, better, 0.15)[0] == expected


def test_percentile_is_nearest_rank():
    values = sorted(range(1, 101))
    assert percentile(values, 50) == 50
    assert percentile(values, 99) == 99
    assert percentile([], 99) == 0.0
