"""Layer tracing from outside the program.

The tracer wraps the public functions at each layer boundary of the
``repro`` package (see :data:`PROBES`) and records one span per call:
probe, parent span, run id (the episode), start and end.  Spans live in
flat in-memory arrays while the workload runs and are written out once,
at the end.  A module-level function that other modules import by name
(``decode_page`` in ``repro.storage.nvm``) is replaced in every loaded
``repro`` module that holds it, so it is wrapped where it is called.

A layer's *self time* is the time its spans cover minus the time their
child spans cover.  A probe group's ``_calls``/``_ms`` count only its
outermost calls (a group call nested inside another call of the same
group is part of that call) and ``_ms`` is inclusive time.
"""

from __future__ import annotations

import gzip
import importlib
import json
import sys
import time
from array import array

import numpy as np

#: (probe group, layer, "module:qualified.name").  Module functions are
#: named at their defining module and patched wherever they were
#: imported by name.
PROBES: tuple[tuple[str, str, str], ...] = (
    ("storage.read", "storage", "repro.storage.controller:StorageController.read_window"),
    ("storage.read", "storage", "repro.storage.controller:StorageController.read_hash_batch"),
    ("storage.read", "storage", "repro.storage.nvm:NVMDevice.read"),
    ("storage.read", "storage", "repro.storage.nvm:NVMDevice.check_page"),
    ("storage.write", "storage", "repro.storage.controller:StorageController.store_channel_windows"),
    ("storage.write", "storage", "repro.storage.controller:StorageController.store_window"),
    ("storage.write", "storage", "repro.storage.controller:StorageController.store_hash_batch"),
    ("storage.write", "storage", "repro.storage.nvm:NVMDevice.program_page"),
    ("storage.write", "storage", "repro.storage.nvm:NVMDevice.rewrite_range"),
    ("ecc.decode", "ecc", "repro.recovery.ecc:decode_page"),
    ("ecc.encode", "ecc", "repro.recovery.ecc:compute_ecc"),
    ("recovery.recover", "recovery", "repro.core.system:ScaloSystem.recover_node"),
    ("recovery.replay", "recovery", "repro.storage.controller:StorageController.recover"),
    ("recovery.scrub", "recovery", "repro.recovery.scrub:Scrubber.full_pass"),
    ("recovery.resync", "recovery", "repro.recovery.resync:resync_node"),
    ("recovery.journal", "recovery", "repro.recovery.journal:WriteAheadJournal.append"),
    ("recovery.journal", "recovery", "repro.recovery.journal:WriteAheadJournal.write_checkpoint"),
    ("hashing.scalar", "hashing", "repro.hashing.lsh:LSHFamily.hash_window"),
    ("hashing.batch", "hashing", "repro.hashing.lsh:LSHFamily.hash_channels"),
    ("hashing.batch", "hashing", "repro.hashing.lsh:LSHFamily.hash_windows"),
    ("hashing.collision", "hashing", "repro.hashing.collision:CollisionChecker.check"),
    ("similarity.dtw", "similarity", "repro.similarity.dtw:dtw_distance"),
    ("similarity.dtw", "similarity", "repro.similarity.dtw:dtw_distance_batch"),
    ("query.run", "query", "repro.apps.queries:QueryEngine.run"),
    ("serving.dispatch", "serving", "repro.serving.server:QueryServer.run_until"),
    ("serving.dispatch", "serving", "repro.serving.server:QueryServer.drain"),
    ("serving.step", "serving", "repro.serving.server:QueryServer.step"),
    ("serving.submit", "serving", "repro.serving.server:QueryServer.submit"),
    ("telemetry.health", "telemetry", "repro.telemetry.health.engine:HealthEngine.observe_to"),
    ("telemetry.health", "telemetry", "repro.telemetry.health.engine:HealthEngine.finalize"),
    ("scheduler.solve", "scheduler", "repro.scheduler.ilp:SchedulerProblem.solve"),
    ("network.send", "network", "repro.network.network:WirelessNetwork.send"),
    ("core.ingest", "core", "repro.core.system:ScaloSystem.ingest"),
    ("core.fail", "core", "repro.core.system:ScaloSystem.fail_node"),
    ("apps.detect", "apps", "repro.apps.seizure:SeizureDetector.detect_window"),
)

LAYERS = tuple(dict.fromkeys(layer for _, layer, _ in PROBES))


def resolve(target: str):
    """``"module:Qual.name"`` -> (owner object, attribute, original)."""
    module_name, _, qualname = target.partition(":")
    owner = importlib.import_module(module_name)
    *path, attr = qualname.split(".")
    for part in path:
        owner = getattr(owner, part)
    return owner, attr, owner.__dict__[attr]


class Patcher:
    """Replaces functions in place and puts the originals back."""

    def __init__(self) -> None:
        self._saved: list[tuple[object, str, object]] = []

    def replace(self, target: str, make_wrapper) -> None:
        owner, attr, original = resolve(target)
        wrapper = make_wrapper(original)
        sites = [(owner, attr)]
        if isinstance(owner, type(sys)):
            # a module function: also every `from m import f` binding
            for module in list(sys.modules.values()):
                name = getattr(module, "__name__", "")
                if module is owner or not name.startswith("repro"):
                    continue
                for key, value in list(vars(module).items()):
                    if value is original:
                        sites.append((module, key))
        for site, key in sites:
            self._saved.append((site, key, getattr(site, key)))
            setattr(site, key, wrapper)

    def restore(self) -> None:
        for site, key, value in reversed(self._saved):
            setattr(site, key, value)
        self._saved.clear()


def add_delay(patcher: Patcher, target: str, seconds: float) -> None:
    """Slow one function down by ``seconds`` per call (negative control)."""

    def make(original):
        def delayed(*args, **kwargs):
            end = time.perf_counter() + seconds
            while time.perf_counter() < end:
                pass
            return original(*args, **kwargs)

        return delayed

    patcher.replace(target, make)


class Tracer:
    """Records one span per probed call into flat arrays."""

    def __init__(self) -> None:
        self.on = False
        self.run_id = 0
        self.groups = tuple(dict.fromkeys(group for group, _, _ in PROBES))
        self.group_layer = {group: layer for group, layer, _ in PROBES}
        self.probe = array("h")
        self.parent = array("i")
        self.run = array("i")
        self.outer = bytearray()
        self.start = array("d")
        self.end = array("d")
        self.stack: list[int] = []
        self.depth = [0] * len(self.groups)
        #: decode_page results that found a clean page
        self.clean_decodes = 0
        #: spans of QueryServer.step calls that dispatched a wave
        self.waves: list[int] = []
        self.patcher = Patcher()

    def install(self) -> None:
        for group, _, target in PROBES:
            self.patcher.replace(target, self._wrapper_factory(group))

    def uninstall(self) -> None:
        self.patcher.restore()

    def _wrapper_factory(self, group: str):
        gid = self.groups.index(group)
        tracer = self
        clean = group == "ecc.decode"
        wave = group == "serving.step"

        def make(original):
            def traced(*args, **kwargs):
                if not tracer.on:
                    return original(*args, **kwargs)
                stack = tracer.stack
                idx = len(tracer.probe)
                tracer.probe.append(gid)
                tracer.parent.append(stack[-1] if stack else -1)
                tracer.run.append(tracer.run_id)
                tracer.outer.append(tracer.depth[gid] == 0)
                tracer.start.append(0.0)
                tracer.end.append(0.0)
                tracer.depth[gid] += 1
                stack.append(idx)
                t0 = time.perf_counter()
                try:
                    result = original(*args, **kwargs)
                finally:
                    t1 = time.perf_counter()
                    stack.pop()
                    tracer.depth[gid] -= 1
                    tracer.start[idx] = t0
                    tracer.end[idx] = t1
                if clean and result.ok and not result.corrected_bits:
                    tracer.clean_decodes += 1
                if wave and result:
                    tracer.waves.append(idx)
                return result

            return traced

        return make

    def __len__(self) -> int:
        return len(self.probe)

    # -- analysis ---------------------------------------------------------------

    def summary(self, passes: int, wall_s: float, scales=None) -> dict:
        """Per-group and per-layer figures, per pass of the workload.

        ``wall_s`` is the traced timed phase's host time; what no span
        covers is reported as ``trace.unattributed_ms``.  ``scales[k]``,
        when given, multiplies every span of run ``k`` (to rescale it to
        reference machine speed; ``wall_s`` must be rescaled alike).
        """
        probe = np.frombuffer(self.probe, dtype=np.int16).astype(np.intp)
        parent = np.frombuffer(self.parent, dtype=np.int32)
        outer = np.frombuffer(bytes(self.outer), dtype=np.uint8).astype(bool)
        dur = np.frombuffer(self.end) - np.frombuffer(self.start)
        if scales is not None:
            run = np.frombuffer(self.run, dtype=np.int32)
            dur = dur * np.asarray(scales)[run]
        child = np.zeros_like(dur)
        nested = parent >= 0
        np.add.at(child, parent[nested], dur[nested])
        own = dur - child
        n_groups = len(self.groups)
        calls = np.bincount(probe[outer], minlength=n_groups)
        incl = np.bincount(probe[outer], weights=dur[outer], minlength=n_groups)
        self_by_group = np.bincount(probe, weights=own, minlength=n_groups)
        out: dict[str, float] = {}
        for gid, group in enumerate(self.groups):
            out[f"{group}_calls"] = float(calls[gid]) / passes
            out[f"{group}_ms"] = float(incl[gid]) * 1e3 / passes
        layer_self = dict.fromkeys(LAYERS, 0.0)
        for gid, group in enumerate(self.groups):
            layer_self[self.group_layer[group]] += float(self_by_group[gid])
        for layer, seconds in layer_self.items():
            out[f"{layer}.self_ms"] = seconds * 1e3 / passes
        attributed = sum(layer_self.values())
        out["trace.unattributed_ms"] = (wall_s - attributed) * 1e3 / passes
        out["trace.spans"] = float(len(probe)) / passes
        decodes = out["ecc.decode_calls"] * passes
        out["ecc.clean_ratio"] = (
            self.clean_decodes / decodes if decodes else 0.0
        )
        wave_ms = sorted(dur[idx] * 1e3 for idx in self.waves)
        out["serving.waves"] = len(self.waves) / passes
        out["serving.wave_ms_p50"] = percentile(wave_ms, 50)
        out["serving.wave_ms_p99"] = percentile(wave_ms, 99)
        return out

    def write(self, path) -> None:
        """Write every span out (gzipped, one JSON array per column)."""
        doc = {
            "groups": list(self.groups),
            "layers": [self.group_layer[g] for g in self.groups],
            "probe": self.probe.tolist(),
            "parent": self.parent.tolist(),
            "run": self.run.tolist(),
            "start_s": [round(t, 7) for t in self.start],
            "end_s": [round(t, 7) for t in self.end],
        }
        with gzip.open(path, "wt") as fh:
            json.dump(doc, fh, separators=(",", ":"))


def percentile(sorted_values, q: float) -> float:
    """Nearest-rank percentile of an ascending list (0.0 when empty)."""
    if not sorted_values:
        return 0.0
    rank = max(1, -(-q * len(sorted_values) // 100))
    return float(sorted_values[int(rank) - 1])
