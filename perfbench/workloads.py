"""The three benchmark workloads, built from a seed and run in episodes.

Each workload is set up once per interpreter (fleet build, pre-ingest,
input generation) and then run as a sequence of *episodes*.  An episode
is a fixed, seeded unit of work: sub-episode ``m`` of a run always does
the same work and must always produce the same output digest.  A run
cycles through its ``n_sub`` sub-episodes, so one seed's timed work is
spread over several independently drawn inputs instead of one draw.

Only the timed part of an episode counts towards throughput and is
traced: the layer tracer is on exactly while the episode's
:class:`EpisodeClock` runs, and output checks run after it stops or
inside :meth:`EpisodeClock.paused`.
"""

from __future__ import annotations

import hashlib
import time
import zlib
from contextlib import contextmanager
from dataclasses import dataclass, field

import numpy as np


def sub_seed(seed: int, m: int) -> int:
    """Seed of sub-episode ``m`` of a run seeded with ``seed``."""
    return seed * 16 + m


class EpisodeClock:
    """Host-time stopwatch for one episode, with pausable checks."""

    def __init__(self, tracer=None) -> None:
        #: switched on while the clock runs, off while it is stopped
        self.tracer = tracer
        self.busy_s = 0.0
        #: host seconds spent inside :meth:`paused` blocks
        self.paused_s = 0.0
        self._t0: float | None = None

    def start(self) -> None:
        if self.tracer is not None:
            self.tracer.on = True
        self._t0 = time.perf_counter()

    def stop(self) -> None:
        now = time.perf_counter()
        if self.tracer is not None:
            self.tracer.on = False
        self.busy_s += now - self._t0
        self._stopped_at = now
        self._t0 = None

    @contextmanager
    def paused(self):
        """Exclude a block (an output check) from timing and tracing."""
        self.stop()
        try:
            yield
        finally:
            self.start()
            self.paused_s += self._t0 - self._stopped_at


@dataclass
class Outcome:
    """What one episode did, for checks and the trace."""

    digest: str
    #: failed output checks (empty when the episode is correct)
    problems: list[str] = field(default_factory=list)
    #: host seconds per round (ingest-churn only)
    round_s: list[float] = field(default_factory=list)
    #: deterministic simulated-time figures, printed and digested
    sim: dict = field(default_factory=dict)
    #: program counters the per-layer metrics read (name -> value)
    counters: dict = field(default_factory=dict)


def _totals(sims: list[dict]) -> dict:
    """Sum each simulated figure over the sub-episodes."""
    return {key: sum(sim[key] for sim in sims) for key in sims[0]}


def _digest(parts) -> str:
    h = hashlib.sha256()
    for part in parts:
        h.update(repr(part).encode())
        h.update(b"\n")
    return h.hexdigest()[:16]


# -- serve -------------------------------------------------------------------------


class Serve:
    """Open-loop mixed Q1/Q2/Q3 queries at 40 QPS over a 4x8 fleet.

    The read path: NVM read + ECC decode, the query scan, serving
    dispatch and live telemetry/health.  Every episode builds a fresh
    ``Telemetry`` + ``HealthEngine`` + ``QueryEngine`` + ``QueryServer``
    over a pre-ingested fleet, as ``python -m repro serve`` wires them,
    and offers one arrival timeline of ``generate_arrivals``.

    Sub-episode ``m`` has its own fleet, drawn from the seed, so the
    data-dependent Q2 match sets average over ``n_sub`` fleets.  The
    timelines are a fixed pool, traffic seeds ``0..n_sub-1``: host cost
    follows the number of Q3 waves, and a pool of 800 requests holds
    only ~130 of them, so letting the seed redraw the traffic would
    move throughput by ~15% between seeds with no change in the program.
    """

    name = "serve"
    n_sub = 8
    n_nodes = 4
    electrodes = 8
    n_windows = 4
    requests = 100
    qps = 40.0

    def __init__(self, seed: int) -> None:
        from repro.serving.loadgen import LoadGenConfig, generate_arrivals

        self.loads = [
            LoadGenConfig(n_requests=self.requests, offered_qps=self.qps, seed=m)
            for m in range(self.n_sub)
        ]
        self.arrivals = [generate_arrivals(load) for load in self.loads]
        self.fleets = [
            self._fleet(sub_seed(seed, m), self.loads[m].n_templates)
            for m in range(self.n_sub)
        ]
        self.flags = {
            node: {0, self.n_windows - 1} for node in range(self.n_nodes)
        }

    def _fleet(self, seed: int, n_templates: int):
        """A fleet with ``n_windows`` ingested, plus the Q2 templates."""
        from repro.core.system import ScaloSystem
        from repro.units import WINDOW_SAMPLES

        system = ScaloSystem(
            n_nodes=self.n_nodes, electrodes_per_node=self.electrodes, seed=seed
        )
        rng = np.random.default_rng(seed)
        templates: list[np.ndarray] = []
        for _ in range(self.n_windows):
            windows = (
                rng.standard_normal(
                    (self.n_nodes, self.electrodes, WINDOW_SAMPLES)
                ).cumsum(axis=2)
                * 300
            ).round()
            system.ingest(windows)
            if len(templates) < n_templates:
                templates.append(windows[0, 0].astype(float))
        return system, templates

    def items(self, m: int) -> int:
        return self.requests

    def episode(self, m: int, clock: EpisodeClock) -> Outcome:
        from repro.apps.queries import QueryCostModel, QueryEngine
        from repro.serving.loadgen import (
            final_responses,
            run_open_loop,
            summarise,
        )
        from repro.serving.server import QueryServer, ServerConfig
        from repro.telemetry import Telemetry
        from repro.telemetry.health import HealthEngine

        load = self.loads[m]
        system, templates = self.fleets[m]
        clock.start()
        telemetry = Telemetry()
        controllers = [node.storage for node in system.nodes]
        for controller in controllers:
            controller.telemetry = telemetry
        engine = QueryEngine(
            controllers=controllers,
            lsh=system.lsh,
            seizure_flags=self.flags,
            telemetry=telemetry,
        )
        server = QueryServer(
            engine,
            config=ServerConfig(),
            cost_model=QueryCostModel(
                n_nodes=self.n_nodes, electrodes_per_node=self.electrodes
            ),
            telemetry=telemetry,
        )
        health = HealthEngine(telemetry)
        health.attach_server(server)
        offered, shed, _ = run_open_loop(
            server,
            self.arrivals[m],
            (0, self.n_windows),
            templates,
            deadline_ms=load.deadline_ms,
            on_advance=health.observe_to,
            finalize=health.observe_to,
        )
        health.finalize(server.now_ms)
        clock.stop()

        report = summarise(server, load.offered_qps, offered, shed)
        crc = zlib.crc32(report.response_log.encode())
        problems = []
        if report.completed + report.shed != report.n_offered:
            problems.append(
                f"completed {report.completed} + shed {report.shed} "
                f"!= offered {report.n_offered}"
            )
        if offered != self.requests:
            problems.append(f"offered {offered} != {self.requests}")
        registry = telemetry.registry
        counters = {
            "query.cache_hit": registry.counter("query.cache_hit"),
            "query.cache_miss": registry.counter("query.cache_miss"),
            "serving.responses": len(server.responses),
            "serving.waves": report.waves,
        }
        sim = {
            "latencies_ms": [r.latency_ms for r in final_responses(server)],
            "offered": report.n_offered,
            "completed": report.completed,
        }
        digest = _digest([f"{crc:08x}", report.p99_latency_ms, report.completed])
        return Outcome(digest, problems, sim=sim, counters=counters)

    @staticmethod
    def sim_summary(sims: list[dict]) -> dict:
        """Simulated p99 latency and availability over every sub-episode."""
        from repro.serving.loadgen import percentile

        latencies = [t for sim in sims for t in sim["latencies_ms"]]
        offered = sum(sim["offered"] for sim in sims)
        return {
            "latency_ms_p99": percentile(latencies, 99.0),
            "latency_samples": len(latencies),
            "availability": (
                sum(sim["completed"] for sim in sims) / offered
                if offered else 0.0
            ),
        }


# -- seizure -----------------------------------------------------------------------


class Seizure:
    """The hash -> collision-check -> DTW propagation protocol.

    A closed loop of window rounds over a seeded 3-node x 6-electrode
    recording at 6 kHz (the ``examples/seizure_propagation.py`` setup,
    1 s per recording).  Scalar min-hash, the collision checker and
    scalar DTW do the work; storage, ECC, serving and telemetry do none.
    """

    name = "seizure"
    n_sub = 2
    n_nodes = 3
    electrodes = 6
    duration_s = 1.0

    def __init__(self, seed: int) -> None:
        from repro.apps.seizure import train_detector_from_recording
        from repro.datasets.synthetic_ieeg import generate_ieeg
        from repro.hashing.lsh import LSHFamily

        self.recordings = [
            generate_ieeg(
                n_nodes=self.n_nodes,
                n_electrodes=self.electrodes,
                duration_s=self.duration_s,
                fs_hz=6000,
                n_seizures=1,
                seizure_duration_s=0.5,
                propagation_delay_ms=(20.0, 80.0),
                seed=sub_seed(seed, m),
            )
            for m in range(self.n_sub)
        ]
        self.detectors = [
            train_detector_from_recording(recording, seed=0)
            for recording in self.recordings
        ]
        self.lsh = LSHFamily.for_measure("dtw")

    def items(self, m: int) -> int:
        from repro.units import WINDOW_SAMPLES

        recording = self.recordings[m]
        return recording.n_nodes * (recording.n_samples // WINDOW_SAMPLES)

    def episode(self, m: int, clock: EpisodeClock) -> Outcome:
        from repro.apps.seizure import SeizurePropagationSimulator

        clock.start()
        result = SeizurePropagationSimulator(
            self.recordings[m],
            self.detectors[m],
            self.lsh,
            dtw_threshold=250.0,
        ).run()
        clock.stop()

        confirmations = [
            (e.source_node, e.confirming_node, e.window_index,
             f"{e.dtw_cost:.6f}", e.n_collisions)
            for e in result.confirmations
        ]
        problems = []
        if result.node_windows_total != self.items(m):
            problems.append(
                f"processed {result.node_windows_total} node-windows, "
                f"expected {self.items(m)}"
            )
        if result.node_windows_skipped:
            problems.append(f"{result.node_windows_skipped} windows skipped")
        sim = {
            "confirmations": len(confirmations),
            "hash_broadcasts": result.hash_broadcasts,
            "signal_exchanges": result.signal_exchanges,
        }
        return Outcome(_digest(confirmations), problems, sim=sim)

    sim_summary = staticmethod(_totals)


# -- ingest-churn ------------------------------------------------------------------


def electrodes_of(schedule) -> np.ndarray:
    """The decision vector a materialised schedule was built from."""
    return np.array(
        [
            a.aggregate_electrodes
            / (1.0 if a.flow.task.centralised else schedule.n_nodes)
            for a in schedule.allocations
        ]
    )


class IngestChurn:
    """Seeded ingest on an 8x16 fleet with crash, recovery and bit rot.

    The write path: ``program_page``/``rewrite_range`` ECC decode plus
    re-encode, batched hash-on-write, the journal, crash recovery
    (replay, scrub, resync over the network) and the scheduler
    (``scheduler_solver="auto"``), all under ``NULL_TELEMETRY``.
    Every ``CYCLE`` rounds one node fails (then ``reschedule``), is
    recovered (then ``reschedule``), and every node's NVM takes seeded
    single-bit rot on pages never rotted before in the episode.
    """

    name = "ingest-churn"
    n_sub = 2
    n_nodes = 8
    electrodes = 16
    rounds = 24
    CYCLE = 8
    FAIL_AT, RECOVER_AT, ROT_AT = 2, 5, 7
    rot_pages = 2
    sample_windows = 64

    def __init__(self, seed: int) -> None:
        from repro.eval.scheduler_sweep import sweep_flows
        from repro.units import WINDOW_SAMPLES

        self.seed = seed
        self.flows = sweep_flows("seizure")
        self.windows = []
        self.victims = []
        for m in range(self.n_sub):
            rng = np.random.default_rng(sub_seed(seed, m))
            shape = (self.rounds, self.n_nodes, self.electrodes, WINDOW_SAMPLES)
            self.windows.append(
                (rng.standard_normal(shape).cumsum(axis=3) * 300)
                .round()
                .clip(-32768, 32767)
            )
            self.victims.append(
                [int(v) for v in rng.integers(self.n_nodes, size=self.rounds)]
            )

    def _alive_plan(self, m: int) -> list[list[int]]:
        """Nodes alive at each round's ingest (fail/recover follow it)."""
        alive = set(range(self.n_nodes))
        plan = []
        down = None
        for r in range(self.rounds):
            plan.append(sorted(alive))
            phase = r % self.CYCLE
            if phase == self.FAIL_AT:
                down = self.victims[m][r]
                alive.discard(down)
            elif phase == self.RECOVER_AT and down is not None:
                alive.add(down)
                down = None
        return plan

    def items(self, m: int) -> int:
        return sum(len(alive) for alive in self._alive_plan(m))

    def _verify_schedule(self, system, schedule, problems, r) -> None:
        violations = (
            system.scheduler_problem(self.flows)
            .constraints()
            .verify(electrodes_of(schedule))
        )
        if violations:
            problems.append(f"round {r}: schedule violates {violations}")

    def episode(self, m: int, clock: EpisodeClock) -> Outcome:
        from repro.core.system import ScaloSystem

        windows = self.windows[m]
        rng = np.random.default_rng((sub_seed(self.seed, m), 1))
        problems: list[str] = []
        ingested: list[list[np.ndarray]] = [[] for _ in range(self.n_nodes)]
        rotted: list[set[int]] = [set() for _ in range(self.n_nodes)]
        flips = 0
        round_s: list[float] = []
        items = 0
        schedules = []
        down = None

        clock.start()
        system = ScaloSystem(
            n_nodes=self.n_nodes,
            electrodes_per_node=self.electrodes,
            seed=sub_seed(self.seed, m),
            scheduler_solver="auto",
        )
        for r in range(self.rounds):
            t0 = time.perf_counter()
            paused0 = clock.paused_s
            alive = system.alive_node_ids
            system.ingest(windows[r])
            items += len(alive)
            for node in alive:
                ingested[node].append(windows[r, node])
            phase = r % self.CYCLE
            if phase == self.FAIL_AT:
                down = self.victims[m][r]
                system.fail_node(down)
                schedule = system.reschedule(self.flows)
                with clock.paused():
                    self._verify_schedule(system, schedule, problems, r)
                    schedules.append(round(schedule.weighted_mbps(), 6))
            elif phase == self.RECOVER_AT and down is not None:
                system.recover_node(down)
                down = None
                schedule = system.reschedule(self.flows)
                with clock.paused():
                    self._verify_schedule(system, schedule, problems, r)
                    schedules.append(round(schedule.weighted_mbps(), 6))
            elif phase == self.ROT_AT:
                for node in range(self.n_nodes):
                    device = system.nodes[node].storage.device
                    fresh = [
                        p for p in device.programmed_pages
                        if p not in rotted[node]
                    ]
                    pick = rng.choice(
                        len(fresh), size=min(self.rot_pages, len(fresh)),
                        replace=False,
                    )
                    for i in sorted(int(i) for i in pick):
                        page = fresh[i]
                        rotted[node].add(page)
                        flips += device.inject_bit_rot(
                            page, [int(rng.integers(8 * 4096))]
                        )
            # the round's own host time, without the checks inside it
            checks = clock.paused_s - paused0
            round_s.append(time.perf_counter() - t0 - checks)
        clock.stop()

        # -- checks: read-back equals ingest, every flip corrected --------------
        corrected = 0
        for node in range(self.n_nodes):
            device = system.nodes[node].storage.device
            for page in sorted(rotted[node]):
                device.check_page(page)
            corrected += device.stats.ecc_corrected
            if device.poisoned_pages or device.stats.ecc_uncorrectable:
                problems.append(
                    f"node {node}: uncorrectable pages {device.poisoned_pages}"
                )
        if items != self.items(m):
            problems.append(f"ingested {items} node-windows, "
                            f"expected {self.items(m)}")
        if corrected != flips:
            problems.append(f"{flips} bits rotted but {corrected} corrected")
        keys = [
            (node, electrode, index)
            for node in range(self.n_nodes)
            for index in range(len(ingested[node]))
            for electrode in range(self.electrodes)
        ]
        pick = rng.choice(len(keys), size=self.sample_windows, replace=False)
        for i in sorted(int(i) for i in pick):
            node, electrode, index = keys[i]
            expected = ingested[node][index][electrode].astype(np.int64)
            try:
                got = system.nodes[node].read_window(electrode, index)
            except Exception as exc:  # a failed read is a failed check
                problems.append(f"read {keys[i]}: {exc!r}")
                continue
            if not np.array_equal(got, expected):
                problems.append(f"read-back mismatch at {keys[i]}")
        stored = sum(
            len(n.storage.stored_windows()) for n in system.nodes
        )
        if stored != items * self.electrodes:
            problems.append(
                f"{stored} windows stored, expected {items * self.electrodes}"
            )
        digest = _digest(
            [items, flips, schedules]
            + [n.storage.state_digest() for n in system.nodes]
        )
        sim = {"flips": flips, "reschedules": len(schedules)}
        return Outcome(digest, problems, round_s=round_s, sim=sim)

    sim_summary = staticmethod(_totals)


WORKLOADS = {cls.name: cls for cls in (Serve, Seizure, IngestChurn)}
