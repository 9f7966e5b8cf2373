"""The benchmark's workloads and one measured pass over each.

A workload pins a field (deployment, mobility, faults: the simulator's
own seed is part of the workload) and a query stream shape.  The
``--seed`` argument draws only the query stream — arrival times, points
and k — from the benchmark's own generator, and hands each query to the
program through ``DIKNNProtocol.issue`` or ``QueryService.submit``.

Arrivals are open loop in simulated time: ``n`` arrivals spread
uniformly at random over ``n * mean_gap_s`` seconds, which is a Poisson
process of that mean gap conditioned on its count, or, for a slotted
workload, one arrival uniform inside each ``mean_gap_s`` slot.  Points
are stratified: the query region is split into ``g x g`` cells and every
(cell, k) pair is used once before any repeats, each point uniform
inside its cell.  Each point is still uniform over the region;
stratifying only removes the seed-to-seed swing in how much of the
field and which k a run covers.
"""

from __future__ import annotations

import hashlib
import heapq
import json
import math
import statistics
import zlib
from dataclasses import dataclass, field
from time import perf_counter
from typing import Dict, List, Optional, Tuple

import numpy as np

from repro import (DIKNNProtocol, KNNQuery, QueryResult, QueryService,
                   SimulationConfig, Telemetry, Vec2, build_simulation)
from repro.core.query import per_run_allocator
from repro.metrics import accuracy, oracle
from repro.service import Outcome

#: fewest query streams a run measures
MIN_STREAMS = 2

#: simulated seconds a measured pass runs between calibration checks
CHUNK_SIM_S = 1.0


@dataclass(frozen=True)
class Workload:
    name: str
    why: str
    config: SimulationConfig
    ks: Tuple[int, ...]
    #: mean simulated gap between arrivals
    mean_gap_s: float
    #: queries in one full stream
    queries_full: int
    #: nominal host seconds of one full stream: sizes a run (``size``)
    stream_s: float
    #: simulated seconds run after the last arrival window
    drain_s: float
    #: timed builds before each pass on top of the pass's own, which
    #: spreads the ``setup_s`` samples over the whole run
    extra_builds: int
    service: bool = False
    #: radius of the mid-run blackout over the field centre (0 = none)
    blackout_radius_m: float = 0.0
    #: one arrival per ``mean_gap_s`` slot, uniform inside it, instead of
    #: a Poisson stream: bounds how many queries a burst puts in flight
    slotted: bool = False

    def size(self, seconds: float) -> Tuple[int, int]:
        """Streams and queries per stream of a run of ``seconds``
        nominal host seconds: one full stream per ``stream_s``, but at
        least ``MIN_STREAMS``, shortened to fit a short run."""
        streams = max(MIN_STREAMS, round(seconds / self.stream_s))
        fill = min(1.0, seconds / (streams * self.stream_s))
        return streams, max(1, round(self.queries_full * fill))

    def arrival_window_s(self, n: int) -> float:
        return n * self.mean_gap_s

    def sim_config(self, n: int) -> SimulationConfig:
        """The field; a blackout covers the middle third of the arrivals."""
        if not self.blackout_radius_m:
            return self.config
        window = self.arrival_window_s(n)
        centre = self.config.field.center()
        return self.config.with_(blackout=(
            self.config.warmup_s + window / 3.0, centre.x, centre.y,
            self.blackout_radius_m, window / 3.0))


_SCALE_SIDE = round(115.0 * (10_000 / 200.0) ** 0.5, 1)

WORKLOADS: Dict[str, Workload] = {w.name: w for w in (
    Workload(
        "paper-stream",
        "paper 5.1 field (n=200, RWP 10 m/s, lossless) under a DIKNN query "
        "stream: the query path (MAC, txindex, GPSR, core) does the work; "
        "not in BENCHMARK.json, run by hand",
        SimulationConfig(seed=1, max_speed=10.0),
        ks=(20, 50, 100), mean_gap_s=4.0, queries_full=108, stream_s=20.0,
        drain_s=10.0, extra_builds=3),
    Workload(
        "scale-10k",
        "10,000 nodes at paper density, 3 sparse k=20 streams: beacon "
        "upkeep on the sparse neighbor store and CellBuckets does the work",
        SimulationConfig(n_nodes=10_000, field_size=(_SCALE_SIDE,
                                                     _SCALE_SIDE),
                         deployment="jittered-grid", seed=1,
                         max_speed=10.0),
        ks=(20,), mean_gap_s=0.75, queries_full=6, stream_s=13.0,
        drain_s=5.0, extra_builds=0),
    Workload(
        "service-faults",
        "QueryService at 1 q/s (slotted), 4 streams, 2% loss, a mid-run "
        "blackout, sampled telemetry: the query path (MAC, txindex, GPSR, "
        "core), service, obs",
        SimulationConfig(seed=1, max_speed=10.0, packet_loss_rate=0.02),
        ks=(20,), mean_gap_s=1.0, queries_full=75, stream_s=10.0,
        drain_s=8.0, extra_builds=2, service=True, blackout_radius_m=35.0,
        slotted=True),
)}

@dataclass(frozen=True)
class Arrival:
    #: simulated seconds after the measured phase starts
    at: float
    point: Vec2
    k: int


def make_arrivals(wl: Workload, seed: int, n: int,
                  stream: int = 0) -> List[Arrival]:
    """Query stream ``stream`` of a run; a pure function of its
    arguments (a run measures streams 0, 1, ...).

    With a blackout the stream is drawn per third of the window, so
    every third, the blacked-out middle one included, gets its own
    stratified spread of points.
    """
    rng = np.random.default_rng(
        [seed, zlib.crc32(wl.name.encode()), stream])
    blocks = 3 if wl.blackout_radius_m else 1
    span = wl.arrival_window_s(n) / blocks
    out: List[Arrival] = []
    for b in range(blocks):
        m = n // blocks + (b < n % blocks)
        out += _stratified(wl, rng, m, b * span, span)
    return out


def _stratified(wl: Workload, rng, n: int, t0: float,
                span: float) -> List[Arrival]:
    """``n`` arrivals uniform over ``[t0, t0 + span)``; every (cell, k)
    pair is used once before any repeats."""
    region = wl.config.field
    mx = wl.config.query_margin_fraction * region.width
    my = wl.config.query_margin_fraction * region.height
    g = max(1, math.isqrt(n // len(wl.ks)))
    cw = (region.width - 2.0 * mx) / g
    ch = (region.height - 2.0 * my) / g
    combos = [(cell, k) for cell in range(g * g) for k in wl.ks]
    picks: List[Tuple[int, int]] = []
    while len(picks) < n:
        picks.extend(combos[i] for i in rng.permutation(len(combos)))
    if wl.slotted:
        times = t0 + (np.arange(n) + rng.uniform(0.0, 1.0, n)) * (span / n)
    else:
        times = t0 + np.sort(rng.uniform(0.0, span, n))
    out = []
    for at, (cell, k) in zip(times.tolist(), picks[:n]):
        x = region.x_min + mx + (cell % g + rng.uniform()) * cw
        y = region.y_min + my + (cell // g + rng.uniform()) * ch
        out.append(Arrival(at, Vec2(float(x), float(y)), k))
    return out


@dataclass
class QueryRecord:
    """One issued query as the benchmark saw it."""

    qid: int
    k: int
    issued_at: float
    #: answered COMPLETE
    complete: bool
    #: simulated time the answer (complete or partial) was final
    answered_at: float
    #: what the sink holds; ``None`` when nothing came back
    result: Optional[QueryResult]
    outcome: str

    def row(self) -> list:
        """The record's simulated facts, for digests."""
        return [self.qid, self.k, self.outcome, repr(self.issued_at),
                repr(self.answered_at),
                self.result.top_k_ids() if self.result else None]


@dataclass
class PassResult:
    setup_s: float
    wall_s: float
    sim_s: float
    records: List[QueryRecord]
    energy_j: float
    #: hash of the simulated state a quarter into the arrival window
    checkpoint: str
    #: hash of every simulated statistic at the end ("" for a replay
    #: stopped at the checkpoint)
    digest: str = ""
    #: exact program counters over the measured phase
    counters: Dict[str, float] = field(default_factory=dict)
    #: answer-validity violations (empty when correct)
    violations: List[str] = field(default_factory=list)
    #: pre/post accuracy and far answers (only when scored)
    scores: Optional[Dict[str, object]] = None


class _ProtocolDriver:
    """Issues arrivals straight into ``DIKNNProtocol.issue``."""

    def __init__(self, handle, window_s: float):
        self.handle = handle
        self.ids = per_run_allocator(handle.sim)
        self.queries: List[KNNQuery] = []
        self.done: Dict[int, QueryResult] = {}

    def issue(self, arrival: Arrival) -> None:
        h = self.handle
        query = KNNQuery(query_id=self.ids.allocate(), sink_id=h.sink.id,
                         point=arrival.point, k=arrival.k,
                         issued_at=h.sim.now,
                         assurance_gain=h.config.assurance_gain)
        self.queries.append(query)
        h.protocol.issue(h.sink, query, self._complete)

    def _complete(self, result: QueryResult) -> None:
        self.done[result.query.query_id] = result

    def answered(self) -> list:
        return [[qid, repr(r.completed_at), r.top_k_ids()]
                for qid, r in sorted(self.done.items())]

    def finish(self) -> Tuple[List[QueryRecord], Dict[str, float]]:
        now = self.handle.sim.now
        records = []
        for query in self.queries:
            result = self.done.get(query.query_id)
            if result is not None:
                records.append(QueryRecord(
                    query.query_id, query.k, query.issued_at, True,
                    result.completed_at, result, "complete"))
            else:
                partial = self.handle.protocol.abandon(query.query_id)
                records.append(QueryRecord(
                    query.query_id, query.k, query.issued_at, False, now,
                    partial, "unanswered"))
        return records, {}


class _ServiceDriver:
    """Submits arrivals to a ``QueryService``."""

    def __init__(self, handle, window_s: float):
        self.handle = handle
        self.service = QueryService(handle)
        self.window_s = window_s

    def issue(self, arrival: Arrival) -> None:
        self.service.submit(arrival.point, arrival.k)

    def answered(self) -> list:
        return [[sq.service_id, sq.outcome.value, repr(sq.finalized_at),
                 [c.node_id for c in sq.candidates]]
                for sq in self.service.queries if sq.finalized]

    def finish(self) -> Tuple[List[QueryRecord], Dict[str, float]]:
        service = self.service
        service.drain()
        if self.handle.obs is not None:
            self.handle.obs.finalize()
        report = service.report(self.window_s)
        records = []
        for sq in service.queries:
            result = None
            if sq.candidates:
                result = QueryResult(
                    query=KNNQuery(query_id=sq.service_id,
                                   sink_id=self.handle.sink.id,
                                   point=sq.point, k=sq.k,
                                   issued_at=sq.submitted_at),
                    candidates=list(sq.candidates),
                    completed_at=sq.finalized_at)
            records.append(QueryRecord(
                sq.service_id, sq.k, sq.submitted_at,
                sq.outcome is Outcome.COMPLETE,
                sq.finalized_at if sq.finalized_at is not None
                else self.handle.sim.now,
                result, sq.outcome.value if sq.outcome else "unaccounted"))
        waits = [sq.started_at - sq.submitted_at for sq in service.queries
                 if sq.started_at is not None]
        counters = {
            "service.unaccounted": report.unaccounted,
            "service.retries": report.retries,
            "service.shed": report.shed,
            "service.short_circuits":
                report.breaker.get("short_circuits", 0),
            "service.queue_wait_sim_s": sum(waits),
        }
        for name, count in sorted(report.counts.items()):
            counters[f"service.outcome.{name}"] = count
        return records, counters


def _answer_problems(rec: QueryRecord, known) -> List[str]:
    if rec.result is None:
        return []
    ids = [c.node_id for c in rec.result.candidates]
    problems = []
    if len(ids) != len(set(ids)):
        problems.append(f"query {rec.qid}: duplicate node ids in answer")
    unknown = sorted(set(ids) - known)
    if unknown:
        problems.append(f"query {rec.qid}: unknown node ids {unknown[:5]}")
    answer = rec.result.top_k_ids()
    if len(answer) > rec.k:
        problems.append(f"query {rec.qid}: {len(answer)} ids for k={rec.k}")
    return problems


def _state_digest(handle, answers: list, counters: Dict[str, float]) -> str:
    """Hash of the simulated state: kernel, MAC, routing and energy
    counters plus every answer so far.  Runs of one seed must agree, and
    a speed-only change leaves it unchanged."""
    mac = handle.network.mac.stats
    doc = {
        "events": handle.sim.events_executed,
        "now": repr(handle.sim.now),
        "mac": [mac.frames_sent, mac.frames_delivered,
                mac.frames_lost_channel, mac.frames_lost_collision,
                mac.unicast_retries, mac.unicast_failures, mac.bytes_sent],
        "gpsr": [handle.router.deliveries, handle.router.drops],
        "energy": repr(handle.network.ledger.snapshot()),
        "answers": answers,
        "counters": {k: repr(v) for k, v in sorted(counters.items())},
    }
    blob = json.dumps(doc, sort_keys=True).encode()
    return hashlib.sha256(blob).hexdigest()[:16]


def _score(handle, records: List[QueryRecord]) -> Dict[str, object]:
    """Pre/post accuracy (paper 5.1) and far answers, via the oracle."""
    network = handle.network
    reach = 2.0 * network.radio.range_m
    pre, post, far, answered = [], [], 0, 0
    for rec in records:
        if rec.result is None or not rec.result.candidates:
            pre.append(0.0)
            post.append(0.0)
            continue
        pre.append(accuracy.pre_accuracy(network, rec.result))
        post.append(accuracy.post_accuracy(network, rec.result,
                                           at=rec.answered_at))
        answered += 1
        q, t = rec.result.query.point, rec.issued_at
        nearest = oracle.true_knn(network, q, 1, t=t)[0]
        best = min(network.node(i).mobility.position_at(t).distance_to(q)
                   for i in rec.result.top_k_ids())
        truth = network.node(nearest).mobility.position_at(t).distance_to(q)
        far += best > truth + reach
    return {"pre": pre, "post": post, "far": far, "answered": answered}


class _Cell:
    __slots__ = ("x", "y", "v", "link")

    def __init__(self, x: float, y: float):
        self.x, self.y, self.v, self.link = x, y, 0.0, None


class Calibration:
    """The machine's speed over a run, from a fixed pure-Python slice.

    The host this runs on is shared: its speed drifts by a third or more
    over minutes, and the program slows with it.  The slice does what
    the simulator does most, without touching it: attribute reads and
    writes on objects reached by pointer, dict lookups, heap pushes and
    pops, and a numpy gather, spread over about 8 MB so that it
    competes for the shared cache and memory as the program does (a
    slice of plain integer arithmetic missed a 50% slowdown).  It
    allocates only floats, which the garbage collector does not track,
    so no collection of the program's heap lands in a slice.

    After every build and every ``CHUNK_SIM_S`` of a measured pass, one
    slice is owed per ``EVERY_S`` of timed work, so the slices sample
    the machine in proportion to the timed work.  Host times are
    reported at reference speed: multiplied by ``REF_S`` over the run's
    mean slice time.
    """

    #: the slice's time on the reference box (2 shared cores, 2.1 GHz)
    #: when it runs at full speed
    REF_S = 0.008
    #: objects the slice walks, and steps per slice
    SIZE = 50_000
    STEPS = 4_000
    #: host seconds of timed work per slice
    EVERY_S = 0.2

    def __init__(self):
        self.samples: List[float] = []
        self._owed = 0.0
        n = self.SIZE
        self._cells = [_Cell(i * 0.5, i * 0.25) for i in range(n)]
        for i, cell in enumerate(self._cells):
            cell.link = self._cells[i * 7919 % n]
        self._table = {i * 31: float(i) for i in range(n)}
        self._array = np.arange(2.0 * n)
        self._gather = np.arange(20_000) * 7919 % (2 * n)
        self._x = 12345

    def sample(self) -> None:
        cells, table, n = self._cells, self._table, self.SIZE
        x, heap = self._x, []
        t0 = perf_counter()
        for i in range(self.STEPS):
            x = (x * 1103515245 + 12345) & 0x7FFFFFFF
            cell = cells[x % n]
            cell.v += cell.link.x * cell.y
            heapq.heappush(heap, table.get(x % n * 31, 0.0) + i)
        while heap:
            heapq.heappop(heap)
        float(self._array[self._gather].sum())
        self.samples.append(perf_counter() - t0)
        self._x = x

    def after(self, work_s: float) -> None:
        """Take the slices owed for ``work_s`` host seconds just timed."""
        self._owed += work_s / self.EVERY_S
        while self._owed >= 1.0:
            self._owed -= 1.0
            self.sample()

    def factor(self) -> float:
        """Reference speed over the run's speed: scales a host time."""
        return self.REF_S / statistics.fmean(self.samples)


def _run_chunked(sim, until: float,
                 calibration: Optional[Calibration]) -> float:
    """Run the simulation to ``until`` one ``CHUNK_SIM_S`` at a time,
    calibrating after each chunk; returns the host seconds of the chunks
    alone."""
    wall = 0.0
    t = sim.now
    while t < until:
        t = min(until, t + CHUNK_SIM_S)
        t0 = perf_counter()
        sim.run(until=t)
        chunk = perf_counter() - t0
        wall += chunk
        if calibration is not None:
            calibration.after(chunk)
    return wall


def build(wl: Workload, n: int,
          calibration: Optional[Calibration] = None):
    """Build and warm up the workload's simulation; returns the handle
    and the host seconds it took (the ``setup_s`` sample)."""
    t0 = perf_counter()
    handle = build_simulation(wl.sim_config(n), DIKNNProtocol())
    if wl.service:
        # the sampled telemetry tier, attached as build_simulation does
        # under enable_observability(True, sample_every_n=10)
        telemetry = Telemetry(profile_kernel=False, trace_events=False,
                              sample_every_n=10)
        telemetry.attach_handle(handle)
        handle.obs = telemetry
    handle.warm_up()
    setup_s = perf_counter() - t0
    if calibration is not None:
        calibration.after(setup_s)
    return handle, setup_s


def run_pass(wl: Workload, arrivals: List[Arrival], recorder=None,
             score: bool = False, replay: bool = False,
             calibration: Optional[Calibration] = None) -> PassResult:
    """Build, warm up and measure one pass over ``arrivals``.

    Every pass hashes its simulated state at the checkpoint, a quarter
    into the arrival window; ``replay=True`` stops there, so a short
    replay checks that a run is deterministic.  With a ``recorder``
    (:class:`tracing.Recorder`) every layer boundary is wrapped before
    the build and spans are recorded during the measured phase; scoring
    is then traced on its own.  A ``calibration`` is fed the build and
    every ``CHUNK_SIM_S`` of the measured phase.
    """
    n = len(arrivals)
    window = wl.arrival_window_s(n)
    if recorder is not None:
        recorder.install()
    try:
        handle, setup_s = build(wl, n, calibration)
        sim, network = handle.sim, handle.network
        driver = (_ServiceDriver if wl.service else _ProtocolDriver)(
            handle, window)
        start = sim.now
        mac0 = vars(network.mac.stats).copy()
        routes0 = (handle.router.deliveries, handle.router.drops)
        events0 = sim.events_executed
        energy0 = network.ledger.snapshot()
        receptions = [0]
        checkpoint = []
        if recorder is not None:
            network.add_beacon_batch_hook(
                lambda count: receptions.__setitem__(0, receptions[0]
                                                     + count))
            recorder.on = True
        t1 = perf_counter()
        sim.schedule_at(start + window / 4.0, lambda: checkpoint.append(
            _state_digest(handle, driver.answered(), {})))
        for arrival in arrivals:
            sim.schedule_at(start + arrival.at,
                            lambda a=arrival: driver.issue(a))
        wall_s = perf_counter() - t1
        if replay:
            wall_s += _run_chunked(sim, start + window / 4.0, calibration)
            return PassResult(setup_s, wall_s, sim.now - start, [], 0.0,
                              checkpoint[0])
        wall_s += _run_chunked(sim, start + window + wl.drain_s,
                               calibration)
        t1 = perf_counter()
        records, counters = driver.finish()
        wall_s += perf_counter() - t1
    finally:
        if recorder is not None:
            recorder.uninstall()

    mac = vars(network.mac.stats)
    counters.update({f"mac.{k}": mac[k] - mac0[k] for k in mac})
    counters["gpsr.deliveries"] = handle.router.deliveries - routes0[0]
    counters["gpsr.drops"] = handle.router.drops - routes0[1]
    counters["sim.events"] = sim.events_executed - events0
    known = set(network.nodes)
    violations = [p for rec in records for p in _answer_problems(rec, known)]
    if counters.get("service.unaccounted"):
        violations.append(
            f"{counters['service.unaccounted']} submissions unaccounted")
    result = PassResult(setup_s, wall_s, sim.now - start, records,
                        network.ledger.since(energy0), checkpoint[0],
                        _state_digest(handle, [r.row() for r in records],
                                      counters),
                        counters, violations)
    counters["beacons.receptions"] = receptions[0]
    if score:
        if recorder is not None:
            recorder.install_oracle()
            recorder.on = True
        try:
            result.scores = _score(handle, records)
        finally:
            if recorder is not None:
                recorder.uninstall()
    return result
