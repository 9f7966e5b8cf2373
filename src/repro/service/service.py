"""Concurrent fault-tolerant DIKNN query serving.

:class:`QueryService` runs many overlapping KNN queries on one
long-lived simulated network and wraps each in a reliability envelope:

* a **per-query deadline** covering queue wait and every retry;
* **bounded retries** with exponential backoff + jitter drawn from the
  dedicated ``service.backoff`` RNG stream;
* **admission control** — a bounded in-flight budget plus a bounded
  wait queue; overflow is refused with an explicit SHED outcome;
* a **per-region circuit breaker** that opens after repeated attempt
  failures (a regional blackout, say) and short-circuits new queries
  into that region to degraded cached answers until probes succeed;
* **graceful degradation** — at the deadline a query finalizes with
  whatever the sink gathered, scored with a coverage/confidence value.

Every submission resolves to exactly one taxonomy outcome
(COMPLETE / PARTIAL / SHED / TIMEOUT / FAILED); :func:`run_service_soak`
drives a Poisson arrival process against a warmed network and returns a
:class:`~repro.service.outcomes.ServiceReport`.

All timers run on the simulation kernel and all randomness comes from
named seeded streams, so a soak is bit-reproducible: the bench harness
asserts identical event counts across repeats.
"""

from __future__ import annotations

import itertools
import os
from collections import deque
from pathlib import Path
from typing import Deque, Dict, List, Optional

from ..core.query import QueryResult, merge_candidates, per_run_allocator
from ..experiments.config import SimulationConfig, SimulationHandle, \
    build_simulation
from ..experiments.workloads import UniformWorkload
from ..geometry import Vec2
from ..obs.flight import (FlightRecorder, TRIGGER_BREAKER,
                          TRIGGER_UNACCOUNTED)
from ..obs.metrics import MetricsRegistry
from ..obs.slo import SloBoard, SloSpec
from ..sim.engine import EventHandle
from .backoff import BackoffPolicy
from .breaker import BreakerRegistry, BreakerState
from .config import ServiceConfig
from .outcomes import (Outcome, ServedQuery, ServiceReport,
                       USEFUL_OUTCOMES, build_report)

#: environment hook the test/CI harness uses to request flight bundles
FLIGHT_DIR_ENV = "REPRO_FLIGHT_DIR"


class QueryService:
    """Serves concurrent KNN queries with deadlines, retries, admission
    control and per-region circuit breaking on one simulation handle."""

    def __init__(self, handle: SimulationHandle,
                 config: Optional[ServiceConfig] = None,
                 flight_dir: Optional[str] = None):
        self.handle = handle
        self.sim = handle.sim
        self.config = config if config is not None else ServiceConfig()
        self.breakers = BreakerRegistry(self.config, handle.config.field)
        self.backoff = BackoffPolicy(
            self.config, self.sim.rng.stream("service.backoff"))
        self._alloc = per_run_allocator(self.sim)
        self._service_ids = itertools.count(1)
        #: every submission ever made, in order (the accounting ledger)
        self.queries: List[ServedQuery] = []
        self._queue: Deque[ServedQuery] = deque()
        self._inflight: Dict[int, ServedQuery] = {}
        #: protocol query id -> owning served query (current attempts)
        self._owner: Dict[int, ServedQuery] = {}
        #: service id -> pending attempt/backoff timer
        self._timer: Dict[int, EventHandle] = {}
        #: service id -> deadline event
        self._deadline: Dict[int, EventHandle] = {}
        #: service-local metrics on the repro.obs streaming primitives;
        #: always on (cheap), independent of whether --obs is attached
        self.metrics = MetricsRegistry()
        #: flight recorder, installed only when a dump directory is given
        #: (or the REPRO_FLIGHT_DIR env hook is set)
        self.flight: Optional[FlightRecorder] = None
        self._flight_dir: Optional[Path] = None
        self._pending_dump: Optional[ServedQuery] = None
        if flight_dir is not None:
            self._flight_dir = Path(flight_dir)
            self.flight = FlightRecorder(self.config.flight_capacity)
            self.flight.install(self.sim)
        #: declarative objectives fed from the finalization stream
        self.slo = SloBoard(
            [SloSpec("availability", "availability",
                     target=self.config.slo_availability_target,
                     window_s=self.config.slo_window_s,
                     burn_alert=self.config.slo_burn_alert,
                     min_events=self.config.slo_min_events),
             SloSpec("latency", "latency",
                     target=self.config.slo_latency_target,
                     threshold_s=self.config.slo_latency_threshold_s,
                     window_s=self.config.slo_window_s,
                     burn_alert=self.config.slo_burn_alert,
                     min_events=self.config.slo_min_events)],
            metrics=self.metrics, obs=handle.obs, flight=self.flight)

    # ------------------------------------------------------------------
    # submission / admission
    # ------------------------------------------------------------------

    def submit(self, point: Vec2, k: int) -> ServedQuery:
        """Submit one KNN query; returns its (live) service record."""
        now = self.sim.now
        sq = ServedQuery(
            service_id=next(self._service_ids), point=point, k=k,
            submitted_at=now, region=self.breakers.region_of(point),
            deadline_at=now + self.config.deadline_s)
        self.queries.append(sq)
        self.metrics.counter("service.submitted").inc()
        obs = self.handle.obs
        if obs is not None:
            sq.span_id = obs.spans.begin(
                f"serve s{sq.service_id}", "service", at=now,
                node=self.handle.sink.id,
                region=f"{sq.region[0]},{sq.region[1]}", k=k)
            obs.service_opened(sq.service_id, sq.span_id)

        breaker = self.breakers.breaker(sq.region)
        if not breaker.allow(now):
            self._short_circuit(sq)
            return sq

        if len(self._inflight) < self.config.max_inflight:
            self._arm_deadline(sq)
            self._start(sq)
        elif len(self._queue) < self.config.max_queue:
            self._arm_deadline(sq)
            self._queue.append(sq)
            self.metrics.gauge("service.queue.depth").set(
                float(len(self._queue)))
        else:
            self._finalize(sq, Outcome.SHED, reason="admission")
        return sq

    def _arm_deadline(self, sq: ServedQuery) -> None:
        self._deadline[sq.service_id] = self.sim.schedule_at(
            sq.deadline_at, lambda: self._on_deadline(sq))

    def _short_circuit(self, sq: ServedQuery) -> None:
        """Open breaker: answer from the region cache or fail fast."""
        self.metrics.counter("service.breaker.short_circuits").inc()
        cached = (self.breakers.cache.get(sq.region)
                  if self.config.degraded_from_cache else None)
        if cached:
            sq.candidates = merge_candidates([], cached, sq.point, sq.k)
            sq.degraded = True
            self._finalize(sq, Outcome.PARTIAL, reason="breaker_open")
        else:
            self._finalize(sq, Outcome.FAILED, reason="breaker_open")

    # ------------------------------------------------------------------
    # attempts
    # ------------------------------------------------------------------

    def _start(self, sq: ServedQuery) -> None:
        sq.started_at = self.sim.now
        self._inflight[sq.service_id] = sq
        self.metrics.gauge("service.inflight").set(
            float(len(self._inflight)))
        self._attempt(sq)

    def _attempt(self, sq: ServedQuery) -> None:
        now = self.sim.now
        remaining = sq.deadline_at - now
        if remaining <= 0.0:
            # the deadline event fires at exactly sq.deadline_at; a
            # backoff timer can land on the same instant and lose the tie
            return
        query = sq.make_query(
            self._alloc.allocate(), self.handle.sink.id, now,
            self.handle.config.assurance_gain)
        self._owner[query.query_id] = sq
        self.metrics.counter("service.attempts").inc()
        obs = self.handle.obs
        if obs is not None:
            # Alias the attempt onto the served query *before* issue, so
            # the whole serve tree samples as one unit.
            obs.service_attempt(sq.service_id, query.query_id)
            if sq.attempts > 1:
                obs.stage_instant(query.query_id, obs.spans.instant(
                    "service retry", at=now, query_id=query.query_id,
                    category="service", attempt=sq.attempts))

        def _on_complete(result: QueryResult, _sq=sq) -> None:
            self._on_protocol_complete(_sq, result)

        self.handle.protocol.issue(self.handle.sink, query, _on_complete)
        window = min(self.config.attempt_timeout_s, remaining)
        self._timer[sq.service_id] = self.sim.schedule_in(
            window, lambda: self._on_attempt_timeout(sq, query.query_id))

    def _merge(self, sq: ServedQuery,
               result: Optional[QueryResult]) -> None:
        if result is None:
            return
        sq.candidates = merge_candidates(
            sq.candidates, result.candidates, sq.point, sq.k)
        sq.sectors_reported = max(sq.sectors_reported,
                                  result.sectors_reported)
        sq.sectors_total = max(sq.sectors_total, result.sectors_total)

    def _on_protocol_complete(self, sq: ServedQuery,
                              result: QueryResult) -> None:
        if sq.finalized:
            return
        self._cancel_timer(sq)
        self._owner.pop(result.query.query_id, None)
        self._merge(sq, result)
        breaker = self.breakers.breaker(sq.region)
        breaker.record_success(self.sim.now)
        if result.candidates:
            self.breakers.cache[sq.region] = list(result.candidates)
        self._finalize(sq, Outcome.COMPLETE, reason="all_sectors")

    def _on_attempt_timeout(self, sq: ServedQuery, query_id: int) -> None:
        if sq.finalized or sq.current_attempt != query_id:
            return
        self._timer.pop(sq.service_id, None)
        self._owner.pop(query_id, None)
        self._merge(sq, self.handle.protocol.abandon(query_id))
        now = self.sim.now
        self.metrics.counter("service.attempt_timeouts").inc()
        self.breakers.breaker(sq.region).record_failure(now)
        self._note_breaker(sq.region, now, sq=sq)

        if sq.retries >= self.config.max_retries:
            self._finalize(sq,
                           Outcome.PARTIAL if sq.has_answer
                           else Outcome.FAILED,
                           reason="retry_budget")
            return
        if not self.breakers.breaker(sq.region).allow(now):
            # region opened under us mid-flight; keep what we have
            self.metrics.counter("service.breaker.short_circuits").inc()
            self._finalize(sq,
                           Outcome.PARTIAL if sq.has_answer
                           else Outcome.FAILED,
                           reason="breaker_open")
            return
        sq.retries += 1
        delay = self.backoff.delay(sq.retries)
        self.metrics.counter("service.retries").inc()
        self.metrics.histogram("service.backoff_s").observe(delay)
        if now + delay >= sq.deadline_at:
            # no room for another attempt before the deadline
            self._finalize(sq,
                           Outcome.PARTIAL if sq.has_answer
                           else Outcome.FAILED,
                           reason="deadline_no_retry")
            return
        self._timer[sq.service_id] = self.sim.schedule_in(
            delay, lambda: self._retry_fire(sq))

    def _retry_fire(self, sq: ServedQuery) -> None:
        if sq.finalized:
            return
        self._timer.pop(sq.service_id, None)
        self._attempt(sq)

    def _on_deadline(self, sq: ServedQuery) -> None:
        if sq.finalized:
            return
        self._deadline.pop(sq.service_id, None)
        qid = sq.current_attempt
        if qid is not None and qid in self._owner:
            self._owner.pop(qid, None)
            self._merge(sq, self.handle.protocol.abandon(qid))
            self.breakers.breaker(sq.region).record_failure(self.sim.now)
            self._note_breaker(sq.region, self.sim.now, sq=sq)
        if sq in self._queue:
            self._queue.remove(sq)
            self.metrics.gauge("service.queue.depth").set(
                float(len(self._queue)))
        self._finalize(sq,
                       Outcome.PARTIAL if sq.has_answer
                       else Outcome.TIMEOUT,
                       reason="deadline")

    # ------------------------------------------------------------------
    # finalization / bookkeeping
    # ------------------------------------------------------------------

    def _cancel_timer(self, sq: ServedQuery) -> None:
        handle = self._timer.pop(sq.service_id, None)
        if handle is not None:
            handle.cancel()

    def _note_breaker(self, region, now: float,
                      sq: Optional[ServedQuery] = None) -> None:
        breaker = self.breakers.breaker(region)
        if breaker.transitions and breaker.transitions[-1][0] == now:
            _, frm, to = breaker.transitions[-1]
            self.metrics.counter(f"service.breaker.{to}").inc()
            region_label = f"{region[0]},{region[1]}"
            obs = self.handle.obs
            if obs is not None:
                obs.spans.instant(
                    f"breaker {frm}->{to}", at=now, category="service",
                    region=region_label)
            if self.flight is not None:
                self.flight.note(now, "service",
                                 breaker=f"{frm}->{to}",
                                 region=region_label)
            if to == BreakerState.OPEN.value:
                # The breaker opening is the post-mortem moment: flag the
                # triggering query so the sampler keeps its full span
                # tree, and dump the flight ring once it finalizes.
                if sq is not None and obs is not None:
                    obs.service_flag(sq.service_id, "breaker_open")
                if self.flight is not None:
                    self.flight.trigger(
                        TRIGGER_BREAKER, now, region=region_label,
                        service_id=(sq.service_id
                                    if sq is not None else None))
                    if sq is not None and self._pending_dump is None:
                        self._pending_dump = sq

    def _finalize(self, sq: ServedQuery, outcome: Outcome,
                  reason: str) -> None:
        now = self.sim.now
        sq.outcome = outcome
        sq.finalized_at = now
        sq.reason = reason
        self._cancel_timer(sq)
        handle = self._deadline.pop(sq.service_id, None)
        if handle is not None:
            handle.cancel()
        qid = sq.current_attempt
        if qid is not None:
            self._owner.pop(qid, None)
        was_inflight = self._inflight.pop(sq.service_id, None) is not None
        self.metrics.gauge("service.inflight").set(
            float(len(self._inflight)))
        if sq.outcome is Outcome.COMPLETE:
            # may have just re-closed
            self._note_breaker(sq.region, now, sq=sq)

        self.metrics.counter(f"service.outcome.{outcome.value}").inc()
        if outcome is not Outcome.SHED:
            self.metrics.histogram("service.latency_s").observe(
                now - sq.submitted_at)
        if outcome in (Outcome.COMPLETE, Outcome.PARTIAL):
            self.metrics.histogram("service.confidence").observe(
                sq.confidence)
        if sq.degraded:
            self.metrics.counter("service.degraded").inc()
        self.slo.record_outcome(
            now, outcome in USEFUL_OUTCOMES,
            None if outcome is Outcome.SHED else now - sq.submitted_at)
        obs = self.handle.obs
        if obs is not None and sq.span_id is not None:
            # queue wait + attempt ids give the post-mortem engine the
            # deadline/retry context (attempt ids as a comma string: the
            # flight recorder reprs non-primitive attrs).
            queue_wait = (sq.started_at - sq.submitted_at
                          if sq.started_at is not None else None)
            obs.spans.end(
                sq.span_id, at=now, status=outcome.value, reason=reason,
                attempts=sq.attempts, confidence=round(sq.confidence, 4),
                retries=sq.retries, degraded=sq.degraded,
                sectors_reported=sq.sectors_reported,
                sectors_total=sq.sectors_total,
                queue_wait_s=queue_wait,
                attempt_qids=",".join(str(q) for q in sq.attempt_ids))
        if obs is not None:
            obs.service_finalized(sq.service_id,
                                  outcome is Outcome.COMPLETE)
        if self._pending_dump is sq:
            # the breaker-open trigger waited for this query's span tree
            # to close (and the sampler to promote it)
            self._pending_dump = None
            self._dump_flight(sq)

        if was_inflight:
            self._pump_queue()

    def _dump_flight(self, sq: ServedQuery) -> None:
        """Write the post-mortem bundle for a trigger-marked query."""
        if self.flight is None or self._flight_dir is None:
            return
        if len(self.flight.dumps_written) >= self.config.flight_dumps_max:
            return
        obs = self.handle.obs
        query_spans = None
        if obs is not None:
            qids = set(sq.attempt_ids)
            tree = [s for s in obs.spans.spans
                    if s.span_id == sq.span_id or s.query_id in qids]
            query_spans = {f"s{sq.service_id}": tree}
        path = self._flight_dir / f"flight-s{sq.service_id}.jsonl"
        self.flight.dump(
            path, query_spans=query_spans,
            extra={"service_id": sq.service_id,
                   "outcome": (sq.outcome.value
                               if sq.outcome is not None else None),
                   "reason": sq.reason,
                   "region": f"{sq.region[0]},{sq.region[1]}"})

    def _pump_queue(self) -> None:
        while (self._queue
               and len(self._inflight) < self.config.max_inflight):
            sq = self._queue.popleft()
            if sq.finalized:
                continue
            self._start(sq)
        self.metrics.gauge("service.queue.depth").set(
            float(len(self._queue)))

    # ------------------------------------------------------------------
    # draining and reporting
    # ------------------------------------------------------------------

    @property
    def open_queries(self) -> List[ServedQuery]:
        return [sq for sq in self.queries if not sq.finalized]

    def drain(self) -> None:
        """Force-finalize every still-open query (end of soak).

        With ``drain_s >= deadline_s`` the deadline events resolve
        everything naturally and this is a no-op; it exists so shorter
        drains still satisfy the every-query-accounted invariant.
        """
        for sq in list(self.open_queries):
            qid = sq.current_attempt
            if qid is not None and qid in self._owner:
                self._owner.pop(qid, None)
                self._merge(sq, self.handle.protocol.abandon(qid))
            if sq in self._queue:
                self._queue.remove(sq)
            self._finalize(sq,
                           Outcome.PARTIAL if sq.has_answer
                           else Outcome.TIMEOUT,
                           reason="drain")

    def report(self, duration_s: float) -> ServiceReport:
        report = build_report(self.queries, duration_s,
                              self.breakers.stats())
        # overwrite the exact percentiles with the streaming-histogram
        # view so the report matches what a live dashboard would show
        hist = self.metrics.histogram("service.latency_s")
        if hist.count:
            report.latency_p50_s = hist.quantile(0.50)
            report.latency_p95_s = hist.quantile(0.95)
            report.latency_p99_s = hist.quantile(0.99)
        self.slo.finalize(self.sim.now)
        report.slo = self.slo.to_dict()
        report.slo_alerts = self.slo.alerts
        if report.unaccounted and self.flight is not None:
            # a leaked query is exactly what the black box exists for
            leaked = [sq.service_id for sq in self.queries
                      if not sq.finalized]
            self.flight.trigger(TRIGGER_UNACCOUNTED, self.sim.now,
                                count=report.unaccounted,
                                service_ids=leaked[:8])
            if self._flight_dir is not None and \
                    len(self.flight.dumps_written) \
                    < self.config.flight_dumps_max:
                self.flight.dump(
                    self._flight_dir / "flight-unaccounted.jsonl",
                    extra={"unaccounted": report.unaccounted})
        return report


def run_service_soak(config: SimulationConfig, k: int = 5,
                     rate_qps: float = 5.0, duration: float = 200.0,
                     service_config: Optional[ServiceConfig] = None,
                     protocol_factory=None,
                     handle: Optional[SimulationHandle] = None,
                     flight_dir: Optional[str] = None
                     ) -> "tuple[ServiceReport, QueryService]":
    """Run a Poisson-arrival soak through a :class:`QueryService`.

    Arrivals are exponential with mean ``1/rate_qps`` toward uniform
    points, drawn from the dedicated ``service.arrivals`` stream.  The
    kernel runs for ``duration`` simulated seconds of arrivals plus the
    configured drain window; the returned report accounts every
    submission.  ``flight_dir`` (or the ``REPRO_FLIGHT_DIR`` env var)
    installs a flight recorder that dumps post-mortem bundles there on
    breaker-open / unaccounted-outcome triggers.
    """
    if rate_qps <= 0:
        raise ValueError("rate_qps must be positive")
    if duration <= 0:
        raise ValueError("duration must be positive")
    if handle is None:
        if protocol_factory is None:
            from ..core.diknn import DIKNNProtocol
            protocol_factory = lambda cfg: DIKNNProtocol()  # noqa: E731
        handle = build_simulation(config, protocol_factory(config))
        handle.warm_up()
    sim = handle.sim
    if flight_dir is None:
        flight_dir = os.environ.get(FLIGHT_DIR_ENV) or None
    service = QueryService(handle, service_config, flight_dir=flight_dir)

    workload = UniformWorkload(
        mean_interval=1.0 / rate_qps,
        margin_fraction=config.query_margin_fraction)
    arrivals = workload.generate(config.field, start=sim.now,
                                 duration=duration,
                                 rng=sim.rng.stream("service.arrivals"))
    for at, point in arrivals:
        sim.schedule_at(at, (lambda p=point: service.submit(p, k)))

    end = sim.now + duration
    sim.run(until=end + service.config.drain_s)
    service.drain()
    if handle.obs is not None:
        handle.obs.finalize()
    return service.report(duration), service
