"""Query post-mortem: causal root-cause attribution from recorded
artifacts.

The service tier says *what* happened to a query (COMPLETE / PARTIAL /
SHED / TIMEOUT / FAILED); this module answers *why*.  It is pure
post-processing: the engine consumes the span tree, the per-query
instants, the flight-recorder ring and the service transition notes —
either live off a :class:`~repro.obs.telemetry.Telemetry` or replayed
from a dumped flight bundle — and classifies each query into a small
attribution taxonomy with supporting evidence:

==========================  ================================================
cause                       meaning
==========================  ================================================
``ANCHOR_DISPLACED``        GPSR declared a home node far from the
                            geometric query point (perimeter local
                            minimum), so the itinerary swept the wrong
                            region — the answer can look healthy while
                            being tens of meters wrong (ROADMAP item 4).
``PERIMETER_STUCK``         the routing phase never reached a home node
                            (perimeter dead end / loop / hop budget).
``SECTOR_LOST_TO_CRASH``    a sector never reported and its collection
                            windows were superseded — the token chain died
                            on a crashed / departed Q-node.
``COVERAGE_GAP``            a sector gave up mid-plan (detour budget
                            exhausted around voids) — the region is
                            under-covered, not broken.
``DEADLINE_QUEUE_WAIT``     the serving deadline burned in the admission
                            queue, not in the protocol.
``CONGESTION_BACKOFF``      retries / MAC backoff ate the deadline.
``RETRY_EXHAUSTED``         the service spent its retry budget and gave
                            up before the deadline.
``BREAKER_SHORT_CIRCUIT``   the region breaker was open; the answer (if
                            any) came degraded from the cache.
``ADMISSION_SHED``          refused at admission: in-flight and queue
                            budgets were both full.
``HEALTHY``                 completed with no flags.
``UNKNOWN``                 degraded, but no rule matched.
==========================  ================================================

Every attached protocol annotation (anchor declarations, mode flips,
void detours, sector finishes) is a pure observer note, so instrumented
runs stay bit-identical on the golden digests; this module never touches
a live simulation at all.
"""

from __future__ import annotations

import json
from dataclasses import dataclass, field
from typing import Dict, Iterable, List, Optional, Tuple

from .flight import FlightRecorder, instant_to_wire, span_to_wire

# -- attribution taxonomy ---------------------------------------------------

ANCHOR_DISPLACED = "ANCHOR_DISPLACED"
PERIMETER_STUCK = "PERIMETER_STUCK"
SECTOR_LOST_TO_CRASH = "SECTOR_LOST_TO_CRASH"
COVERAGE_GAP = "COVERAGE_GAP"
DEADLINE_QUEUE_WAIT = "DEADLINE_QUEUE_WAIT"
CONGESTION_BACKOFF = "CONGESTION_BACKOFF"
RETRY_EXHAUSTED = "RETRY_EXHAUSTED"
BREAKER_SHORT_CIRCUIT = "BREAKER_SHORT_CIRCUIT"
ADMISSION_SHED = "ADMISSION_SHED"
HEALTHY = "HEALTHY"
UNKNOWN = "UNKNOWN"

ALL_CAUSES = (ANCHOR_DISPLACED, PERIMETER_STUCK, SECTOR_LOST_TO_CRASH,
              COVERAGE_GAP, DEADLINE_QUEUE_WAIT, CONGESTION_BACKOFF,
              RETRY_EXHAUSTED, BREAKER_SHORT_CIRCUIT, ADMISSION_SHED,
              HEALTHY, UNKNOWN)

#: ranking for ``worst`` — higher is worse
_SEVERITY = {
    HEALTHY: 0,
    UNKNOWN: 1,
    COVERAGE_GAP: 2,
    CONGESTION_BACKOFF: 3,
    DEADLINE_QUEUE_WAIT: 4,
    RETRY_EXHAUSTED: 5,
    ADMISSION_SHED: 6,
    BREAKER_SHORT_CIRCUIT: 7,
    SECTOR_LOST_TO_CRASH: 8,
    PERIMETER_STUCK: 9,
    ANCHOR_DISPLACED: 10,
}

#: default anchor-displacement threshold when the radio range is unknown
_DEFAULT_ANCHOR_THRESHOLD_M = 30.0
#: displacement beyond this many radio ranges flags the anchor
_ANCHOR_RANGE_FACTOR = 1.5
#: flight-ring MAC trouble records that count as congestion evidence
_CONGESTION_MIN_EVENTS = 3


@dataclass
class Evidence:
    """One supporting fact behind an attribution."""

    kind: str
    detail: str
    time: Optional[float] = None
    data: Dict[str, object] = field(default_factory=dict)

    def to_dict(self) -> dict:
        out: Dict[str, object] = {"kind": self.kind, "detail": self.detail}
        if self.time is not None:
            out["time"] = self.time
        if self.data:
            out["data"] = dict(self.data)
        return out


@dataclass
class Attribution:
    """The verdict on one query (protocol- or service-level)."""

    subject: str                      # "q<id>" or "s<id>"
    cause: str
    status: str                       # root/serve span terminal status
    confidence: float                 # heuristic certainty in [0, 1]
    evidence: List[Evidence] = field(default_factory=list)
    timeline: List[dict] = field(default_factory=list)
    query_id: Optional[int] = None
    service_id: Optional[int] = None

    @property
    def flagged(self) -> bool:
        """Worth an operator's attention even if nominally complete."""
        return self.cause not in (HEALTHY,)

    @property
    def severity(self) -> Tuple[int, float]:
        return (_SEVERITY.get(self.cause, 1), self.confidence)

    def summary(self) -> str:
        head = (f"{self.subject}: {self.cause} "
                f"(status={self.status}, "
                f"confidence={self.confidence:.2f})")
        lines = [head]
        for ev in self.evidence:
            stamp = f" @{ev.time:.3f}s" if ev.time is not None else ""
            lines.append(f"  - [{ev.kind}]{stamp} {ev.detail}")
        return "\n".join(lines)

    def to_dict(self) -> dict:
        return {
            "subject": self.subject,
            "query_id": self.query_id,
            "service_id": self.service_id,
            "cause": self.cause,
            "status": self.status,
            "confidence": round(self.confidence, 4),
            "evidence": [ev.to_dict() for ev in self.evidence],
            "timeline": list(self.timeline),
        }


# -- helpers ----------------------------------------------------------------

def _attr(record: dict, key: str, default=None):
    return record.get("attrs", {}).get(key, default)


def _float_attr(record: dict, key: str) -> Optional[float]:
    value = _attr(record, key)
    try:
        return None if value is None else float(value)
    except (TypeError, ValueError):
        return None


class PostMortem:
    """Root-cause attribution over normalized (wire-format) artifacts.

    ``spans`` / ``instants`` are the JSON-safe dicts
    :func:`~repro.obs.flight.span_to_wire` /
    :func:`~repro.obs.flight.instant_to_wire` produce; ``events`` and
    ``triggers`` are flight-ring records.  Build one with
    :meth:`from_telemetry` (live run) or :meth:`from_bundle` (dumped
    flight bundle) — both end up here, so a bundle explains identically
    to the run that wrote it.
    """

    def __init__(self, spans: Iterable[dict], instants: Iterable[dict],
                 events: Iterable[dict] = (), triggers: Iterable[dict] = (),
                 radio_range_m: Optional[float] = None):
        self.spans = list(spans)
        self.instants = list(instants)
        self.events = list(events)
        self.triggers = list(triggers)
        self.radio_range_m = radio_range_m
        self._spans_by_qid: Dict[int, List[dict]] = {}
        self._instants_by_qid: Dict[int, List[dict]] = {}
        for span in self.spans:
            qid = span.get("query_id")
            if qid is not None:
                self._spans_by_qid.setdefault(int(qid), []).append(span)
        for inst in self.instants:
            qid = inst.get("query_id")
            if qid is not None:
                self._instants_by_qid.setdefault(int(qid), []).append(inst)
        #: service-level ("serve s<N>") spans, id -> span
        self.service_spans: Dict[int, dict] = {}
        for span in self.spans:
            if span.get("category") == "service" \
                    and span.get("name", "").startswith("serve s"):
                try:
                    sid = int(span["name"].split("serve s", 1)[1])
                except ValueError:
                    continue
                self.service_spans[sid] = span

    # -- construction ---------------------------------------------------

    @classmethod
    def from_telemetry(cls, telemetry,
                       radio_range_m: Optional[float] = None
                       ) -> "PostMortem":
        """Snapshot a live (or finalized) telemetry hub."""
        if radio_range_m is None and telemetry._network is not None:
            radio_range_m = telemetry._network.radio.range_m
        sim = telemetry._sim
        recorder = getattr(sim, "flight", None) if sim is not None else None
        events: List[dict] = recorder.records() if recorder else []
        triggers: List[dict] = list(recorder.triggers) if recorder else []
        return cls([span_to_wire(s) for s in telemetry.spans.spans],
                   [instant_to_wire(i) for i in telemetry.spans.instants],
                   events=events, triggers=triggers,
                   radio_range_m=radio_range_m)

    @classmethod
    def from_bundle(cls, path) -> "PostMortem":
        """Rebuild the engine from a dumped flight bundle (.jsonl[.gz])."""
        groups = FlightRecorder.read_bundle(path)
        return cls(groups.get("span", []), groups.get("instant", []),
                   events=groups.get("event", []),
                   triggers=groups.get("trigger", []))

    # -- enumeration ----------------------------------------------------

    def query_ids(self) -> List[int]:
        """Protocol query ids that have a root span."""
        return sorted(q for q, spans in self._spans_by_qid.items()
                      if any(s.get("category") == "query" for s in spans))

    def service_ids(self) -> List[int]:
        return sorted(self.service_spans)

    # -- protocol-level attribution -------------------------------------

    def _anchor_threshold(self) -> float:
        if self.radio_range_m:
            return _ANCHOR_RANGE_FACTOR * self.radio_range_m
        return _DEFAULT_ANCHOR_THRESHOLD_M

    def _timeline(self, qid: int) -> List[dict]:
        """Merged, time-ordered causal timeline for one query."""
        entries: List[dict] = []
        for span in self._spans_by_qid.get(qid, []):
            entries.append({"time": span["start"], "what": "span_open",
                            "name": span["name"], "node": span.get("node")})
            if span.get("end") is not None:
                entries.append({"time": span["end"], "what": "span_close",
                                "name": span["name"],
                                "status": _attr(span, "status"),
                                "attrs": dict(span.get("attrs", {}))})
        for inst in self._instants_by_qid.get(qid, []):
            entries.append({"time": inst["time"], "what": "instant",
                            "name": inst["name"], "node": inst.get("node"),
                            "attrs": dict(inst.get("attrs", {}))})
        entries.sort(key=lambda e: (e["time"], e["what"]))
        return entries

    def explain_query(self, qid: int) -> Attribution:
        """Attribute one protocol-level query."""
        spans = self._spans_by_qid.get(qid, [])
        instants = self._instants_by_qid.get(qid, [])
        root = next((s for s in spans if s.get("category") == "query"),
                    None)
        route = next((s for s in spans if s.get("category") == "route"),
                     None)
        sectors = [s for s in spans if s.get("category") == "sector"]
        windows = [s for s in spans if s.get("category") == "window"]
        status = (_attr(root, "status", "unknown") if root is not None
                  else "unknown")
        completed = status == "completed"
        timeline = self._timeline(qid)

        anchors = [i for i in instants if i["name"] == "anchor declared"]
        mode_flips = [i for i in instants
                      if i["name"].startswith("gpsr ")]
        perimeter_entries = [i for i in mode_flips
                             if i["name"].endswith("->perimeter")]
        voids = [i for i in instants if i["name"] == "void detour"]
        finishes = [i for i in instants if i["name"] == "sector finished"]
        token_retries = [i for i in instants if i["name"] == "token retry"]
        requeries = [i for i in instants
                     if i["name"] == "watchdog requery"]
        unreported = [s for s in sectors
                      if _attr(s, "status") == "unreported"]
        superseded = [w for w in windows
                      if _attr(w, "status") in ("superseded",
                                                "unfinished")]
        exhausted = [f for f in finishes
                     if _attr(f, "reason") == "detours_exhausted"]

        def base(cause: str, conf: float,
                 evidence: List[Evidence]) -> Attribution:
            return Attribution(subject=f"q{qid}", cause=cause,
                               status=status, confidence=conf,
                               evidence=evidence, timeline=timeline,
                               query_id=qid)

        # Rule 1 — anchor displacement.  The defining ROADMAP-item-4
        # failure: the route *delivered*, every sector can report, yet
        # the whole itinerary is centered on the wrong spot.  Flagged
        # even on COMPLETE queries.
        displacement = (_float_attr(route, "displacement_m")
                        if route is not None else None)
        anchor_offset = max(
            (_float_attr(i, "offset_m") or 0.0 for i in anchors),
            default=None) if anchors else None
        offset = max((v for v in (displacement, anchor_offset)
                      if v is not None), default=None)
        threshold = self._anchor_threshold()
        if offset is not None and offset > threshold:
            evidence: List[Evidence] = []
            for inst in anchors:
                evidence.append(Evidence(
                    "anchor", f"node {inst.get('node')} declared home via "
                    f"{_attr(inst, 'reason')} in {_attr(inst, 'mode')} "
                    f"mode, {(_float_attr(inst, 'offset_m') or 0.0):.1f} "
                    "m from the query point", time=inst["time"],
                    data=dict(inst.get("attrs", {}))))
            if displacement is not None:
                evidence.append(Evidence(
                    "route", f"home node "
                    f"{_attr(route, 'home')} anchored "
                    f"{displacement:.1f} m from the query point "
                    f"(threshold {threshold:.1f} m)",
                    time=route.get("end"),
                    data={"displacement_m": displacement,
                          "radius_m": _float_attr(route, "radius_m")}))
            if perimeter_entries:
                evidence.append(Evidence(
                    "routing", f"{len(perimeter_entries)} perimeter "
                    "entr" + ("y" if len(perimeter_entries) == 1
                              else "ies") + " before the anchor — GPSR "
                    "hit a local minimum and walked the void boundary",
                    time=perimeter_entries[0]["time"]))
            if voids:
                evidence.append(Evidence(
                    "itinerary", f"{len(voids)} void detours while "
                    "sweeping the (displaced) boundary"))
            conf = 0.9 if (perimeter_entries or anchors) else 0.7
            return base(ANCHOR_DISPLACED, conf, evidence)

        # Rule 2 — routing never pinned a home node.
        route_unfinished = (route is not None
                            and _attr(route, "status") == "unfinished")
        if not completed and (route_unfinished
                              or (route is None and not sectors)):
            evidence = []
            if route_unfinished:
                evidence.append(Evidence(
                    "route", "routing phase never delivered a home node",
                    time=route.get("end")))
            for inst in mode_flips[:4]:
                evidence.append(Evidence(
                    "routing", inst["name"] + f" at node "
                    f"{inst.get('node')}", time=inst["time"],
                    data=dict(inst.get("attrs", {}))))
            conf = 0.8 if (route_unfinished and perimeter_entries) \
                else 0.5
            return base(PERIMETER_STUCK, conf, evidence)

        # Rule 3 — a sector's token chain died.
        if not completed and unreported:
            lost = sorted(_attr(s, "sector", -1) for s in unreported)
            evidence = [Evidence(
                "sector", f"sector(s) {lost} never reported")]
            for w in superseded[:4]:
                evidence.append(Evidence(
                    "window", f"collection window at node "
                    f"{w.get('node')} (sector {_attr(w, 'sector')}) "
                    f"ended {_attr(w, 'status')} — Q-node lost",
                    time=w.get("end")))
            for inst in requeries[:2]:
                evidence.append(Evidence(
                    "watchdog", "sink watchdog re-queried sectors "
                    f"{_attr(inst, 'sectors')}", time=inst["time"]))
            if superseded or token_retries:
                conf = 0.8
                return base(SECTOR_LOST_TO_CRASH, conf, evidence)
            if exhausted or voids:
                for f in exhausted[:4]:
                    evidence.append(Evidence(
                        "itinerary", f"sector {_attr(f, 'sector')} gave "
                        "up after exhausting its detour budget at "
                        f"{_attr(f, 'progress', 0.0):.0%} of the plan",
                        time=f["time"], data=dict(f.get("attrs", {}))))
                return base(COVERAGE_GAP, 0.6, evidence)
            return base(UNKNOWN, 0.3, evidence)

        # Rule 4 — completed, but a sector aborted mid-plan.
        if exhausted:
            evidence = [Evidence(
                "itinerary", f"sector {_attr(f, 'sector')} exhausted its "
                f"detour budget ({_attr(f, 'voids')} voids) at "
                f"{_attr(f, 'progress', 0.0):.0%} of its plan",
                time=f["time"], data=dict(f.get("attrs", {})))
                for f in exhausted]
            return base(COVERAGE_GAP, 0.6 if completed else 0.5, evidence)

        if completed:
            return base(HEALTHY, 0.9, [])
        return base(UNKNOWN, 0.2, [])

    # -- service-level attribution --------------------------------------

    def _congestion_evidence(self, start: float,
                             end: Optional[float]) -> List[Evidence]:
        """MAC trouble-frame flight notes inside a serve window."""
        upper = end if end is not None else float("inf")
        hits = [e for e in self.events
                if e.get("category") == "mac"
                and start <= e.get("time", -1.0) <= upper]
        if len(hits) < _CONGESTION_MIN_EVENTS:
            return []
        return [Evidence(
            "mac", f"{len(hits)} MAC trouble frames (retry/backoff/"
            "collision) recorded during the serve window",
            time=hits[0].get("time"))]

    def explain_service(self, service_id: int) -> Attribution:
        """Attribute one served query (delegating to its attempts)."""
        span = self.service_spans.get(service_id)
        if span is None:
            return Attribution(subject=f"s{service_id}", cause=UNKNOWN,
                               status="unknown", confidence=0.0,
                               service_id=service_id)
        status = _attr(span, "status", "unknown")
        reason = _attr(span, "reason", "")
        retries = int(_attr(span, "retries", 0) or 0)
        queue_wait = _float_attr(span, "queue_wait_s")
        attempt_raw = _attr(span, "attempt_qids", "") or ""
        attempt_ids = [int(tok) for tok in str(attempt_raw).split(",")
                       if tok.strip().isdigit()]
        start, end = span["start"], span.get("end")
        latency = (end - start) if end is not None else None

        timeline: List[dict] = []
        attempts = [self.explain_query(qid) for qid in attempt_ids]
        for att in attempts:
            timeline.extend(att.timeline)
        timeline.sort(key=lambda e: e["time"])

        def base(cause: str, conf: float,
                 evidence: List[Evidence]) -> Attribution:
            evidence = list(evidence)
            if retries:
                evidence.append(Evidence(
                    "service", f"{retries} protocol retries across "
                    f"{len(attempt_ids) or retries + 1} attempts"))
            return Attribution(
                subject=f"s{service_id}", cause=cause, status=status,
                confidence=conf, evidence=evidence, timeline=timeline,
                service_id=service_id,
                query_id=attempt_ids[-1] if attempt_ids else None)

        if reason == "admission":
            return base(ADMISSION_SHED, 0.95, [Evidence(
                "service", "refused at admission: in-flight and queue "
                "budgets were both full", time=start)])
        if reason == "breaker_open":
            degraded = bool(_attr(span, "degraded", False))
            detail = ("answered degraded from the region cache"
                      if degraded else "failed fast, no cached answer")
            return base(BREAKER_SHORT_CIRCUIT, 0.95, [Evidence(
                "breaker", f"region breaker was open — {detail}",
                time=start)])

        # Protocol-level causes win when an attempt shows a real defect.
        protocol_cause = max(
            (a for a in attempts if a.cause not in (HEALTHY, UNKNOWN)),
            key=lambda a: a.severity, default=None)

        if status == "complete":
            if protocol_cause is not None:
                att = base(protocol_cause.cause, protocol_cause.confidence,
                           protocol_cause.evidence)
                return att
            return base(HEALTHY, 0.9, [])

        if queue_wait is not None and latency and latency > 0 \
                and queue_wait / latency > 0.5:
            return base(DEADLINE_QUEUE_WAIT, 0.85, [Evidence(
                "service", f"{queue_wait:.3f} s of the {latency:.3f} s "
                f"to finalization ({queue_wait / latency:.0%}) was spent "
                "waiting for admission", time=start,
                data={"queue_wait_s": queue_wait,
                      "latency_s": latency})])

        if protocol_cause is not None:
            return base(protocol_cause.cause, protocol_cause.confidence,
                        protocol_cause.evidence)

        congestion = self._congestion_evidence(start, end)
        if reason in ("retry_budget", "deadline_no_retry"):
            if congestion:
                return base(CONGESTION_BACKOFF, 0.7, congestion)
            return base(RETRY_EXHAUSTED, 0.7, [Evidence(
                "service", f"gave up with reason {reason!r} after "
                f"{retries} retries")])
        if congestion:
            return base(CONGESTION_BACKOFF, 0.6, congestion)
        if reason in ("deadline", "drain"):
            return base(UNKNOWN, 0.3, [Evidence(
                "service", f"finalized {status} ({reason}); no protocol "
                "or queue evidence survived in the recorded artifacts")])
        return base(UNKNOWN, 0.2, [])

    # -- fleet views ----------------------------------------------------

    def explain_all(self) -> List[Attribution]:
        """Every query in the artifacts; service-level records subsume
        their protocol attempts (bare protocol queries stay q-level)."""
        out = [self.explain_service(sid) for sid in self.service_ids()]
        claimed = set()
        for sid in self.service_ids():
            raw = _attr(self.service_spans[sid], "attempt_qids", "") or ""
            claimed.update(int(tok) for tok in str(raw).split(",")
                           if tok.strip().isdigit())
        out.extend(self.explain_query(qid) for qid in self.query_ids()
                   if qid not in claimed)
        return out

    def worst(self, n: int = 10) -> List[Attribution]:
        """The ``n`` most severe attributions, worst first."""
        ranked = sorted(self.explain_all(),
                        key=lambda a: a.severity, reverse=True)
        return ranked[:n]


# -- aggregation / reporting ------------------------------------------------

def aggregate(attributions: Iterable[Attribution]) -> dict:
    """Fleet digest: cause histogram + flagged share ("top causes
    behind the p99 / availability burn")."""
    counts: Dict[str, int] = {}
    flagged = 0
    total = 0
    for att in attributions:
        total += 1
        counts[att.cause] = counts.get(att.cause, 0) + 1
        flagged += int(att.flagged)
    top = sorted(((cause, n) for cause, n in counts.items()
                  if cause != HEALTHY),
                 key=lambda item: (-item[1], _SEVERITY.get(item[0], 0)))
    return {"total": total, "flagged": flagged, "causes": counts,
            "top_causes": [{"cause": c, "count": n} for c, n in top]}


def write_report(attributions: List[Attribution], path) -> str:
    """Machine-readable JSONL report: one aggregate header line, then
    one attribution per line.  ``.gz`` paths compress transparently."""
    from .events import open_text
    from pathlib import Path

    path = Path(path)
    path.parent.mkdir(parents=True, exist_ok=True)
    with open_text(path, "w") as handle:
        handle.write(json.dumps(
            {"record": "aggregate", **aggregate(attributions)}) + "\n")
        for att in attributions:
            handle.write(json.dumps(
                {"record": "attribution", **att.to_dict()}) + "\n")
    return str(path)


# -- replay helper (the ROADMAP item 4 counterexample) ----------------------

def replay_seed_query(seed: int, k: int, qx: float, qy: float,
                      n: int = 120, duration_s: float = 15.0,
                      field_m: float = 115.0):
    """Re-run one static-field protocol query under telemetry and
    attribute it.

    This reproduces the property-test harness construction exactly
    (same RNG discipline as ``tests.conftest.build_static_network``),
    so e.g. ``seed=9999, k=1, q=(20, 52)`` replays the known GPSR
    anchor-displacement counterexample.  Returns ``(attribution,
    result, network)``.
    """
    import numpy as np

    from ..core import DIKNNProtocol, KNNQuery, next_query_id
    from ..deploy import UniformDeployment
    from ..geometry import Rect, Vec2
    from ..mobility import StaticMobility
    from ..net import Network, SensorNode
    from ..routing import GpsrRouter
    from ..sim import Simulator
    from .telemetry import Telemetry

    sim = Simulator(seed=seed)
    net = Network(sim)
    rng = np.random.default_rng(seed)
    deploy_field = Rect.from_size(field_m, field_m)
    for i, pos in enumerate(
            UniformDeployment().generate(n, deploy_field, rng)):
        net.add_node(SensorNode(i, StaticMobility(pos), reading=float(i)))
    net.warm_up()

    proto = DIKNNProtocol()
    router = GpsrRouter(net)
    proto.install(net, router)
    telemetry = Telemetry(profile_kernel=False, trace_events=False)
    telemetry.attach(sim, net)

    query = KNNQuery(query_id=next_query_id(), sink_id=0,
                     point=Vec2(qx, qy), k=k, issued_at=sim.now)
    results: List[object] = []
    proto.issue(net.nodes[0], query, results.append)
    sim.run(until=sim.now + duration_s)
    result = results[0] if results else proto.abandon(query.query_id)
    telemetry.finalize()

    engine = PostMortem.from_telemetry(telemetry)
    attribution = engine.explain_query(query.query_id)
    telemetry.detach()
    return attribution, result, net
