"""Layer tracing from outside the program.

The traced run wraps public functions of each layer at class level (or
in the module namespace where their caller looks them up) *before*
``build_simulation`` and restores them afterwards.  Every wrapped call
becomes a span ``(name, start, end, parent, query id)`` appended to flat
arrays held in memory; :meth:`Recorder.save` writes them out once.

Three kinds of boundary are recorded:

* direct calls into a layer's public functions (``MacLayer.transmit``,
  ``GpsrRouter.send``, ``SparseNeighborStore.scatter``, ...);
* message handlers, wrapped at registration (``SensorNode.on`` and
  ``GpsrRouter.on_deliver/on_hop``), so a delivered ``diknn.*`` message
  is charged to ``core`` and a ``gpsr`` hop to ``routing.gpsr``;
* scheduled callbacks: ``Simulator.schedule_at`` wraps each callback in
  a span of the layer whose span was open when it was scheduled, so a
  MAC collision check that runs later as its own event still counts as
  ``net.mac``.  Callbacks scheduled outside any layer span stay
  unwrapped and their time is ``sim`` self time.

A layer's self time is the sum over its spans of span duration minus the
union of the span's child intervals (:func:`self_times`).  Whatever part
of the measured wall time no span covers is charged to ``sim``, so the
per-layer self times sum to the traced wall time.
"""

from __future__ import annotations

import importlib
import json
from array import array
from pathlib import Path
from time import perf_counter
from typing import Callable, Dict, List, Optional, Sequence, Tuple

import numpy as np

#: layers in report order; ``metrics.oracle`` is the benchmark's own
#: scoring and is traced only outside the measured phase
LAYERS = ("sim", "net.beacons", "net.neighbor_store", "geometry.cells",
          "geometry.grid", "mobility", "net.mac", "net.txindex",
          "net.energy", "routing.gpsr", "core", "service", "obs",
          "metrics.oracle")

#: (layer, module, class or None for a module-level name, attribute).
#: ``SparseNeighborStore._compact`` is the one private name here: public
#: ``compact()`` and the size-triggered compaction inside ``scatter``
#: both go through it, so it is where compactions can be counted.
#: ``sync_node_table`` turns beacon state into a node's neighbor table
#: on every read, so that cost is beacon upkeep whoever reads.
TARGETS: Tuple[Tuple[str, str, Optional[str], str], ...] = (
    ("sim", "repro.sim.engine", "Simulator", "run"),
    ("net.beacons", "repro.net.beacons", "BatchedBeaconEngine", "flush"),
    ("net.beacons", "repro.net.beacons", "BatchedBeaconEngine",
     "sync_node_table"),
    ("net.beacons", "repro.net.beacons", "BatchedBeaconEngine",
     "sweep_evict"),
) + tuple(
    ("net.neighbor_store", "repro.net.neighbor_store", store, attr)
    for store in ("DenseNeighborStore", "SparseNeighborStore")
    for attr in ("scatter", "newer_entries", "stale_cols", "drop_cells")
) + (
    ("net.neighbor_store", "repro.net.neighbor_store",
     "SparseNeighborStore", "_compact"),
    ("geometry.cells", "repro.geometry.cells", "CellBuckets",
     "pair_candidates"),
    ("geometry.cells", "repro.geometry.cells", "CellBuckets",
     "candidates_of"),
    ("geometry.grid", "repro.geometry.grid", "SpatialGrid", "within_ids"),
    ("geometry.grid", "repro.geometry.grid", "SpatialGrid", "nearest"),
    ("geometry.grid", "repro.geometry.grid", "SpatialGrid", "knn"),
    ("mobility", "repro.net.beacons", "MobilityBank", "kinematics_at"),
    ("mobility", "repro.net.beacons", "MobilityBank", "positions_all"),
    ("mobility", "repro.mobility.waypoint", "RandomWaypointMobility",
     "position_at"),
    ("mobility", "repro.mobility.static", "StaticMobility", "position_at"),
    ("net.mac", "repro.net.mac", "MacLayer", "transmit"),
    ("net.mac", "repro.net.mac", "MacLayer", "backoff_delay"),
    ("net.txindex", "repro.net.txindex", "ActiveTxIndex", "append"),
    ("net.txindex", "repro.net.txindex", "ActiveTxIndex", "prune"),
    ("net.txindex", "repro.net.txindex", "ActiveTxIndex", "count_near"),
    ("net.txindex", "repro.net.txindex", "ActiveTxIndex",
     "max_residual_near"),
    ("net.energy", "repro.net.energy", "EnergyLedger", "charge_tx"),
    ("net.energy", "repro.net.energy", "EnergyLedger", "charge_rx"),
    ("net.energy", "repro.net.energy", "EnergyLedger", "charge_tx_repeated"),
    ("net.energy", "repro.net.energy", "EnergyLedger", "charge_rx_repeated"),
    ("net.energy", "repro.net.energy", "EnergyLedger", "charge_idle"),
    ("net.energy", "repro.net.energy", "EnergyLedger", "sync"),
    ("routing.gpsr", "repro.routing.gpsr", "GpsrRouter", "send"),
    ("core", "repro.core.diknn", "DIKNNProtocol", "issue"),
    ("core", "repro.core.dissemination", "TokenState", "build_itinerary"),
    ("core", "repro.core.diknn", None, "knnb_radius"),
    ("service", "repro.service.service", "QueryService", "submit"),
    ("service", "repro.service.service", "QueryService", "drain"),
    ("service", "repro.service.service", "QueryService", "report"),
    ("obs", "repro.obs.slo", "SloBoard", "record_outcome"),
    ("obs", "repro.obs.slo", "SloBoard", "finalize"),
)

#: Telemetry methods the substrate calls.  The ``_on_*`` names are the
#: hooks the hub installs on the MAC, ledger, beacon kernel and
#: itinerary builder; lifecycle and reporting methods are left alone.
_TELEMETRY_SKIP = {"attach", "attach_handle", "detach", "run_summary",
                   "report", "attached"}
_TELEMETRY_HOOKS = ("_on_beacon_batch", "_on_mac", "_on_charge",
                    "_on_itinerary_build")

#: the scoring oracle, patched where the benchmark's scoring and the
#: accuracy helpers look it up
ORACLE_TARGETS = (
    ("metrics.oracle", "repro.metrics.accuracy", None, "true_knn"),
    ("metrics.oracle", "repro.metrics.oracle", None, "true_knn"),
)

#: counters summed from a call's arguments or result, keyed by
#: (module, class, attribute); plain call counts come from span names
_SCATTER = ("net.neighbor_store.writes", lambda args, result: len(args[1]))
_COUNTERS: Dict[Tuple[str, Optional[str], str],
                Tuple[str, Callable]] = {
    ("repro.net.mac", "MacLayer", "backoff_delay"):
        ("net.mac.backoff_sim_s", lambda args, result: result),
    ("repro.net.neighbor_store", "DenseNeighborStore", "scatter"): _SCATTER,
    ("repro.net.neighbor_store", "SparseNeighborStore", "scatter"): _SCATTER,
}


def query_id_of(args: Sequence) -> int:
    """The query id carried by a call's arguments, or -1.

    Looks at ``KNNQuery``-like objects (``.query_id``), messages
    (``.payload``), GPSR-wrapped payloads (``["inner"]``) and plain
    payload dicts.
    """
    for arg in args[1:4]:
        qid = getattr(arg, "query_id", None)
        if qid is None:
            payload = getattr(arg, "payload", arg)
            if isinstance(payload, dict):
                qid = payload.get("query_id")
                if qid is None and isinstance(payload.get("inner"), dict):
                    qid = payload["inner"].get("query_id")
        if isinstance(qid, int):
            return qid
    return -1


def self_times(start, end, parent) -> np.ndarray:
    """Self time of every span: its duration minus the union of its
    children's intervals (each clipped to the parent's interval).

    ``parent[i]`` is the index of span i's parent, or -1.  Overlapping
    children are covered once, not twice.
    """
    start = np.asarray(start, dtype=float)
    end = np.asarray(end, dtype=float)
    parent = np.asarray(parent, dtype=np.int64)
    n = start.size
    covered = np.zeros(n)
    child = np.nonzero(parent >= 0)[0]
    if child.size:
        order = child[np.lexsort((start[child], parent[child]))]
        p = parent[order]
        s = np.maximum(start[order], start[p])
        e = np.maximum(np.minimum(end[order], end[p]), s)
        same = p[1:] == p[:-1]
        if not (same & (s[1:] < e[:-1])).any():
            # Siblings never overlap (the single-threaded case): the
            # union is the plain sum.
            covered = np.bincount(p, weights=e - s, minlength=n)
        else:
            current, reach = -1, -np.inf
            for pi, si, ei in zip(p.tolist(), s.tolist(), e.tolist()):
                if pi != current:
                    current, reach = pi, -np.inf
                lo = max(si, reach)
                if ei > lo:
                    covered[pi] += ei - lo
                reach = max(reach, ei)
    return (end - start) - covered


class Recorder:
    """Spans and counters of one traced pass, kept in flat arrays."""

    def __init__(self) -> None:
        self.names: List[str] = []
        self.layer_of: List[str] = []
        self._name_ids: Dict[str, int] = {}
        self.name = array("i")
        self.start = array("d")
        self.end = array("d")
        self.parent = array("q")
        self.qid = array("q")
        self.stack: List[int] = [-1]
        self.counts: Dict[str, float] = {}
        self.on = False
        self._patches: List[Tuple[object, str, object]] = []

    # -- span bookkeeping ---------------------------------------------------

    def name_id(self, name: str, layer: str) -> int:
        nid = self._name_ids.get(name)
        if nid is None:
            nid = self._name_ids[name] = len(self.names)
            self.names.append(name)
            self.layer_of.append(layer)
        return nid

    def add(self, counter: str, amount: float) -> None:
        self.counts[counter] = self.counts.get(counter, 0) + amount

    def span_wrapper(self, nid: int, fn: Callable,
                     counter: Optional[Tuple[str, Callable]] = None,
                     with_qid: bool = False) -> Callable:
        rec = self
        names, starts, ends = self.name, self.start, self.end
        parents, qids, stack = self.parent, self.qid, self.stack

        def wrapper(*args, **kwargs):
            if not rec.on:
                return fn(*args, **kwargs)
            i = len(starts)
            names.append(nid)
            parents.append(stack[-1])
            qids.append(query_id_of(args) if with_qid else -1)
            ends.append(0.0)
            stack.append(i)
            starts.append(perf_counter())
            try:
                result = fn(*args, **kwargs)
            finally:
                ends[i] = perf_counter()
                stack.pop()
            if counter is not None:
                rec.add(counter[0], counter[1](args, result))
            return result

        wrapper.__wrapped__ = fn
        return wrapper

    # -- patching -----------------------------------------------------------

    def _patch(self, owner: object, attr: str, new: object) -> None:
        self._patches.append((owner, attr, owner.__dict__[attr]))
        setattr(owner, attr, new)

    def _patch_target(self, layer: str, module: str, cls: Optional[str],
                      attr: str) -> None:
        mod = importlib.import_module(module)
        owner = getattr(mod, cls) if cls else mod
        fn = getattr(owner, attr)
        label = f"{cls or module.rsplit('.', 1)[-1]}.{attr.lstrip('_')}"
        counter = _COUNTERS.get((module, cls, attr))
        with_qid = layer in ("core", "routing.gpsr", "net.mac")
        self._patch(owner, attr, self.span_wrapper(
            self.name_id(label, layer), fn, counter, with_qid))

    def install(self) -> None:
        """Wrap every layer boundary (call before ``build_simulation``)."""
        for target in TARGETS:
            self._patch_target(*target)
        from repro.obs.telemetry import Telemetry
        for attr, value in list(vars(Telemetry).items()):
            if callable(value) and (attr in _TELEMETRY_HOOKS or (
                    not attr.startswith("_")
                    and attr not in _TELEMETRY_SKIP)):
                self._patch(Telemetry, attr, self.span_wrapper(
                    self.name_id(f"Telemetry.{attr.lstrip('_')}", "obs"),
                    value))
        self._install_scheduler()
        self._install_handler_registration()

    def install_oracle(self) -> None:
        """Wrap only the scoring oracle (for the scoring phase)."""
        for target in ORACLE_TARGETS:
            self._patch_target(*target)

    def uninstall(self) -> None:
        """Restore every patched name (idempotent)."""
        self.on = False
        while self._patches:
            owner, attr, original = self._patches.pop()
            setattr(owner, attr, original)

    def _install_scheduler(self) -> None:
        from repro.sim.engine import Simulator
        rec = self
        original = Simulator.schedule_at
        event_ids = {layer: self.name_id(f"{layer}:event", layer)
                     for layer in LAYERS}
        sim_layer = "sim"

        def schedule_at(sim, time, callback):
            if rec.on:
                rec.add("sim.scheduled", 1)
                top = rec.stack[-1]
                if top >= 0:
                    layer = rec.layer_of[rec.name[top]]
                    if layer != sim_layer:
                        callback = rec.span_wrapper(event_ids[layer],
                                                    callback)
            return original(sim, time, callback)

        self._patch(Simulator, "schedule_at", schedule_at)

    def _wrap_handler(self, kind: str, handler: Callable,
                      prefix: str) -> Callable:
        if kind == "gpsr":
            layer = "routing.gpsr"
        elif kind.startswith("diknn."):
            layer = "core"
        else:
            return handler
        return self.span_wrapper(
            self.name_id(f"handle.{prefix}{kind}", layer), handler,
            with_qid=True)

    def _install_handler_registration(self) -> None:
        from repro.net.node import SensorNode
        from repro.routing.gpsr import GpsrRouter
        rec = self
        node_on = SensorNode.on
        on_deliver = GpsrRouter.on_deliver
        on_hop = GpsrRouter.on_hop

        def on(node, kind, handler):
            return node_on(node, kind, rec._wrap_handler(kind, handler, ""))

        def deliver(router, inner_kind, handler):
            return on_deliver(router, inner_kind, rec._wrap_handler(
                inner_kind, handler, "deliver."))

        def hop(router, inner_kind, handler):
            return on_hop(router, inner_kind, rec._wrap_handler(
                inner_kind, handler, "hop."))

        self._patch(SensorNode, "on", on)
        self._patch(GpsrRouter, "on_deliver", deliver)
        self._patch(GpsrRouter, "on_hop", hop)

    # -- results ------------------------------------------------------------

    def name_calls(self) -> Dict[str, int]:
        """Exact number of spans of each name."""
        names = np.frombuffer(self.name, dtype=np.int32)
        counts = np.bincount(names, minlength=len(self.names))
        return {name: int(c) for name, c in zip(self.names, counts)}

    def layer_table(self, wall_s: float) -> Dict[str, Dict[str, float]]:
        """Per-layer ``calls`` and ``self_s``; the measured wall time no
        span covers is charged to ``sim``.  ``metrics.oracle`` spans
        (scoring, outside the measured phase) are kept out of the sum."""
        table = {layer: {"calls": 0, "self_s": 0.0} for layer in LAYERS}
        if len(self.start):
            selfs = self_times(self.start, self.end, self.parent)
            per_name = np.bincount(np.frombuffer(self.name, dtype=np.int32),
                                   weights=selfs, minlength=len(self.names))
            calls = self.name_calls()
            for nid, layer in enumerate(self.layer_of):
                table[layer]["calls"] += calls[self.names[nid]]
                table[layer]["self_s"] += float(per_name[nid])
        measured = sum(v["self_s"] for k, v in table.items()
                       if k != "metrics.oracle")
        table["sim"]["self_s"] += wall_s - measured
        return table

    def save(self, path: Path) -> None:
        """Write every span once (``.npz`` arrays plus the name table)."""
        path.parent.mkdir(parents=True, exist_ok=True)
        np.savez_compressed(
            path, name=np.frombuffer(self.name, dtype=np.int32),
            start=np.frombuffer(self.start, dtype=float),
            end=np.frombuffer(self.end, dtype=float),
            parent=np.frombuffer(self.parent, dtype=np.int64),
            query_id=np.frombuffer(self.qid, dtype=np.int64),
            names=np.array(json.dumps(
                {"names": self.names, "layers": self.layer_of})))
