"""The probe bus: one per simulation, one subscriber list per layer.

Every observer of a run — telemetry, the flight recorder, the kernel
profiler, the raw trace log, the validation checkers, the visualiser —
subscribes plain callables here instead of occupying a slot on the
component it watches.  The layer tags are the benchmark's layer names;
each layer has one call signature (docs/OBSERVABILITY.md lists who
listens to what):

* ``sim``: ``fn(time, callback)`` before each kernel event runs;
* ``net.mac``: ``fn(event, time, detail)`` — ``backoff_s``/``queue_s``
  samples carry a float, ``lost``/``arq_exhausted`` frames a dict;
* ``net.energy``: ``fn(ledger, node_id, kind, cost)`` per charge;
* ``net``: ``fn(event, message, node_id)`` per send and deliver;
* ``net.beacons``: ``fn(receivers, senders, times)`` per beacon
  delivery batch (id and time arrays, in delivery order);
* ``routing.gpsr`` and ``core``: ``fn(event, *args)``, ``event``
  naming the ``Telemetry`` method that handles it.

Emit sites keep their layer's live list and test it before building any
argument, so a run nobody watches pays one truth test per site.
Subscribers must stay pure: no RNG draws, no scheduling, no writes to
simulation state — an observed run is bit-identical to an unobserved
one.
"""

from __future__ import annotations

from typing import Callable, Dict, List

#: the layer tags, in stack order
LAYERS = ("sim", "net.mac", "net.energy", "net", "net.beacons",
          "routing.gpsr", "core")


def emit(subscribers: List[Callable], *args) -> None:
    """Call every subscriber of one layer with ``args``."""
    for fn in subscribers:
        fn(*args)


class Probes:
    """Per-simulation subscriber lists, keyed by layer tag."""

    def __init__(self) -> None:
        self._subscribers: Dict[str, List[Callable]] = {
            layer: [] for layer in LAYERS}

    def __getitem__(self, layer: str) -> List[Callable]:
        """The live subscriber list of ``layer`` (emit sites keep it)."""
        try:
            return self._subscribers[layer]
        except KeyError:
            raise ValueError(f"unknown probe layer {layer!r}; "
                             f"choose from {LAYERS}") from None

    def subscribe(self, layer: str, fn: Callable) -> None:
        self[layer].append(fn)

    def unsubscribe(self, layer: str, fn: Callable) -> None:
        """Remove ``fn`` from ``layer``; a no-op if it is not there.

        Bound methods compare equal when they bind the same object, so
        ``unsubscribe(layer, obj.method)`` finds the subscribed one."""
        subscribers = self[layer]
        if fn in subscribers:
            subscribers.remove(fn)
