"""Scenario capture: run a pinned scenario with telemetry attached.

Reuses the golden-trace scenario matrix (``repro.validate.golden``) so a
captured trace is directly comparable against the committed digests: the
telemetry's raw-event stream must fingerprint identically to the fixture,
proving instrumentation changed nothing.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Optional

from .flight import FlightRecorder
from .telemetry import Telemetry


@dataclass
class CaptureResult:
    """One instrumented scenario run."""

    name: str
    telemetry: Telemetry
    digest: str          # sha256 of the raw-event stream
    completed: bool      # did the query answer within the window?
    spec: str
    #: the (uninstalled) flight recorder when capture ran with one; its
    #: ring still holds the run's tail and can be dumped
    flight: Optional[FlightRecorder] = None

    @property
    def spans(self):
        return self.telemetry.spans

    @property
    def metrics(self):
        return self.telemetry.metrics


def scenario_names():
    """Names of the capturable pinned scenarios."""
    from ..validate.golden import GOLDEN_SPECS
    return [spec.name for spec in GOLDEN_SPECS]


def capture_scenario(name: str = "static-diknn",
                     profile_kernel: bool = True,
                     sample_every_n: int = 0,
                     flight: bool = False) -> CaptureResult:
    """Run one golden scenario with a :class:`Telemetry` attached.

    Mirrors ``run_golden`` exactly — same config, same fixed
    ``query_id=1``, same full-timeout window — with the telemetry's own
    ``TraceLog`` standing in for the digest trace.

    ``sample_every_n > 0`` additionally runs the tail sampler (raw-event
    capture stays on so the digest remains comparable); ``flight``
    installs a :class:`~repro.obs.flight.FlightRecorder` on the kernel
    and MAC.  Both must leave the digest bit-identical — that is the
    point of the determinism suite using this entry.
    """
    # Heavy imports stay local: repro.obs must be importable before the
    # experiment/protocol layers finish loading.
    from ..core.query import KNNQuery
    from ..experiments.config import SimulationConfig, build_simulation
    from ..geometry import Vec2
    from ..validate.golden import GOLDEN_SPECS, _make_protocol, trace_digest

    by_name = {spec.name: spec for spec in GOLDEN_SPECS}
    if name not in by_name:
        raise ValueError(f"unknown scenario {name!r}; "
                         f"choose from {sorted(by_name)}")
    spec = by_name[name]
    config = SimulationConfig(
        n_nodes=spec.n_nodes, field_size=spec.field_size,
        max_speed=spec.max_speed, seed=spec.seed,
        crash_rate=spec.crash_rate, node_downtime_s=spec.node_downtime_s)
    handle = build_simulation(config, _make_protocol(spec.protocol))
    telemetry = handle.obs
    if telemetry is None:
        telemetry = Telemetry(profile_kernel=profile_kernel,
                              sample_every_n=sample_every_n)
        telemetry.attach_handle(handle)
    recorder = None
    if flight:
        recorder = FlightRecorder().install(handle.sim)
    handle.warm_up()
    query = KNNQuery(query_id=1, sink_id=handle.sink.id,
                     point=Vec2(*spec.point), k=spec.k,
                     issued_at=handle.sim.now)
    done = []
    handle.protocol.issue(handle.sink, query, done.append)
    handle.sim.run(until=handle.sim.now + spec.timeout)
    stop = getattr(handle.protocol, "stop", None)
    if callable(stop):
        stop()
    if not done:
        handle.protocol.abandon(query.query_id)
    telemetry.finalize()
    if recorder is not None:
        recorder.uninstall()
    entries = (telemetry.events.entries
               if telemetry.events is not None else [])
    return CaptureResult(name=spec.name, telemetry=telemetry,
                         digest=trace_digest(entries),
                         completed=bool(done), spec=spec.describe(),
                         flight=recorder)
