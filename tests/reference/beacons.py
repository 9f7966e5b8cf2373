"""Scalar reference model of the paper's periodic location beacons.

Production beaconing (:mod:`repro.net.beacons`) runs every node's timer
inside one vectorized epoch event.  This model is the plain reading of
the network model it implements (paper §3.1): one
:class:`~repro.sim.engine.PeriodicTask` per node, one receiver-set query
per beacon, one loss draw per receiver, one delivery event per frame.

It draws from the same ``beacon.stagger``, ``beacon.jitter.{id}`` and
``mac.beacon`` RNG streams in the same order, so the differential
suites (``tests/test_beacon_equivalence.py``, ``tests/test_faults.py``,
``tests/test_sparse_store.py``) can require bitwise-equal neighbor
tables, beacon counters and beacon-energy ledgers at every
beacon-interval boundary.  Only the order of events *inside* an
interval differs from production.
"""

from __future__ import annotations

from functools import partial
from typing import List, Optional

import numpy as np

from repro.geometry import Vec2
from repro.net import Network, SensorNode
from repro.net.node import NeighborEntry
from repro.sim.engine import PeriodicTask
from repro.sim.errors import ConfigurationError


class ReferenceNetwork(Network):
    """A :class:`~repro.net.Network` whose beacons, and the proactive
    neighbor sweep, run through the scalar per-node model.

    Everything else (radio, MAC, spatial index, mute set, probes) is the
    production network's; no beacon engine is ever created.
    """

    def __init__(self, *args, **kwargs):
        super().__init__(*args, **kwargs)
        self._beacon_tasks: List[PeriodicTask] = []

    def _beacons_running(self) -> bool:
        return bool(self._beacon_tasks)

    def start_beacons(self) -> None:
        if self._beacons_running():
            raise ConfigurationError("beacons already started")
        stagger = self.sim.rng.stream("beacon.stagger")
        for node in self.nodes.values():
            task = PeriodicTask(self.sim, self.beacon_interval,
                                partial(self._beacon, node),
                                jitter=0.05 * self.beacon_interval,
                                rng_stream=f"beacon.jitter.{node.id}")
            task.start(initial_delay=float(
                stagger.uniform(0.0, self.beacon_interval)))
            self._beacon_tasks.append(task)

    def stop_beacons(self) -> None:
        # Frames already in the air keep their delivery events.
        for task in self._beacon_tasks:
            task.stop()
        self._beacon_tasks.clear()

    def start_neighbor_sweep(self, period: Optional[float] = None) -> None:
        if self._sweep_task is not None:
            return

        def _sweep() -> None:
            for node in self.nodes.values():
                if node.alive:
                    self.neighbor_evictions += node.evict_stale_neighbors(
                        self.sim.now, self.neighbor_timeout)

        self._sweep_task = PeriodicTask(
            self.sim, period if period is not None else self.beacon_interval,
            _sweep)
        self._sweep_task.start()

    # -- one beacon ----------------------------------------------------------

    def _beacon(self, node: SensorNode) -> None:
        """Fire one beacon: charge tx, draw loss per receiver, charge rx
        at fire time, deliver after airtime.  Dead and muted nodes skip
        the frame but their timer still draws its next jitter."""
        if not node.alive or node.id in self._beacon_muted:
            return
        now = self.sim.now
        pos = node.mobility.position_at(now)
        speed = node.mobility.speed_at(now)
        velocity = node.mobility.velocity_at(now)
        self.stats.beacons_sent += 1
        receivers = self._receivers_for(node.id, pos)
        mac = self._beacon_mac
        radio = self.radio
        bits = (self.BEACON_BYTES + radio.header_bytes) * 8
        self.beacon_ledger.charge_tx(node.id, bits, radio.range_m)
        mac.stats.frames_sent += 1
        mac.stats.bytes_sent += self.BEACON_BYTES
        loss = mac.loss_rate()
        survivors = [rid for rid, _pos in receivers
                     if loss <= 0.0 or mac._rng.random() >= loss]
        for rid in survivors:
            self.beacon_ledger.charge_rx(rid, bits)
        if survivors:
            delay = (radio.airtime(self.BEACON_BYTES)
                     + radio.propagation_delay_s)
            self.sim.schedule_in(delay, partial(
                self._deliver_beacon, node.id, survivors, pos, speed,
                velocity))

    def _deliver_beacon(self, src: int, receivers: List[int], pos: Vec2,
                        speed: float, velocity: Vec2) -> None:
        now = self.sim.now
        delivered = []
        for rid in receivers:
            node = self.nodes.get(rid)
            if node is None or not node.alive:
                continue
            delivered.append(rid)
            node.neighbor_table[src] = NeighborEntry(
                src, pos, speed, now, beacon_position=pos,
                velocity=velocity)
        probes = self.sim.probes["net.beacons"]
        if probes and delivered:
            n = len(delivered)
            batch = (np.array(delivered, dtype=np.int64),
                     np.full(n, src, dtype=np.int64), np.full(n, now))
            for fn in probes:
                fn(*batch)
