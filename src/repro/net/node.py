"""Sensor node: position, neighbor table, local reading, message handlers.

The paper's network model (§3.1): every node is location-aware, broadcasts
periodic beacons with its location and id, and keeps a table of neighbors
heard within radio range.  Protocol behaviour is attached by registering
message-kind handlers; the node itself is protocol-agnostic.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Any, Callable, Dict, List, Optional, TYPE_CHECKING

from ..geometry import Vec2
from ..mobility.base import MobilityModel
from .messages import Message

if TYPE_CHECKING:  # pragma: no cover - typing only
    from .network import Network

Handler = Callable[["SensorNode", Message], None]


@dataclass
class NeighborEntry:
    """What a node knows about one neighbor, as of the last beacon heard.

    ``position`` is dead-reckoned: the beaconed location advanced along the
    beaconed velocity to the read time, which keeps neighbor tables usable
    between beacons even at high node speeds.  ``beacon_position`` preserves
    the raw reported location.
    """

    node_id: int
    position: Vec2
    speed: float
    heard_at: float
    beacon_position: Vec2 = None  # type: ignore[assignment]
    velocity: Vec2 = Vec2(0.0, 0.0)

    def __post_init__(self) -> None:
        if self.beacon_position is None:
            self.beacon_position = self.position

    def predicted_position(self, now: float) -> Vec2:
        age = max(0.0, now - self.heard_at)
        return Vec2(self.beacon_position.x + self.velocity.x * age,
                    self.beacon_position.y + self.velocity.y * age)


class SensorNode:
    """One sensor node in the network."""

    def __init__(self, node_id: int, mobility: MobilityModel,
                 reading: float = 0.0):
        self.id = node_id
        self._mobility = mobility
        self.reading = reading
        self._nt: Dict[int, NeighborEntry] = {}
        self.network: Optional["Network"] = None
        self._handlers: Dict[str, Handler] = {}
        self._alive = True

    def __repr__(self) -> str:
        return f"SensorNode({self.id})"

    def _beacon_engine(self):
        net = self.network
        return None if net is None else getattr(net, "_beacon_engine", None)

    @property
    def mobility(self) -> MobilityModel:
        return self._mobility

    @mobility.setter
    def mobility(self, model: MobilityModel) -> None:
        engine = self._beacon_engine()
        if engine is not None:
            # Settle beacon state under the old trajectory, then drop the
            # cached mobility-bank row so the new model takes effect.
            engine.on_mobility_change(self, model)
        self._mobility = model

    @property
    def alive(self) -> bool:
        return self._alive

    @alive.setter
    def alive(self, value: bool) -> None:
        if value != self._alive:
            engine = self._beacon_engine()
            if engine is not None:
                # Settle beacon state under the old liveness, then log
                # the transition (delivery-time alive checks need it).
                engine.on_liveness(self, value)
        self._alive = value

    @property
    def neighbor_table(self) -> Dict[int, NeighborEntry]:
        """The node's neighbor table (the real dict, not a copy).

        Once beaconing runs, reading it first materializes any beacon
        deliveries applied since the last read, so external readers (the
        validation checkers, fault tooling) see the same state as the
        per-beacon scalar reference model (``tests/reference/beacons.py``).
        """
        engine = self._beacon_engine()
        if engine is not None:
            engine.sync_node_table(self)
        return self._nt

    @neighbor_table.setter
    def neighbor_table(self, value: Dict[int, NeighborEntry]) -> None:
        self._nt = value

    # -- kinematics ----------------------------------------------------------

    def position(self, t: Optional[float] = None) -> Vec2:
        """Exact position at time ``t`` (defaults to the network's clock)."""
        if t is None:
            if self.network is None:
                raise RuntimeError("node is not attached to a network")
            t = self.network.sim.now
        return self.mobility.position_at(t)

    def speed(self, t: Optional[float] = None) -> float:
        if t is None:
            if self.network is None:
                raise RuntimeError("node is not attached to a network")
            t = self.network.sim.now
        return self.mobility.speed_at(t)

    # -- neighbor table ------------------------------------------------------

    def neighbors(self, max_age: Optional[float] = None) -> List[NeighborEntry]:
        """Fresh neighbor entries (protocol view).

        Entries older than ``max_age`` (default: the network's neighbor
        timeout) are pruned as a side effect; surviving entries are
        returned with dead-reckoned positions as of the current time.
        """
        if self.network is None:
            raise RuntimeError("node is not attached to a network")
        if max_age is None:
            max_age = self.network.neighbor_timeout
        now = self.network.sim.now
        self.evict_stale_neighbors(now, max_age)
        return [NeighborEntry(e.node_id, e.predicted_position(now), e.speed,
                              e.heard_at, beacon_position=e.beacon_position,
                              velocity=e.velocity)
                for e in self.neighbor_table.values()]

    def forget_neighbor(self, node_id: int) -> None:
        """Drop a neighbor entry (e.g. after link-layer delivery failure)."""
        self.neighbor_table.pop(node_id, None)
        engine = self._beacon_engine()
        if engine is not None:
            engine.clear_cell(self.id, node_id)

    def reset_neighbors(self) -> None:
        """Wipe the whole neighbor table (crash recovery: a rebooted node
        remembers nothing)."""
        self._nt.clear()
        engine = self._beacon_engine()
        if engine is not None:
            engine.reset_row(self.id)

    def evict_stale_neighbors(self, now: float, max_age: float) -> int:
        """Missed-beacon eviction: drop entries not refreshed within
        ``max_age`` seconds.  Returns the number evicted.

        Same policy ``neighbors()`` applies lazily at read time, exposed
        for proactive sweeps so crashed or silenced neighbors leave the
        table even when it is not being read.
        """
        stale = [nid for nid, e in self.neighbor_table.items()
                 if now - e.heard_at > max_age]
        for nid in stale:
            del self.neighbor_table[nid]
        return len(stale)

    # -- messaging -----------------------------------------------------------

    def on(self, kind: str, handler: Handler) -> None:
        """Register (or replace) the handler for message ``kind``."""
        self._handlers[kind] = handler

    def handle(self, message: Message) -> None:
        """Dispatch an incoming message to its registered handler."""
        if not self.alive:
            return
        handler = self._handlers.get(message.kind)
        if handler is not None:
            handler(self, message)

    def broadcast(self, kind: str, payload: Dict[str, Any],
                  size_bytes: int) -> None:
        """One-hop broadcast to all nodes currently in radio range."""
        if self.network is None:
            raise RuntimeError("node is not attached to a network")
        self.network.send(self, Message(kind=kind, src=self.id,
                                        dst=-1, size_bytes=size_bytes,
                                        payload=payload))

    def send(self, dst: int, kind: str, payload: Dict[str, Any],
             size_bytes: int,
             on_fail: Optional[Callable[[Message], None]] = None) -> None:
        """Unicast to a (believed) neighbor, with link-layer ARQ."""
        if self.network is None:
            raise RuntimeError("node is not attached to a network")
        self.network.send(self, Message(kind=kind, src=self.id, dst=dst,
                                        size_bytes=size_bytes,
                                        payload=payload), on_fail=on_fail)
