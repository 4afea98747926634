"""Node runtime: packet store, timers, and guarded forwarding.

A :class:`Node` is one hop ``F_i`` on the monitored path. Protocol agents
subclass it and implement :meth:`Node.on_packet`. The base class provides:

* a :class:`PacketStore` holding per-packet state (identifier ``H(m)``,
  wait-timer handles, stored ack copies). Its occupancy *is* the storage
  overhead metric of §7.4/Figure 3, so the store reports every size change
  to an optional observer;
* timers backed by the engine's event queue;
* ``send_forward``/``send_backward`` egress helpers that consult the node's
  adversary strategy — a compromised node drops/alters traffic at egress,
  so its dropping manifests on its *adjacent links*, exactly the paper's
  observation that AAI protocols identify links, not nodes.
"""

from __future__ import annotations

from typing import Any, Callable, Dict, Optional

from repro.exceptions import CryptoError, ProtocolError, SimulationError
from repro.net.clock import NodeClock
from repro.net.packets import FORWARD, REVERSE, Direction, Packet
from repro.obs.registry import get_registry

#: Signature of the fault-injection gate installed by ``repro.faults``:
#: ``gate(node, packet, direction, stage) -> bool`` where ``stage`` is
#: ``"ingress"`` or ``"egress"``; returning False discards the packet
#: (e.g. the node is inside a crash window).
FaultGate = Callable[["Node", Packet, Direction, str], bool]


class PacketStore:
    """Keyed per-packet state with occupancy tracking.

    Parameters
    ----------
    observer:
        Optional callable ``(time, size)`` invoked after every size change;
        the storage-overhead experiments plug a recorder in here.
    """

    def __init__(self, observer: Optional[Callable[[float, int], None]] = None) -> None:
        self._entries: Dict[bytes, Dict[str, Any]] = {}
        self._observer = observer
        self.peak = 0

    def __len__(self) -> int:
        return len(self._entries)

    def __contains__(self, identifier: bytes) -> bool:
        return identifier in self._entries

    def set_observer(self, observer: Callable[[float, int], None]) -> None:
        self._observer = observer

    def add(self, identifier: bytes, now: float, **state: Any) -> Dict[str, Any]:
        """Insert (or replace) the entry for ``identifier``."""
        state["stored_at"] = now
        entries = self._entries
        entries[identifier] = state
        size = len(entries)
        if size > self.peak:
            self.peak = size
        if self._observer is not None:
            self._observer(now, size)
        return state

    def get(self, identifier: bytes) -> Optional[Dict[str, Any]]:
        return self._entries.get(identifier)

    def pop(self, identifier: bytes, now: float) -> Optional[Dict[str, Any]]:
        entry = self._entries.pop(identifier, None)
        if entry is not None and self._observer is not None:
            self._observer(now, len(self._entries))
        return entry

    def clear(self, now: float) -> None:
        if self._entries:
            self._entries.clear()
            if self._observer is not None:
                self._observer(now, 0)


class Node:
    """Base class for path nodes ``F_0 .. F_d``.

    Subclasses implement :meth:`on_packet`. Wiring (links, clock, stats) is
    performed by :class:`repro.net.path.Path`; a node is unusable until
    attached.
    """

    def __init__(self, position: int) -> None:
        self.position = position
        self.store = PacketStore()
        #: Adversary strategy controlling this node, or None when honest.
        self.adversary = None
        self.clock: Optional[NodeClock] = None
        #: Fault-injection gate (``repro.faults``), or None when healthy.
        self.fault_gate: Optional[FaultGate] = None
        #: Degraded-mode events survived by this node (malformed input
        #: dropped instead of raised); mirrored by ``protocol.faults_seen``.
        self.faults_seen = 0
        #: Per-kind breakdown of :attr:`faults_seen`.
        self.fault_counts: Dict[str, int] = {}
        self._uplink = None  # link l_{i-1}, toward the source
        self._downlink = None  # link l_i, toward the destination
        self._path = None
        self._simulator = None
        # Bound at attach time: the series carries the owning path's id,
        # so two paths sharing a simulator never merge their fault
        # counters. Until attached, faults are tallied locally only.
        self._obs_faults = None

    # -- wiring ----------------------------------------------------------

    def attach(self, path, clock: NodeClock, uplink, downlink) -> None:
        """Called by Path to wire this node in."""
        self._path = path
        self._simulator = path.simulator
        self.clock = clock
        self._uplink = uplink
        self._downlink = downlink
        self._obs_faults = get_registry().counter(
            "protocol.faults_seen",
            node=str(self.position),
            path=str(path.path_id),
        )

    @property
    def path(self):
        if self._path is None:
            raise SimulationError(f"node {self.position} is not attached to a path")
        return self._path

    @property
    def now(self) -> float:
        """This node's local (possibly skewed) time."""
        if self.clock is None:
            raise SimulationError(f"node {self.position} is not attached to a path")
        return self.clock.now

    # -- traffic ---------------------------------------------------------

    def on_packet(self, packet: Packet, direction: Direction) -> None:
        """Protocol logic: handle a packet delivered to this node."""
        raise NotImplementedError

    def record_fault(self, kind: str) -> None:
        """Account a degraded-mode event (survived fault) on this node."""
        self.faults_seen += 1
        self.fault_counts[kind] = self.fault_counts.get(kind, 0) + 1
        if self._obs_faults is not None:
            self._obs_faults.inc()

    def deliver(self, packet: Packet, direction: Direction) -> None:
        """Ingress from a link (engine callback).

        Degraded mode: a malformed, corrupted, or replayed packet that
        makes protocol logic raise :class:`CryptoError`/:class:`ProtocolError`
        is dropped and counted (``protocol.faults_seen``) instead of
        escaping into the event loop — a router does not crash on a bad
        packet. Engine/configuration errors still propagate: those are
        bugs, not traffic.
        """
        if self.fault_gate is not None and not self.fault_gate(
            self, packet, direction, "ingress"
        ):
            return
        if self.adversary is not None:
            processed = self.adversary.process_ingress(self, packet, direction)
            if processed is None:
                self.path.stats.node_drop_stats(self.position).record(
                    packet, direction
                )
                self.path.notify_node_drop(self, packet, direction, "ingress")
                return
            packet = processed
        try:
            self.on_packet(packet, direction)
        except (CryptoError, ProtocolError) as exc:
            self.record_fault(type(exc).__name__)

    def send_forward(self, packet: Packet) -> None:
        """Egress toward the destination on link ``l_position``."""
        link = self._downlink
        if link is None:
            raise ProtocolError(
                f"node {self.position} has no downstream link (destination?)"
            )
        if self.fault_gate is not None or self.adversary is not None:
            packet = self._egress(packet, FORWARD)
            if packet is None:
                return
        link.transmit(packet, FORWARD)

    def send_backward(self, packet: Packet) -> None:
        """Egress toward the source on link ``l_{position-1}``."""
        link = self._uplink
        if link is None:
            raise ProtocolError(f"node {self.position} has no upstream link (source?)")
        if self.fault_gate is not None or self.adversary is not None:
            packet = self._egress(packet, REVERSE)
            if packet is None:
                return
        link.transmit(packet, REVERSE)

    def _egress(self, packet: Packet, direction: Direction) -> Optional[Packet]:
        """The packet a gated or compromised node lets out, or None."""
        if self.fault_gate is not None and not self.fault_gate(
            self, packet, direction, "egress"
        ):
            return None
        if self.adversary is not None:
            processed = self.adversary.process(self, packet, direction)
            if processed is None:
                self.path.stats.node_drop_stats(self.position).record(
                    packet, direction
                )
                self.path.notify_node_drop(self, packet, direction, "egress")
            return processed
        return packet

    # -- timers ----------------------------------------------------------

    def set_timer(self, delay: float, action: Callable[[], None]):
        """Schedule ``action`` after ``delay`` seconds of engine time."""
        if self._simulator is None:
            raise SimulationError(f"node {self.position} is not attached to a path")
        return self._simulator.schedule_in(delay, action)
