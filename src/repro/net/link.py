"""Lossy, delaying links, split into a physical wire and per-path hops.

A :class:`Wire` is the physical medium between two routers. Each
traversal independently draws (a) a loss decision from the wire's loss
model for that direction and (b) a propagation delay from the latency
model, matching §8.1's simulation setup. Both draws come from the wire's
one labeled stream, loss first. A wire may also carry a link adversary
that deliberately drops crossings from its own stream.

A :class:`Link` is one path's hop ``l_index`` on a wire, joining that
path's nodes ``F_index`` and ``F_index+1``; it owns what belongs to the
path: hop index, path id, receivers, hooks and per-path metrics. A
:class:`~repro.net.path.Path` builds one private wire per hop; a mesh
(:mod:`repro.topology.mesh`) gives many paths hops on the same wires.

Delivery is an engine event, so in-flight packets are naturally
interleaved with timers. Wires are FIFO per direction: a packet sent
after another on the same wire and direction never overtakes it (its
arrival is clamped to the earlier packet's arrival time), whichever path
sent it. Real links do not reorder a flow, and the PAAI protocols
implicitly rely on this — a probe sent right after its data packet must
reach each node after the data packet did.

On a single path, wires model only *natural* loss; adversarial drops
happen at nodes (the paper emulates a compromised node that drops
traffic flowing through it).

Observability: links expose a **public hook API** — register a
:class:`LinkObserver` with :meth:`Link.add_listener` to see every
transmission, loss, and delivery without touching link internals
(this replaced the old tracer's monkey-patching of ``transmit`` and
``_receivers``). Listeners registered at any time see all subsequent
events: the delivery callback is resolved when the packet *arrives*, not
when it was sent. With a metrics registry active at construction, links
also publish per-path transmission/loss/byte counters.

Fault injection: a second, *mutating* hook stage — :class:`LinkInterceptor`
via :meth:`Link.add_interceptor` — runs at the head of ``transmit`` and may
consume or replace the packet (blackouts, corruption, jitter/duplication in
``repro.faults``). Interceptors see the packet before any accounting, so
injected faults never pollute the natural-loss statistics the estimators
are calibrated against.
"""

from __future__ import annotations

import random
from collections import Counter
from typing import Callable, Dict, List, Optional

from repro.exceptions import ConfigurationError
from repro.net.latency import LatencyModel
from repro.net.loss import LossModel
from repro.net.packets import Direction, Packet, PacketKind
from repro.net.stats import LinkStats
from repro.obs.registry import get_registry


class LinkObserver:
    """Base class for link event listeners (all hooks default to no-ops).

    Subclass and override any of the three hooks; every hook receives the
    link itself, so one observer can watch many links.
    """

    def on_transmit(self, link: "Link", packet: Packet,
                    direction: Direction) -> None:
        """``packet`` entered the link (before the loss draw)."""

    def on_loss(self, link: "Link", packet: Packet,
                direction: Direction) -> None:
        """``packet`` was consumed on the link: natural loss, or a drop by
        the wire's adversary (indistinguishable to the protocol)."""

    def on_deliver(self, link: "Link", packet: Packet,
                   direction: Direction) -> None:
        """``packet`` is being handed to the receiving node."""


class LinkInterceptor:
    """Mutating hook consulted at the head of :meth:`Link.transmit`.

    Observers (:class:`LinkObserver`) are read-only by contract; fault
    injection needs to *change* traffic — swallow a packet during a
    blackout window, replace it with a corrupted copy, or hold it back and
    re-inject it later (``repro.faults``). Interceptors run before the
    link's stats/listeners/loss draw, so a consumed packet never counts as
    a transmission: injected faults are accounted by the injector's own
    metrics, not by the link's natural-loss statistics.
    """

    def before_transmit(self, link: "Link", packet: Packet,
                        direction: Direction) -> Optional[Packet]:
        """Return the packet to carry (possibly replaced), or None to
        consume it before it enters the link."""
        return packet


class _LinkMetrics:
    """Pre-bound per-link counters, one series per (kind, direction).

    Series carry the owning path's id so two paths sharing a simulator
    never merge their counters (the labels are ``link`` — the hop index
    on the path — plus ``path``, ``kind``, ``direction``). Hops on a
    wire with an adversary also count its drops.
    """

    __slots__ = ("tx", "loss", "bytes", "adversarial")

    def __init__(self, registry, index: int, path_id: int,
                 adversarial: bool) -> None:
        link = str(index)
        path = str(path_id)
        self.tx = {}
        self.loss = {}
        self.bytes = {}
        for kind in PacketKind:
            for direction in Direction:
                labels = {
                    "link": link,
                    "path": path,
                    "kind": kind.value,
                    "direction": direction.value,
                }
                self.tx[kind, direction] = registry.counter(
                    "net.link.transmissions", **labels
                )
                self.loss[kind, direction] = registry.counter(
                    "net.link.natural_losses", **labels
                )
                self.bytes[kind, direction] = registry.counter(
                    "net.link.bytes", **labels
                )
        self.adversarial = {
            key: registry.counter(
                "net.link.adversarial_drops",
                link=link,
                path=path,
                kind=key[0].value,
                direction=key[1].value,
            )
            for key in self.loss
        } if adversarial else None


class Wire:
    """The physical medium under one or more path hops.

    State is keyed by the wire's canonical orientation (``u -> v`` for a
    topology link; the path's forward direction for a private wire).

    Parameters
    ----------
    simulator:
        The engine (provides ``now`` and event scheduling).
    loss_models:
        Per-direction loss models. Separate instances per direction keep
        stateful models (Gilbert-Elliott) independent.
    latency_model:
        Shared latency model (stateless).
    rng:
        Random stream dedicated to this wire: the loss draw, then the
        latency draw, per traversal.
    adversary_rate:
        Probability that the wire's adversary drops a crossing, drawn
        before natural loss. Needs ``adversary_rng`` when positive.
    adversary_rng:
        The adversary's own stream, so arming it never shifts the
        natural-loss draws.
    """

    def __init__(
        self,
        simulator,
        loss_models: Dict[Direction, LossModel],
        latency_model: LatencyModel,
        rng: random.Random,
        adversary_rate: float = 0.0,
        adversary_rng: Optional[random.Random] = None,
    ) -> None:
        if set(loss_models) != {Direction.FORWARD, Direction.REVERSE}:
            raise ConfigurationError("loss_models must cover both directions")
        if not 0.0 <= adversary_rate <= 1.0:
            raise ConfigurationError(
                f"adversary rate must be in [0, 1], got {adversary_rate}"
            )
        if adversary_rate > 0.0 and adversary_rng is None:
            raise ConfigurationError("an armed wire adversary needs a stream")
        self.simulator = simulator
        self.loss_models = loss_models
        self._latency = latency_model
        self._rng = rng
        self.adversary_rate = adversary_rate
        self._adversary_rng = adversary_rng if adversary_rate > 0.0 else None
        #: Pooled over every hop riding this wire.
        self.stats = LinkStats()
        #: Deliberate (adversarial) drops, keyed (kind, wire direction) —
        #: LinkStats only knows natural losses.
        self.adversarial_drops: Counter = Counter()
        self._last_arrival: Dict[Direction, float] = {
            Direction.FORWARD: 0.0,
            Direction.REVERSE: 0.0,
        }
        #: The path hops riding this wire, in construction order.
        self.links: List["Link"] = []

    @property
    def max_one_way_latency(self) -> float:
        return self._latency.maximum

    def total_adversarial_drops(self) -> int:
        return sum(self.adversarial_drops.values())


class Link:
    """One path's bidirectional hop ``l_index`` between ``F_index`` and
    ``F_index+1``, riding a :class:`Wire`.

    Parameters
    ----------
    index:
        Hop position on the path (0-based; ``l_i`` in the paper).
    wire:
        The physical medium this hop crosses.
    path_id:
        Identifier of the owning path (-1 when standalone). Known at
        construction so the link's metric series carry it — counters
        from two paths sharing a simulator must never merge.
    forward_on_wire:
        True when the path's forward direction is the wire's canonical
        one. Two paths crossing one wire in opposite senses still share
        its loss and FIFO state per physical direction.
    """

    def __init__(
        self,
        index: int,
        wire: Wire,
        path_id: int = -1,
        forward_on_wire: bool = True,
    ) -> None:
        self.index = index
        self.path_id = path_id
        self.wire = wire
        self.forward_on_wire = forward_on_wire
        #: The engine this link schedules on.
        self.simulator = wire.simulator
        #: The wire's statistics, pooled over every path riding it.
        self.stats = wire.stats
        # Orientation resolved once: path direction -> (wire direction,
        # that direction's loss model).
        self._sides = {}
        for direction in Direction:
            on_wire = self.physical_direction(direction)
            self._sides[direction] = (on_wire, wire.loss_models[on_wire])
        self._receivers: Dict[Direction, Optional[Callable[[Packet, Direction], None]]] = {
            Direction.FORWARD: None,
            Direction.REVERSE: None,
        }
        self._listeners: List[LinkObserver] = []
        self._interceptors: List[LinkInterceptor] = []
        registry = get_registry()
        self._metrics: Optional[_LinkMetrics] = (
            _LinkMetrics(registry, index, path_id, wire.adversary_rate > 0.0)
            if registry.enabled
            else None
        )
        wire.links.append(self)

    def physical_direction(self, direction: Direction) -> Direction:
        """The wire direction a packet sent in path ``direction`` takes."""
        if self.forward_on_wire:
            return direction
        return (
            Direction.REVERSE
            if direction is Direction.FORWARD
            else Direction.FORWARD
        )

    @property
    def natural_loss_rate(self) -> float:
        """Average natural loss in the path's forward direction."""
        return self._sides[Direction.FORWARD][1].average_rate

    # -- hooks -------------------------------------------------------------

    def add_listener(self, listener: LinkObserver) -> None:
        """Register a :class:`LinkObserver`; adding twice is a no-op."""
        if listener not in self._listeners:
            self._listeners.append(listener)

    def remove_listener(self, listener: LinkObserver) -> None:
        """Unregister a listener; removing an absent one is a no-op."""
        try:
            self._listeners.remove(listener)
        except ValueError:
            pass

    @property
    def listeners(self) -> List[LinkObserver]:
        return list(self._listeners)

    def add_interceptor(self, interceptor: LinkInterceptor) -> None:
        """Register a :class:`LinkInterceptor`; adding twice is a no-op."""
        if interceptor not in self._interceptors:
            self._interceptors.append(interceptor)

    def remove_interceptor(self, interceptor: LinkInterceptor) -> None:
        """Unregister an interceptor; removing an absent one is a no-op."""
        try:
            self._interceptors.remove(interceptor)
        except ValueError:
            pass

    @property
    def interceptors(self) -> List[LinkInterceptor]:
        return list(self._interceptors)

    # -- wiring ------------------------------------------------------------

    def connect(
        self,
        forward_receiver: Callable[[Packet, Direction], None],
        reverse_receiver: Callable[[Packet, Direction], None],
    ) -> None:
        """Attach endpoint delivery callbacks.

        ``forward_receiver`` is the downstream node (receives packets
        traveling FORWARD); ``reverse_receiver`` the upstream node.
        """
        self._receivers[Direction.FORWARD] = forward_receiver
        self._receivers[Direction.REVERSE] = reverse_receiver

    # -- traffic -----------------------------------------------------------

    def transmit(self, packet: Packet, direction: Direction) -> bool:
        """Send ``packet`` across the link.

        Returns True when the packet will be delivered (an event has been
        scheduled), False when the wire consumed it. The return value
        exists for tracing; protocol code must not branch on it — real
        nodes cannot observe downstream loss.
        """
        if self._receivers[direction] is None:
            raise ConfigurationError(f"link {self.index} has no {direction} receiver")
        for interceptor in self._interceptors:
            replacement = interceptor.before_transmit(self, packet, direction)
            if replacement is None:
                return False
            packet = replacement
        wire = self.wire
        stats = wire.stats
        on_wire, loss_model = self._sides[direction]
        kind = packet.kind
        stats.transmissions[kind, on_wire] += 1
        stats.bytes_sent[kind] += packet.size
        metrics = self._metrics
        if metrics is not None:
            metrics.tx[kind, direction].inc()
            metrics.bytes[kind, direction].inc(packet.size)
        listeners = self._listeners
        for listener in listeners:
            listener.on_transmit(self, packet, direction)
        adversary = wire._adversary_rng
        if adversary is not None and adversary.random() < wire.adversary_rate:
            wire.adversarial_drops[kind, on_wire] += 1
            if metrics is not None:
                metrics.adversarial[kind, direction].inc()
            # Spans still see a loss event: the protocol under test cannot
            # distinguish adversarial from natural consumption on the wire.
            for listener in listeners:
                listener.on_loss(self, packet, direction)
            return False
        rng = wire._rng
        if loss_model.is_lost(rng):
            stats.natural_losses[kind, on_wire] += 1
            if metrics is not None:
                metrics.loss[kind, direction].inc()
            for listener in listeners:
                listener.on_loss(self, packet, direction)
            return False
        simulator = self.simulator
        arrival = simulator.clock._now + wire._latency.delay(rng)
        # FIFO per wire direction: never overtake the previous packet,
        # whichever path sent it.
        last_arrival = wire._last_arrival
        if arrival < last_arrival[on_wire]:
            arrival = last_arrival[on_wire]
        last_arrival[on_wire] = arrival

        def deliver() -> None:
            # The receiver and listeners are looked up when the packet
            # arrives, so hooks and re-wired endpoints installed while it
            # was in flight are honored.
            for listener in listeners:
                listener.on_deliver(self, packet, direction)
            receiver = self._receivers[direction]
            if receiver is not None:
                receiver(packet, direction)

        simulator.queue.schedule(arrival, deliver)
        return True

    @property
    def max_one_way_latency(self) -> float:
        return self.wire.max_one_way_latency
