"""The linear path topology of Figure 1.

``Path`` builds links ``l_0 .. l_{d-1}`` over a :class:`Simulator`, wires
attached protocol nodes ``F_0 .. F_d`` to them, and exposes the round-trip
quantities (``r_i``) that the protocols use to size their wait-timers.
By default each link rides a private :class:`~repro.net.link.Wire`
drawing from the ``link-{i}`` stream; a mesh route instead passes
prebuilt ``hops`` over wires shared with other routes
(:mod:`repro.topology.mesh`).

The topology is deliberately a single path: the paper (following the AAI
literature) analyzes one source-destination pair at a time, with the
routing infrastructure assumed to pin the path for the duration of the
monitoring period.
"""

from __future__ import annotations

from typing import Callable, List, Optional, Sequence, Tuple, Union

from repro.constants import DEFAULT_MAX_LINK_LATENCY
from repro.exceptions import ConfigurationError
from repro.net.clock import NodeClock
from repro.net.latency import LatencyModel, UniformLatency
from repro.net.link import Link, LinkObserver, Wire
from repro.net.loss import BernoulliLoss, LossModel
from repro.net.node import Node
from repro.net.packets import Direction, Packet
from repro.net.simulator import Simulator
from repro.net.stats import PathStats
from repro.obs import tracing
from repro.obs.registry import get_registry

LossFactory = Callable[[int, Direction], LossModel]


class PathObserver(LinkObserver):
    """Link observer extended with node-level events.

    Register with :meth:`Path.add_observer` to receive every link event
    (transmit/loss/deliver on each of the path's links) plus adversarial
    node drops. All hooks default to no-ops.
    """

    def on_node_drop(self, node: Node, packet: Packet, direction: Direction,
                     cause: str) -> None:
        """``node``'s adversary dropped ``packet``; ``cause`` is
        ``"ingress"`` or ``"egress"``."""


class Path:
    """A forwarding path of length ``d`` (``d`` links, ``d+1`` nodes).

    Parameters
    ----------
    simulator:
        The engine this path schedules on.
    length:
        Path length ``d`` in hops.
    natural_loss:
        Either a single per-link natural loss rate, a sequence of ``d``
        rates, or a :data:`LossFactory` for custom models.
    max_latency:
        Per-direction, per-link maximum latency; each traversal draws
        uniform in ``[0, max_latency]`` (the paper's model). Pass a
        :class:`LatencyModel` for custom behavior.
    clock_skews:
        Optional per-node clock offsets (``d+1`` values) modeling loose
        synchronization; defaults to perfectly synchronized clocks.
    hops:
        Optional prebuilt ``(wire, forward_on_wire)`` pair per hop, for
        paths over shared wires; ``natural_loss`` and ``max_latency``
        then go unused (the wires already fix them).
    """

    def __init__(
        self,
        simulator: Simulator,
        length: int,
        natural_loss: Union[float, Sequence[float], LossFactory] = 0.0,
        max_latency: Union[float, LatencyModel] = DEFAULT_MAX_LINK_LATENCY,
        clock_skews: Optional[Sequence[float]] = None,
        hops: Optional[Sequence[Tuple[Wire, bool]]] = None,
    ) -> None:
        if length <= 0:
            raise ConfigurationError(f"path length must be positive, got {length}")
        if hops is not None and len(hops) != length:
            raise ConfigurationError(f"need {length} hops, got {len(hops)}")
        self.simulator = simulator
        self.length = length
        # Path ids are allocated by the simulator, so spans from
        # multi-path experiments stay attributable while the ids remain
        # deterministic per experiment (never dependent on how many paths
        # earlier experiments in the same process happened to build).
        self.path_id = simulator.next_path_id()
        self.stats = PathStats(length)
        self.nodes: List[Node] = []
        self._observers: List[PathObserver] = []
        registry = get_registry()
        self._metrics = registry if registry.enabled else None

        if hops is None:
            loss_factory = _as_loss_factory(natural_loss, length)
            latency = (
                max_latency
                if isinstance(max_latency, LatencyModel)
                else UniformLatency(high=float(max_latency))
            )
            hops = [
                (
                    Wire(
                        simulator,
                        loss_models={
                            direction: loss_factory(i, direction)
                            for direction in Direction
                        },
                        latency_model=latency,
                        rng=simulator.rng.stream(f"link-{i}"),
                    ),
                    True,
                )
                for i in range(length)
            ]
        self.links: List[Link] = [
            Link(i, wire, path_id=self.path_id, forward_on_wire=forward)
            for i, (wire, forward) in enumerate(hops)
        ]

        if clock_skews is None:
            clock_skews = [0.0] * (length + 1)
        if len(clock_skews) != length + 1:
            raise ConfigurationError(
                f"need {length + 1} clock skews, got {len(clock_skews)}"
            )
        self._clock_skews = list(clock_skews)

        collector = tracing.get_collector()
        if collector is not None:
            collector.attach(self)

    # -- observability hooks ----------------------------------------------

    def add_observer(self, observer: PathObserver) -> None:
        """Register ``observer`` on every link and for node-drop events.

        Registering the same observer twice is a no-op (links enforce the
        same idempotency), so layered tooling cannot double-count.
        """
        if observer not in self._observers:
            self._observers.append(observer)
        for link in self.links:
            link.add_listener(observer)

    def remove_observer(self, observer: PathObserver) -> None:
        """Detach ``observer`` from every link and from node-drop events."""
        try:
            self._observers.remove(observer)
        except ValueError:
            pass
        for link in self.links:
            link.remove_listener(observer)

    def notify_node_drop(self, node: Node, packet: Packet,
                         direction: Direction, cause: str) -> None:
        """Called by nodes when their adversary strategy drops a packet."""
        if self._metrics is not None:
            self._metrics.counter(
                "net.node.drops",
                node=str(node.position),
                path=str(self.path_id),
                kind=packet.kind.value,
                direction=direction.value,
                cause=cause,
            ).inc()
        for observer in self._observers:
            observer.on_node_drop(node, packet, direction, cause)

    # -- node attachment --------------------------------------------------

    def attach_nodes(self, nodes: Sequence[Node]) -> None:
        """Wire protocol nodes ``F_0 .. F_d`` into the path."""
        if len(nodes) != self.length + 1:
            raise ConfigurationError(
                f"need {self.length + 1} nodes, got {len(nodes)}"
            )
        for position, node in enumerate(nodes):
            if node.position != position:
                raise ConfigurationError(
                    f"node at slot {position} reports position {node.position}"
                )
            uplink = self.links[position - 1] if position > 0 else None
            downlink = self.links[position] if position < self.length else None
            clock = NodeClock(self.simulator.clock, self._clock_skews[position])
            node.attach(self, clock, uplink, downlink)
        for index, link in enumerate(self.links):
            link.connect(
                forward_receiver=nodes[index + 1].deliver,
                reverse_receiver=nodes[index].deliver,
            )
        self.nodes = list(nodes)

    # -- timing -----------------------------------------------------------

    def rtt_bound(self, position: int) -> float:
        """Worst-case round-trip time ``r_i`` from ``F_position`` to D.

        ``r_i`` is twice the sum of the remaining links' maximum
        latencies (``2 * (d - i) * max_latency`` on a uniform path);
        protocols size their wait-timers with these bounds, and the §7.4
        storage bounds follow from them.
        """
        if not 0 <= position <= self.length:
            raise ConfigurationError(f"position {position} off path")
        return 2.0 * sum(
            link.max_one_way_latency for link in self.links[position:]
        )

    @property
    def r0(self) -> float:
        """Worst-case source round-trip time ``r_0``."""
        return self.rtt_bound(0)

    def describe(self, malicious_nodes: Optional[Sequence[int]] = None) -> str:
        """ASCII rendering of the Figure 1 topology.

        Malicious node positions are bracketed and starred::

            S ──l0── F1 ──l1── [F2*] ──l2── D
        """
        flagged = set(malicious_nodes or ())
        parts = ["S"]
        for position in range(1, self.length):
            name = f"F{position}"
            if position in flagged:
                name = f"[{name}*]"
            parts.append(f"──l{position - 1}── {name}")
        parts.append(f"──l{self.length - 1}── D")
        return " ".join(parts)

    # -- ground truth -----------------------------------------------------

    def true_link_rates(self) -> List[float]:
        """Configured average natural loss per link (forward direction)."""
        return [link.natural_loss_rate for link in self.links]


def _as_loss_factory(
    spec: Union[float, Sequence[float], LossFactory], length: int
) -> LossFactory:
    """Normalize the ``natural_loss`` argument to a factory."""
    if callable(spec):
        return spec
    if isinstance(spec, (int, float)):
        rates = [float(spec)] * length
    else:
        rates = [float(rate) for rate in spec]
        if len(rates) != length:
            raise ConfigurationError(
                f"need {length} per-link loss rates, got {len(rates)}"
            )

    def factory(index: int, direction: Direction) -> LossModel:
        return BernoulliLoss(rates[index])

    return factory
