"""Mesh wire layer: concurrent protocol instances over shared wires.

The single-path world of :mod:`repro.net.path` gives every protocol its
own private wires. A mesh run instead hosts N protocol instances in ONE
:class:`~repro.net.simulator.Simulator`, each monitoring a
:class:`~repro.topology.graph.Route`, while the routes *physically share*
the underlying :class:`~repro.net.link.Wire` objects — one loss model,
one latency FIFO, one adversary per topology link, no matter how many
routes cross it. A compromised shared link therefore damages every route
that traverses it, which is exactly the correlation the fusion layer
(:mod:`repro.topology.fusion`) exploits.

There is one wire layer, :mod:`repro.net.link`, and the mesh only wires
it differently:

* one :class:`~repro.net.link.Wire` per topology link, oriented
  ``u -> v``: per-direction loss models drawing from the
  ``mesh-link-{id}`` stream, one FIFO arrival clamp per direction (a
  burst from route A delays route B's packets on the same wire), pooled
  :class:`~repro.net.stats.LinkStats`, and an optional link adversary on
  the ``mesh-adversary-{id}`` stream that drops crossings at the
  topology's composed rate;
* each route is a plain :class:`~repro.net.path.Path` whose hop ``i`` is
  a :class:`~repro.net.link.Link` on the wire the route crosses there.
  The hop keeps the route's index, path id, listeners, receivers and
  metrics, and maps route direction onto the wire's orientation, so two
  routes crossing one wire in opposite senses share its physical state.
  The path reaches :class:`~repro.protocols.base.WireProtocol` through
  the ``path=`` injection seam, so the protocol stack runs unmodified.

Determinism: every random draw comes from labeled streams of the
simulator's seeded :class:`~repro.net.simulator.RngFactory`, and the
event engine orders deliveries deterministically, so a mesh run is a
pure function of (seed, topology, routes, params).
"""

from __future__ import annotations

from typing import Dict, List, Optional, Union

from repro.constants import DEFAULT_MAX_LINK_LATENCY
from repro.exceptions import ConfigurationError
from repro.net.latency import LatencyModel, UniformLatency
from repro.net.link import Wire
from repro.net.loss import BernoulliLoss
from repro.net.packets import Direction
from repro.net.path import Path
from repro.net.simulator import Simulator
from repro.topology.graph import Route, Topology


class MeshNetwork:
    """Shared physical substrate plus per-route protocol instantiation.

    Builds one :class:`~repro.net.link.Wire` per topology link (loss
    model, latency, adversary rate from the topology's compromise
    marks), then hands out :class:`~repro.net.path.Path` objects whose
    hops ride those wires. All protocol instances created through
    :meth:`instantiate` live in the one simulator and are driven
    *concurrently* by :meth:`run_traffic`.
    """

    def __init__(
        self,
        simulator: Simulator,
        topology: Topology,
        natural_loss: Union[float, Dict[int, float]] = 0.0,
        max_latency: Union[float, LatencyModel] = DEFAULT_MAX_LINK_LATENCY,
    ) -> None:
        self.simulator = simulator
        self.topology = topology
        latency = (
            max_latency
            if isinstance(max_latency, LatencyModel)
            else UniformLatency(high=float(max_latency))
        )

        def loss_rate(link_id: int) -> float:
            if isinstance(natural_loss, dict):
                return float(natural_loss.get(link_id, 0.0))
            return float(natural_loss)

        self.links: Dict[int, Wire] = {}
        for topo_link in topology.links:
            link_id = topo_link.link_id
            rate = loss_rate(link_id)
            adversary_rate = topology.adversarial_rate(link_id)
            self.links[link_id] = Wire(
                simulator,
                loss_models={
                    Direction.FORWARD: BernoulliLoss(rate),
                    Direction.REVERSE: BernoulliLoss(rate),
                },
                latency_model=latency,
                rng=simulator.rng.stream(f"mesh-link-{link_id}"),
                adversary_rate=adversary_rate,
                adversary_rng=(
                    simulator.rng.stream(f"mesh-adversary-{link_id}")
                    if adversary_rate > 0.0
                    else None
                ),
            )
        self.protocols: List[object] = []

    def route_path(self, route: Route) -> Path:
        """Build a :class:`~repro.net.path.Path` whose hops ride this
        mesh's wires, each oriented by the way the route walks it."""
        hops = [
            (
                self.links[link_id],
                route.nodes[hop] == self.topology.link(link_id).u,
            )
            for hop, link_id in enumerate(route.links)
        ]
        return Path(self.simulator, route.length, hops=hops)

    def instantiate(self, name: str, route: Route, params, **kwargs):
        """Create a protocol instance monitoring ``route``.

        ``params.path_length`` must equal the route's hop count; the
        protocol is built through the registry with the mesh path
        injected, so its agents run unmodified over shared links.
        """
        from repro.protocols.registry import make_protocol

        path = self.route_path(route)
        protocol = make_protocol(
            name, self.simulator, params, path=path, **kwargs
        )
        self.protocols.append(protocol)
        return protocol

    def run_traffic(
        self,
        count: int,
        rate: float,
        drain: Optional[float] = None,
    ) -> None:
        """Drive every instantiated protocol concurrently.

        Unlike :meth:`WireProtocol.run_traffic`, the engine runs ONCE for
        all instances: every source's sends are scheduled first, then the
        simulator advances to the latest deadline, so packets from
        different routes genuinely interleave on shared links.
        """
        if not self.protocols:
            raise ConfigurationError("no protocol instances to drive")
        if count <= 0:
            raise ConfigurationError("count must be positive")
        if rate <= 0:
            raise ConfigurationError("rate must be positive")
        interval = 1.0 / rate
        start = self.simulator.now
        for protocol in self.protocols:
            for index in range(count):
                self.simulator.schedule_at(
                    start + index * interval, protocol.source.send_data
                )
        if drain is None:
            drain = 4.0 * max(p.params.r0 for p in self.protocols)
        self.simulator.run(until=start + count * interval + drain)

    def total_adversarial_drops(self) -> int:
        return sum(
            link.total_adversarial_drops() for link in self.links.values()
        )
