"""Shared wire-protocol scaffolding.

Every protocol instantiates the same cast — a source agent at ``F_0``,
forwarder agents at ``F_1 .. F_{d-1}``, a destination agent at ``F_d`` —
wired onto a :class:`~repro.net.path.Path`. This module provides the
constructor plumbing (key manager, path, adversary installation), the
traffic driver, and the agent base classes with the bookkeeping all
protocols share (pending tables, timers with slack, freshness checks,
overhead accounting).

Timer sizing: the paper's wait-times are expressed in worst-case round
trips (``r_i``). With uniform per-hop latency the bounds are exact, so we
add a small multiplicative slack to every timer to keep boundary events
(a packet arriving exactly at its deadline) deterministic.
"""

from __future__ import annotations

from typing import Dict, List, Optional, Sequence

from repro.core.identification import IdentificationResult, identify_links
from repro.core.params import ProtocolParams
from repro.core.scoring import ScoreBoard
from repro.crypto.keys import KeyManager
from repro.exceptions import ConfigurationError
from repro.net.node import Node
from repro.net.packets import DataPacket, Direction, Packet, PacketKind
from repro.net.path import Path
from repro.net.simulator import Simulator
from repro.obs.registry import SIM_LATENCY_BUCKETS, get_registry

#: Fractional slack added to worst-case wait-timers.
TIMER_SLACK = 0.05


class SourceAgent(Node):
    """Base source ``F_0 = S``: sends data, drives scoring."""

    def __init__(self, protocol: "WireProtocol") -> None:
        super().__init__(position=0)
        self.protocol = protocol
        self.params = protocol.params
        self.keys = protocol.keys
        if self.params.score_window is not None:
            from repro.core.windows import WindowedScoreBoard

            self.board = WindowedScoreBoard(
                self.params.path_length, window=self.params.score_window
            )
        else:
            self.board = ScoreBoard(self.params.path_length)
        self._sequence = 0
        #: per-identifier in-flight state
        self.pending: Dict[bytes, Dict] = {}
        # Observability instruments, labeled by protocol *and* path: two
        # instances of the same protocol sharing a simulator (a mesh)
        # must never merge their counters. With metrics disabled these
        # are shared no-op singletons and the hot paths are additionally
        # gated on _obs_enabled.
        registry = get_registry()
        self._obs_enabled = registry.enabled
        name = protocol.name
        path = str(protocol.path.path_id)
        self.obs_rounds = registry.counter(
            "protocol.rounds", protocol=name, path=path
        )
        self.obs_probes_sent = registry.counter(
            "protocol.probes_sent", protocol=name, path=path
        )
        self.obs_acks_verified = registry.counter(
            "protocol.acks_verified", protocol=name, path=path
        )
        self.obs_mac_failures = registry.counter(
            "protocol.mac_failures", protocol=name, path=path
        )
        self.obs_sampling_hits = registry.counter(
            "protocol.sampling_hits", protocol=name, path=path
        )
        self.obs_report_timeouts = registry.counter(
            "protocol.report_timeouts", protocol=name, path=path
        )
        self.obs_round_latency = registry.histogram(
            "protocol.round_latency_seconds",
            buckets=SIM_LATENCY_BUCKETS,
            protocol=name,
            path=path,
        )

    # -- traffic -----------------------------------------------------------

    def send_data(self, payload: Optional[bytes] = None) -> DataPacket:
        """Send the next data packet and run protocol-specific follow-up."""
        if payload is None:
            payload = b"data-%016d" % self._sequence
        packet = DataPacket.create(
            payload=payload,
            timestamp=self.now,
            sequence=self._sequence,
            size=self.params.data_packet_size,
        )
        self._sequence += 1
        self.path.stats.record_data_sent(packet.size)
        self.send_forward(packet)
        self._after_send(packet)
        if self._obs_enabled:
            entry = self.pending.get(packet.identifier)
            if entry is not None:
                entry.setdefault("sent_at", packet.timestamp)
        return packet

    def _after_send(self, packet: DataPacket) -> None:
        """Protocol hook: arm timers / sampling for the packet just sent."""
        raise NotImplementedError

    # -- verdicts ----------------------------------------------------------

    def estimates(self) -> List[float]:
        """Per-link drop-rate estimates (protocol-specific estimator)."""
        raise NotImplementedError

    def identify(self) -> IdentificationResult:
        """Run the identify phase against the decision thresholds."""
        return identify_links(
            self.estimates(),
            threshold=self.protocol.decision_thresholds(),
            rounds=self.board.rounds,
        )

    # -- helpers -----------------------------------------------------------

    def timer_with_slack(self, base: float, action) -> object:
        return self.set_timer(base * (1.0 + TIMER_SLACK), action)

    def observe_round(self, entry: Optional[Dict] = None) -> None:
        """Count a resolved observation round for the metrics registry.

        When ``entry`` (the packet's popped ``pending`` record) carries a
        ``sent_at`` stamp, the round's wall-to-resolution latency in
        simulated seconds is recorded as well.
        """
        if not self._obs_enabled:
            return
        self.obs_rounds.inc()
        if entry:
            sent_at = entry.get("sent_at")
            if sent_at is not None:
                self.obs_round_latency.observe(self.now - sent_at)


class ForwarderAgent(Node):
    """Base intermediate node ``F_i``."""

    def __init__(self, protocol: "WireProtocol", position: int) -> None:
        if position <= 0:
            raise ConfigurationError("forwarder positions start at 1")
        super().__init__(position=position)
        self.protocol = protocol
        self.params = protocol.params
        #: MAC key shared with the source.
        self.mac_key = protocol.keys.mac_key(position)
        #: Authenticated-probe MAC failures observed at this node.
        self.obs_mac_failures = get_registry().counter(
            "protocol.node_mac_failures",
            protocol=protocol.name,
            node=str(position),
            path=str(protocol.path.path_id),
        )

    def is_fresh(self, packet: DataPacket) -> bool:
        """Phase-1 timestamp check against this node's (skewed) clock."""
        return self.clock.is_fresh(packet.timestamp, self.params.freshness_window)

    def rtt_to_destination(self) -> float:
        """Worst-case ``r_i`` from here to the destination."""
        return self.params.rtt_bound(self.position)

    def timer_with_slack(self, base: float, action) -> object:
        return self.set_timer(base * (1.0 + TIMER_SLACK), action)


class DestinationAgent(Node):
    """Base destination ``F_d = D``."""

    def __init__(self, protocol: "WireProtocol") -> None:
        super().__init__(position=protocol.params.path_length)
        self.protocol = protocol
        self.params = protocol.params
        self.mac_key = protocol.keys.mac_key(self.position)
        self.obs_mac_failures = get_registry().counter(
            "protocol.node_mac_failures",
            protocol=protocol.name,
            node=str(self.position),
            path=str(protocol.path.path_id),
        )

    def is_fresh(self, packet: DataPacket) -> bool:
        return self.clock.is_fresh(packet.timestamp, self.params.freshness_window)

    def timer_with_slack(self, base: float, action) -> object:
        return self.set_timer(base * (1.0 + TIMER_SLACK), action)


class WireProtocol:
    """A fully wired protocol instance on one simulated path.

    Parameters
    ----------
    simulator:
        Engine to run on.
    params:
        Protocol parameters.
    adversaries:
        Optional mapping ``position -> AdversaryStrategy`` installing
        compromised nodes.
    natural_loss:
        Per-link natural loss specification for the path; defaults to
        ``params.natural_loss`` on every link.
    key_seed:
        Seed for the pairwise-key infrastructure.
    clock_skews:
        Optional per-node clock offsets (loose synchronization).
    path:
        Optional pre-built :class:`~repro.net.path.Path` to run over
        instead of constructing a fresh one with private wires — the
        seam mesh topologies use to run many protocol instances over
        routes whose hops share wires
        (:meth:`repro.topology.mesh.MeshNetwork.route_path`). Mutually
        exclusive with ``natural_loss`` and ``clock_skews`` (those
        describe the path this constructor would otherwise build).
    """

    #: Registry name; subclasses override.
    name = "abstract"

    #: Vectorized round-model family implemented by
    #: ``repro.net.fastpath`` (``"onion-ack"``, ``"paai1"``,
    #: ``"statfl"``), or ``None`` when the protocol has no batched round
    #: model. ``None`` is the safe default: the backend seam
    #: (``repro.net.backend``) falls back to per-packet execution on the
    #: event engine, so unported protocols keep working unmodified.
    fastpath_family: Optional[str] = None

    def __init__(
        self,
        simulator: Simulator,
        params: ProtocolParams,
        adversaries: Optional[Dict[int, object]] = None,
        natural_loss=None,
        key_seed: bytes = b"repro-key-seed",
        clock_skews: Optional[Sequence[float]] = None,
        path=None,
    ) -> None:
        self.simulator = simulator
        self.params = params
        self.keys = KeyManager(params.path_length, seed=key_seed)
        if path is not None:
            if natural_loss is not None or clock_skews is not None:
                raise ConfigurationError(
                    "an injected path already fixes loss models and "
                    "clocks; natural_loss/clock_skews must be None"
                )
            if path.length != params.path_length:
                raise ConfigurationError(
                    f"injected path has {path.length} links but params "
                    f"expect {params.path_length}"
                )
            self.path = path
        else:
            if natural_loss is None:
                natural_loss = params.natural_loss
            self.path = Path(
                simulator,
                length=params.path_length,
                natural_loss=natural_loss,
                max_latency=params.max_link_latency,
                clock_skews=clock_skews,
            )
        nodes = self._build_nodes()
        if adversaries:
            for position, strategy in adversaries.items():
                if not 0 < position < params.path_length:
                    raise ConfigurationError(
                        f"adversaries must sit on intermediate nodes, got {position}"
                    )
                nodes[position].adversary = strategy
        self.path.attach_nodes(nodes)

    # -- construction -------------------------------------------------------

    def _build_nodes(self) -> List[Node]:
        """Create the agents ``[source, forwarders..., destination]``."""
        raise NotImplementedError

    @property
    def source(self) -> SourceAgent:
        return self.path.nodes[0]

    @property
    def destination(self) -> DestinationAgent:
        return self.path.nodes[-1]

    @property
    def forwarders(self) -> List[ForwarderAgent]:
        return self.path.nodes[1:-1]

    # -- driving -------------------------------------------------------------

    def run_traffic(
        self,
        count: int,
        rate: float,
        drain: Optional[float] = None,
    ) -> None:
        """Send ``count`` data packets at ``rate`` packets/second, then let
        the network drain.

        ``drain`` defaults to several worst-case round trips so every
        timer and in-flight report resolves before the call returns.
        """
        if count <= 0:
            raise ConfigurationError("count must be positive")
        if rate <= 0:
            raise ConfigurationError("rate must be positive")
        interval = 1.0 / rate
        start = self.simulator.now
        for index in range(count):
            self.simulator.schedule_at(
                start + index * interval, self.source.send_data
            )
        if drain is None:
            drain = 4.0 * self.params.r0
        self.simulator.run(until=start + count * interval + drain)

    # -- verdicts -------------------------------------------------------------

    def decision_thresholds(self) -> List[float]:
        """Per-link conviction thresholds for this protocol's estimator.

        An explicit ``params.decision_threshold`` wins (applied to every
        link). Otherwise thresholds are *calibrated*: the source knows the
        natural loss rate ρ and its own observation process, so it places
        each link's threshold at that link's expected natural blame rate
        plus the Hoeffding midpoint margin ``epsilon/2`` (see
        :mod:`repro.protocols.models`).
        """
        from repro.protocols.models import decision_thresholds

        return decision_thresholds(self.name, self.params)

    #: Variance correction for confidence intervals: 1 for direct blame
    #: frequencies; interval-scoring protocols override (their estimator
    #: differences ~2d counts per link).
    confidence_variance_scale = 1.0

    def estimates(self) -> List[float]:
        return self.source.estimates()

    def identify(self) -> IdentificationResult:
        return self.source.identify()

    def windowed_identify(self) -> IdentificationResult:
        """Identify using the sliding-window estimates (requires
        ``params.score_window``); reacts to *current* behavior, catching
        intermittent adversaries that cumulative scoring dilutes."""
        board = self.board
        if not hasattr(board, "window_estimates"):
            raise ConfigurationError(
                "windowed_identify requires params.score_window"
            )
        from repro.core.identification import identify_links

        return identify_links(
            board.window_estimates(),
            threshold=self.decision_thresholds(),
            rounds=board.window_rounds,
        )

    def confident_identify(self):
        """Confidence-aware verdict (see :mod:`repro.core.confidence`):
        convicts/clears a link only once its Hoeffding interval at the
        deployment's ``sigma`` is clear of the threshold."""
        from repro.core.confidence import confident_identify

        scale = self.confidence_variance_scale
        if callable(scale):
            scale = scale(self.params)
        return confident_identify(
            self.estimates(),
            self.decision_thresholds(),
            rounds=self.board.rounds,
            sigma=self.params.sigma,
            variance_scale=scale,
        )

    @property
    def board(self) -> ScoreBoard:
        return self.source.board


def is_e2e_ack(packet: Packet, direction: Direction) -> bool:
    """True for a plain end-to-end ack traveling toward the source."""
    return (
        packet.kind is PacketKind.ACK
        and direction is Direction.REVERSE
        and not getattr(packet, "is_report", False)
    )


def is_report_ack(packet: Packet, direction: Direction) -> bool:
    """True for a report-carrying ack traveling toward the source."""
    return (
        packet.kind is PacketKind.ACK
        and direction is Direction.REVERSE
        and getattr(packet, "is_report", False)
    )
