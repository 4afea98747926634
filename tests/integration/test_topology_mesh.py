"""Integration tests for the mesh wire layer (repro.topology.mesh).

Covers the multi-path correctness sweep: two concurrent protocol
instances in ONE simulator must keep disjoint path-labeled metrics and
span attribution, shared links must genuinely pool physical state, and
a seeded mesh with a compromised shared link must yield fusible
evidence that convicts that link.
"""

import pytest

from repro.core.params import ProtocolParams
from repro.exceptions import ConfigurationError
from repro.net.packets import Direction
from repro.net.simulator import Simulator
from repro.obs.registry import MetricsRegistry, using_registry
from repro.obs.summary import summarize_trace
from repro.obs.tracing import RoundTraceCollector, using_collector
from repro.topology.fusion import RouteEvidence, fuse_route_evidence
from repro.topology.graph import (
    fat_tree_topology,
    generate_routes,
    line_topology,
)
from repro.topology.mesh import MeshNetwork


def run_two_route_mesh(seed=42, count=150, rate=200.0, adversary_rate=0.0):
    """Two full-ack instances over a 3-link line, sharing links 1 and 2.

    Route 0 walks 0->3 (links 0,1,2); route 1 walks 1->3 (links 1,2).
    Returns (mesh, protocols, registry, collector).
    """
    topology = line_topology(3)
    if adversary_rate > 0.0:
        topology.compromise_link(2, adversary_rate)
    routes = [
        topology.shortest_route(0, 3, route_id=0),
        topology.shortest_route(1, 3, route_id=1),
    ]
    registry = MetricsRegistry()
    collector = RoundTraceCollector()
    with using_registry(registry), using_collector(collector):
        simulator = Simulator(seed=seed)
        mesh = MeshNetwork(simulator, topology, natural_loss=0.01)
        protocols = [
            mesh.instantiate(
                "full-ack",
                route,
                ProtocolParams(
                    path_length=route.length, natural_loss=0.01, alpha=0.2
                ),
            )
            for route in routes
        ]
        mesh.run_traffic(count=count, rate=rate)
    return mesh, protocols, registry, collector


class TestConcurrentPathIsolation:
    """Satellite regression: modules must not assume one path per
    simulator — counters and spans stay disjoint per protocol instance."""

    def test_paths_get_distinct_ids(self):
        _, protocols, _, _ = run_two_route_mesh()
        assert protocols[0].path.path_id == 0
        assert protocols[1].path.path_id == 1

    def test_round_counters_are_disjoint_per_path(self):
        _, protocols, registry, _ = run_two_route_mesh()
        per_path = {
            str(p.path.path_id): registry.counter_value(
                "protocol.rounds", protocol="full-ack",
                path=str(p.path.path_id),
            )
            for p in protocols
        }
        # Both instances ran rounds, attributed separately, and the
        # label-blind family total is exactly their sum (nothing leaked
        # into a shared unlabeled series).
        assert per_path["0"] > 0
        assert per_path["1"] > 0
        assert registry.counter_total("protocol.rounds") == sum(
            per_path.values()
        )
        # Full-ack opens one round per data packet the source sent.
        for protocol in protocols:
            assert registry.counter_value(
                "protocol.rounds", protocol="full-ack",
                path=str(protocol.path.path_id),
            ) == protocol.path.stats.data_sent

    def test_link_metrics_carry_path_labels(self):
        _, protocols, registry, _ = run_two_route_mesh()
        # Hop 0 exists on both routes but is a different physical link
        # (link 0 vs link 1); the series must stay separate by path.
        for protocol in protocols:
            assert registry.counter_value(
                "net.link.transmissions",
                link="0",
                path=str(protocol.path.path_id),
                kind="data",
                direction="forward",
            ) > 0

    def test_spans_attribute_rounds_to_their_path(self):
        _, protocols, registry, collector = run_two_route_mesh()
        spans = [span.to_dict() for span in collector.spans()]
        by_path = {
            path_id: [s for s in spans if s["path"] == path_id]
            for path_id in (0, 1)
        }
        assert set(s["path"] for s in spans) == {0, 1}
        for protocol in protocols:
            assert len(by_path[protocol.path.path_id]) == (
                registry.counter_value(
                    "protocol.rounds", protocol="full-ack",
                    path=str(protocol.path.path_id),
                )
            )

    def test_obs_summary_renders_per_path_breakdown(self):
        _, _, _, collector = run_two_route_mesh()
        spans = [span.to_dict() for span in collector.spans()]
        text = summarize_trace(spans)
        assert "Per-path breakdown" in text
        # Single-path traces keep their historical output.
        solo = [s for s in spans if s["path"] == 0]
        assert "Per-path breakdown" not in summarize_trace(solo)


class TestSharedLinkPhysics:
    def test_shared_links_pool_transmissions(self):
        mesh, protocols, _, _ = run_two_route_mesh()
        # Link 0 is private to route 0; links 1 and 2 carry both routes.
        private = mesh.links[0].stats.total_transmissions()
        shared = mesh.links[1].stats.total_transmissions()
        assert len(mesh.links[1].links) == 2
        assert len(mesh.links[0].links) == 1
        assert shared > private

    def test_adversary_damages_every_crossing_route(self):
        mesh, protocols, _, _ = run_two_route_mesh(adversary_rate=0.3)
        assert mesh.total_adversarial_drops() > 0
        # Link 2 is the last hop of BOTH routes; each instance's
        # estimator must see elevated loss at its own view of that hop.
        for protocol in protocols:
            estimates = protocol.estimates()
            thresholds = protocol.decision_thresholds()
            last = protocol.path.length - 1
            assert estimates[last] > thresholds[last]

    def test_honest_mesh_has_no_adversarial_drops(self):
        mesh, _, _, _ = run_two_route_mesh()
        assert mesh.total_adversarial_drops() == 0

    def test_opposite_direction_routes_share_physical_state(self):
        topology = line_topology(2)
        a = topology.shortest_route(0, 2, route_id=0)
        b = topology.shortest_route(2, 0, route_id=1)
        simulator = Simulator(seed=1)
        mesh = MeshNetwork(simulator, topology)
        pa = mesh.route_path(a)
        pb = mesh.route_path(b)
        # Route b traverses link 1 against its canonical orientation.
        assert pa.links[1].forward_on_wire is True
        assert pb.links[0].forward_on_wire is False
        assert pb.links[0].physical_direction(Direction.FORWARD) is (
            Direction.REVERSE
        )
        assert pa.links[1].wire is pb.links[0].wire

    def test_run_traffic_requires_instances(self):
        simulator = Simulator(seed=1)
        mesh = MeshNetwork(simulator, line_topology(2))
        with pytest.raises(ConfigurationError):
            mesh.run_traffic(count=10, rate=100.0)


class TestMeshDeterminism:
    def test_same_seed_same_mesh_outcome(self):
        def fingerprint():
            mesh, protocols, registry, _ = run_two_route_mesh(
                seed=7, adversary_rate=0.2
            )
            return (
                tuple(tuple(p.estimates()) for p in protocols),
                mesh.total_adversarial_drops(),
                registry.snapshot_deterministic(),
            )

        assert fingerprint() == fingerprint()


class TestMeshFusion:
    """End-to-end: wire-level mesh evidence convicts the shared link."""

    def test_shared_adversarial_link_is_convicted(self):
        topology = fat_tree_topology(4)
        routes = generate_routes(topology, 6, seed=11)
        topology.compromise_link(16, 0.35)
        registry = MetricsRegistry()
        with using_registry(registry):
            simulator = Simulator(seed=42)
            mesh = MeshNetwork(simulator, topology, natural_loss=0.01)
            # paai1's per-hop blame estimator localizes sharply enough
            # that even links crossed by a single route stay clean.
            protocols = [
                mesh.instantiate(
                    "paai1",
                    route,
                    ProtocolParams(
                        path_length=route.length,
                        natural_loss=0.01,
                        alpha=0.2,
                    ),
                )
                for route in routes
            ]
            mesh.run_traffic(count=220, rate=50.0)
        evidence = [
            RouteEvidence(
                route_id=route.route_id,
                links=tuple(route.links),
                estimates=tuple(protocol.estimates()),
                thresholds=tuple(protocol.decision_thresholds()),
                rounds=protocol.board.rounds,
            )
            for route, protocol in zip(routes, protocols)
        ]
        result = fuse_route_evidence(evidence, sigma=0.03, record=False)
        assert result.convicted == [16]
        score = result.score(topology.malicious_links)
        assert score == {
            "false_positives": [],
            "false_negatives": [],
            "exact": True,
        }
