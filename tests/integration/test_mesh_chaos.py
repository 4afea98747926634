"""Chaos contract on a mesh (docs/ROBUSTNESS.md, docs/TOPOLOGY.md).

The single-path chaos matrix (:mod:`repro.experiments.chaos`) promises
that benign fault schedules convict nobody and that no schedule crashes
the run. Mesh routes are plain paths over shared wires, so the same
injectors install on them unchanged; this suite holds a seeded fat-tree
mesh to the same contract, with every route faulted at once.
"""

import pytest

from repro.core.params import ProtocolParams
from repro.faults import PRESETS, install_faults
from repro.net.simulator import Simulator
from repro.topology.graph import fat_tree_topology, generate_routes
from repro.topology.mesh import MeshNetwork

PACKETS = 300
RATE = 50.0


def run_faulted_mesh(spec, seed=17):
    """Six honest paai1 routes on a k=4 fat-tree, ``spec`` installed on
    every route's path. Returns ``(protocols, injectors)``.

    Every data packet is probed (``probe_frequency=1``), so each route
    scores one round per packet and the confidence interval is narrow
    enough (half-width ~0.1) for a mis-accounted fault to convict.
    """
    topology = fat_tree_topology(4)
    routes = generate_routes(topology, 6, seed=11)
    simulator = Simulator(seed=seed)
    params = [
        ProtocolParams(path_length=route.length, probe_frequency=1.0)
        for route in routes
    ]
    mesh = MeshNetwork(
        simulator, topology, natural_loss=params[0].natural_loss
    )
    protocols = [
        mesh.instantiate("paai1", route, route_params)
        for route, route_params in zip(routes, params)
    ]
    scheduled = spec.with_horizon(PACKETS / RATE)
    injectors = [
        install_faults(protocol.path, scheduled) for protocol in protocols
    ]
    mesh.run_traffic(count=PACKETS, rate=RATE)
    return protocols, injectors


BENIGN = sorted(name for name, spec in PRESETS.items() if spec.benign)
HOSTILE = sorted(name for name, spec in PRESETS.items() if not spec.benign)


@pytest.mark.parametrize("name", BENIGN)
def test_benign_faults_convict_nobody_on_any_route(name):
    protocols, injectors = run_faulted_mesh(PRESETS[name])
    if PRESETS[name].clauses:
        assert all(sum(i.injected.values()) > 0 for i in injectors)
    for protocol in protocols:
        assert protocol.board.rounds == PACKETS
        verdict = protocol.confident_identify()
        assert not verdict.convicted, (name, protocol.path.path_id)


@pytest.mark.parametrize("name", HOSTILE)
def test_hostile_faults_finish_without_unhandled_exception(name):
    protocols, injectors = run_faulted_mesh(PRESETS[name])
    assert all(sum(i.injected.values()) > 0 for i in injectors)
    assert all(protocol.board.rounds > 0 for protocol in protocols)
