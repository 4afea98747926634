"""Network topologies: from one monitored path to a mesh.

The paper analyzes a single source-destination path; a deployed
identifier watches a *graph* whose links are shared by many flows. This
package generalizes ``repro.net``'s linear :class:`~repro.net.path.Path`:

* :mod:`repro.topology.graph` — the graph model (:class:`Topology`,
  :class:`Route` as a walk over shared links, seeded deterministic
  generators, adversary placement on links/routers);
* :mod:`repro.topology.mesh` — N concurrent wire-protocol instances in
  one simulator whose routes are plain :class:`~repro.net.path.Path`
  objects over shared :class:`~repro.net.link.Wire` objects
  (:class:`MeshNetwork`);
* :mod:`repro.topology.fusion` — the network-level identifier: per-path
  verdict evidence fused into per-link posteriors, recorded through the
  evidence ledger (``fusion`` entries).

See ``docs/TOPOLOGY.md`` for the model and the fusion math.
"""

from repro.topology.fusion import (
    FusionResult,
    LinkPosterior,
    RouteEvidence,
    fuse_route_evidence,
)
from repro.topology.graph import (
    Route,
    TopoLink,
    Topology,
    build_topology,
    fat_tree_topology,
    generate_routes,
    line_topology,
    most_shared_links,
    place_link_adversaries,
    random_regular_topology,
    tree_topology,
)
from repro.topology.mesh import MeshNetwork

__all__ = [
    "Topology",
    "TopoLink",
    "Route",
    "build_topology",
    "line_topology",
    "tree_topology",
    "fat_tree_topology",
    "random_regular_topology",
    "generate_routes",
    "most_shared_links",
    "place_link_adversaries",
    "RouteEvidence",
    "LinkPosterior",
    "FusionResult",
    "fuse_route_evidence",
    "MeshNetwork",
]
