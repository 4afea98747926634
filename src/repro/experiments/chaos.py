"""Chaos harness: run protocols under named fault matrices (robustness).

A chaos *matrix* is a grid of ``(protocol, fault spec)`` cells. Every
cell builds an honest path (no adversary), installs the spec's fault
schedule (:mod:`repro.faults`) on the simulator, drives traffic, and
records what the protocol concluded. The gate is the robustness contract
of docs/ROBUSTNESS.md:

* **no unhandled exceptions** — whatever the schedule injects
  (corrupted MACs, crash windows, clock steps), the simulator must run
  to completion in every cell;
* **no false accusations** — on *benign* specs (faults within the
  paper's §3 assumptions) the confidence-aware verdict
  (:meth:`~repro.protocols.base.WireProtocol.confident_identify`) must
  convict nobody, because every node is honest. Non-benign specs
  (``corrupt-acks``, ``clock-wild``) violate the paper's operating
  assumptions on purpose, so they only assert survival, not verdicts.

Cells derive their seeds from the matrix root seed through
:class:`~repro.net.rng.RngFactory`, so a matrix run is a pure function
of ``(matrix, seed, packets, rate)`` — rerunning it reproduces the same
report byte for byte.
"""

from __future__ import annotations

import traceback
from dataclasses import dataclass, field
from typing import Dict, List, Optional, Sequence, Tuple

from repro.analysis.hoeffding import hoeffding_failure_probability
from repro.core.params import ProtocolParams
from repro.exceptions import ConfigurationError
from repro.faults import FaultSpec, install_faults, preset
from repro.net.rng import RngFactory
from repro.net.simulator import Simulator
from repro.obs.registry import get_registry
from repro.protocols.registry import make_protocol

#: Specs whose faults stay inside the paper's §3 operating assumptions.
SMALL_SPECS = (
    "baseline",
    "benign-jitter",
    "benign-dup",
    "burst-blackout",
    "clock-skew",
    "crash-restart",
    "corrupt-acks",
)

#: The full matrix adds the beyond-assumption clock fault.
FULL_SPECS = SMALL_SPECS + ("clock-wild",)

SMALL_PROTOCOLS = ("full-ack", "paai1", "paai2")
FULL_PROTOCOLS = SMALL_PROTOCOLS + ("statfl", "sig-ack")

MATRICES = {
    "small": (SMALL_PROTOCOLS, SMALL_SPECS),
    "full": (FULL_PROTOCOLS, FULL_SPECS),
}

#: Protocol construction overrides for chaos cells. The statistical FL
#: baseline needs a short reporting interval to produce any estimate in
#: a few hundred packets, and full sampling so the honest-path estimate
#: noise is loss realization only (its default 1% sketch sampling needs
#: ~10^7 packets before estimates mean anything — Table 2).
PROTOCOL_KWARGS: Dict[str, Dict[str, object]] = {
    "statfl": {"fl_sampling": 1.0, "interval_length": 100},
}


def section7_bound(rounds: int, epsilon: float, links: int = 1) -> float:
    """§7's bound on the probability of any false accusation.

    Hoeffding: an honest link's estimate exceeds the midpoint threshold
    (margin ``epsilon/2``) with probability at most
    ``2 exp(-2 n (eps/2)^2)`` after ``n`` observation rounds; a union
    bound over ``links`` honest links gives the path-level figure. At
    small ``n`` the bound is vacuous (>= 1) — the theory promises
    nothing there, and callers should treat it as such.
    """
    if epsilon <= 0:
        raise ConfigurationError("epsilon must be positive")
    if links <= 0:
        raise ConfigurationError("links must be positive")
    if rounds <= 0:
        return 1.0
    per_link = hoeffding_failure_probability(rounds, epsilon / 2.0)
    return min(1.0, links * per_link)


@dataclass
class ChaosCell:
    """Outcome of one ``(protocol, fault spec)`` cell."""

    protocol: str
    spec: str
    benign: bool
    seed: int
    rounds: int = 0
    estimates: List[float] = field(default_factory=list)
    thresholds: List[float] = field(default_factory=list)
    #: Links convicted by the confidence-aware verdict. Every node is
    #: honest, so on a benign spec any entry here is a false accusation.
    convicted: List[int] = field(default_factory=list)
    undecided: List[int] = field(default_factory=list)
    #: Links over threshold by the raw (confidence-blind) point estimate;
    #: informational — raw verdicts are noisy at chaos-scale round counts.
    raw_convicted: List[int] = field(default_factory=list)
    #: Per-node degraded-mode fault counters (position -> kind -> count).
    faults_seen: Dict[int, Dict[str, int]] = field(default_factory=dict)
    #: Injector-side ground truth of what was actually injected.
    injected: Dict[str, int] = field(default_factory=dict)
    #: §7 false-accusation bound at this cell's round count.
    fp_bound: float = 1.0
    #: Traceback of an unhandled exception, or None.
    error: Optional[str] = None

    @property
    def false_accusations(self) -> List[int]:
        return self.convicted if self.benign else []

    @property
    def ok(self) -> bool:
        return self.error is None and not self.false_accusations

    def to_json(self) -> dict:
        return {
            "protocol": self.protocol,
            "spec": self.spec,
            "benign": self.benign,
            "seed": self.seed,
            "rounds": self.rounds,
            "estimates": self.estimates,
            "thresholds": self.thresholds,
            "convicted": self.convicted,
            "undecided": self.undecided,
            "raw_convicted": self.raw_convicted,
            "false_accusations": self.false_accusations,
            "faults_seen": {
                str(position): dict(counts)
                for position, counts in sorted(self.faults_seen.items())
            },
            "injected": dict(sorted(self.injected.items())),
            "fp_bound": self.fp_bound,
            "error": self.error,
            "ok": self.ok,
        }


@dataclass
class ChaosReport:
    """Machine-readable robustness report for one matrix run."""

    matrix: str
    seed: int
    packets: int
    rate: float
    cells: List[ChaosCell] = field(default_factory=list)

    @property
    def ok(self) -> bool:
        return all(cell.ok for cell in self.cells)

    @property
    def errors(self) -> List[ChaosCell]:
        return [cell for cell in self.cells if cell.error is not None]

    @property
    def false_accusation_cells(self) -> List[ChaosCell]:
        return [cell for cell in self.cells if cell.false_accusations]

    def to_json(self) -> dict:
        return {
            "format": "repro-chaos-report",
            "version": 1,
            "matrix": self.matrix,
            "seed": self.seed,
            "packets": self.packets,
            "rate": self.rate,
            "ok": self.ok,
            "cells": [cell.to_json() for cell in self.cells],
        }

    def render(self) -> str:
        lines = [
            f"Chaos matrix {self.matrix!r} — seed {self.seed}, "
            f"{self.packets} packets @ {self.rate:g}/s",
            f"{'protocol':>10} {'spec':>16} {'benign':>6} {'rounds':>6} "
            f"{'faults':>6} {'inject':>6} {'convicted':>10}  verdict",
        ]
        for cell in self.cells:
            faults_total = sum(
                sum(counts.values())
                for counts in cell.faults_seen.values()
            )
            injected_total = sum(cell.injected.values())
            verdict = "OK" if cell.ok else (
                "EXCEPTION" if cell.error else "FALSE-ACCUSATION"
            )
            convicted = ",".join(map(str, cell.convicted)) or "-"
            lines.append(
                f"{cell.protocol:>10} {cell.spec:>16} "
                f"{str(cell.benign).lower():>6} {cell.rounds:>6} "
                f"{faults_total:>6} {injected_total:>6} {convicted:>10}  "
                f"{verdict}"
            )
        failures = [cell for cell in self.cells if not cell.ok]
        lines.append(
            f"\n{len(self.cells)} cells, {len(failures)} failing -> "
            f"{'OK' if self.ok else 'FAIL'}"
        )
        for cell in self.errors:
            lines.append(
                f"\n--- {cell.protocol} / {cell.spec}: unhandled exception ---\n"
                f"{cell.error}"
            )
        return "\n".join(lines)


def cell_seed(root_seed: int, protocol: str, spec_name: str) -> int:
    """Deterministic per-cell seed, independent across cells."""
    return RngFactory(root_seed).spawn(f"chaos:{protocol}:{spec_name}").seed


def run_chaos_cell(
    protocol_name: str,
    spec: FaultSpec,
    seed: int,
    packets: int = 300,
    rate: float = 50.0,
) -> ChaosCell:
    """Run one cell; never raises on simulator/protocol failure."""
    cell = ChaosCell(
        protocol=protocol_name, spec=spec.name, benign=spec.benign, seed=seed
    )
    try:
        simulator = Simulator(seed=seed)
        params = ProtocolParams()
        protocol = make_protocol(
            protocol_name, simulator, params,
            **PROTOCOL_KWARGS.get(protocol_name, {}),
        )
        horizon = packets / rate
        injector = install_faults(protocol.path, spec.with_horizon(horizon))
        protocol.run_traffic(packets, rate)
        verdict = protocol.confident_identify()
        identification = protocol.identify()
        cell.rounds = protocol.board.rounds
        cell.estimates = list(protocol.estimates())
        cell.thresholds = list(protocol.decision_thresholds())
        cell.convicted = list(verdict.convicted)
        cell.undecided = list(verdict.undecided)
        cell.raw_convicted = list(identification.convicted)
        cell.faults_seen = {
            node.position: dict(node.fault_counts)
            for node in protocol.path.nodes
            if node.fault_counts
        }
        cell.injected = dict(injector.injected)
        cell.fp_bound = section7_bound(
            cell.rounds, params.epsilon, links=params.path_length
        )
    except Exception:
        cell.error = traceback.format_exc()
    return cell


def matrix_cells(matrix: str) -> Tuple[Sequence[str], Sequence[str]]:
    """``(protocol names, spec names)`` for a named matrix."""
    try:
        return MATRICES[matrix]
    except KeyError:
        raise ConfigurationError(
            f"unknown chaos matrix {matrix!r}; available: "
            f"{', '.join(sorted(MATRICES))}"
        ) from None


def run_chaos_matrix(
    matrix: str = "small",
    seed: int = 0,
    packets: int = 300,
    rate: float = 50.0,
    protocols: Optional[Sequence[str]] = None,
    progress=None,
) -> ChaosReport:
    """Run a named fault matrix and return the robustness report.

    ``protocols`` restricts the matrix's protocol axis (for quick local
    iteration); specs always run in matrix order. The report is a pure
    function of the arguments.
    """
    if packets <= 0:
        raise ConfigurationError("packets must be positive")
    if rate <= 0:
        raise ConfigurationError("rate must be positive")
    matrix_protocols, spec_names = matrix_cells(matrix)
    if protocols:
        unknown = sorted(set(protocols) - set(matrix_protocols))
        if unknown:
            raise ConfigurationError(
                f"protocols {unknown} are not part of matrix {matrix!r} "
                f"(has: {', '.join(matrix_protocols)})"
            )
        matrix_protocols = [name for name in matrix_protocols if name in protocols]
    report = ChaosReport(matrix=matrix, seed=seed, packets=packets, rate=rate)
    registry = get_registry()
    for protocol_name in matrix_protocols:
        for spec_name in spec_names:
            cell = run_chaos_cell(
                protocol_name,
                preset(spec_name),
                seed=cell_seed(seed, protocol_name, spec_name),
                packets=packets,
                rate=rate,
            )
            report.cells.append(cell)
            if registry.enabled:
                registry.counter(
                    "chaos.cells",
                    matrix=matrix,
                    outcome="ok" if cell.ok else "fail",
                ).inc()
            if progress is not None:
                progress(cell)
    return report
