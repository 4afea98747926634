"""Measured parameter sweeps (E-S1, extension).

Corollary 3 is an *analytic* sensitivity statement; this harness measures
it: sweep one deployment parameter, run the Monte-Carlo detection
experiment at each value, and report the measured convergence point next
to the Theorem 2 bound. Confirms, with simulation rather than formulas,
that sigma dominates full-ack/PAAI-1 detection while path length barely
moves it — and that PAAI-2 degrades with distance/path length.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Callable, List, Optional, Sequence

from repro.analysis.detection import detection_packets
from repro.core.params import ProtocolParams
from repro.exceptions import ConfigurationError
from repro.experiments.report import render_table
from repro.mc.detection import DetectionExperiment
from repro.workloads.scenarios import Scenario

#: Horizon multiplier over the theory bound so convergence is reachable.
HORIZON_FACTOR = 4.0


@dataclass
class SweepPoint:
    value: object
    theory_bound: float
    measured_convergence: Optional[int]
    measured_average: float


@dataclass
class SweepResult:
    protocol: str
    parameter: str
    points: List[SweepPoint]

    def render(self) -> str:
        return render_table(
            headers=[
                self.parameter,
                "theory bound (pkts)",
                "measured convergence (pkts)",
                "measured avg exact (pkts)",
            ],
            rows=[
                [
                    point.value,
                    point.theory_bound,
                    point.measured_convergence,
                    point.measured_average,
                ]
                for point in self.points
            ],
            title=f"Measured sweep: {self.protocol} vs {self.parameter}",
        )


def sweep_detection(
    protocol: str,
    parameter: str,
    values: Sequence,
    make_params: Callable[[object], ProtocolParams],
    malicious_node: Optional[int] = None,
    node_rate: float = 0.02,
    runs: int = 500,
    seed: int = 0,
    max_horizon: int = 2_000_000,
) -> SweepResult:
    """Run the detection experiment across parameter values.

    Parameters
    ----------
    make_params:
        Maps a swept value to a full :class:`ProtocolParams`.
    malicious_node:
        Adversary position; defaults to ``d - 2`` of each setting (keeps
        the target link interior as ``d`` varies).
    """
    if not values:
        raise ConfigurationError("values must be non-empty")
    points: List[SweepPoint] = []
    for value in values:
        params = make_params(value)
        position = (
            malicious_node
            if malicious_node is not None
            else params.path_length - 2
        )
        scenario = Scenario(
            params=params, malicious_nodes={position: node_rate}
        )
        bound = detection_packets(protocol, params)
        horizon = int(min(max_horizon, max(2000, HORIZON_FACTOR * bound)))
        result = DetectionExperiment(
            protocol, scenario, runs=runs, horizon=horizon, seed=seed
        ).run()
        points.append(
            SweepPoint(
                value=value,
                theory_bound=bound,
                measured_convergence=result.convergence_packets(params.sigma),
                measured_average=result.average_detection_packets(),
            )
        )
    return SweepResult(protocol=protocol, parameter=parameter, points=points)


@dataclass
class Corollary3MeasuredResult:
    """Every sweep of :func:`run_corollary3_measured`."""

    sweeps: List[SweepResult]

    def sweep(self, protocol: str, parameter: str) -> SweepResult:
        return next(
            s for s in self.sweeps
            if s.protocol == protocol and s.parameter == parameter
        )

    def render(self) -> str:
        return "\n\n".join(sweep.render() for sweep in self.sweeps)


def run_corollary3_measured(
    runs: int = 500, seed: int = 0
) -> Corollary3MeasuredResult:
    """The measured version of Corollary 3: sigma, d, and rho sweeps for
    full-ack, plus PAAI-2's d sweep."""
    full_ack = {"runs": runs, "seed": seed}
    return Corollary3MeasuredResult(sweeps=[
        sweep_detection("full-ack", "sigma", [0.1, 0.03, 0.01],
                        lambda sigma: ProtocolParams(sigma=sigma),
                        malicious_node=4, **full_ack),
        sweep_detection("full-ack", "path length d", [4, 6, 8],
                        lambda d: ProtocolParams(path_length=d,
                                                 probe_frequency=1.0 / d ** 2),
                        **full_ack),
        sweep_detection("full-ack", "rho (eps fixed)", [0.005, 0.01, 0.02],
                        lambda rho: ProtocolParams(natural_loss=rho,
                                                   alpha=rho + 0.02),
                        malicious_node=4, **full_ack),
        sweep_detection("paai2", "path length d", [4, 6, 8],
                        lambda d: ProtocolParams(path_length=d),
                        runs=max(200, runs // 2), seed=seed,
                        max_horizon=400_000),
    ])
