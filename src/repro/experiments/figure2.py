"""Experiment E-F2: Figure 2's false-positive / false-negative curves.

For each protocol, many independent runs are simulated with the
Monte-Carlo engine and the FP/FN rates are reported on a log-spaced time
axis (packets sent by the source), together with the convergence point
and the corresponding Theorem 2 bound.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Optional

from repro.analysis.detection import detection_packets
from repro.exceptions import ConfigurationError
from repro.experiments.report import render_series, render_table
from repro.mc.detection import DetectionExperiment, DetectionResult
from repro.workloads.scenarios import Scenario, paper_scenario

#: Default horizons per protocol: a few multiples of the theory bound so
#: the curves reach (or clearly approach) convergence.
DEFAULT_HORIZONS = {
    "full-ack": 6_000,
    "paai1": 150_000,
    "paai2": 600_000,
    "combo1": 150_000,
    "combo2": 1_000_000,
    "statfl": 1_000_000,
}


@dataclass
class Figure2Result:
    """One protocol's Figure 2 panel."""

    protocol: str
    detection: DetectionResult
    theory_bound_packets: float
    sigma: float

    @property
    def convergence(self) -> Optional[int]:
        return self.detection.convergence_packets(self.sigma)

    @property
    def average_packets(self) -> float:
        return self.detection.average_detection_packets()

    def to_json(self) -> dict:
        """The panel's numbers and the engines that produced them (what
        ``figure2 --json`` prints). The per-run conviction tensor is not
        here; ``--ledger-out`` records each run's evidence."""
        detection = self.detection
        curve = detection.curve
        convergence = self.convergence
        return {
            "protocol": self.protocol,
            "runs": curve.runs,
            "checkpoints": [int(c) for c in curve.checkpoints],
            "curve": {
                "fp_rates": [float(r) for r in curve.fp_rates],
                "fn_rates": [float(r) for r in curve.fn_rates],
            },
            "convergence_packets": (
                None if convergence is None else int(convergence)
            ),
            "average_packets": self.average_packets,
            "theory_bound_packets": float(self.theory_bound_packets),
            "sigma": self.sigma,
            "backend": detection.backend,
            "engines": detection.engine_counts(),
            "fallback_reasons": sorted(detection.reasons),
        }

    def render(self, per_link: bool = False) -> str:
        from repro.experiments.charts import fpfn_chart

        curve = self.detection.curve
        blocks = [
            fpfn_chart(
                curve,
                f"Figure 2: FP/FN vs packets — {self.protocol} "
                f"({curve.runs} runs, log-log)",
            ),
            "",
            render_series(
                "Underlying series",
                curve.as_rows(),
                x_label="packets",
                y_labels=["false positive", "false negative"],
            ),
        ]
        if per_link:
            errors = self.detection.per_link_error_rates()
            links = errors.shape[1]
            rows = [
                (checkpoint, *[round(float(e), 4) for e in errors[index]])
                for index, checkpoint in enumerate(self.detection.checkpoints)
            ]
            blocks.append(
                render_series(
                    "\nPer-link verdict error rates (FP for honest links, "
                    "FN for malicious)",
                    rows,
                    x_label="packets",
                    y_labels=[f"l{link}" for link in range(links)],
                )
            )
        blocks.append(
            render_table(
                headers=["quantity", "value"],
                rows=[
                    ["theory bound (packets)", self.theory_bound_packets],
                    ["converged at (packets)", self.convergence],
                    ["average exact verdict (packets)", self.average_packets],
                    ["sigma", self.sigma],
                ],
                title="\nSummary",
            )
        )
        return "\n".join(blocks)


def run_figure2(
    protocol: str,
    scenario: Optional[Scenario] = None,
    runs: int = 2000,
    horizon: Optional[int] = None,
    seed: int = 0,
    shards: Optional[int] = None,
    jobs: int = 1,
    backend: str = "model",
) -> Figure2Result:
    """Regenerate one Figure 2 panel (a: full-ack, b: paai1, c: paai2; the
    harness accepts any registry protocol for extension studies).

    ``jobs`` fans the Monte-Carlo shards over a process pool; the panel
    is identical for every ``jobs`` value at the same seed. ``backend``
    selects the execution engine (``model``, the historical default;
    ``fastpath``; or ``event`` — see ``docs/PERFORMANCE.md``).
    """
    if scenario is None:
        scenario = paper_scenario()
    if horizon is None:
        try:
            horizon = DEFAULT_HORIZONS[protocol]
        except KeyError:
            raise ConfigurationError(
                f"no default horizon for {protocol!r}"
            ) from None
    experiment = DetectionExperiment(
        protocol, scenario, runs=runs, horizon=horizon, seed=seed,
        shards=shards, backend=backend,
    )
    return Figure2Result(
        protocol=protocol,
        detection=experiment.run(jobs=jobs),
        theory_bound_packets=detection_packets(protocol, scenario.params),
        sigma=scenario.params.sigma,
    )
