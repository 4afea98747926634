"""Run every experiment and assemble a single reproduction report.

``run_all`` regenerates Tables 1-2, the Figure 2 panels, the Figure 3
panels and all ablations at a chosen scale, and returns (and optionally
writes) one consolidated text report — the "reproduce the paper in one
command" entry point behind ``python -m repro.cli report``.

The report decomposes into independent :class:`ExperimentSpec` tasks
(name + module-level callable + fully resolved kwargs), which is what
makes three things possible:

* **parallel execution** — ``jobs > 1`` fans the specs over a process
  pool (:mod:`repro.parallel`); every experiment seeds itself from the
  report seed, so the assembled report is identical for every ``jobs``
  value (only the runtime lines differ);
* **session capture** — each experiment runs in its own fresh
  observability session (:mod:`repro.obs.session`); its registry
  snapshot attaches to the record
  (:meth:`ReproductionReport.merged_metrics` folds them);
* **checkpoint/resume** — with ``resume_path`` set, finished experiments
  append to a checkpoint JSON as they complete, and a rerun skips every
  experiment already recorded there (``report --resume``).

See ``docs/PARALLEL.md`` for the execution model.
"""

from __future__ import annotations

import hashlib  # repro: allow(CB001) -- checkpoint integrity fingerprint, not crypto
import json
import os
import time
import warnings
from dataclasses import asdict, dataclass, field
from typing import Callable, Dict, List, Optional, Tuple

from repro.exceptions import ConfigurationError
from repro.experiments import claims
from repro.experiments.ablations import (
    run_burst_loss,
    run_corollary1,
    run_corollary2,
    run_corollary3,
    run_incrimination,
    run_theorem1_sharpness,
    run_window_ablation,
)
from repro.experiments.comm_table import run_comm_table
from repro.experiments.figure2 import run_figure2
from repro.experiments.figure3 import run_figure3_panel
from repro.experiments.report import render_table
from repro.experiments.sweeps import run_corollary3_measured
from repro.experiments.table1 import run_table1
from repro.experiments.table2 import run_table2
from repro.obs.registry import MetricsRegistry, get_registry
from repro.parallel.engine import RetryPolicy, run_tasks_completed

#: Scale presets: (table2 runs, figure2 runs, figure3 packets, ablation
#: packets). ``abl_packets`` feeds every packet-driven ablation —
#: Corollaries 1-2, the incrimination attack, and the burst-loss probe.
SCALES = {
    "smoke": {"runs": 60, "fig2_runs": 100, "packets": 400,
              "abl_packets": 1200},
    "quick": {"runs": 300, "fig2_runs": 500, "packets": 2000, "abl_packets": 8000},
    "full": {"runs": 5000, "fig2_runs": 10_000, "packets": 2000,
             "abl_packets": 30_000},
}

#: Checkpoint-file header (see ``docs/PARALLEL.md`` for the format).
CHECKPOINT_FORMAT = "repro-report-checkpoint"
CHECKPOINT_VERSION = 1


class OversubscriptionWarning(UserWarning):
    """``jobs`` exceeded the machine's core count; the run fell back to
    serial execution (results are identical either way)."""


def resolve_jobs(jobs: int) -> int:
    """Effective worker count for a ``jobs`` request.

    ``jobs == 0`` means "all cores" and is resolved downstream by the
    parallel engine. A request *above* the core count buys nothing —
    experiment shards are CPU-bound, so oversubscribed pools only add
    scheduler thrash and per-worker memory — and usually signals a
    copy-pasted flag from a bigger machine; it warns and falls back to a
    serial run (byte-identical output, only runtimes differ).
    """
    cpus = os.cpu_count() or 1
    if jobs > cpus:
        warnings.warn(
            f"jobs={jobs} exceeds this machine's {cpus} cores; "
            "falling back to a serial run (output is identical for "
            "every jobs value, only wall-clock time differs)",
            OversubscriptionWarning,
            stacklevel=3,
        )
        return 1
    return jobs


@dataclass
class ExperimentRecord:
    """One regenerated experiment."""

    name: str
    elapsed_seconds: float
    text: str
    #: Metrics-registry snapshot for this experiment, if metered.
    metrics: Optional[dict] = None
    #: Outcomes of this experiment's paper claims (``claims.evaluate``).
    claims: List[dict] = field(default_factory=list)


@dataclass(frozen=True)
class ExperimentSpec:
    """One independent unit of report work.

    ``task`` must be a module-level callable (specs cross process
    boundaries by reference) and ``kwargs`` fully resolved plain data —
    workers never consult :data:`SCALES` themselves.
    """

    name: str
    task: Callable[..., object]
    kwargs: Dict[str, object] = field(default_factory=dict)


def build_specs(scale: str, seed: int = 0) -> List[ExperimentSpec]:
    """The report's experiment list at ``scale``, in canonical order; the
    full scale adds the extensions whose claims need full-size runs."""
    if scale not in SCALES:
        raise ValueError(f"scale must be one of {sorted(SCALES)}")
    settings = SCALES[scale]
    specs = [
        ExperimentSpec("Table 1", run_table1),
        ExperimentSpec(
            "Table 2", run_table2, {"runs": settings["runs"], "seed": seed}
        ),
    ]
    for protocol in ("full-ack", "paai1", "paai2"):
        specs.append(
            ExperimentSpec(
                f"Figure 2 ({protocol})",
                run_figure2,
                {"protocol": protocol, "runs": settings["fig2_runs"],
                 "seed": seed},
            )
        )
    for panel in ("a", "b", "c"):
        specs.append(
            ExperimentSpec(
                f"Figure 3 (panel {panel})",
                run_figure3_panel,
                {"panel": panel, "packets": settings["packets"], "seed": seed},
            )
        )
    specs.extend(
        [
            ExperimentSpec(
                "Ablation: Corollary 1",
                run_corollary1,
                {"packets": settings["abl_packets"], "seed": seed},
            ),
            ExperimentSpec(
                "Ablation: Corollary 2",
                run_corollary2,
                {"packets": settings["abl_packets"], "seed": seed},
            ),
            ExperimentSpec("Ablation: Corollary 3", run_corollary3),
            ExperimentSpec(
                "Ablation: incrimination (footnote 6)",
                run_incrimination,
                {"packets": settings["abl_packets"], "seed": seed},
            ),
            ExperimentSpec(
                "Ablation: burst loss",
                run_burst_loss,
                {"packets": settings["abl_packets"], "seed": seed},
            ),
        ]
    )
    if scale == "full":
        specs.extend(_full_only_specs(seed))
    return specs


def _full_only_specs(seed: int) -> List[ExperimentSpec]:
    fig2 = [("combo1", 5_000, {}), ("combo2", 2_000, {}),
            # Statistical FL converges near 2e7 packets.
            ("statfl", 2_000, {"horizon": 50_000_000})]
    return [
        *(ExperimentSpec(f"Figure 2 ({protocol})", run_figure2,
                         {"protocol": protocol, "runs": runs, "seed": seed, **extra})
          for protocol, runs, extra in fig2),
        ExperimentSpec("Communication overhead (measured)", run_comm_table,
                       {"packets": 1500, "seed": seed}),
        ExperimentSpec("Sweeps: Corollary 3 (measured)",
                       run_corollary3_measured, {"runs": 800, "seed": seed}),
        ExperimentSpec("Ablation: Theorem 1 sharpness",
                       run_theorem1_sharpness, {"runs": 2000, "seed": seed}),
        ExperimentSpec("Ablation: windowed scoring", run_window_ablation,
                       {"seed": seed}),
    ]


def _execute_spec(payload: Tuple) -> ExperimentRecord:
    """Run one spec — in-process or in a pool worker — into a record
    (under its own fresh session, so the registry is its alone)."""
    name, task, kwargs, scale = payload
    # Monotonic, not wall-clock: NTP can step time.time() backwards,
    # which would record negative elapsed_seconds in the telemetry.
    started = time.monotonic()
    result = task(**kwargs)
    text = result.render() if hasattr(result, "render") else str(result)
    registry = get_registry()
    return ExperimentRecord(
        name=name,
        elapsed_seconds=time.monotonic() - started,
        text=text,
        metrics=registry.snapshot() if registry.enabled else None,
        claims=claims.evaluate(name, result, scale),
    )


@dataclass
class ReproductionReport:
    """The consolidated report."""

    scale: str
    seed: int = 0
    #: Effective worker count the report ran with.
    jobs: int = 1
    #: Worker count the caller asked for; differs from ``jobs`` when the
    #: oversubscription guard forced a serial run.
    requested_jobs: Optional[int] = None
    records: List[ExperimentRecord] = field(default_factory=list)

    @property
    def total_seconds(self) -> float:
        return sum(record.elapsed_seconds for record in self.records)

    @property
    def claims(self) -> List[dict]:
        """Every claim outcome, in experiment order."""
        return [c for record in self.records for c in record.claims]

    def runtime_breakdown(self) -> List[Tuple[str, float, float]]:
        """``(name, seconds, share_of_total)`` per experiment, slowest first."""
        total = self.total_seconds or 1.0
        return sorted(
            (
                (record.name, record.elapsed_seconds,
                 record.elapsed_seconds / total)
                for record in self.records
            ),
            key=lambda row: -row[1],
        )

    def render(self) -> str:
        header = (
            "Reproduction report — Packet-dropping Adversary Identification "
            "for Data Plane Security (CoNEXT 2008)\n"
            f"scale: {self.scale}; total runtime: {self.total_seconds:.1f}s\n"
        )
        sections = [header]
        for record in self.records:
            sections.append(
                f"\n{'#' * 70}\n# {record.name} "
                f"({record.elapsed_seconds:.1f}s)\n{'#' * 70}\n{record.text}"
            )
        outcomes = self.claims
        if outcomes:
            held = len(outcomes) - len(claims.failures(outcomes))
            table = render_table(
                ["", "claim", "paper", "measured", "check"],
                [["ok" if c["ok"] else "FAIL", c["id"], c["paper"],
                  c["measured"], c["check"]] for c in outcomes],
            )
            sections.append(
                f"\n{'#' * 70}\n# Paper claims ({held} of {len(outcomes)} "
                f"hold)\n{'#' * 70}\n{table}"
            )
        if self.records:
            lines = [
                f"  {seconds:8.1f}s  {share:6.1%}  {name}"
                for name, seconds, share in self.runtime_breakdown()
            ]
            sections.append(
                f"\n{'#' * 70}\n# Runtime breakdown\n{'#' * 70}\n"
                + "\n".join(lines)
            )
        return "\n".join(sections)

    def merged_metrics(self) -> Optional[dict]:
        """Fold every per-experiment snapshot into one run-level snapshot.

        Counters and histograms add across experiments; the merge is
        associative, so serial and parallel runs of the same seed produce
        the same run-level totals. ``None`` when no record carries
        metrics.
        """
        snapshots = [r.metrics for r in self.records if r.metrics is not None]
        if not snapshots:
            return None
        merged = MetricsRegistry()
        for snapshot in snapshots:
            merged.merge(snapshot)
        return merged.snapshot()

    def to_json(self) -> dict:
        """Machine-readable telemetry: per-experiment runtimes + metrics."""
        return {
            "scale": self.scale,
            "seed": self.seed,
            "jobs": self.jobs,
            "requested_jobs": (
                self.jobs if self.requested_jobs is None
                else self.requested_jobs
            ),
            "total_seconds": self.total_seconds,
            "experiments": [
                {k: v for k, v in asdict(record).items() if k != "text"}
                for record in self.records
            ],
            "merged_metrics": self.merged_metrics(),
        }

    def save(self, path: str) -> None:
        with open(path, "w") as handle:
            handle.write(self.render())


# -- checkpoint / resume ----------------------------------------------------


class CheckpointWarning(UserWarning):
    """A checkpoint file was unreadable or corrupt and is being ignored."""


def _records_checksum(records: List[dict]) -> str:
    """Content fingerprint over the canonical records encoding."""
    canonical = json.dumps(records, sort_keys=True, separators=(",", ":"))
    return hashlib.sha256(canonical.encode("utf-8")).hexdigest()


def _warn_corrupt(path: str, reason: str) -> None:
    warnings.warn(
        f"ignoring corrupt report checkpoint {path}: {reason}; "
        "the affected experiments will be re-run from scratch",
        CheckpointWarning,
        stacklevel=3,
    )


def load_checkpoint(path: str, scale: str, seed: int) -> Dict[str, ExperimentRecord]:
    """Records from a prior partial report, keyed by experiment name.

    Returns ``{}`` when ``path`` does not exist. A truncated, unparsable,
    or checksum-mismatched checkpoint (e.g. a crash mid-write on a
    filesystem without atomic rename) is *not* fatal: it emits a
    :class:`CheckpointWarning` and returns ``{}``, so the resumed report
    restarts the affected experiments instead of crashing.

    Two error classes stay hard :class:`ConfigurationError`\\ s, because
    they indicate the *caller* pointed at the wrong file rather than a
    damaged one: a well-formed JSON file that is not a report checkpoint,
    and a checkpoint written at a different scale/seed (resuming across
    configurations would silently mix incomparable results).
    """
    if not os.path.exists(path):
        return {}
    try:
        with open(path) as handle:
            payload = json.load(handle)
    except (json.JSONDecodeError, UnicodeDecodeError, OSError) as exc:
        _warn_corrupt(path, f"unreadable ({exc})")
        return {}
    if not isinstance(payload, dict):
        _warn_corrupt(path, "top-level value is not an object")
        return {}
    if payload.get("format") != CHECKPOINT_FORMAT:
        raise ConfigurationError(
            f"{path} is not a report checkpoint "
            f"(missing format={CHECKPOINT_FORMAT!r})"
        )
    if payload.get("scale") != scale or payload.get("seed") != seed:
        raise ConfigurationError(
            f"checkpoint {path} was written at scale={payload.get('scale')!r} "
            f"seed={payload.get('seed')!r}; cannot resume at scale={scale!r} "
            f"seed={seed!r}"
        )
    records = payload.get("records", [])
    stored = payload.get("checksum")
    if stored is not None and stored != _records_checksum(records):
        _warn_corrupt(path, "records checksum mismatch")
        return {}
    try:
        return {entry["name"]: ExperimentRecord(**entry) for entry in records}
    except (TypeError, KeyError) as exc:
        _warn_corrupt(path, f"malformed record entry ({exc!r})")
        return {}


def write_checkpoint(
    path: str,
    scale: str,
    seed: int,
    specs: List[ExperimentSpec],
    completed: Dict[str, ExperimentRecord],
) -> None:
    """Atomically persist the completed records (in canonical spec order).

    The payload carries a sha256 checksum over the canonical records
    encoding so :func:`load_checkpoint` can detect truncation or bit-rot
    that still parses as JSON.
    """
    records = [
        asdict(completed[spec.name]) for spec in specs if spec.name in completed
    ]
    payload = {
        "format": CHECKPOINT_FORMAT,
        "version": CHECKPOINT_VERSION,
        "scale": scale,
        "seed": seed,
        "checksum": _records_checksum(records),
        "records": records,
    }
    staging = f"{path}.tmp"
    with open(staging, "w") as handle:
        json.dump(payload, handle, indent=2, sort_keys=True)
        handle.write("\n")
    os.replace(staging, path)


# -- entry point ------------------------------------------------------------


def run_all(
    scale: str = "quick",
    seed: int = 0,
    progress: Optional[Callable[[str], None]] = None,
    jobs: int = 1,
    resume_path: Optional[str] = None,
    retry: Optional[RetryPolicy] = None,
) -> ReproductionReport:
    """Regenerate everything at the given scale ('smoke', 'quick', 'full').

    With a registry in the active session, each record carries its
    experiment's metrics snapshot.
    ``jobs`` fans the experiments over a process pool; the assembled
    report is identical to a serial run apart from measured runtimes.
    ``resume_path`` names a checkpoint file: experiments already recorded
    there are skipped, and every newly finished experiment is persisted
    to it immediately (so a crashed report resumes where it stopped).
    ``retry`` hardens execution against crashed or wedged workers: failed
    experiments are re-run up to the policy's attempt budget (experiments
    are pure functions of their spec, so a retried report is identical to
    an undisturbed one).
    """
    if scale not in SCALES:
        raise ValueError(f"scale must be one of {sorted(SCALES)}")
    requested_jobs = jobs
    jobs = resolve_jobs(jobs)
    specs = build_specs(scale, seed)
    completed: Dict[str, ExperimentRecord] = {}
    if resume_path:
        completed = load_checkpoint(resume_path, scale=scale, seed=seed)
    pending = [spec for spec in specs if spec.name not in completed]
    payloads = [
        (spec.name, spec.task, dict(spec.kwargs), scale) for spec in pending
    ]
    for _, record in run_tasks_completed(
        _execute_spec, payloads, jobs=jobs, retry=retry
    ):
        completed[record.name] = record
        if resume_path:
            write_checkpoint(resume_path, scale, seed, specs, completed)
        if progress is not None:
            progress(record.name)
    report = ReproductionReport(
        scale=scale, seed=seed, jobs=jobs, requested_jobs=requested_jobs
    )
    report.records = [completed[spec.name] for spec in specs]
    return report
