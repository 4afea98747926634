"""Command-line interface: regenerate every table and figure.

Usage::

    python -m repro.cli table1
    python -m repro.cli table2 [--runs N]
    python -m repro.cli figure2 --protocol {full-ack,paai1,paai2,...}
    python -m repro.cli figure3 --panel {a,b,c}
    python -m repro.cli example-rates
    python -m repro.cli practicality
    python -m repro.cli report [--scale full] [--out report.txt]
    python -m repro.cli ablation {corollary1,corollary2,corollary3,
                                  incrimination,burst,window}
    python -m repro.cli netexp --topology fat-tree --size 4 --paths 8
    python -m repro.cli obs summary --metrics m.json --trace t.jsonl
    python -m repro.cli explain --ledger ledger.jsonl [--run N]

Every command prints a plain-text table; ``--json`` dumps the structured
result instead (for ``figure2``, the panel's numbers: curve, convergence,
average, bound and engines — per-run evidence goes to ``--ledger-out``).

Observability: experiment commands accept ``--metrics-out FILE`` (metrics
registry snapshot as JSON), ``--trace-out FILE`` (round spans as JSONL),
``--ledger-out FILE`` (the evidence ledger as JSONL, reconstructable via
``explain``), and ``--profile`` (phase timers into the metrics
snapshot), through one observability session that ``--jobs`` workers
also record into. Monte-Carlo experiments (figure2, table2) have no wire
packets, so when tracing is requested there, a companion wire run of the
same protocol/scenario is captured on the event-driven simulator.
"""

from __future__ import annotations

import argparse
import dataclasses
import json
import os
import sys
from contextlib import contextmanager
from typing import Optional, Sequence

from repro.analysis.detection import (
    statfl_detection_packets,
    tau1_fullack,
    tau2_paai1,
    tau3_paai2,
)
from repro.analysis.overhead import practicality_summary
from repro.core.params import ProtocolParams
from repro.experiments.ablations import (
    run_burst_loss,
    run_corollary1,
    run_corollary2,
    run_corollary3,
    run_incrimination,
)
from repro.experiments.figure2 import run_figure2
from repro.experiments.figure3 import run_figure3_panel
from repro.experiments.report import render_table
from repro.experiments.table1 import run_table1
from repro.experiments.table2 import run_table2
from repro.net.backend import BACKEND_NAMES
from repro.obs.ledger import EvidenceLedger
from repro.obs.profile import PhaseProfiler
from repro.obs.registry import MetricsRegistry, using_registry
from repro.obs.session import Session, using_session
from repro.obs.tracing import RoundTraceCollector
from repro.protocols.registry import available_protocols


def _json_default(value):
    if dataclasses.is_dataclass(value):
        return dataclasses.asdict(value)
    if hasattr(value, "tolist"):
        return value.tolist()
    if isinstance(value, set):
        return sorted(value)
    return str(value)


def _emit(args, result) -> None:
    if getattr(args, "json", False):
        print(json.dumps(result, default=_json_default, indent=2))
    else:
        print(result.render() if hasattr(result, "render") else result)


@contextmanager
def _observability(args, wire_protocol: Optional[str] = None, seed: int = 0):
    """Activate metrics/tracing/ledger capture when a command's flags ask.

    Inside the block one fresh session (registry, collector, and the
    ledger and profiler when asked) is active, so everything the command
    constructs, in-process or in a ``--jobs`` worker, reports into it.
    The block yields a dict merged into the metrics payload at write
    time (figure2's ``wire_backend``), or ``None`` without flags.

    The requested files are written on the way out **even when the
    experiment raises** — the partial snapshot is marked ``"status":
    "failed"``, because telemetry matters most exactly when a run
    crashes.

    When ``wire_protocol`` is given and the command produced no wire
    packets (a Monte-Carlo experiment), a companion wire run of that
    protocol is captured so the trace has real round spans. The companion
    runs under its *own* registry — its counters land in the snapshot's
    ``"companion_wire_run"`` section, never mixed into the experiment's
    metrics.
    """
    metrics_out = getattr(args, "metrics_out", None)
    trace_out = getattr(args, "trace_out", None)
    ledger_out = getattr(args, "ledger_out", None)
    profile = getattr(args, "profile", False)
    if profile and not metrics_out:
        raise SystemExit(
            "error: --profile exports through the metrics snapshot; "
            "add --metrics-out FILE"
        )
    if not metrics_out and not trace_out and not ledger_out:
        yield None
        return
    _check_output_dirs(metrics_out, trace_out, ledger_out)
    registry = MetricsRegistry()
    session = Session(registry=registry, collector=RoundTraceCollector())
    if ledger_out:
        session.ledger = EvidenceLedger()
    if profile:
        session.profiler = PhaseProfiler(registry)
    extra: dict = {}
    failed = False
    companion_snapshot = None
    try:
        with using_session(session):
            yield extra
            if wire_protocol is not None and len(session.collector) == 0:
                from repro.obs.capture import capture_wire_run

                with using_registry(MetricsRegistry()) as companion:
                    capture = capture_wire_run(wire_protocol, seed=seed)
                companion_snapshot = companion.snapshot()
                print(capture.describe(), file=sys.stderr)
    except BaseException:
        failed = True
        raise
    finally:
        if metrics_out:
            payload = registry.snapshot()
            payload["status"] = "failed" if failed else "ok"
            if companion_snapshot is not None:
                payload["companion_wire_run"] = companion_snapshot
            payload.update(extra)
            with open(metrics_out, "w") as handle:
                json.dump(payload, handle, indent=2, sort_keys=True)
                handle.write("\n")
            note = " (partial: run failed)" if failed else ""
            print(f"metrics written to {metrics_out}{note}", file=sys.stderr)
        if trace_out:
            written = session.collector.write_jsonl(trace_out)
            print(f"{written} round spans written to {trace_out}",
                  file=sys.stderr)
        if ledger_out:
            written = session.ledger.write_jsonl(ledger_out)
            print(
                f"{written} ledger entries written to {ledger_out} "
                "(inspect with: repro-aai explain --ledger "
                f"{ledger_out})",
                file=sys.stderr,
            )


def _check_output_dirs(*paths: Optional[str]) -> None:
    """Fail before the experiment runs, not at write time after it."""
    for out in paths:
        if out:
            parent = os.path.dirname(out) or "."
            if not os.path.isdir(parent):
                raise SystemExit(
                    f"error: output directory does not exist: {parent}"
                )


def _add_obs_flags(parser: argparse.ArgumentParser) -> None:
    parser.add_argument(
        "--metrics-out", type=str, default=None, dest="metrics_out",
        metavar="FILE", help="write a metrics-registry snapshot (JSON)",
    )
    parser.add_argument(
        "--trace-out", type=str, default=None, dest="trace_out",
        metavar="FILE", help="write per-round tracing spans (JSONL)",
    )
    parser.add_argument(
        "--ledger-out", type=str, default=None, dest="ledger_out",
        metavar="FILE",
        help="write the evidence ledger (JSONL); reconstruct verdicts "
             "with 'repro-aai explain'",
    )
    parser.add_argument(
        "--profile", action="store_true",
        help="time pipeline phases (setup/wire-replay/scoring/conviction) "
             "into the metrics snapshot; requires --metrics-out",
    )


def _cmd_table1(args) -> None:
    _emit(args, run_table1(sending_rate=args.rate))


def _cmd_table2(args) -> None:
    _emit(args, run_table2(runs=args.runs, seed=args.seed, jobs=args.jobs,
                           backend=args.backend))


def _cmd_figure2(args) -> None:
    with _observability(
        args, wire_protocol=args.protocol, seed=args.seed
    ) as extra:
        result = run_figure2(
            args.protocol, runs=args.runs, horizon=args.horizon,
            seed=args.seed, jobs=args.jobs, backend=args.backend,
        )
        detection = result.detection
        if extra is not None and detection.backend != "model":
            extra["wire_backend"] = {
                "backend": detection.backend,
                "engines": detection.engine_counts(),
                "fallback_reasons": sorted(detection.reasons),
            }
    if getattr(args, "json", False):
        print(json.dumps(result.to_json(), indent=2))
    else:
        # Figure 2(c)'s per-link view is the point of the PAAI-2 panel.
        per_link = args.per_link or args.protocol == "paai2"
        print(result.render(per_link=per_link))


def _cmd_figure3(args) -> None:
    with _observability(args, seed=args.seed):
        result = run_figure3_panel(
            args.panel, packets=args.packets, seed=args.seed
        )
    _emit(args, result)


def _cmd_example_rates(args) -> None:
    params = ProtocolParams()
    table = render_table(
        headers=["quantity", "packets"],
        rows=[
            ["tau1 (full-ack)", tau1_fullack(params)],
            ["tau2 (PAAI-1)", tau2_paai1(params)],
            ["tau3 (PAAI-2)", tau3_paai2(params)],
            ["statistical FL", statfl_detection_packets(params)],
        ],
        title="§7.2 example detection rates",
    )
    print(table)


def _cmd_practicality(args) -> None:
    params = ProtocolParams(probe_frequency=1.0 / (5 * 36))
    summary = practicality_summary(params, args.rate)
    rows = [
        [
            name,
            values["detection_minutes"],
            values["comm_overhead_units"],
            values["storage_worst_packets"],
        ]
        for name, values in summary.items()
    ]
    print(
        render_table(
            headers=[
                "protocol",
                "detection (min)",
                "comm (units/pkt)",
                "storage worst (pkts)",
            ],
            rows=rows,
            title=f"§9 practicality at p=1/(5 d^2), rate {args.rate:g} pkt/s",
        )
    )


def _cmd_comm_table(args) -> None:
    from repro.experiments.comm_table import run_comm_table

    with _observability(args, seed=args.seed):
        result = run_comm_table(packets=args.packets, seed=args.seed)
    _emit(args, result)


def _cmd_sweeps(args) -> None:
    from repro.experiments.sweeps import run_corollary3_measured

    print(run_corollary3_measured(runs=args.runs, seed=args.seed).render())
    print()


def _cmd_report(args) -> None:
    from repro.experiments.runner import run_all

    _check_output_dirs(args.metrics_out, args.trace_out, args.out, args.resume)
    retry = None
    if args.max_attempts > 1 or args.task_timeout is not None:
        from repro.parallel.engine import RetryPolicy

        retry = RetryPolicy(
            max_attempts=args.max_attempts, timeout=args.task_timeout
        )
    session = Session()
    if args.metrics_out:
        session.registry = MetricsRegistry()
    if args.trace_out:
        session.collector = RoundTraceCollector()
    with using_session(session):
        report = run_all(
            scale=args.scale, seed=args.seed,
            progress=lambda name: print(f"[done] {name}", flush=True),
            jobs=args.jobs,
            resume_path=args.resume,
            retry=retry,
        )
    if args.metrics_out:
        with open(args.metrics_out, "w") as handle:
            json.dump(report.to_json(), handle, indent=2, sort_keys=True)
            handle.write("\n")
        print(f"experiment telemetry written to {args.metrics_out}",
              file=sys.stderr)
    if args.trace_out:
        written = session.collector.write_jsonl(args.trace_out)
        print(f"{written} round spans written to {args.trace_out}",
              file=sys.stderr)
    if args.out:
        report.save(args.out)
        print(f"report written to {args.out}")
    else:
        print(report.render())
    failed = [c["id"] for c in report.claims if not c["ok"]]
    if failed:
        print(f"paper claims failed: {', '.join(failed)}", file=sys.stderr)
        raise SystemExit(1)


def _cmd_chaos(args) -> None:
    from repro.experiments.chaos import run_chaos_matrix

    _check_output_dirs(args.out, args.json_out)
    report = run_chaos_matrix(
        matrix=args.matrix,
        seed=args.seed,
        packets=args.packets,
        rate=args.rate,
        protocols=args.protocols,
        progress=lambda cell: print(
            f"[{'ok' if cell.ok else 'FAIL'}] {cell.protocol} / {cell.spec}",
            file=sys.stderr,
            flush=True,
        ),
    )
    if args.json_out:
        with open(args.json_out, "w") as handle:
            json.dump(report.to_json(), handle, indent=2, sort_keys=True)
            handle.write("\n")
        print(f"chaos report written to {args.json_out}", file=sys.stderr)
    if args.out:
        with open(args.out, "w") as handle:
            handle.write(report.render())
            handle.write("\n")
    if getattr(args, "json", False):
        print(json.dumps(report.to_json(), indent=2, sort_keys=True))
    elif not args.out:
        print(report.render())
    if not report.ok:
        raise SystemExit(1)


def _cmd_obs(args) -> None:
    from repro.obs.summary import summarize_files

    if args.obs_command == "summary":
        if args.metrics is None and args.trace is None:
            print("obs summary: need --metrics and/or --trace", file=sys.stderr)
            raise SystemExit(2)
        print(summarize_files(
            metrics_path=args.metrics, trace_path=args.trace, top=args.top
        ))


def _cmd_netexp(args) -> None:
    from repro.mc.netexp import NetworkExperiment
    from repro.topology import (
        build_topology,
        generate_routes,
        most_shared_links,
        place_link_adversaries,
    )

    with _observability(args, seed=args.seed):
        topology = build_topology(
            args.topology, args.size, degree=args.degree, seed=args.seed
        )
        routes = generate_routes(topology, args.paths, seed=args.seed)
        if args.adversaries > 0:
            if args.on_shared:
                for link_id in most_shared_links(
                    routes, count=args.adversaries
                ):
                    topology.compromise_link(link_id, args.adversary_rate)
            else:
                place_link_adversaries(
                    topology, args.adversaries, args.adversary_rate,
                    seed=args.seed,
                )
        experiment = NetworkExperiment(
            topology,
            routes,
            protocol=args.protocol,
            rho=args.rho,
            horizon=args.horizon,
            seed=args.seed,
            shards=args.shards,
        )
        result = experiment.run(jobs=args.jobs)
    if getattr(args, "json", False):
        final = result.fusion
        payload = {
            "protocol": result.protocol,
            "topology": topology.describe(),
            "routes": len(routes),
            "checkpoints": result.checkpoints,
            "malicious_links": topology.malicious_links,
            "convicted": final.convicted,
            "exonerated": final.exonerated,
            "undecided": final.undecided,
            "confusion": result.confusion(),
            "first_convicted": {
                str(k): result.checkpoints[v]
                for k, v in sorted(result.first_convicted.items())
            },
            "best_single": {
                str(k): result.checkpoints[v]
                for k, v in sorted(result.best_single.items())
            },
        }
        print(json.dumps(payload, default=_json_default, indent=2))
    else:
        print(result.render())


def _cmd_explain(args) -> None:
    from repro.exceptions import ConfigurationError
    from repro.obs.ledger import (
        ledger_runs,
        read_ledger_jsonl,
        render_explanation,
    )

    run = args.run
    if run is not None:
        try:
            run = int(run)
        except ValueError:
            print(
                f"explain: --run expects an integer run index, got {run!r}",
                file=sys.stderr,
            )
            raise SystemExit(2)
    try:
        entries = read_ledger_jsonl(args.ledger)
    except OSError as exc:
        print(f"explain: cannot read ledger: {exc}", file=sys.stderr)
        raise SystemExit(2)
    except ConfigurationError as exc:
        print(f"explain: {exc}", file=sys.stderr)
        raise SystemExit(2)
    if not entries:
        print(
            f"explain: ledger {args.ledger} contains no entries",
            file=sys.stderr,
        )
        raise SystemExit(2)
    if run is not None:
        known = sorted(ledger_runs(entries))
        if run not in known:
            span = (
                f"known runs: {known[0]}..{known[-1]}"
                if known
                else "ledger has no per-run entries"
            )
            print(
                f"explain: run {run} not in ledger ({span})",
                file=sys.stderr,
            )
            raise SystemExit(2)
    print(render_explanation(entries, run=run))


def _cmd_audit(args) -> None:
    from repro.audit.cli import run_audit

    code = run_audit(args)
    if code:
        raise SystemExit(code)


def _cmd_ablation(args) -> None:
    with _observability(args, seed=args.seed):
        if args.name == "corollary1":
            _emit(args, run_corollary1(seed=args.seed))
        elif args.name == "corollary2":
            _emit(args, run_corollary2(seed=args.seed))
        elif args.name == "corollary3":
            _emit(args, run_corollary3())
        elif args.name == "incrimination":
            _emit(args, run_incrimination(packets=args.packets, seed=args.seed))
        elif args.name == "burst":
            _emit(args, run_burst_loss(seed=args.seed))
        elif args.name == "window":
            from repro.experiments.ablations import run_window_ablation

            _emit(args, run_window_ablation(seed=args.seed))
        elif args.name == "theorem1":
            from repro.experiments.ablations import run_theorem1_sharpness

            _emit(args, run_theorem1_sharpness(seed=args.seed))


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="repro-aai",
        description=(
            "Reproduction harness for 'Packet-dropping Adversary "
            "Identification for Data Plane Security' (CoNEXT 2008)"
        ),
    )
    sub = parser.add_subparsers(dest="command", required=True)

    p = sub.add_parser("table1", help="Table 1: analytic comparison")
    p.add_argument("--rate", type=float, default=100.0)
    p.add_argument("--json", action="store_true")
    p.set_defaults(func=_cmd_table1)

    p = sub.add_parser("table2", help="Table 2: theory vs simulation")
    p.add_argument("--runs", type=int, default=1000)
    p.add_argument("--seed", type=int, default=0)
    p.add_argument("--jobs", type=int, default=1,
                   help="worker processes for the Monte-Carlo shards "
                        "(0 = all cores; output is identical for any value)")
    p.add_argument("--backend", choices=BACKEND_NAMES,
                   default="model",
                   help="detection-average engine: closed-form models "
                        "(default), vectorized wire replay, or full "
                        "event simulation (docs/PERFORMANCE.md)")
    p.add_argument("--json", action="store_true")
    p.set_defaults(func=_cmd_table2)

    p = sub.add_parser("figure2", help="Figure 2: FP/FN over time")
    p.add_argument(
        "--protocol", choices=available_protocols(), default="paai1"
    )
    p.add_argument("--runs", type=int, default=2000)
    p.add_argument("--horizon", type=int, default=None)
    p.add_argument("--seed", type=int, default=0)
    p.add_argument("--jobs", type=int, default=1,
                   help="worker processes for the Monte-Carlo shards "
                        "(0 = all cores; output is identical for any value)")
    p.add_argument("--backend", choices=BACKEND_NAMES,
                   default="model",
                   help="execution engine: closed-form models (default), "
                        "vectorized wire replay, or full event simulation "
                        "(docs/PERFORMANCE.md)")
    p.add_argument("--per-link", action="store_true", dest="per_link",
                   help="also print per-link error curves (Figure 2c view)")
    p.add_argument("--json", action="store_true")
    _add_obs_flags(p)
    p.set_defaults(func=_cmd_figure2)

    p = sub.add_parser("figure3", help="Figure 3: storage over time")
    p.add_argument("--panel", choices=["a", "b", "c"], default="a")
    p.add_argument("--packets", type=int, default=2000)
    p.add_argument("--seed", type=int, default=0)
    p.add_argument("--json", action="store_true")
    _add_obs_flags(p)
    p.set_defaults(func=_cmd_figure3)

    p = sub.add_parser("example-rates", help="§7.2 in-text example")
    p.set_defaults(func=_cmd_example_rates)

    p = sub.add_parser("practicality", help="§9 practicality numbers")
    p.add_argument("--rate", type=float, default=100.0)
    p.set_defaults(func=_cmd_practicality)

    p = sub.add_parser(
        "comm-table", help="measured communication overhead (extension)"
    )
    p.add_argument("--packets", type=int, default=1500)
    p.add_argument("--seed", type=int, default=0)
    p.add_argument("--json", action="store_true")
    _add_obs_flags(p)
    p.set_defaults(func=_cmd_comm_table)

    p = sub.add_parser(
        "sweeps", help="measured Corollary 3 parameter sweeps (extension)"
    )
    p.add_argument("--runs", type=int, default=500)
    p.add_argument("--seed", type=int, default=0)
    p.set_defaults(func=_cmd_sweeps)

    p = sub.add_parser(
        "report", help="regenerate every table/figure into one report"
    )
    p.add_argument("--scale", choices=["smoke", "quick", "full"],
                   default="quick")
    p.add_argument("--seed", type=int, default=0)
    p.add_argument("--jobs", type=int, default=1,
                   help="worker processes for the report's experiments "
                        "(0 = all cores; the report is identical for any "
                        "value, only runtimes differ)")
    p.add_argument("--resume", type=str, default=None, metavar="FILE",
                   help="checkpoint file: skip experiments already recorded "
                        "there and persist each newly finished experiment "
                        "immediately")
    p.add_argument("--out", type=str, default=None)
    p.add_argument(
        "--metrics-out", type=str, default=None, dest="metrics_out",
        metavar="FILE",
        help="write per-experiment runtime + metrics telemetry (JSON)",
    )
    p.add_argument(
        "--trace-out", type=str, default=None, dest="trace_out",
        metavar="FILE", help="write per-round tracing spans (JSONL)",
    )
    p.add_argument("--max-attempts", type=int, default=1, dest="max_attempts",
                   help="attempts per experiment before the report fails; "
                        ">1 retries crashed/failed experiments on a fresh "
                        "worker pool (docs/ROBUSTNESS.md)")
    p.add_argument("--task-timeout", type=float, default=None,
                   dest="task_timeout", metavar="SECONDS",
                   help="per-round deadline after which unfinished "
                        "experiments are treated as failed and retried")
    p.set_defaults(func=_cmd_report)

    p = sub.add_parser(
        "chaos",
        help="run a named fault-injection matrix (docs/ROBUSTNESS.md)",
    )
    p.add_argument("--matrix", choices=["small", "full"], default="small")
    p.add_argument("--seed", type=int, default=0)
    p.add_argument("--packets", type=int, default=300,
                   help="data packets per cell")
    p.add_argument("--rate", type=float, default=50.0,
                   help="sending rate (packets/second)")
    p.add_argument("--protocols", type=lambda v: v.split(","), default=None,
                   metavar="NAME[,NAME...]",
                   help="restrict the matrix's protocol axis")
    p.add_argument("--out", type=str, default=None, metavar="FILE",
                   help="write the text report to FILE")
    p.add_argument("--json-out", type=str, default=None, dest="json_out",
                   metavar="FILE",
                   help="write the machine-readable report (JSON) to FILE")
    p.add_argument("--json", action="store_true",
                   help="print the JSON report to stdout")
    p.set_defaults(func=_cmd_chaos)

    p = sub.add_parser("ablation", help="Corollary / attack ablations")
    p.add_argument(
        "name",
        choices=["corollary1", "corollary2", "corollary3", "incrimination",
                 "burst", "window", "theorem1"],
    )
    p.add_argument("--packets", type=int, default=20000)
    p.add_argument("--seed", type=int, default=0)
    p.add_argument("--json", action="store_true")
    _add_obs_flags(p)
    p.set_defaults(func=_cmd_ablation)

    p = sub.add_parser(
        "audit",
        help="static determinism & crypto-boundary auditor (docs/AUDIT.md)",
    )
    from repro.audit.cli import configure_audit_parser

    configure_audit_parser(p)
    p.set_defaults(func=_cmd_audit)

    p = sub.add_parser(
        "netexp",
        help="network-scale detection: fused per-link verdicts over a "
             "mesh topology (docs/TOPOLOGY.md)",
    )
    p.add_argument("--topology",
                   choices=["line", "tree", "fat-tree", "random-regular"],
                   default="fat-tree",
                   help="graph family (see docs/TOPOLOGY.md for the size "
                        "semantics of each)")
    p.add_argument("--size", type=int, default=4,
                   help="family-specific size: line length, tree depth, "
                        "fat-tree k, or random-regular node count")
    p.add_argument("--degree", type=int, default=3,
                   help="node degree (random-regular only)")
    p.add_argument("--paths", type=int, default=8,
                   help="number of monitored routes")
    p.add_argument("--adversaries", type=int, default=1,
                   help="number of compromised topology links")
    p.add_argument("--adversary-rate", type=float, default=0.1,
                   dest="adversary_rate",
                   help="per-crossing adversarial drop rate beta")
    p.add_argument("--on-shared", action="store_true", dest="on_shared",
                   default=True,
                   help="place adversaries on the most-shared links "
                        "(default; the fusion showcase)")
    p.add_argument("--random-placement", action="store_false",
                   dest="on_shared",
                   help="place adversaries on seeded random links instead")
    p.add_argument("--protocol",
                   choices=["full-ack", "sig-ack", "paai1", "paai2",
                            "combo1", "combo2"],
                   default="paai2")
    p.add_argument("--rho", type=float, default=0.01,
                   help="per-link natural loss rate")
    p.add_argument("--horizon", type=int, default=10_000,
                   help="data packets per route")
    p.add_argument("--seed", type=int, default=0)
    p.add_argument("--shards", type=int, default=None,
                   help="route chunks for parallel execution (default: "
                        "one per 8 routes; output identical for any value)")
    p.add_argument("--jobs", type=int, default=1,
                   help="worker processes for the route shards "
                        "(0 = all cores; output is identical for any value)")
    p.add_argument("--json", action="store_true")
    _add_obs_flags(p)
    p.set_defaults(func=_cmd_netexp)

    p = sub.add_parser(
        "explain",
        help="reconstruct verdict evidence chains from a --ledger-out file",
    )
    p.add_argument("--ledger", type=str, required=True, metavar="FILE",
                   help="evidence-ledger JSONL written by --ledger-out")
    p.add_argument("--run", type=str, default=None, metavar="N",
                   help="render run N's full causal chain (default: list "
                        "every run's verdict)")
    p.set_defaults(func=_cmd_explain)

    p = sub.add_parser("obs", help="observability artifact tools")
    obs_sub = p.add_subparsers(dest="obs_command", required=True)
    ps = obs_sub.add_parser(
        "summary", help="summarize --metrics-out / --trace-out files"
    )
    ps.add_argument("--metrics", type=str, default=None, metavar="FILE",
                    help="metrics snapshot JSON to summarize")
    ps.add_argument("--trace", type=str, default=None, metavar="FILE",
                    help="round-span JSONL to summarize")
    ps.add_argument("--top", type=int, default=0,
                    help="only show the N largest counter series")
    ps.set_defaults(func=_cmd_obs)

    return parser


def main(argv: Optional[Sequence[str]] = None) -> int:
    parser = build_parser()
    args = parser.parse_args(argv)
    args.func(args)
    return 0


if __name__ == "__main__":
    sys.exit(main())
