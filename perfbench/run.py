"""Run one benchmark workload and print its metrics.

Usage (from the repository root)::

    python3 perfbench/run.py --workload stream-event --seed 1 --seconds 30 --trace 0

``--trace 0`` measures the end-to-end metrics with nothing wrapped.
``--trace 1`` is a separate run that wraps each layer's entry points
(``perfbench/spans.py``) and reports the per-layer split, its coverage
of the traced wall time, and the tracing overhead measured on the same
requests run traced and untraced in alternation. Either way the last line of standard output
is one JSON object: ``correct``, ``attempted``, ``failed``, ``metrics``.
``--size tiny`` shrinks every request for the smoke test.
"""

from __future__ import annotations

import argparse
import hashlib
import json
import pickle
import platform
import resource
import statistics
import subprocess
import sys
import time
from pathlib import Path

from workloads import WORKLOADS, Outcome, nproc

ROOT = Path(__file__).resolve().parent.parent
OUT_DIR = ROOT / ".perfbench-out"
BENCHMARK = ROOT / "BENCHMARK.json"

#: Fresh interpreters timed for ``setup_s``; the median is reported.
SETUP_PROBES = 7
#: Samples that must lie beyond the reported tail percentile.
TAIL_BEYOND = 10


def units() -> dict:
    spec = json.loads(BENCHMARK.read_text())
    return {m["name"]: m["unit"] for m in spec["end_to_end"] + spec["per_layer"]}


class Tally:
    """Requests attempted, failures, and the fixed verdict set."""

    def __init__(self, workload) -> None:
        self.workload = workload
        self.attempted = 0
        self.failures: list = []
        self.latencies: list = []
        self.by_kind: dict = {}
        self.cycle_rates: list = []
        self.verdicts: dict = {}

    def run(self, index: int, jobs=None) -> tuple:
        """Issue request ``index``; returns its outcome and latency."""
        self.attempted += 1
        started = time.perf_counter()
        try:
            raw = self.workload.request(index, jobs)
        except Exception as exc:  # a failed request is counted, not fatal
            latency = time.perf_counter() - started
            outcome = Outcome(problem=f"{type(exc).__name__}: {exc}")
        else:
            latency = time.perf_counter() - started
            try:
                outcome = self.workload.summarize(index, raw)
            except Exception as exc:
                outcome = Outcome(problem=f"summary {type(exc).__name__}: {exc}")
        if index < self.workload.verdict_requests:
            self.verdicts.setdefault(index, outcome)
        if outcome.problem is not None:
            self.failures.append(f"request {index}: {outcome.problem}")
        return outcome, latency

    def loop(self, seconds: float, on_done=None) -> int:
        """Closed loop over whole cycles until ``seconds`` have passed."""
        cycle = len(self.workload.cycle)
        started = time.perf_counter()
        index = 0
        packets = busy = 0.0
        failed = False
        while index % cycle or time.perf_counter() - started < seconds:
            outcome, latency = self.run(index)
            if outcome.problem is None:
                self.latencies.append(latency)
                kind = self.workload.cycle[index % cycle]
                self.by_kind.setdefault(kind, []).append(latency)
            failed = failed or outcome.problem is not None
            packets += outcome.packets
            busy += latency
            if on_done is not None:
                on_done(index, outcome, latency)
            index += 1
            if index % cycle == 0:
                if not failed:
                    self.cycle_rates.append(packets / busy)
                packets = busy = 0.0
                failed = False
        return index

    def complete_verdicts(self, done: int) -> None:
        """Run, untimed, verdict-set requests the timed loop did not reach."""
        for index in range(done, self.workload.verdict_requests):
            self.run(index)

    def checks(self, done: int) -> None:
        """The workload's sampled re-runs; each failed check counts."""
        try:
            problems = self.workload.final_checks(done)
        except Exception as exc:
            problems = [f"check raised {type(exc).__name__}: {exc}"]
        self.attempted += max(1, len(problems))
        self.failures.extend(f"check: {problem}" for problem in problems)

    def verdict_summary(self):
        outcomes = [self.verdicts[i] for i in sorted(self.verdicts)]
        digest = hashlib.sha256()
        for outcome in outcomes:
            digest.update(outcome.material)
            digest.update(b"\0")
        links_ok = sum(o.links_ok for o in outcomes)
        links = sum(o.links for o in outcomes)
        exact = sum(o.exact for o in outcomes)
        runs = sum(o.runs for o in outcomes)
        return digest.hexdigest(), links_ok, links, exact, runs


def tail(latencies: list):
    """Highest percentile with ``TAIL_BEYOND`` samples beyond it."""
    ordered = sorted(latencies)
    n = len(ordered)
    if n <= TAIL_BEYOND:
        return ordered[-1], 100.0
    return ordered[n - TAIL_BEYOND - 1], 100.0 * (n - TAIL_BEYOND) / n


def cpu_ticks():
    """Host CPU counters (user..steal) from ``/proc/stat``, or None."""
    try:
        with open("/proc/stat") as handle:
            return [int(field) for field in handle.readline().split()[1:9]]
    except (OSError, ValueError):
        return None


def steal_share(before, after) -> str:
    """Steal: the share of CPU time the hypervisor gave to other guests."""
    if before is None or after is None:
        return "unavailable"
    delta = [b - a for a, b in zip(before, after)]
    return f"{100.0 * delta[7] / max(sum(delta), 1):.1f}%"


def peak_rss_mb() -> float:
    own = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss
    workers = resource.getrusage(resource.RUSAGE_CHILDREN).ru_maxrss
    return max(own, workers) / 1024.0


def probe_setup(args) -> float:
    """Set-up time of one fresh interpreter (import plus builds)."""
    command = [
        sys.executable, str(Path(__file__).resolve()),
        "--workload", args.workload, "--seed", str(args.seed),
        "--size", args.size, "--setup-probe",
    ]
    done = subprocess.run(
        command, capture_output=True, text=True, timeout=120, check=True
    )
    return float(done.stdout.split()[-1])


def machine() -> str:
    import numpy

    return (
        f"nproc={nproc()} python={platform.python_version()} "
        f"numpy={numpy.__version__} machine={platform.machine()}"
    )


def untraced(args, workload) -> tuple:
    workload.warm()
    tally = Tally(workload)
    ticks = cpu_ticks()
    done = tally.loop(args.seconds)
    steal = steal_share(ticks, cpu_ticks())
    rss = peak_rss_mb()
    tally.complete_verdicts(done)
    tally.checks(done)
    setup = statistics.median(probe_setup(args) for _ in range(SETUP_PROBES))
    digest, links_ok, links, exact, runs = tally.verdict_summary()
    n = len(tally.latencies)
    tail_s, tail_pct = tail(tally.latencies) if n else (float("nan"), 0.0)
    metrics = {
        "setup_s": setup,
        "sim_pkts_per_s": statistics.median(tally.cycle_rates) if tally.cycle_rates else 0.0,
        "latency_p50_ms": statistics.median(tally.latencies) * 1e3 if n else float("nan"),
        "latency_tail_ms": tail_s * 1e3,
        "peak_rss_mb": rss,
        "success_ratio": 1.0 - len(tally.failures) / tally.attempted,
        "verdict_accuracy": links_ok / links if links else 0.0,
    }
    print(
        f"timed requests={done} ok={n} busy_s={sum(tally.latencies)!r} "
        f"host CPU steal during the loop={steal}"
    )
    print(
        f"latency_tail_ms is p{tail_pct:.2f} of {n} samples "
        f"({TAIL_BEYOND if n > TAIL_BEYOND else 0} beyond it)"
    )
    for kind, values in tally.by_kind.items():
        print(
            f"  {kind:<10} n={len(values)} p50_ms={statistics.median(values) * 1e3:.3f} "
            f"max_ms={max(values) * 1e3:.3f}"
        )
    print(f"error_rate={len(tally.failures)}/{tally.attempted}")
    print(
        f"verdict set: {len(tally.verdicts)} requests, {links_ok}/{links} "
        f"link verdicts correct, exact_verdict_ratio={exact}/{runs}"
    )
    print(f"verdict_digest=sha256:{digest}")
    return tally, metrics


def traced(args, workload) -> tuple:
    import spans

    tracer = spans.Tracer()
    for target in tracer.install():
        print(f"entry point not found, not traced: {target}")
    counts = dict.fromkeys(
        ("events", "transmissions", "rounds", "packets", "result_bytes"), 0
    )

    def collect(index, outcome, latency) -> None:
        counts["packets"] += outcome.packets
        counts["events"] += sum(s.events_processed for s in tracer.simulators)
        for wire in tracer.protocols:
            counts["rounds"] += wire.board.rounds
            counts["transmissions"] += sum(
                link.stats.total_transmissions() for link in wire.path.links
            )
        for result in tracer.task_results:
            counts["result_bytes"] += len(pickle.dumps(result))
        tracer.simulators.clear()
        tracer.protocols.clear()
        tracer.task_results.clear()

    with tracer.root("setup", -1):
        workload.setup(args.seed)
    setup_layers = tracer.layer_totals()
    tracer.reset()
    tracer.simulators.clear()
    tracer.protocols.clear()
    workload.warm()

    tally = Tally(_Rooted(workload, tracer))
    done = tally.loop(args.seconds, collect)
    serial = 0
    if workload.serial_pass:
        for index in range(len(workload.cycle)):
            outcome, latency = tally.run(index, jobs=1)
            collect(index, outcome, latency)
            serial += 1
    tracer.uninstall()
    tally.workload = workload
    layers = tracer.layer_totals()

    requests = done + serial
    wall = tracer.root_wall
    covered = sum(layers.values()) + sum(setup_layers.values())
    calls = tracer.calls_of
    scheduled = calls("net.sim:EventQueue.schedule")
    hmac = calls(spans.HMAC_PRIMITIVE)
    packets = max(counts["packets"], 1)
    fast_requested, fast_kept, fast_rounds = tracer.fastpath_runs
    metrics = {layer: layers.get(layer, 0.0) / requests for layer in spans.LAYERS}
    metrics["topology.build_s"] = setup_layers.get("topology.build_s", 0.0)
    metrics.update(
        {
            "net.sim.events": counts["events"] / requests,
            "net.sim.events_per_pkt": counts["events"] / packets,
            "net.events.heap_peak": tracer.heap_peak,
            "net.events.live_ratio": counts["events"] / scheduled if scheduled else 0.0,
            "net.link.transmissions": counts["transmissions"] / requests,
            "net.node.deliveries": calls("net.node:Node.deliver") / requests,
            "protocols.rounds": counts["rounds"] / requests,
            "crypto.hmac.calls": hmac / requests,
            "crypto.hmac.calls_per_pkt": hmac / packets,
            "crypto.prf.calls": sum(calls(n) for n in spans.PRF_EVALUATIONS) / requests,
            "fastpath.rounds": fast_rounds / requests,
            "fastpath.hit_ratio": fast_kept / fast_requested if fast_requested else 0.0,
            "obs.ledger.entries": calls("obs.ledger:EvidenceLedger.record") / requests,
            "parallel.tasks": tracer.task_payloads / requests,
            "parallel.result_bytes": counts["result_bytes"] / requests,
            "trace.wall_s": wall,
            "trace.layer_sum_ratio": covered / wall,
            "trace.requests": requests,
        }
    )

    # Tracing overhead: the first requests again, each traced and then
    # untraced, so that drift in machine speed hits both sides alike.
    pairs = Tally(workload)
    rooted = Tally(_Rooted(workload, tracer))
    overhead = [0.0, 0.0]
    index = 0
    while sum(overhead) < args.seconds / 3 or index % len(workload.cycle):
        tracer.install()
        _, traced_s = rooted.run(index)
        tracer.uninstall()
        _, untraced_s = pairs.run(index)
        overhead[0] += traced_s
        overhead[1] += untraced_s
        index += 1
    metrics["trace.overhead_ratio"] = overhead[0] / overhead[1]
    for extra in (pairs, rooted):
        tally.failures.extend(extra.failures)
        tally.attempted += extra.attempted
    tally.checks(done)

    OUT_DIR.mkdir(exist_ok=True)
    span_file = OUT_DIR / f"{workload.name}-seed{args.seed}.spans.tsv"
    kept = tracer.write(str(span_file))
    print(f"traced requests={requests} (serial pass {serial}) wall_s={wall!r}")
    print("per-layer self time (s per request; set-up is the traced set-up):")
    for layer in spans.LAYERS:
        share = layers.get(layer, 0.0) + setup_layers.get(layer, 0.0)
        print(
            f"  {layer:<24} {layers.get(layer, 0.0) / requests:>12.6f} s/req  "
            f"set-up {setup_layers.get(layer, 0.0):.6f} s  "
            f"{100.0 * share / wall:6.2f}% of traced wall"
        )
    harness = wall - covered
    print(f"  {'(harness, unattributed)':<24} {harness:>12.6f} s total")
    print(
        f"layer self times cover {100.0 * covered / wall:.2f}% of traced wall "
        f"(acceptance: >= 90%)"
    )
    print(
        f"tracing overhead: traced {overhead[0]!r} s vs untraced {overhead[1]!r} s "
        f"for the same first {index} requests, alternating "
        f"= {metrics['trace.overhead_ratio']:.3f}x"
    )
    print(f"spans: {kept} of {tracer.recorded} written to {span_file}")
    return tally, metrics


class _Rooted:
    """The workload, with each request inside a traced root span."""

    def __init__(self, workload, tracer) -> None:
        self._workload = workload
        self._tracer = tracer

    def __getattr__(self, name):
        return getattr(self._workload, name)

    def request(self, index, jobs=None):
        with self._tracer.root("request", index):
            return self._workload.request(index, jobs)


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n")[0])
    parser.add_argument("--workload", required=True, choices=sorted(WORKLOADS))
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, default=10.0)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--size", choices=("full", "tiny"), default="full")
    parser.add_argument("--setup-probe", action="store_true", help=argparse.SUPPRESS)
    args = parser.parse_args(argv)

    if not (ROOT / "src" / "repro").is_dir():
        print(f"error: no program source at {ROOT / 'src' / 'repro'}", file=sys.stderr)
        return 2
    sys.path.insert(0, str(ROOT / "src"))
    workload = WORKLOADS[args.workload](args.size == "tiny", str(OUT_DIR))

    if args.setup_probe:
        started = time.perf_counter()
        workload.setup(args.seed)
        print(repr(time.perf_counter() - started))
        return 0

    known = units()
    workload.setup(args.seed)
    print(
        f"workload={args.workload} seed={args.seed} seconds={args.seconds} "
        f"trace={args.trace} size={args.size} closed-loop clients=1"
    )
    print(f"machine {machine()}")
    tally, metrics = (traced if args.trace else untraced)(args, workload)
    for problem in tally.failures:
        print(f"FAILED {problem}", file=sys.stderr)
    for name, value in metrics.items():
        print(f"metric {name} = {value!r} {known[name]}")
    print(
        json.dumps(
            {
                "correct": not tally.failures,
                "attempted": tally.attempted,
                "failed": len(tally.failures),
                "metrics": {
                    name: {"value": value, "unit": known[name]}
                    for name, value in metrics.items()
                },
            }
        )
    )
    return 0


if __name__ == "__main__":
    sys.exit(main())
