"""Span tracer for the traced benchmark run.

The tracer wraps the public entry points of each ``repro`` layer from the
outside: class attributes and module-level names are swapped for timing
wrappers at install time and put back at uninstall. Nothing under
``src/`` is edited. Each wrapped call records a span (name, start, end,
parent, request id); self time is the span's duration minus the time its
child spans cover, accumulated per span name as spans close. Spans are
held in memory (up to :data:`SPAN_CAP`) and written out once at the end.

Only the traced run installs the tracer, so end-to-end figures never pay
for it.
"""

from __future__ import annotations

import functools
import importlib
import os
import sys
import time
from array import array

#: Spans kept for the span file. Per-layer totals cover every span; the
#: file keeps the first ones so it stays a few megabytes.
SPAN_CAP = 200_000

#: Layer time metric -> entry points wrapped for it. ``module:Class.attr``
#: wraps a class attribute (also every override of it in a subclass that
#: lives under ``repro``); ``module:func`` wraps a module-level function at
#: every ``repro`` module that imported it by name.
LAYERS = {
    "workloads.build_s": [
        "repro.workloads.scenarios:Scenario.build_protocol",
        "repro.workloads.scenarios:paper_scenario",
    ],
    "net.sim.self_s": [
        "repro.net.simulator:Simulator.__init__",
        "repro.net.simulator:Simulator.run",
        "repro.net.events:EventQueue.schedule",
        "repro.net.events:EventQueue.pop",
        "repro.net.events:EventHandle.cancel",
    ],
    "net.link.self_s": ["repro.net.link:Link.transmit"],
    "net.node.self_s": [
        "repro.net.node:Node.deliver",
        "repro.net.node:Node.send_forward",
        "repro.net.node:Node.send_backward",
    ],
    "protocols.agent.self_s": [
        "repro.protocols.base:WireProtocol.run_traffic",
        "repro.protocols.base:SourceAgent.send_data",
        "repro.net.node:Node.on_packet",
    ],
    "protocols.models.self_s": [
        "repro.protocols.models:build_model",
        "repro.protocols.models:calibrated_thresholds",
    ],
    "crypto.hmac.self_s": [
        "repro.crypto.mac:hmac_sha256",
        "repro.crypto.mac:mac",
        "repro.crypto.mac:verify_mac",
    ],
    "crypto.prf.self_s": [
        "repro.crypto.prf:PRF.digest",
        "repro.crypto.prf:HotPRF.digest",
        "repro.crypto.prf:HotPRF.fraction",
        "repro.crypto.prf:HotPRF.bernoulli",
    ],
    "crypto.onion.self_s": [
        "repro.crypto.onion:OnionVerifier.verify",
        "repro.crypto.onion:OnionReport.originate",
        "repro.crypto.onion:OnionReport.wrap",
    ],
    "crypto.oblivious.self_s": [
        "repro.crypto.oblivious:ObliviousDecoder.decode",
        "repro.crypto.oblivious:ObliviousReport.originate",
        "repro.crypto.oblivious:ObliviousReport.reencrypt",
    ],
    "crypto.cipher.self_s": [
        "repro.crypto.cipher:StreamCipher.encrypt",
        "repro.crypto.cipher:StreamCipher.decrypt",
    ],
    "core.identify_s": ["repro.protocols.base:WireProtocol.identify"],
    "fastpath.self_s": [
        "repro.net.fastpath:FastpathBackend.run",
        "repro.net.backend:EventBackend.run",
    ],
    "obs.ledger.self_s": ["repro.obs.ledger:EvidenceLedger.record"],
    "obs.registry.self_s": [
        "repro.obs.registry:MetricsRegistry.counter",
        "repro.obs.registry:MetricsRegistry.gauge",
        "repro.obs.registry:MetricsRegistry.histogram",
        "repro.obs.registry:MetricsRegistry.merge",
        "repro.obs.registry:CounterBatch.flush",
    ],
    "obs.export_s": [
        "repro.obs.ledger:EvidenceLedger.write_jsonl",
        "repro.obs.registry:MetricsRegistry.write_json",
    ],
    "mc.detection.self_s": ["repro.mc.detection:DetectionExperiment.run"],
    "mc.netexp.self_s": ["repro.mc.netexp:NetworkExperiment.run"],
    "parallel.run_tasks_s": ["repro.parallel.engine:run_tasks"],
    "metrics.curve.self_s": ["repro.metrics.confusion:curve_from_convictions"],
    "topology.fusion.self_s": ["repro.topology.fusion:fuse_route_evidence"],
    "topology.build_s": [
        "repro.topology.graph:build_topology",
        "repro.topology.graph:generate_routes",
        "repro.topology.graph:most_shared_links",
        "repro.topology.graph:Topology.compromise_link",
    ],
}

#: Shard functions handed to ``run_tasks`` are traced under the layer of
#: the module that defines them. Only serial (``jobs=1``) calls get the
#: wrapper: a pool pickles the function by import path.
TASK_LAYERS = {
    "repro.mc.detection": "mc.detection.self_s",
    "repro.mc.netexp": "mc.netexp.self_s",
}

#: Layer of the benchmark's own root spans (set-up and requests).
HARNESS = "bench"

#: Span names whose call counts the per-layer counts read.
HMAC_PRIMITIVE = "crypto.hmac:hmac_sha256"
PRF_EVALUATIONS = (
    "crypto.prf:PRF.digest",
    "crypto.prf:HotPRF.digest",
    "crypto.prf:HotPRF.bernoulli",
)


class Tracer:
    """In-memory span recorder with online self-time accounting."""

    def __init__(self) -> None:
        self.on = False
        self.request = -1
        self.names: list = []
        self.layer_of: list = []
        self._ids: dict = {}
        self.self_s: list = []
        self.calls: list = []
        # Open spans: [span id, name id, start, child time].
        self._stack: list = []
        #: Spans recorded so far (ids run from 0).
        self.recorded = 0
        self.span_name = array("i")
        self.span_parent = array("i")
        self.span_request = array("i")
        self.span_start = array("d")
        self.span_end = array("d")
        self.span_id = array("q")
        # Objects whose public counters are read after each request.
        self.simulators: list = []
        self.protocols: list = []
        self.fastpath_runs = [0, 0, 0]  # runs requested, kept, rounds
        self.task_payloads = 0
        self.task_results: list = []
        self.heap_peak = 0
        #: Summed duration of the root spans: the traced wall time.
        self.root_wall = 0.0
        self._undo: list = []
        os.register_at_fork(after_in_child=self._forked)

    def _forked(self) -> None:
        # Pool workers inherit the wrappers; their spans would be lost.
        self.on = False

    def name_id(self, name: str, layer: str) -> int:
        if name not in self._ids:
            self._ids[name] = len(self.names)
            self.names.append(name)
            self.layer_of.append(layer)
            self.self_s.append(0.0)
            self.calls.append(0)
        return self._ids[name]

    def layer_totals(self) -> dict:
        """Self seconds per layer since the last :meth:`reset`, without
        the benchmark's own root spans."""
        totals: dict = {}
        for name_id, seconds in enumerate(self.self_s):
            layer = self.layer_of[name_id]
            if layer != HARNESS:
                totals[layer] = totals.get(layer, 0.0) + seconds
        return totals

    def reset(self) -> None:
        """Zero the per-name self times and call counts."""
        self.self_s = [0.0] * len(self.names)
        self.calls = [0] * len(self.names)

    def calls_of(self, name: str) -> int:
        index = self._ids.get(name)
        return 0 if index is None else self.calls[index]

    # -- spans ---------------------------------------------------------------

    def enter(self, name_id: int) -> None:
        self._stack.append([self.recorded, name_id, time.perf_counter(), 0.0])
        self.recorded += 1

    def exit(self) -> None:
        end = time.perf_counter()
        span, name_id, start, child = self._stack.pop()
        duration = end - start
        self.self_s[name_id] += duration - child
        self.calls[name_id] += 1
        stack = self._stack
        if stack:
            stack[-1][3] += duration
        if span < SPAN_CAP:
            # Spans close in post-order; the file sorts them back by id.
            self.span_name.append(name_id)
            self.span_parent.append(stack[-1][0] if stack else -1)
            self.span_request.append(self.request)
            self.span_start.append(start)
            self.span_end.append(end)
            self.span_id.append(span)

    def root(self, name: str, request: int):
        """Context manager for a benchmark root span (set-up, request)."""
        return _Root(self, self.name_id(f"{HARNESS}:{name}", HARNESS), request)

    # -- install -------------------------------------------------------------

    def wrap(self, fn, name: str, layer: str, after=None, before=None):
        name_id = self.name_id(name, layer)
        tracer = self

        @functools.wraps(fn)
        def traced(*args, **kwargs):
            if not tracer.on:
                return fn(*args, **kwargs)
            if before is not None:
                args, kwargs = before(args, kwargs)
            tracer.enter(name_id)
            try:
                result = fn(*args, **kwargs)
            finally:
                tracer.exit()
            if after is not None:
                after(args, kwargs, result)
            return result

        return traced

    def install(self) -> list:
        """Wrap every entry point in :data:`LAYERS`; returns the targets
        that no longer exist (their time falls to the calling layer)."""
        hooks = self._hooks()
        missing = []
        for layer, targets in LAYERS.items():
            short = layer.rsplit(".", 1)[0]
            for target in targets:
                module_name, _, path = target.partition(":")
                cls_name, _, attr = path.rpartition(".")
                try:
                    owner = importlib.import_module(module_name)
                    if cls_name:
                        owner = getattr(owner, cls_name)
                    fn = getattr(owner, attr)
                except (ImportError, AttributeError):
                    missing.append(target)
                    continue
                if cls_name:
                    self._wrap_class(owner, attr, short, layer, hooks.get(path, (None, None)))
                else:
                    self._wrap_function(fn, short, layer, hooks.get(path, (None, None)))
        return missing

    def uninstall(self) -> None:
        self.on = False
        for owner, attr, original in reversed(self._undo):
            setattr(owner, attr, original)
        self._undo.clear()

    def _patch(self, owner, attr, value) -> None:
        self._undo.append((owner, attr, owner.__dict__[attr]))
        setattr(owner, attr, value)

    def _wrap_class(self, base, attr, short, layer, hooks) -> None:
        for cls in [base, *_subclasses(base)]:
            if attr not in cls.__dict__ or not cls.__module__.startswith("repro"):
                continue
            raw = cls.__dict__[attr]
            kind = type(raw) if isinstance(raw, (staticmethod, classmethod)) else None
            fn = raw.__func__ if kind else raw
            wrapped = self.wrap(fn, f"{short}:{cls.__name__}.{attr}", layer, *hooks)
            self._patch(cls, attr, kind(wrapped) if kind else wrapped)

    def _wrap_function(self, fn, short, layer, hooks) -> None:
        wrapped = self.wrap(fn, f"{short}:{fn.__name__}", layer, *hooks)
        for module_name, module in list(sys.modules.items()):
            if not module_name.startswith("repro") or module is None:
                continue
            for attr, value in list(vars(module).items()):
                if value is fn:
                    self._patch(module, attr, wrapped)

    def _hooks(self) -> dict:
        """``(after, before)`` hooks: after-call hooks read public state
        at a boundary; ``run_tasks``'s before-hook traces serial shards."""

        def simulator_built(args, kwargs, result):
            self.simulators.append(args[0])

        def scheduled(args, kwargs, result):
            self.heap_peak = max(self.heap_peak, args[0].size())

        def protocol_built(args, kwargs, result):
            self.protocols.append(result)

        def backend_ran(args, kwargs, result):
            request = args[1]
            kept = result.engines.count("fastpath")
            self.fastpath_runs[0] += request.runs
            self.fastpath_runs[1] += kept
            self.fastpath_runs[2] += kept * request.checkpoints[-1]

        def tasks_ran(args, kwargs, result):
            self.task_payloads += len(result)
            self.task_results.append(result)

        def serial_shards(args, kwargs):
            from repro.parallel.engine import resolve_jobs

            func, payloads, *rest = args
            jobs = rest[0] if rest else kwargs.get("jobs", 1)
            layer = TASK_LAYERS.get(getattr(func, "__module__", ""))
            if layer is not None and resolve_jobs(jobs) == 1:
                short = layer.rsplit(".", 1)[0]
                func = self.wrap(func, f"{short}:{func.__name__}", layer)
            return (func, payloads, *rest), kwargs

        return {
            "Simulator.__init__": (simulator_built, None),
            "EventQueue.schedule": (scheduled, None),
            "Scenario.build_protocol": (protocol_built, None),
            "FastpathBackend.run": (backend_ran, None),
            "run_tasks": (tasks_ran, serial_shards),
        }

    # -- export --------------------------------------------------------------

    def write(self, path: str) -> int:
        """Write the kept spans as TSV, ordered by span id."""
        order = sorted(range(len(self.span_id)), key=self.span_id.__getitem__)
        with open(path, "w") as handle:
            handle.write("span\tparent\trequest\tname\tlayer\tstart\tend\n")
            for index in order:
                name_id = self.span_name[index]
                handle.write(
                    f"{self.span_id[index]}\t{self.span_parent[index]}\t"
                    f"{self.span_request[index]}\t{self.names[name_id]}\t"
                    f"{self.layer_of[name_id]}\t{self.span_start[index]!r}\t"
                    f"{self.span_end[index]!r}\n"
                )
        return len(order)


class _Root:
    """Tracing is on only inside a root span."""

    def __init__(self, tracer: Tracer, name_id: int, request: int) -> None:
        self.tracer = tracer
        self.name_id = name_id
        self.request_id = request
        self.started = 0.0

    def __enter__(self):
        tracer = self.tracer
        tracer.request = self.request_id
        tracer.on = True
        self.started = time.perf_counter()
        tracer.enter(self.name_id)
        return self

    def __exit__(self, *exc) -> None:
        tracer = self.tracer
        tracer.exit()
        tracer.root_wall += time.perf_counter() - self.started
        tracer.on = False
        tracer.request = -1


def _subclasses(cls) -> list:
    found = []
    for sub in cls.__subclasses__():
        found.append(sub)
        found.extend(_subclasses(sub))
    return found
