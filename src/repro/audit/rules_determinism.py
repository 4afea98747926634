"""Determinism rules (DET*): RNG state bound at module scope (DET002).

This module also owns the scope and sink tables for global RNG state,
wall clocks and ambient entropy; uses of those sinks, direct or
transitive, are the call-chain rules' findings
(:mod:`repro.audit.rules_interproc`). DET002 has no call-chain form and
stays a per-file rule here.

The invariant these protect: every random draw and every timestamp inside
an experiment must derive from the experiment seed (via
:class:`repro.net.rng.RngFactory` streams) or from the simulation clock
(:mod:`repro.net.clock`). That is precisely what makes ``--jobs N``
byte-identical to a serial run (``docs/PARALLEL.md``) — worker processes
share neither the interpreter's global ``random`` state nor its wall
clock, so any code touching those diverges between serial and parallel
execution, and between repeated runs.
"""

from __future__ import annotations

import ast
from typing import Iterator

from repro.audit.engine import Finding, ModuleContext, Rule

#: Simulator scope: code that runs *inside* a simulated experiment.
#: These modules may touch neither the wall clock nor global RNG state;
#: they receive injected streams and read the simulation clock.
#: ``repro.topology`` is in scope because mesh wiring and per-route
#: code execute inside the shared simulator's event loop.
SIM_SCOPE = (
    "repro.net",
    "repro.protocols",
    "repro.adversary",
    "repro.faults",
    "repro.mc",
    "repro.topology",
    "repro.workloads",
)

#: Telemetry scope: code that measures the *host* (runtimes, per-call
#: latencies). Monotonic timers are allowed here — and only here.
TELEMETRY_SCOPE = (
    "repro.obs",
    "repro.experiments",
    "repro.parallel",
    "repro.crypto",
    "repro.audit",
    "repro.cli",
)

#: ``random``-module functions that mutate/read the interpreter's hidden
#: global Mersenne Twister. Constructing ``random.Random(seed)`` is fine.
GLOBAL_RANDOM_FUNCTIONS = frozenset(
    f"random.{name}"
    for name in (
        "betavariate", "choice", "choices", "expovariate", "gauss",
        "getrandbits", "getstate", "lognormvariate", "normalvariate",
        "paretovariate", "randbytes", "randint", "random", "randrange",
        "sample", "seed", "setstate", "shuffle", "triangular", "uniform",
        "vonmisesvariate", "weibullvariate",
    )
)

#: ``numpy.random`` attributes that are *not* the legacy global state:
#: explicit generator/bit-generator constructors with injected seeds.
NUMPY_RANDOM_SAFE = frozenset(
    {"default_rng", "Generator", "SeedSequence", "RandomState",
     "BitGenerator", "PCG64", "PCG64DXSM", "Philox", "SFC64", "MT19937"}
)

#: Wall-clock reads: non-monotonic, steppable by NTP, never seed-derived.
WALL_CLOCK = frozenset(
    {
        "time.time", "time.time_ns", "time.ctime", "time.localtime",
        "time.gmtime", "time.strftime", "time.asctime",
        "datetime.datetime.now", "datetime.datetime.utcnow",
        "datetime.datetime.today", "datetime.date.today",
    }
)

#: Monotonic timers: safe for measuring elapsed host time in telemetry.
MONOTONIC_CLOCK = frozenset(
    {
        "time.monotonic", "time.monotonic_ns", "time.perf_counter",
        "time.perf_counter_ns", "time.process_time", "time.process_time_ns",
        "time.thread_time", "time.thread_time_ns",
    }
)

#: Ambient-entropy sources: fresh randomness on every call, unseedable.
ENTROPY_SOURCES = frozenset(
    {"os.urandom", "os.getrandom", "uuid.uuid1", "uuid.uuid4",
     "random.SystemRandom"}
)


def is_global_random(qualified: str) -> bool:
    if qualified in GLOBAL_RANDOM_FUNCTIONS:
        return True
    if qualified.startswith("numpy.random."):
        return qualified.rsplit(".", 1)[1] not in NUMPY_RANDOM_SAFE
    return False


class ModuleRngStateRule(Rule):
    """DET002 — module-level RNG instances (hidden shared state)."""

    id = "DET002"
    family = "determinism"
    summary = "RNG instance created at module scope"
    rationale = (
        "A `random.Random()` / `numpy.random.default_rng()` bound at "
        "import time is shared by every experiment in the process and "
        "consumed in whatever order callers happen to run — stream "
        "independence (docs/PARALLEL.md) requires per-component streams "
        "derived from the experiment seed."
    )

    _CONSTRUCTORS = frozenset(
        {"random.Random", "numpy.random.default_rng",
         "numpy.random.RandomState"}
    )

    def check(self, ctx: ModuleContext) -> Iterator[Finding]:
        for stmt in ctx.tree.body:
            if isinstance(stmt, ast.Assign):
                value = stmt.value
            elif isinstance(stmt, ast.AnnAssign) and stmt.value is not None:
                value = stmt.value
            else:
                continue
            if not isinstance(value, ast.Call):
                continue
            qualified = ctx.resolve(value.func)
            if qualified in self._CONSTRUCTORS:
                yield self.finding(
                    ctx,
                    stmt,
                    f"module-level `{qualified}(...)` creates shared RNG "
                    "state; derive a stream per component from the "
                    "experiment's `RngFactory`",
                )


RULES = (ModuleRngStateRule(),)
