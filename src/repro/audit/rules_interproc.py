"""Call-chain DET/ST rules: a direct use is a chain of length 0.

Each rule walks the project call graph (:mod:`repro.audit.graph`) from
every function and module body in its scope and flags every path to a
banned sink. A sink used by the start itself is a chain of length 0 and
anchors at the use; a sink hidden behind helpers — ``repro.mc`` calling a
utility that calls another utility that calls ``time.time()`` — anchors
at the first hop, where the nondeterminism enters the caller. Either
way the host's wall clock or entropy leaks into a simulated experiment,
which is exactly what the identification guarantees (PAPER.md §7: the
Hoeffding bounds assume bit-reproducible trials) cannot tolerate.

Sinks are *uses*, not only calls: ``os.urandom`` passed as a default
value draws entropy as surely as ``os.urandom(16)``.

A sink line carrying the rule's own ``# repro: allow(<id>)`` is
sanctioned for every caller too (e.g. the injectable ``os.urandom``
default in ``repro.crypto.cipher``) — an excused line is excused, not a
back door.
"""

from __future__ import annotations

from typing import Iterator, List, Optional

from repro.audit.engine import Finding, ProjectRule
from repro.audit.graph import (
    CallSite,
    FunctionNode,
    ProjectIndex,
    find_sink_chains,
)
from repro.audit.rules_determinism import (
    ENTROPY_SOURCES,
    MONOTONIC_CLOCK,
    SIM_SCOPE,
    TELEMETRY_SCOPE,
    WALL_CLOCK,
    is_global_random,
)


def _in_scope(module: str, prefixes) -> bool:
    return any(
        module == prefix or module.startswith(prefix + ".")
        for prefix in prefixes
    )


class _ChainRule(ProjectRule):
    """Shared walk: one subclass per sink family."""

    family = "interproc"
    #: Module prefixes whose functions start a walk; ``None`` = every file.
    start_scope: Optional[tuple] = None
    #: Message tail for a length-0 finding: "`<sink>` <does>".
    does = ""

    def sink_name(self, use: CallSite, holder: FunctionNode) -> Optional[str]:
        raise NotImplementedError

    def check_project(self, index: ProjectIndex) -> Iterator[Finding]:
        def is_sink(use: CallSite, holder: FunctionNode) -> Optional[str]:
            facts = index.facts_for(holder.module)
            if facts is not None and facts.allows(use.lineno, [self.id]):
                return None
            return self.sink_name(use, holder)

        for start in index.iter_functions():
            if self.start_scope and not _in_scope(start.module, self.start_scope):
                continue
            for chain, sink, holder, anchor in find_sink_chains(
                index, start, is_sink
            ):
                yield Finding(
                    rule=self.id,
                    path=index.facts_for(start.module).path,
                    line=anchor.lineno,
                    col=anchor.col,
                    message=self._message(chain, sink, holder),
                )

    def _message(self, chain: List[str], sink: CallSite, holder: FunctionNode) -> str:
        if len(chain) == 1:
            return f"`{sink.target}` {self.does}"
        path = " -> ".join([*chain, f"{sink.target}()"])
        return (
            f"call chain reaches `{sink.target}` "
            f"({holder.module}:{sink.lineno}): {path}"
        )


class ClockRule(_ChainRule):
    """ST002 — repro code reaches a host clock, directly or transitively."""

    id = "ST002"
    summary = "host clock use in repro code, directly or through a call chain"
    rationale = (
        "Simulated components read `SimClock`/`NodeClock` "
        "(repro.net.clock): any `time`/`datetime` use inside "
        f"{', '.join(SIM_SCOPE)}, a wall clock anywhere, or a monotonic "
        "timer outside telemetry scope "
        f"({', '.join(TELEMETRY_SCOPE)}) ties timestamp freshness (§5), "
        "probe pacing and ack deadlines to the host running the "
        "simulation. A helper chain ending there feeds the host clock in "
        "exactly as a direct read would."
    )
    start_scope = ("repro",)
    does = "reads a host clock; use the simulation clock (`repro.net.clock`)"

    def sink_name(self, use: CallSite, holder: FunctionNode) -> Optional[str]:
        target = use.target
        if _in_scope(holder.module, SIM_SCOPE) and target.startswith(
            ("time.", "datetime.")
        ):
            return target
        if target in WALL_CLOCK:
            return target
        if target in MONOTONIC_CLOCK and not _in_scope(
            holder.module, TELEMETRY_SCOPE
        ):
            return target
        return None


class EntropyRule(_ChainRule):
    """DET005 — code reaches global RNG or ambient entropy, directly or
    transitively."""

    id = "DET005"
    summary = "global RNG or ambient entropy use, directly or through a call chain"
    rationale = (
        "Global `random.*`/`numpy.random.*` state and ambient entropy "
        "(`os.urandom`, `uuid.uuid4`, `secrets`) are shared, unseeded "
        "and process-local: parallel workers draw different values than "
        "a serial run, breaking the byte-identical `--jobs N` guarantee "
        "no matter how many helpers deep they hide. Draw from an injected "
        "`repro.net.rng.RngFactory` stream instead."
    )
    does = (
        "draws global RNG state or ambient entropy; use a seeded "
        "`RngFactory` stream"
    )

    def sink_name(self, use: CallSite, holder: FunctionNode) -> Optional[str]:
        target = use.target
        if (
            is_global_random(target)
            or target in ENTROPY_SOURCES
            or target.startswith("secrets.")
        ):
            return target
        return None


RULES = (EntropyRule(), ClockRule())
