"""Verdict provenance: the append-only evidence ledger.

The deliverable of every protocol in the paper is a *verdict* — which
link dropped the packets. The metrics registry says how much work a run
did and the trace collector says what each packet experienced, but
neither records *why the source convicted link 4*: which estimate crossed
which threshold at which checkpoint, whether the Hoeffding interval had
cleared, whether an earlier accusation was later withdrawn. The evidence
ledger closes that gap: a structured, append-only record emitted at every
identification decision point, exportable as JSONL and reconstructable
into a human-readable causal chain (``repro-aai explain``).

Design rules, mirroring :mod:`repro.obs.registry`:

1. **Off by default, near-zero when off.** The active ledger defaults to
   a shared :class:`NullLedger` whose :meth:`~EvidenceLedger.record` is a
   no-op; emission sites gate on ``ledger.enabled`` (one attribute load)
   before building any entry payload.
2. **Deterministic content.** Entries carry no wall-clock timestamps and
   no engine identity — only seed-derived quantities (estimates,
   thresholds, simulated times, round counts) plus a per-ledger emission
   sequence number. Two engines replaying the same seed must emit
   byte-identical JSONL; the fastpath/event equivalence gate asserts
   exactly that.
3. **Append-only.** Entries are never mutated or removed; ``seq`` is the
   total order of emission.

Entry kinds emitted by the shipped instrumentation:

``run_start``
    One wire detection run begins (protocol, absolute run index, derived
    run seed, ground-truth adversary placement).
``checkpoint``
    Estimates vs thresholds evaluated at a packet-count checkpoint.
``accusation`` / ``exoneration``
    A link newly crossed above its threshold / dropped back below one it
    had crossed earlier.
``verdict``
    The run's final conviction set, scored against ground truth.
``identify``
    A point-estimate identify pass (:func:`repro.core.identification.identify_links`).
``bound``
    A Hoeffding §7 interval evaluation
    (:func:`repro.core.confidence.confident_identify`).
``controller``
    The closed-loop controller acted on a confident conviction.
``fault``
    A fault injector interfered with traffic (simulated time, fault kind).
``experiment``
    A Monte-Carlo experiment's aggregate outcome (:mod:`repro.mc.detection`).
``fusion``
    A per-link posterior from shared-link evidence fusion
    (:mod:`repro.topology.fusion`): pooled margin, contributing routes,
    rounds, and the CONVICTED/EXONERATED/UNDECIDED verdict.

See ``docs/OBSERVABILITY.md`` for the full schema.
"""

from __future__ import annotations

import json
from functools import partial
from typing import Dict, Iterator, List, Optional

from repro.exceptions import ConfigurationError
from repro.obs.registry import ACTIVE, using_part


def _canonical(value):
    """JSON-safe, deterministic projection of an entry field value.

    Sets become sorted lists, tuples become lists, numpy scalars become
    their Python equivalents — so two emission sites producing the same
    logical value always serialize to the same bytes.
    """
    if isinstance(value, (set, frozenset)):
        return sorted(_canonical(item) for item in value)
    if isinstance(value, (list, tuple)):
        return [_canonical(item) for item in value]
    if isinstance(value, dict):
        return {str(key): _canonical(val) for key, val in value.items()}
    if hasattr(value, "item") and not isinstance(value, (str, bytes)):
        return value.item()  # numpy scalar -> Python int/float/bool
    if isinstance(value, bytes):
        return value.hex()
    return value


class EvidenceLedger:
    """An append-only sequence of identification-evidence entries."""

    #: Fast-path flag: emission sites check this before building payloads.
    enabled = True

    def __init__(self, capacity: Optional[int] = None) -> None:
        if capacity is not None and capacity <= 0:
            raise ConfigurationError("capacity must be positive")
        self._capacity = capacity
        self._entries: List[Dict] = []
        self._seq = 0
        #: Entries dropped once ``capacity`` was reached (never evicted —
        #: the ledger is append-only, so overflow drops the *newest*).
        self.dropped = 0

    def record(self, kind: str, **fields) -> None:
        """Append one entry; ``fields`` must be JSON-serializable-ish."""
        if self._capacity is not None and len(self._entries) >= self._capacity:
            self.dropped += 1
            self._seq += 1
            return
        entry = {"seq": self._seq, "kind": kind}
        for key, value in fields.items():
            entry[key] = _canonical(value)
        self._entries.append(entry)
        self._seq += 1

    def absorb(self, entries: List[Dict], dropped: int = 0) -> None:
        """Re-record another ledger's entries, then count its overflow:
        ``seq``, ``capacity`` and ``dropped`` come out as in one run."""
        for entry in entries:
            self.record(**{k: v for k, v in entry.items() if k != "seq"})
        self.dropped += dropped
        self._seq += dropped

    # -- querying ----------------------------------------------------------

    def __len__(self) -> int:
        return len(self._entries)

    def entries(self, kind: Optional[str] = None) -> List[Dict]:
        """All entries (optionally filtered by kind), in emission order."""
        if kind is None:
            return list(self._entries)
        return [entry for entry in self._entries if entry["kind"] == kind]

    # -- export ------------------------------------------------------------

    def to_jsonl_lines(self) -> Iterator[str]:
        for entry in self._entries:
            yield json.dumps(entry, sort_keys=True)

    def write_jsonl(self, path: str) -> int:
        """Write one entry per line; returns the number written."""
        written = 0
        with open(path, "w") as handle:
            for line in self.to_jsonl_lines():
                handle.write(line)
                handle.write("\n")
                written += 1
        return written


class NullLedger(EvidenceLedger):
    """The default, disabled ledger: recording is a no-op."""

    enabled = False

    def record(self, kind: str, **fields) -> None:
        pass


#: The process-wide disabled ledger (shared).
NULL_LEDGER = NullLedger()


def get_ledger() -> EvidenceLedger:
    """The active session's ledger (the null ledger by default)."""
    return ACTIVE.session.ledger


#: ``with using_ledger(ledger):`` swaps the session's ledger.
using_ledger = partial(using_part, "ledger")


def read_ledger_jsonl(path: str) -> List[Dict]:
    """Load a ledger file written by :meth:`EvidenceLedger.write_jsonl`.

    A malformed line (truncated write, concatenated files, stray bytes)
    raises :class:`ConfigurationError` naming the offending line number
    instead of leaking a raw ``json.JSONDecodeError`` traceback to the
    tooling on top.
    """
    entries = []
    with open(path) as handle:
        for number, line in enumerate(handle, start=1):
            line = line.strip()
            if not line:
                continue
            try:
                entries.append(json.loads(line))
            except json.JSONDecodeError as exc:
                raise ConfigurationError(
                    f"ledger {path} line {number} is not valid JSON "
                    f"(truncated write?): {exc.msg}"
                ) from None
    return entries


# -- verdict reconstruction (`repro-aai explain`) --------------------------


def ledger_runs(entries: List[Dict]) -> List[int]:
    """Absolute run indices present in a ledger, in first-seen order."""
    seen: List[int] = []
    for entry in entries:
        run = entry.get("run")
        if run is not None and run not in seen:
            seen.append(run)
    return seen


def _fmt(value: float) -> str:
    return f"{value:.4f}"


def _explain_one_run(entries: List[Dict], run: int) -> str:
    """Reconstruct one run's verdict as a human-readable causal chain."""
    lines: List[str] = []
    own = [entry for entry in entries if entry.get("run") == run]
    if not own:
        return f"run {run}: no ledger entries"
    start = next((e for e in own if e["kind"] == "run_start"), None)
    verdict = next((e for e in own if e["kind"] == "verdict"), None)
    if start is not None:
        malicious = start.get("malicious_links", [])
        lines.append(
            f"Run {run} — {start.get('protocol', '?')} "
            f"(seed {start.get('seed', '?')}, path length "
            f"{start.get('path_length', '?')}, horizon "
            f"{start.get('horizon', '?')})"
        )
        lines.append(
            "  ground truth: "
            + (
                "malicious link(s) " + ", ".join(f"l{i}" for i in malicious)
                if malicious
                else "all links honest"
            )
        )
    lines.append("  evidence chain:")
    convicted_so_far: List[int] = []
    for entry in own:
        seq = entry["seq"]
        kind = entry["kind"]
        if kind == "checkpoint":
            convicted = entry.get("convicted", [])
            if convicted == convicted_so_far:
                continue  # quiet checkpoints render only on change
            convicted_so_far = convicted
        elif kind == "accusation":
            lines.append(
                f"    [seq {seq}] checkpoint {entry['checkpoint']}: "
                f"l{entry['link']} estimate {_fmt(entry['estimate'])} "
                f"crossed threshold {_fmt(entry['threshold'])} "
                f"(margin +{_fmt(entry['margin'])}) -> ACCUSED"
            )
        elif kind == "exoneration":
            lines.append(
                f"    [seq {seq}] checkpoint {entry['checkpoint']}: "
                f"l{entry['link']} estimate {_fmt(entry['estimate'])} "
                f"fell back below threshold {_fmt(entry['threshold'])} "
                "-> accusation withdrawn"
            )
        elif kind == "bound":
            lines.append(
                f"    [seq {seq}] Hoeffding bound over samples "
                f"{entry['samples']}: half-widths "
                f"[{', '.join(_fmt(value) for value in entry['half_widths'])}] "
                f"(sigma {entry['sigma']:g}) — convicted "
                f"{entry.get('convicted', [])}, cleared "
                f"{entry.get('cleared', [])}, undecided "
                f"{entry.get('undecided', [])}"
            )
        elif kind == "controller":
            lines.append(
                f"    [seq {seq}] controller acted at t="
                f"{entry['time']:g}s ({entry['packets_sent']} packets, "
                f"{entry['rounds']} rounds): convicted "
                + ", ".join(f"l{i}" for i in entry.get("convicted", []))
            )
        elif kind == "fault":
            lines.append(
                f"    [seq {seq}] fault interference at t="
                f"{entry.get('time', 0):g}s: {entry.get('fault', '?')}"
            )
    fusions = [
        entry
        for entry in entries
        if entry["kind"] == "fusion" and run in entry.get("routes", [])
    ]
    if fusions:
        lines.append("  network fusion (this run's path contributed):")
        for entry in fusions:
            lines.append(
                f"    [seq {entry['seq']}] checkpoint "
                f"{entry.get('checkpoint', '?')}: link "
                f"L{entry['link']} pooled margin "
                f"{entry['pooled_margin']:+.4f} over "
                f"{len(entry.get('routes', []))} route(s), "
                f"{entry.get('rounds', '?')} rounds -> "
                f"{str(entry.get('verdict', '?')).upper()} "
                f"(posterior bad {_fmt(entry.get('posterior_bad', 0.0))})"
            )
    if verdict is not None:
        convicted = verdict.get("convicted", [])
        fp = verdict.get("false_positives", [])
        fn = verdict.get("false_negatives", [])
        summary = (
            "convicted " + ", ".join(f"l{i}" for i in convicted)
            if convicted
            else "convicted nobody"
        )
        qualifier = (
            "exact verdict"
            if verdict.get("exact")
            else "; ".join(
                part
                for part in (
                    "false positives: " + ", ".join(f"l{i}" for i in fp)
                    if fp
                    else "",
                    "false negatives: " + ", ".join(f"l{i}" for i in fn)
                    if fn
                    else "",
                )
                if part
            )
        )
        lines.append(
            f"  verdict at checkpoint {verdict.get('checkpoint', '?')}: "
            f"{summary} ({qualifier})"
        )
    return "\n".join(lines)


def render_explanation(entries: List[Dict], run: Optional[int] = None) -> str:
    """Human-readable reconstruction of ledger evidence.

    With ``run`` given, renders that run's full causal chain; otherwise
    renders an index of runs with their one-line verdicts (plus any
    experiment-level entries).
    """
    if not entries:
        return "(empty ledger)"
    if run is not None:
        return _explain_one_run(entries, run)
    runs = ledger_runs(entries)
    lines: List[str] = []
    for index in runs:
        verdict = next(
            (
                e
                for e in entries
                if e["kind"] == "verdict" and e.get("run") == index
            ),
            None,
        )
        if verdict is None:
            lines.append(f"run {index}: (no verdict recorded)")
            continue
        convicted = verdict.get("convicted", [])
        label = (
            "convicted " + ", ".join(f"l{i}" for i in convicted)
            if convicted
            else "convicted nobody"
        )
        exact = " [exact]" if verdict.get("exact") else ""
        lines.append(f"run {index}: {label}{exact}")
    fusions = [e for e in entries if e["kind"] == "fusion"]
    for entry in fusions:
        routes_str = ", ".join(str(r) for r in entry.get("routes", []))
        lines.append(
            f"fusion: L{entry['link']} "
            f"{str(entry.get('verdict', '?')).upper()} "
            f"(posterior bad {_fmt(entry.get('posterior_bad', 0.0))}, "
            f"routes {routes_str or '-'})"
        )
    experiments = [e for e in entries if e["kind"] == "experiment"]
    for entry in experiments:
        lines.append(
            f"experiment: {entry.get('protocol', '?')} x"
            f"{entry.get('runs', '?')} runs (backend "
            f"{entry.get('backend', '?')}) — final FP "
            f"{entry.get('final_false_positive', '?')}, final FN "
            f"{entry.get('final_false_negative', '?')}"
        )
    if not lines:
        return "(no runs in ledger)"
    lines.append("")
    lines.append("use --run N for a run's full evidence chain")
    return "\n".join(lines)


__all__ = [
    "EvidenceLedger",
    "NullLedger",
    "NULL_LEDGER",
    "get_ledger",
    "using_ledger",
    "read_ledger_jsonl",
    "ledger_runs",
    "render_explanation",
]
