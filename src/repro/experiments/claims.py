"""The paper's claims, as one checked table.

Each :class:`Claim` names an experiment of
:func:`repro.experiments.runner.build_specs`, the paper's value, an
accessor on that experiment's result object, the check the measured
value must pass (a tolerance or an ordering), and the smallest report
scale at which it holds. The report evaluates the rows of each
experiment it runs (:func:`evaluate`) and keeps the outcomes as plain
data, so they travel through ``--jobs``, checkpoints and
``--metrics-out``; ``report`` exits non-zero when one fails.

EXPERIMENTS.md's numeric tables are rendered from a full report's
outcomes between ``<!-- claims PREFIX -->`` and ``<!-- /claims -->``
markers (:func:`sync_doc`); the prose around them is hand-written.
"""

from __future__ import annotations

import json
import math
import operator
import re
from dataclasses import dataclass
from typing import Any, Callable, List, Sequence

from repro.analysis.detection import tau1_fullack
from repro.core.params import ProtocolParams
from repro.experiments.report import format_number

#: Report scales from smallest to largest; a row runs at its own scale
#: and every larger one.
SCALE_ORDER = ("smoke", "quick", "full")


@dataclass(frozen=True)
class Check:
    """A predicate on a measured value, with the text the tables show."""

    text: str
    holds: Callable[[Any], bool]


def near(target: float, rel: float) -> Check:
    return Check(f"within {rel * 100:g}% of {target:g}",
                 lambda v: abs(v - target) <= rel * abs(target))


def between(lo: float, hi: float) -> Check:
    return Check(f"in ({lo:g}, {hi:g})", lambda v: lo < v < hi)


_OPS = {"<": operator.lt, "≤": operator.le, ">": operator.gt, "≥": operator.ge,
        "is": operator.eq}


def cmp(op: str, bound: Any) -> Check:
    """``measured <op> bound`` for each ``op`` of :data:`_OPS`."""
    return Check(f"{op} {format_number(bound)}", lambda v: _OPS[op](v, bound))


def increasing(*labels: str) -> Check:
    return Check(" < ".join(labels),
                 lambda v: all(a < b for a, b in zip(v, v[1:])))


def close_pair(rel: float) -> Check:
    """``[a, b]`` with ``|a - b| ≤ rel·|b|``."""
    return Check(f"first within {rel * 100:g}% of second",
                 lambda v: abs(v[0] - v[1]) <= rel * abs(v[1]))


@dataclass(frozen=True)
class Claim:
    """One row of the claims table."""

    id: str
    experiment: str
    quantity: str
    paper: str
    measure: Callable[[Any], Any]
    check: Check
    scale: str = "smoke"


# -- accessors ----------------------------------------------------------------


def _row(result, key):
    """A result row by protocol name, or a list row by its first cell."""
    return next(row for row in result.rows
                if getattr(row, "protocol", None) == key
                or (isinstance(row, list) and row[0] == key))


def _rows_ratio(key: str, column: int):
    """Last over first ``column`` among the list rows keyed ``key``."""
    def ratio(result) -> float:
        rows = [row for row in result.rows if row[0] == key]
        return rows[-1][column] / rows[0][column]
    return ratio


def _attr(*names: str):
    if len(names) == 1:
        return lambda r: getattr(r, names[0])
    return lambda r: [getattr(r, name) for name in names]


def _col(column: str, *protocols: str):
    if len(protocols) == 1:
        return lambda r: getattr(_row(r, protocols[0]), column)
    return lambda r: [getattr(_row(r, p), column) for p in protocols]


def _rate(name: str):
    return lambda r: r.example_rates[name]


def _means(*tokens: str):
    return lambda r: [next(s for s in r.series if t in s.label).mean for t in tokens]


def _curve(rates: str, index: int):
    return lambda r: getattr(r.detection.curve, rates)[index]


def _converged(result, protocol: str, parameter: str) -> List[int]:
    return [p.measured_convergence for p in result.sweep(protocol, parameter).points]


def _per_path(result) -> List[float]:
    by_z = result.spread_damage_by_z
    return [by_z[0]] + [b - a for a, b in zip(by_z, by_z[1:])]


def _below_bound(protocol: str, label: str, scale: str = "smoke") -> tuple:
    return (f"fig2.{protocol}.average_below_bound", f"Figure 2 ({protocol})",
            f"{label}: average packets to an exact verdict, Theorem 2 bound", "below the bound",
            _attr("average_packets", "theory_bound_packets"), increasing("average", "bound"), scale)


_T2_FIELDS = {
    "detect_bound": ("detection_bound_minutes", "detection bound (min)"),
    "detect_avg": ("detection_average_minutes", "detection average (min)"),
    "storage_bound": ("storage_bound_packets", "storage bound (pkts)"),
    "storage_avg": ("storage_average_packets", "storage average at F1 (pkts)"),
}
_LABELS = {"full-ack": "full-ack", "paai1": "PAAI-1", "paai2": "PAAI-2", "statfl": "statFL"}


def _t2(protocol: str, column: str, paper: str, check: Check) -> tuple:
    field, text = _T2_FIELDS[column]
    return (f"table2.{protocol.replace('-', '')}.{column}", "Table 2",
            f"{_LABELS[protocol]} {text}", paper, _col(field, protocol), check)


#: Ten times full-ack's Theorem 2 bound: Figure 2(c)'s "far slower" bar.
_TEN_TAU1 = 10 * tau1_fullack(ProtocolParams())
_WIRE = ("statfl", "combo1", "paai1", "full-ack")
_WIRE_LABELS = ("statFL", "Comb. 1", "PAAI-1", "full-ack")
_UNTIL = "packets until FP and FN ≤ σ"
T1, T2, COR1, COR2, COR3 = ("Table 1", "Table 2", "Ablation: Corollary 1",
                            "Ablation: Corollary 2", "Ablation: Corollary 3")
INCRIM, BURST = "Ablation: incrimination (footnote 6)", "Ablation: burst loss"
COMM, SWEEPS = "Communication overhead (measured)", "Sweeps: Corollary 3 (measured)"
THM1, WINDOW = "Ablation: Theorem 1 sharpness", "Ablation: windowed scoring"
FIG2 = {p: f"Figure 2 ({p})" for p in ("full-ack", "paai1", "paai2", "combo1", "combo2", "statfl")}
FIG3 = {p: f"Figure 3 (panel {p})" for p in "abc"}

#: ``(id, experiment, quantity, paper, measure, check[, scale])``.
CLAIMS: List[Claim] = [Claim(*row) for row in (
    ("table1.tau1", T1, "τ1 (full-ack), packets", "≈ 1,500", _rate("tau1 (full-ack)"), near(1500, 0.06)),
    ("table1.tau2", T1, "τ2 (PAAI-1), packets", "≈ 5×10⁴", _rate("tau2 (PAAI-1)"), near(5e4, 0.1)),
    ("table1.tau3", T1, "τ3 (PAAI-2), packets", "≈ 6×10⁵", _rate("tau3 (PAAI-2)"), near(6e5, 0.1)),
    ("table1.statfl", T1, "statistical FL, packets", "≈ 2×10⁷", _rate("statistical FL"), near(2e7, 0.2)),
    ("table1.detection_order", T1, "detection packets", "ordered", _col("detection_packets", "full-ack", "paai1", "paai2", "statfl"),
     increasing("full-ack", "PAAI-1", "PAAI-2", "statFL")),
    ("table1.comm_order", T1, "communication units/pkt", "ordered", _col("communication_units", *_WIRE), increasing(*_WIRE_LABELS)),
    ("table1.storage_order", T1, "worst-case storage", "ordered", _col("storage_worst_packets", "statfl", "paai1", "full-ack"),
     increasing("statFL", "PAAI-1", "full-ack")),
    _t2("full-ack", "detect_bound", "0.25", near(0.25, 0.06)),
    _t2("paai1", "detect_bound", "9", near(9.0, 0.1)),
    _t2("paai2", "detect_bound", "100", near(100.0, 0.1)),
    _t2("statfl", "detect_bound", "3333", near(3333.0, 0.2)),
    _t2("full-ack", "detect_avg", "0.17", between(0.017, 0.25)),
    _t2("paai1", "detect_avg", "4.2", between(0.42, 9.0)),
    _t2("paai2", "detect_avg", "50", cmp("<", 100.0)),
    ("table2.detect_avg_order", T2, "detection averages", "ordered",
     _col("detection_average_minutes", "full-ack", "paai1", "paai2"), increasing("full-ack", "PAAI-1", "PAAI-2")),
    _t2("statfl", "detect_avg", "N/A", cmp("is", None)),
    _t2("full-ack", "storage_bound", "12", near(12.0, 1e-6)),
    _t2("paai1", "storage_bound", "3.2", near(3.17, 0.02)),
    _t2("paai2", "storage_bound", "12", near(12.0, 1e-6)),
    _t2("statfl", "storage_bound", "< 1", cmp("<", 1.0)),
    _t2("full-ack", "storage_avg", "3.2", between(1.5, 6.0)),
    _t2("paai1", "storage_avg", "3.0", between(1.5, 3.4)),
    _t2("paai2", "storage_avg", "6.4", between(3.0, 12.0)),
    ("fig2.fullack.convergence", FIG2["full-ack"], f"(a) full-ack: {_UNTIL}", "10³", _attr("convergence"),
     Check("in [200, 4000)", lambda v: 200 <= v < 4000)),
    ("fig2.fullack.final_fp", FIG2["full-ack"], "(a) full-ack: FP rate at the horizon", "→ 0", _curve("fp_rates", -1), cmp("≤", 0.01)),
    ("fig2.fullack.final_fn", FIG2["full-ack"], "(a) full-ack: FN rate at the horizon", "→ 0", _curve("fn_rates", -1), cmp("≤", 0.01)),
    ("fig2.fullack.fn_decay", FIG2["full-ack"], "(a) full-ack: first FN rate over max(last, 10⁻⁴)", "log-y decay",
     lambda r: _curve("fn_rates", 0)(r) / max(_curve("fn_rates", -1)(r), 1e-4), cmp(">", 10)),
    ("fig2.paai1.convergence", FIG2["paai1"], f"(b) PAAI-1: {_UNTIL}", "2.5×10⁴", _attr("convergence"),
     Check("in [8000, 120000]", lambda v: 8_000 <= v <= 120_000)),
    _below_bound("paai1", "(b) PAAI-1"),
    ("fig2.paai2.slowest", FIG2["paai2"], f"(c) PAAI-2: {_UNTIL} (unconverged passes)", "3×10⁵", _attr("convergence"),
     Check(f"> 10 τ1 = {_TEN_TAU1:.0f}", lambda v: v is None or v > _TEN_TAU1)),
    ("fig2.paai2.below_bound", FIG2["paai2"], "(c) PAAI-2: convergence, Theorem 2 bound", "below the bound",
     _attr("convergence", "theory_bound_packets"), Check("unconverged or first < second", lambda v: v[0] is None or v[0] < v[1])),
    ("fig2.paai2.distance_variance", FIG2["paai2"], "(c) PAAI-2: variance of each link's final estimate, l0 to l5",
     "grows with distance", lambda r: list(r.detection.estimates_last.var(axis=0)),
     Check("all finite; l0 < l4", lambda v: all(map(math.isfinite, v)) and v[0] < v[4])),
    _below_bound("combo1", "Combination 1", "full"),
    ("fig2.combo1.below_bound", FIG2["combo1"], "Combination 1: convergence, Theorem 2 bound", "—",
     _attr("convergence", "theory_bound_packets"), increasing("convergence", "bound"), "full"),
    _below_bound("combo2", "Combination 2", "full"),
    _below_bound("statfl", "statFL", "full"),
    ("fig2.statfl.convergence", FIG2["statfl"], f"statFL: {_UNTIL} (5×10⁷ horizon)", "≈ 2×10⁷", _attr("convergence"),
     near(2e7, 0.2), "full"),
    ("fig3.a.paai1_lowest", FIG3["a"], "(a) mean storage at F1: PAAI-1, PAAI-2, full-ack w/o AAI", "PAAI-1 lowest",
     _means("paai1", "paai2", "full-ack F1 w/o"), Check("first < the others", lambda v: v[0] < min(v[1:]))),
    ("fig3.a.bypass_helps", FIG3["a"], "(a) full-ack mean storage w/ AAI, w/o AAI", "w/ AAI lower",
     _means("full-ack F1 w/ AAI", "full-ack F1 w/o"), Check("first ≤ second + 0.5", lambda v: v[0] <= v[1] + 0.5)),
    ("fig3.b.paai1_mean", FIG3["b"], "(b) PAAI-1 mean storage at F1 (pkts)", "3.0 (Table 2)",
     lambda r: _means("paai1")(r)[0], between(2.0, 3.4)),
    ("fig3.b.fullack_peak", FIG3["b"], "(b) full-ack peak storage at F1 (pkts)", "≤ 12 (bound)",
     lambda r: next(s for s in r.series if "full-ack" in s.label).peak, cmp("≤", 13)),
    ("fig3.c.position", FIG3["c"], "(c) full-ack mean storage at F1, F3, F5", "falls toward D", _means("F1", "F3", "F5"),
     Check("F5 < F3 < F1 + 0.75 and F5 < F1", lambda v: v[2] < v[1] < v[0] + 0.75 and v[2] < v[0])),
    ("cor1.same_damage", COR1, "end-to-end drop rate: uniform, selective", "equal", _attr("uniform_psi", "selective_psi"),
     Check("abs. difference ≤ 0.02", lambda v: abs(v[0] - v[1]) <= 0.02)),
    ("cor2.comparable", COR2, "total damage: spread, concentrated", "comparable",
     _attr("spread_damage", "concentrated_damage"), close_pair(0.45)),
    ("cor2.accumulates", COR2, "spread damage after z = 1, 2, 3 paths", "grows with z", _attr("spread_damage_by_z"),
     Check("non-decreasing", lambda v: v == sorted(v))),
    ("cor2.linear", COR2, "spread damage added per path", "linear in z", _per_path,
     Check("max < 3.5 max(min, 10⁻⁴)", lambda v: max(v) < 3.5 * max(min(v), 1e-4))),
    ("cor2.concentrated_convictions", COR2, "links convicted, concentrated", "stealthy", _attr("concentrated_convictions"), cmp("≤", 1),
     "full"),
    ("cor2.spread_convictions", COR2, "links convicted, spread", "stealthy", _attr("spread_convictions"), cmp("≤", 2), "full"),
    ("cor3.sigma_cost", COR3, "full-ack τ, σ = 0.003 over σ = 0.1", "tighter σ costs more", _rows_ratio("sigma", 2), cmp(">", 1)),
    ("cor3.fullack_flat_in_d", COR3, "full-ack τ, d = 10 over d = 4", "barely moves", _rows_ratio("d (p=1/d^2)", 2), cmp("<", 2)),
    ("cor3.paai2_grows_in_d", COR3, "PAAI-2 τ, d = 10 over d = 4", "2^d blow-up", _rows_ratio("d (p=1/d^2)", 4), cmp(">", 20)),
    ("incrim.leaky_frames", INCRIM, "leaky selection: honest l2 convicted", "framed", _attr("leaky_convicts_honest"), cmp("is", True)),
    ("incrim.oblivious_clean", INCRIM, "oblivious acks: honest l2 convicted", "not framed", _attr("oblivious_convicts_honest"),
     cmp("is", False), "full"),
    ("incrim.self_blame", INCRIM, "oblivious acks: link with the largest estimate", "l0 (own link)",
     lambda r: r.oblivious_estimates.index(max(r.oblivious_estimates)), cmp("is", 0)),
    ("burst.same_mean", BURST, "mean link estimate: i.i.d., Gilbert-Elliott", "unbiased",
     lambda r: [sum(e) / len(e) for e in (r.bernoulli_estimates, r.burst_estimates)], close_pair(0.6)),
    ("comm.order", COMM, "wire overhead (bytes ratio)", "Table 1 order", _col("measured_ratio", *_WIRE), increasing(*_WIRE_LABELS),
     "full"),
    ("comm.combo2_below_paai2", COMM, "wire overhead: Comb. 2, PAAI-2", "Table 1 order", _col("measured_ratio", "combo2", "paai2"),
     increasing("Comb. 2", "PAAI-2"), "full"),
    ("comm.paai1_band", COMM, "PAAI-1 wire overhead (bytes ratio)", "a few % (§9)", _col("measured_ratio", "paai1"),
     between(0.001, 0.02), "full"),
    ("comm.sigack_overhead", COMM, "sig-ack wire overhead (bytes ratio)", "> data (footnote 1)", _col("measured_ratio", "sig-ack"),
     cmp(">", 1.0), "full"),
    ("comm.sigack_vs_fullack", COMM, "sig-ack over full-ack wire overhead", "orders of magnitude",
     lambda r: _row(r, "sig-ack").measured_ratio / _row(r, "full-ack").measured_ratio, cmp(">", 20), "full"),
    ("sweeps.sigma_cost", SWEEPS, "full-ack convergence at σ = 0.1, 0.01", "tighter σ slower",
     lambda r: _converged(r, "full-ack", "sigma")[0::2], increasing("σ = 0.1", "σ = 0.01"), "full"),
    ("sweeps.sigma_below_bound", SWEEPS, "full-ack convergence over its bound, worst σ", "below the bound",
     lambda r: max(p.measured_convergence / p.theory_bound for p in r.sweep("full-ack", "sigma").points), cmp("<", 1.0), "full"),
    ("sweeps.fullack_flat_in_d", SWEEPS, "full-ack convergence, max over min across d = 4, 6, 8", "barely moves",
     lambda r: (lambda c: max(c) / max(1, min(c)))(_converged(r, "full-ack", "path length d")), cmp("<", 3.0), "full"),
    ("sweeps.paai2_grows_in_d", SWEEPS, "PAAI-2 convergence, d = 8 over d = 4", "grows with d",
     lambda r: (lambda c: c[-1] / c[0])(_converged(r, "paai2", "path length d")), cmp(">", 2.0), "full"),
    ("thm1.stealthy_below", THM1, "P(convict l4) at 0.5x the stealth ceiling", "≈ σ", lambda r: _row(r, 0.5)[2], cmp("≤", 0.05), "full"),
    ("thm1.caught_above", THM1, "P(convict l4) at 2x the stealth ceiling", "→ 1", lambda r: _row(r, 2.0)[2],
     cmp("≥", 0.95), "full"),
    ("thm1.damage_below", THM1, "undetected damage/pkt at 2x and 0.5x the ceiling", "largest below the ceiling",
     lambda r: [_row(r, 2.0)[3], _row(r, 0.5)[3]], increasing("2x", "0.5x"), "full"),
    ("window.burst_window_convicts", WINDOW, "200-round window verdict, on/off adversary", "—", lambda r: _row(r, 200)[2],
     cmp("is", "CONVICTED"), "full"),
    ("window.oversized_misses", WINDOW, "4,000-round window verdict, on/off adversary", "—", lambda r: _row(r, 4000)[2],
     cmp("is", "-"), "full"),
    ("window.peak_dilutes", WINDOW, "peak windowed estimate, 200 over 4,000 rounds", "—",
     lambda r: _row(r, 200)[1] / _row(r, 4000)[1], cmp(">", 3), "full"),
    ("window.cumulative_blind", WINDOW, "cumulative verdicts, every window", "blind (paper's scoring)",
     lambda r: [row[4] for row in r.rows], Check("all '-'", lambda v: set(v) == {"-"}), "full"),
)]


# -- evaluation ---------------------------------------------------------------


def claims_for(experiment: str, scale: str = "full") -> List[Claim]:
    """Rows of ``experiment`` that hold at ``scale`` (none at a scale
    outside :data:`SCALE_ORDER`)."""
    if scale not in SCALE_ORDER:
        return []
    rank = SCALE_ORDER.index(scale)
    return [c for c in CLAIMS if c.experiment == experiment
            and SCALE_ORDER.index(c.scale) <= rank]


def evaluate(experiment: str, result: Any, scale: str = "full") -> List[dict]:
    """Outcomes of ``experiment``'s rows on ``result``, as plain data.
    An accessor that raises fails its row; the error is the measurement."""
    outcomes = []
    for claim in claims_for(experiment, scale):
        try:
            # Plain JSON data: numpy scalars become floats, tuples lists.
            measured = json.loads(json.dumps(claim.measure(result), default=float))
            ok = bool(claim.check.holds(measured))
        except Exception as exc:  # a broken accessor is a failed claim
            measured, ok = f"error: {exc!r}", False
        outcomes.append({"id": claim.id, "quantity": claim.quantity,
                         "paper": claim.paper, "measured": measured,
                         "check": claim.check.text, "ok": ok})
    return outcomes


def failures(outcomes: Sequence[dict]) -> List[dict]:
    return [outcome for outcome in outcomes if not outcome["ok"]]


# -- EXPERIMENTS.md -------------------------------------------------------------

_BLOCK = re.compile(r"(<!-- claims (?P<prefix>[\w.]+) -->\n).*?(<!-- /claims -->)", re.S)
_ID_CELL = re.compile(r"^\| `([\w.]+)` \|", re.M)


def render_doc(text: str, outcomes: Sequence[dict]) -> str:
    """``text`` with each claims block re-rendered as a markdown table of
    the outcomes whose id starts with the block's prefix."""

    def table(match) -> str:
        lines = ["| claim | quantity | paper | measured | check |",
                 "|---|---|---|---|---|"]
        lines += [
            f"| `{o['id']}` | {o['quantity']} | {o['paper']} | "
            f"{format_number(o['measured'])} | {o['check']} |"
            for o in outcomes if o["id"].startswith(match.group("prefix"))
        ]
        return match.group(1) + "\n".join(lines) + "\n" + match.group(3)

    return _BLOCK.sub(table, text)


def doc_claim_ids(text: str) -> List[str]:
    """Claim ids in the claims blocks of ``text``, in order."""
    return [claim_id for block in _BLOCK.finditer(text)
            for claim_id in _ID_CELL.findall(block.group(0))]


def sync_doc(telemetry_path: str, doc_path: str) -> None:
    """Re-render ``doc_path``'s claims blocks from a report's
    ``--metrics-out`` telemetry."""
    with open(telemetry_path) as handle:
        experiments = json.load(handle)["experiments"]
    with open(doc_path) as handle:
        text = handle.read()
    with open(doc_path, "w") as handle:
        handle.write(render_doc(text, [c for e in experiments for c in e["claims"]]))
