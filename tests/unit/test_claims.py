"""The claims table and the EXPERIMENTS.md tables rendered from it."""

from pathlib import Path

from repro.experiments import claims
from repro.experiments.runner import build_specs
from repro.experiments.table1 import run_table1

DOC = Path(__file__).resolve().parents[2] / "EXPERIMENTS.md"


def test_doc_marks_every_claim_and_nothing_else():
    marked = claims.doc_claim_ids(DOC.read_text())
    assert sorted(marked) == sorted(claim.id for claim in claims.CLAIMS)


def test_each_row_names_an_experiment_of_its_scale():
    for claim in claims.CLAIMS:
        assert claim.experiment in {s.name for s in build_specs(claim.scale)}
    assert claims.claims_for("Figure 2 (statfl)", "quick") == []
    assert claims.claims_for("Table 1", "tiny") == []


def test_a_raising_accessor_fails_its_row(monkeypatch):
    broken = claims.Claim("x.broken", "Table 1", "q", "p",
                          lambda r: r.missing, claims.cmp(">", 0))
    monkeypatch.setattr(claims, "CLAIMS", [broken])
    (outcome,) = claims.evaluate("Table 1", run_table1())
    assert not outcome["ok"]
    assert outcome["measured"].startswith("error: AttributeError")


def test_render_doc_replaces_only_the_blocks():
    outcomes = claims.evaluate("Table 1", run_table1())
    text = "intro\n<!-- claims table1.tau -->\nstale\n<!-- /claims -->\nend\n"
    rendered = claims.render_doc(text, outcomes)
    assert rendered.startswith("intro\n<!-- claims table1.tau -->\n| claim |")
    assert rendered.endswith("<!-- /claims -->\nend\n")
    assert claims.doc_claim_ids(rendered) == ["table1.tau1", "table1.tau2", "table1.tau3"]
    assert claims.render_doc(rendered, outcomes) == rendered
