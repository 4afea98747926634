"""Tests of the experiment harness. The paper's claims are rows of
:mod:`repro.experiments.claims`: the quick report runs once per module
and every quick-scale row must hold in it; experiments that the report
runs only at full scale apply the same rows to smaller runs here."""

import json
import re

import pytest

from repro.cli import main as cli_main
from repro.exceptions import ConfigurationError
from repro.experiments import claims
from repro.experiments.ablations import (
    run_corollary1,
    run_corollary2,
    run_incrimination,
)
from repro.experiments.figure2 import run_figure2
from repro.experiments.figure3 import run_figure3_panel
from repro.experiments.table1 import run_table1


@pytest.fixture(scope="module")
def quick_report():
    """The quick report at seed 0, run once for the module, with the
    experiment names its progress callback saw."""
    from repro.experiments.runner import run_all

    progressed = []
    report = run_all(scale="quick", seed=0, progress=progressed.append)
    return report, progressed


def assert_held(outcomes, ids=None):
    """Every outcome (or those named in ``ids``) evaluated and holds."""
    if ids is not None:
        outcomes = [o for o in outcomes if o["id"] in ids]
        assert {o["id"] for o in outcomes} == set(ids)
    assert outcomes
    assert claims.failures(outcomes) == []


def record(quick_report, name):
    report, _ = quick_report
    return next(r for r in report.records if r.name == name)


class TestTable1:
    def test_paper_example_numbers(self, quick_report):
        assert_held(record(quick_report, "Table 1").claims)

    def test_render_contains_all_rows(self):
        text = run_table1().render()
        for name in ("Full-ack", "PAAI-1", "PAAI-2", "Statistical FL",
                     "Combination 1", "Combination 2"):
            assert name in text


class TestTable2:
    def test_bounds_and_averages(self, quick_report):
        assert_held(record(quick_report, "Table 2").claims)

    def test_render(self, quick_report):
        text = record(quick_report, "Table 2").text
        assert "Table 2" in text
        assert "statfl" in text


class TestFigure2:
    def test_fullack_panel(self, quick_report):
        assert_held(record(quick_report, "Figure 2 (full-ack)").claims)

    def test_paai1_panel_scale(self, quick_report):
        assert_held(record(quick_report, "Figure 2 (paai1)").claims)

    def test_render(self, quick_report):
        text = record(quick_report, "Figure 2 (full-ack)").text
        assert "false positive" in text
        assert "theory bound (packets)" in text

    def test_unknown_protocol_needs_horizon(self):
        with pytest.raises(ConfigurationError):
            run_figure2("nope")


def _storage_means(text):
    """Series label -> mean from a rendered Figure 3 panel's table."""
    rows = re.findall(r"^(\S+ F\d w/o? AAI)\s+\d+\s+([\d.]+)$", text, re.M)
    return {label: float(mean) for label, mean in rows}


class TestFigure3:
    def test_panel_a_series(self, quick_report):
        assert_held(record(quick_report, "Figure 3 (panel a)").claims)

    def test_panel_b_matches_table2_storage(self, quick_report):
        assert_held(record(quick_report, "Figure 3 (panel b)").claims)

    def test_panel_c_position_effect(self, quick_report):
        assert_held(record(quick_report, "Figure 3 (panel c)").claims)

    def test_storage_scales_with_the_sending_rate(self, quick_report):
        """Panel (a) sends 10x faster than panel (b), so each protocol
        stores roughly 10x more. The claim spans two experiments, so it
        reads both panels' rendered means instead of being a row."""
        fast = _storage_means(record(quick_report, "Figure 3 (panel a)").text)
        slow = _storage_means(record(quick_report, "Figure 3 (panel b)").text)
        for label in ("paai1 F1 w/o AAI", "paai2 F1 w/o AAI"):
            ratio = fast[label] / max(slow[label], 1e-9)
            assert 4.0 < ratio < 25.0, (label, ratio)

    def test_bad_panel(self):
        with pytest.raises(ConfigurationError):
            run_figure3_panel("z")


class TestAblations:
    def test_corollary1_equivalence(self):
        # Not a claim row: at the full report's 30,000 packets the
        # selective dropper's share is 0.499, just under the bar.
        result = run_corollary1(packets=3000, seed=8)
        # Both strategies land blame on links adjacent to F4.
        for blame in (result.uniform_blame, result.selective_blame):
            adjacent = blame[3] + blame[4]
            assert adjacent > 0.5 * sum(blame), blame

    def test_corollary3_sweep_shape(self, quick_report):
        assert_held(record(quick_report, "Ablation: Corollary 3").claims)

    def test_incrimination_contrast(self, quick_report):
        assert_held(record(quick_report, claims.INCRIM).claims)
        # incrim.oblivious_clean holds at quick size only for some seeds,
        # so it is a full-scale row; here it runs at this test's old size.
        result = run_incrimination(packets=12_000, rate=5000.0, seed=9)
        assert_held(claims.evaluate(claims.INCRIM, result))

    def test_burst_loss_same_average(self, quick_report):
        assert_held(record(quick_report, "Ablation: burst loss").claims)


class TestCli:
    def test_table1_command(self, capsys):
        assert cli_main(["table1"]) == 0
        out = capsys.readouterr().out
        assert "Table 1" in out

    def test_example_rates_command(self, capsys):
        assert cli_main(["example-rates"]) == 0
        assert "tau1" in capsys.readouterr().out

    def test_practicality_command(self, capsys):
        assert cli_main(["practicality"]) == 0
        assert "practicality" in capsys.readouterr().out

    def test_figure3_json(self, capsys):
        assert cli_main(["figure3", "--panel", "b", "--packets", "200", "--json"]) == 0
        payload = json.loads(capsys.readouterr().out)
        assert payload["panel"] == "b"
        assert payload["series"]

    def test_figure2_small(self, capsys):
        assert cli_main([
            "figure2", "--protocol", "full-ack", "--runs", "50",
            "--horizon", "2000",
        ]) == 0
        assert "false positive" in capsys.readouterr().out

    def test_figure2_json_is_the_panel(self, capsys):
        """``--json`` prints the panel's numbers and the engines behind
        them, not the per-run conviction tensor, so its size does not
        grow with runs x checkpoints."""
        assert cli_main([
            "figure2", "--protocol", "full-ack", "--runs", "600",
            "--horizon", "300", "--json",
        ]) == 0
        out = capsys.readouterr().out
        assert len(out) < 16_000
        payload = json.loads(out)
        assert set(payload) == {
            "protocol", "runs", "checkpoints", "curve",
            "convergence_packets", "average_packets",
            "theory_bound_packets", "sigma", "backend", "engines",
            "fallback_reasons",
        }
        assert payload["protocol"] == "full-ack"
        assert payload["runs"] == 600
        assert payload["checkpoints"][-1] == 300
        assert set(payload["curve"]) == {"fp_rates", "fn_rates"}
        assert len(payload["curve"]["fp_rates"]) == len(payload["checkpoints"])
        assert 0 < payload["average_packets"] <= 300
        assert payload["theory_bound_packets"] > 0
        assert payload["backend"] == "model"
        assert payload["engines"] == {"model": 600}
        assert payload["fallback_reasons"] == []

    def test_ablation_corollary3(self, capsys):
        assert cli_main(["ablation", "corollary3"]) == 0
        assert "Corollary 3" in capsys.readouterr().out


class TestCorollary2:
    def test_spread_and_concentrated_comparable_when_stealthy(
        self, quick_report
    ):
        assert_held(record(quick_report, claims.COR2).claims)

    def test_mostly_stealthy(self):
        # Full-scale rows (small runs convict a stray link at some seeds),
        # applied at this test's old size.
        result = run_corollary2(z=3, packets=6000, seed=5)
        assert_held(
            claims.evaluate(claims.COR2, result),
            ids={"cor2.concentrated_convictions", "cor2.spread_convictions"},
        )

    def test_validation(self):
        with pytest.raises(ConfigurationError):
            run_corollary2(z=10)


class TestRunnerReport:
    def test_run_all_quick_structure(self, quick_report):
        from repro.experiments.runner import SCALES, build_specs

        report, progressed = quick_report
        names = [record.name for record in report.records]
        assert names == [spec.name for spec in build_specs("quick")]
        assert progressed == names
        text = report.render()
        assert "Reproduction report" in text
        assert "# Paper claims" in text
        assert report.total_seconds > 0
        assert set(SCALES) == {"smoke", "quick", "full"}
        # Every quick-scale row was evaluated, and every one holds.
        expected = [
            claim.id for name in names
            for claim in claims.claims_for(name, "quick")
        ]
        assert [c["id"] for c in report.claims] == expected
        assert claims.failures(report.claims) == []

    def test_failing_claim_makes_report_exit_nonzero(
        self, monkeypatch, tmp_path, capsys
    ):
        from repro.experiments import runner

        monkeypatch.setattr(
            runner, "build_specs",
            lambda scale, seed=0: [runner.ExperimentSpec("Table 1", run_table1)],
        )
        out = str(tmp_path / "report.txt")
        assert cli_main(["report", "--scale", "smoke", "--out", out]) == 0
        broken = claims.Claim(
            "table1.broken", "Table 1", "tau1", "-",
            lambda r: r.example_rates["tau1 (full-ack)"], claims.cmp("<", 0),
        )
        monkeypatch.setattr(claims, "CLAIMS", claims.CLAIMS + [broken])
        with pytest.raises(SystemExit) as exit_info:
            cli_main(["report", "--scale", "smoke", "--out", out])
        assert exit_info.value.code == 1
        assert "table1.broken" in capsys.readouterr().err
        with open(out) as handle:
            assert "FAIL  table1.broken" in handle.read()

    def test_run_all_scale_validation(self):
        from repro.experiments.runner import run_all

        with pytest.raises(ValueError):
            run_all(scale="giant")

    def test_report_save(self, tmp_path):
        from repro.experiments.runner import ExperimentRecord, ReproductionReport

        report = ReproductionReport(scale="quick")
        report.records.append(ExperimentRecord("X", 0.1, "body"))
        target = tmp_path / "report.txt"
        report.save(str(target))
        assert "body" in target.read_text()


class TestCommTable:
    """The full report's comm-table rows, applied to smaller runs."""

    def test_measured_ordering_matches_analytic(self):
        from repro.experiments.comm_table import run_comm_table

        result = run_comm_table(packets=1000, seed=2)
        assert_held(claims.evaluate(claims.COMM, result))

    def test_section9_band_for_paai1(self):
        """PAAI-1's measured overhead sits in §9's few-percent band."""
        from repro.experiments.comm_table import run_comm_table

        result = run_comm_table(packets=1500, seed=3)
        assert_held(claims.evaluate(claims.COMM, result), ids={"comm.paai1_band"})

    def test_render(self):
        from repro.experiments.comm_table import run_comm_table

        text = run_comm_table(packets=300, seed=4).render()
        assert "Measured communication overhead" in text
        assert "sig-ack" in text


class TestMeasuredSweeps:
    def test_corollary3_measured_shapes(self):
        from repro.experiments.sweeps import run_corollary3_measured

        result = run_corollary3_measured(runs=400, seed=1)
        assert_held(claims.evaluate(claims.SWEEPS, result))

    def test_sweep_validation(self):
        from repro.core.params import ProtocolParams
        from repro.experiments.sweeps import sweep_detection

        with pytest.raises(ConfigurationError):
            sweep_detection(
                "full-ack", "x", [], lambda v: ProtocolParams()
            )

    def test_sweep_render(self):
        from repro.core.params import ProtocolParams
        from repro.experiments.sweeps import sweep_detection

        result = sweep_detection(
            "full-ack", "sigma", [0.1],
            lambda sigma: ProtocolParams(sigma=sigma),
            malicious_node=4, runs=100, seed=2,
        )
        text = result.render()
        assert "Measured sweep" in text


class TestTheorem1Sharpness:
    def test_conviction_switches_on_at_ceiling(self):
        from repro.experiments.ablations import run_theorem1_sharpness

        result = run_theorem1_sharpness(
            factors=(0.5, 2.0), runs=800, horizon=150_000, seed=2
        )
        assert_held(claims.evaluate(claims.THM1, result))
