"""Tests of the experiment harness: every table/figure runner produces
structurally correct output whose headline numbers land in the paper's
bands (at reduced run counts for test speed)."""

import json

import pytest

from repro.cli import main as cli_main
from repro.core.params import ProtocolParams
from repro.exceptions import ConfigurationError
from repro.experiments.ablations import (
    run_burst_loss,
    run_corollary1,
    run_corollary3,
    run_incrimination,
)
from repro.experiments.figure2 import run_figure2
from repro.experiments.figure3 import run_figure3_panel
from repro.experiments.table1 import run_table1
from repro.experiments.table2 import run_table2


class TestTable1:
    def test_paper_example_numbers(self):
        result = run_table1()
        rates = result.example_rates
        assert rates["tau1 (full-ack)"] == pytest.approx(1500, rel=0.06)
        assert rates["tau2 (PAAI-1)"] == pytest.approx(5e4, rel=0.1)
        assert rates["tau3 (PAAI-2)"] == pytest.approx(6e5, rel=0.1)
        assert rates["statistical FL"] == pytest.approx(2e7, rel=0.2)

    def test_render_contains_all_rows(self):
        text = run_table1().render()
        for name in ("Full-ack", "PAAI-1", "PAAI-2", "Statistical FL",
                     "Combination 1", "Combination 2"):
            assert name in text


class TestTable2:
    def test_bounds_and_averages(self):
        result = run_table2(runs=300, storage_packets=1500, seed=3)
        rows = {row.protocol: row for row in result.rows}
        # Bound column (paper: 0.25 / 9 / 100 / 3333 minutes).
        assert rows["full-ack"].detection_bound_minutes == pytest.approx(0.25, rel=0.06)
        assert rows["paai1"].detection_bound_minutes == pytest.approx(9.0, rel=0.1)
        assert rows["paai2"].detection_bound_minutes == pytest.approx(100.0, rel=0.1)
        assert rows["statfl"].detection_bound_minutes == pytest.approx(3333.0, rel=0.2)
        # Averages beat the bounds (paper: "nearly twice" better).
        assert rows["full-ack"].detection_average_minutes < 0.25
        assert rows["paai1"].detection_average_minutes < 9.0
        assert rows["paai2"].detection_average_minutes < 100.0
        assert rows["statfl"].detection_average_minutes is None
        # Storage: bound 12 / 3.2 / 12 / <1 packets; averages below bounds.
        assert rows["full-ack"].storage_bound_packets == pytest.approx(12.0)
        assert rows["paai1"].storage_bound_packets == pytest.approx(3.17, rel=0.02)
        assert rows["full-ack"].storage_average_packets < 12.0
        assert rows["paai1"].storage_average_packets < 3.4
        assert rows["statfl"].storage_bound_packets < 1.0

    def test_render(self):
        text = run_table2(runs=100, storage_packets=500, seed=1).render()
        assert "Table 2" in text
        assert "statfl" in text


class TestFigure2:
    def test_fullack_panel(self):
        result = run_figure2("full-ack", runs=500, seed=2)
        assert result.theory_bound_packets == pytest.approx(1500, rel=0.06)
        converged = result.convergence
        assert converged is not None and converged < 4000
        # Rates must end low.
        assert result.detection.curve.fp_rates[-1] <= 0.01
        assert result.detection.curve.fn_rates[-1] <= 0.01

    def test_paai1_panel_scale(self):
        result = run_figure2("paai1", runs=400, seed=3)
        converged = result.convergence
        assert converged is not None
        # Paper: average ~2.5e4, bound 5.4e4.
        assert 8_000 <= converged <= 120_000

    def test_render(self):
        text = run_figure2("full-ack", runs=100, seed=4).render()
        assert "false positive" in text
        assert "theory bound (packets)" in text

    def test_unknown_protocol_needs_horizon(self):
        with pytest.raises(ConfigurationError):
            run_figure2("nope")


class TestFigure3:
    def test_panel_a_series(self):
        result = run_figure3_panel("a", packets=800, seed=5)
        labels = [series.label for series in result.series]
        assert any("full-ack" in label and "w/ AAI" in label for label in labels)
        assert any("paai1" in label for label in labels)
        assert any("paai2" in label for label in labels)
        for series in result.series:
            assert series.peak >= 0
            assert series.samples

    def test_panel_b_matches_table2_storage(self):
        """At 100 pkt/s the PAAI-1 storage average must sit near Table 2's
        3.0 packets and below its 3.2-packet bound (plus sampling slack)."""
        result = run_figure3_panel("b", packets=800, seed=6)
        paai1 = next(s for s in result.series if "paai1" in s.label)
        assert 2.0 < paai1.mean < 3.4, paai1.mean
        fullack = next(s for s in result.series if "full-ack" in s.label)
        assert fullack.peak <= 13  # worst-case bound 12 (+1 transient slack)

    def test_panel_c_position_effect(self):
        """Nodes closer to the destination store less (§8.2.2)."""
        result = run_figure3_panel("c", packets=1200, seed=7)
        by_position = {series.label: series for series in result.series}
        f1 = next(s for s in result.series if "F1" in s.label)
        f5 = next(s for s in result.series if "F5" in s.label)
        assert f5.mean < f1.mean, (f1.mean, f5.mean)

    def test_bad_panel(self):
        with pytest.raises(ConfigurationError):
            run_figure3_panel("z")


class TestAblations:
    def test_corollary1_equivalence(self):
        result = run_corollary1(packets=3000, seed=8)
        # Same total damage within noise...
        assert result.uniform_psi == pytest.approx(result.selective_psi, abs=0.02)
        # ...and both strategies land blame on links adjacent to F4.
        for blame in (result.uniform_blame, result.selective_blame):
            adjacent = blame[3] + blame[4]
            assert adjacent > 0.5 * sum(blame), blame

    def test_corollary3_sweep_shape(self):
        result = run_corollary3()
        sigma_rows = [row for row in result.rows if row[0] == "sigma"]
        assert sigma_rows[0][2] < sigma_rows[-1][2]  # tighter sigma costs more
        d_rows = [row for row in result.rows if row[0].startswith("d")]
        # PAAI-2 blows up with d; full-ack barely moves.
        assert d_rows[-1][4] / d_rows[0][4] > 20
        assert d_rows[-1][2] / d_rows[0][2] < 2

    def test_incrimination_contrast(self):
        result = run_incrimination(packets=12_000, rate=5000.0, seed=9)
        assert result.leaky_convicts_honest
        assert not result.oblivious_convicts_honest
        # The blind attacker's damage lands on its own adjacent link l0.
        assert result.oblivious_estimates[0] == max(result.oblivious_estimates)

    def test_burst_loss_same_average(self):
        result = run_burst_loss(packets=3000, seed=10)
        mean_bernoulli = sum(result.bernoulli_estimates) / 6
        mean_burst = sum(result.burst_estimates) / 6
        assert mean_bernoulli == pytest.approx(mean_burst, rel=0.6)


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
    def test_spread_and_concentrated_comparable_when_stealthy(self):
        from repro.experiments.ablations import run_corollary2

        result = run_corollary2(z=3, packets=6000, seed=4)
        # At stealth rates the two deployments inflict comparable total
        # damage (the concentrated one loses only the shadowing overlap).
        assert result.spread_damage == pytest.approx(
            result.concentrated_damage, rel=0.45
        )
        # Spread damage accumulates ~linearly with z.
        by_z = result.spread_damage_by_z
        assert by_z == sorted(by_z)
        per_path = [by_z[0]] + [
            b - a for a, b in zip(by_z, by_z[1:])
        ]
        assert max(per_path) < 3.5 * max(min(per_path), 1e-4)

    def test_mostly_stealthy(self):
        from repro.experiments.ablations import run_corollary2

        result = run_corollary2(z=3, packets=6000, seed=5)
        # A correctly-tuned stealth rate stays near/below the conviction
        # boundary: at most a stray link convicted per deployment.
        assert result.concentrated_convictions <= 1
        assert result.spread_convictions <= 2

    def test_validation(self):
        from repro.experiments.ablations import run_corollary2
        from repro.exceptions import ConfigurationError

        with pytest.raises(ConfigurationError):
            run_corollary2(z=10)


class TestRunnerReport:
    def test_run_all_quick_structure(self):
        from repro.experiments.runner import SCALES, run_all

        progressed = []
        report = run_all(scale="quick", seed=1, progress=progressed.append)
        names = [record.name for record in report.records]
        assert "Table 1" in names
        assert "Table 2" in names
        assert any("Figure 2" in name for name in names)
        assert any("Figure 3" in name for name in names)
        assert any("Corollary" in name for name in names)
        assert progressed == names
        text = report.render()
        assert "Reproduction report" in text
        assert report.total_seconds > 0
        assert set(SCALES) == {"smoke", "quick", "full"}

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
    def test_measured_ordering_matches_analytic(self):
        from repro.experiments.comm_table import run_comm_table

        result = run_comm_table(packets=1000, seed=2)
        rows = {row.protocol: row for row in result.rows}
        # Table 1's communication ordering, measured on the wire.
        assert rows["statfl"].measured_ratio < rows["combo1"].measured_ratio
        assert rows["combo1"].measured_ratio < rows["paai1"].measured_ratio
        assert rows["paai1"].measured_ratio < rows["full-ack"].measured_ratio
        assert rows["combo2"].measured_ratio < rows["paai2"].measured_ratio
        # Footnote 1 quantified: signatures dominate everything.
        assert rows["sig-ack"].measured_ratio > 20 * rows["full-ack"].measured_ratio

    def test_section9_band_for_paai1(self):
        """PAAI-1's measured overhead sits in §9's few-percent band."""
        from repro.experiments.comm_table import run_comm_table

        result = run_comm_table(packets=1500, seed=3)
        paai1 = next(row for row in result.rows if row.protocol == "paai1")
        assert 0.001 < paai1.measured_ratio < 0.02

    def test_render(self):
        from repro.experiments.comm_table import run_comm_table

        text = run_comm_table(packets=300, seed=4).render()
        assert "Measured communication overhead" in text
        assert "sig-ack" in text


class TestMeasuredSweeps:
    def test_corollary3_measured_shapes(self):
        from repro.experiments.sweeps import run_corollary3_measured

        results = {r.parameter + "/" + r.protocol: r
                   for r in run_corollary3_measured(runs=400, seed=1)}

        sigma = results["sigma/full-ack"].points
        # Tighter sigma -> slower convergence; all beat the bound.
        assert sigma[0].measured_convergence < sigma[-1].measured_convergence
        for point in sigma:
            assert point.measured_convergence < point.theory_bound

        d_fullack = results["path length d/full-ack"].points
        spread = max(p.measured_convergence for p in d_fullack) / max(
            1, min(p.measured_convergence for p in d_fullack)
        )
        assert spread < 3.0  # d barely matters for full-ack

        d_paai2 = results["path length d/paai2"].points
        growth = (
            d_paai2[-1].measured_convergence / d_paai2[0].measured_convergence
        )
        assert growth > 2.0  # PAAI-2 degrades with path length

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
        below, above = result.rows
        assert below[2] <= 0.05      # stealthy below the ceiling
        assert above[2] >= 0.95      # caught well above it
        # The adversary's only undetected damage comes from staying below.
        assert below[3] > above[3]
