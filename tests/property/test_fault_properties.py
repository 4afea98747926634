"""Property suite for the robustness contract (ISSUE satellite):

no *benign* fault schedule — faults inside the paper's §3 operating
assumptions — may make any registered protocol falsely accuse an honest
link at a rate above §7's Hoeffding bound. We assert the strictly
stronger statement that the confidence-aware verdict convicts nobody at
all (an empirical false-accusation rate of zero, which no bound can be
below), and that every cell survives the schedule without an unhandled
exception.
"""

import math

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.exceptions import ConfigurationError
from repro.experiments.chaos import (
    cell_seed,
    run_chaos_cell,
    section7_bound,
)
from repro.faults import PRESETS
from repro.protocols.registry import available_protocols

BENIGN_SPECS = sorted(
    name for name, spec in PRESETS.items() if spec.benign
)

ALL_PROTOCOLS = available_protocols()

#: Packet budget per cell, tuned per protocol so the grid stays fast:
#: sig-ack pays for hash-based signatures on every ack, and statfl needs
#: a multiple of its 100-packet chaos reporting interval (a short final
#: partial interval yields degenerate count ratios).
PACKETS = {"sig-ack": 100, "statfl": 200}
DEFAULT_PACKETS = 160


@pytest.mark.parametrize("protocol", ALL_PROTOCOLS)
@pytest.mark.parametrize("spec_name", BENIGN_SPECS)
class TestNoFalseAccusationsUnderBenignFaults:
    @settings(max_examples=2, deadline=None)
    @given(root=st.integers(0, 10_000))
    def test_benign_schedule_convicts_nobody(self, protocol, spec_name, root):
        spec = PRESETS[spec_name]
        cell = run_chaos_cell(
            protocol,
            spec,
            seed=cell_seed(root, protocol, spec_name),
            packets=PACKETS.get(protocol, DEFAULT_PACKETS),
        )
        assert cell.error is None, (
            f"{protocol}/{spec_name} crashed:\n{cell.error}"
        )
        assert cell.false_accusations == [], (
            f"{protocol}/{spec_name} falsely convicted "
            f"{cell.false_accusations} (estimates={cell.estimates}, "
            f"thresholds={cell.thresholds})"
        )
        # Zero observed false accusations trivially satisfies any §7
        # bound; record the comparison explicitly so the contract reads
        # off the test: rate (0.0) <= bound.
        assert 0.0 <= cell.fp_bound <= 1.0
        assert len(cell.false_accusations) / max(cell.rounds, 1) <= (
            cell.fp_bound if cell.fp_bound > 0 else 1.0
        ) or cell.false_accusations == []


#: Benign ``(preset, root)`` cells where statfl once convicted an honest
#: link: a node missing from 2 resolved report requests put loss 1.0 on
#: its upstream link, under an interval sized by 200 data rounds.
STATFL_PINNED_ROOTS = [
    (spec_name, root)
    for spec_name, roots in {
        "baseline": (47, 280, 320, 351),
        "benign-dup": (35, 198, 251),
        "benign-jitter": (136, 391, 6000),
        "burst-blackout": (98, 116, 238),
        "clock-skew": (199, 330, 6000),
        "crash-restart": (65, 105, 126, 274, 318, 375),
    }.items()
    for root in roots
]


@pytest.mark.parametrize("spec_name,root", STATFL_PINNED_ROOTS)
def test_statfl_unreported_node_convicts_nobody(spec_name, root):
    cell = run_chaos_cell(
        "statfl",
        PRESETS[spec_name],
        seed=cell_seed(root, "statfl", spec_name),
        packets=PACKETS["statfl"],
    )
    assert cell.error is None, cell.error
    assert cell.false_accusations == [], (
        f"statfl/{spec_name} root {root} falsely convicted "
        f"{cell.false_accusations} (estimates={cell.estimates})"
    )


class TestSection7Bound:
    @settings(max_examples=50)
    @given(
        rounds=st.integers(0, 10_000_000),
        epsilon=st.floats(1e-4, 1.0, allow_nan=False),
        links=st.integers(1, 16),
    )
    def test_bound_is_a_probability(self, rounds, epsilon, links):
        bound = section7_bound(rounds, epsilon, links)
        assert 0.0 <= bound <= 1.0

    @settings(max_examples=25)
    @given(
        rounds=st.integers(1, 1_000_000),
        epsilon=st.floats(1e-3, 0.5, allow_nan=False),
        links=st.integers(1, 16),
    )
    def test_bound_decreases_with_more_rounds(self, rounds, epsilon, links):
        assert section7_bound(2 * rounds, epsilon, links) <= (
            section7_bound(rounds, epsilon, links)
        )

    def test_vacuous_at_zero_rounds(self):
        assert section7_bound(0, 0.06) == 1.0

    def test_union_bound_over_links(self):
        one = section7_bound(100_000, 0.06, links=1)
        six = section7_bound(100_000, 0.06, links=6)
        assert six == pytest.approx(min(1.0, 6 * one))

    def test_matches_hoeffding_closed_form(self):
        rounds, epsilon = 50_000, 0.06
        expected = 2.0 * math.exp(-2.0 * rounds * (epsilon / 2.0) ** 2)
        assert section7_bound(rounds, epsilon) == pytest.approx(expected)

    def test_rejects_degenerate_parameters(self):
        with pytest.raises(ConfigurationError):
            section7_bound(10, 0.0)
        with pytest.raises(ConfigurationError):
            section7_bound(10, 0.1, links=0)
