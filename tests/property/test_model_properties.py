"""Property-based tests for the outcome models and estimators."""

import numpy as np
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.core.estimators import DifferenceEstimator, DirectEstimator
from repro.core.identification import identify_links
from repro.core.params import ProtocolParams
from repro.core.scoring import ScoreBoard
from repro.protocols import models

rates = st.floats(min_value=0.0, max_value=0.5, allow_nan=False)
rate_arrays = st.lists(rates, min_size=2, max_size=8)


def _params_for(d):
    return ProtocolParams(path_length=d, probe_frequency=1.0 / d ** 2)


@st.composite
def rate_triples(draw):
    d = draw(st.integers(2, 7))
    f = draw(st.lists(rates, min_size=d, max_size=d))
    b_ack = draw(st.lists(rates, min_size=d, max_size=d))
    b_report = draw(st.lists(rates, min_size=d, max_size=d))
    return f, b_ack, b_report


class TestModelDistributions:
    @settings(max_examples=40)
    @given(triple=rate_triples(),
           name=st.sampled_from(["full-ack", "paai1", "paai2", "combo1", "combo2"]))
    def test_probabilities_form_distribution(self, triple, name):
        f, b_ack, b_report = triple
        model = models.build_model(name, f, b_ack, b_report, _params_for(len(f)))
        total = model.probabilities.sum()
        assert abs(total - 1.0) < 1e-9
        assert (model.probabilities >= -1e-12).all()

    @settings(max_examples=30)
    @given(triple=rate_triples())
    def test_estimates_nonnegative_and_bounded(self, triple):
        f, b_ack, b_report = triple
        for name in ("full-ack", "paai2"):
            model = models.build_model(name, f, b_ack, b_report, _params_for(len(f)))
            for estimate in model.expected_estimates():
                assert -1e-12 <= estimate <= len(f) + 1e-9

    @settings(max_examples=30)
    @given(
        d=st.integers(2, 6),
        link=st.integers(0, 5),
        low=st.floats(0.0, 0.2),
        high=st.floats(0.2, 0.6),
    )
    def test_blame_estimate_monotone_in_forward_rate(self, d, link, low, high):
        """Raising a link's forward drop rate cannot lower its expected
        blame estimate under the onion observers."""
        link = link % d
        params = _params_for(d)
        base = [0.01] * d
        f_low, f_high = list(base), list(base)
        f_low[link] = low
        f_high[link] = high
        low_model = models.build_model("full-ack", f_low, base, base, params)
        high_model = models.build_model("full-ack", f_high, base, base, params)
        assert (
            high_model.expected_estimates()[link]
            >= low_model.expected_estimates()[link] - 1e-9
        )

    @settings(max_examples=25)
    @given(d=st.integers(2, 7))
    def test_thresholds_strictly_separate_hypotheses(self, d):
        params = _params_for(d)
        thresholds = models.calibrated_thresholds("paai1", params)
        natural = models.natural_estimates("paai1", params)
        for link in range(d):
            malicious = models.malicious_estimates("paai1", params, link)[link]
            assert natural[link] < thresholds[link] < malicious


class TestEstimatorAlgebra:
    @settings(max_examples=40)
    @given(
        scores=st.lists(st.integers(0, 1000), min_size=1, max_size=8),
        rounds=st.integers(1, 2000),
    )
    def test_direct_estimates_are_frequencies(self, scores, rounds):
        board = ScoreBoard(len(scores))
        for _ in range(rounds):
            board.record_round()
        for link, score in enumerate(scores):
            board.add(link, score)
        estimates = DirectEstimator(board).estimates()
        for score, estimate in zip(scores, estimates):
            assert estimate == score / rounds

    @settings(max_examples=40)
    @given(
        increments=st.lists(st.integers(1, 8), min_size=1, max_size=300),
        d=st.integers(2, 8),
    )
    def test_difference_estimates_nonnegative(self, increments, d):
        """Whatever sequence of valid PAAI-2 interval increments occurs,
        the per-link estimates stay non-negative."""
        board = ScoreBoard(d)
        for selected in increments:
            board.record_round()
            board.add_upstream_interval((selected % d) + 1)
        estimates = DifferenceEstimator(board).estimates()
        assert all(value >= 0.0 for value in estimates)

    @settings(max_examples=40)
    @given(
        estimates=st.lists(st.floats(0.0, 1.0), min_size=1, max_size=10),
        threshold=st.floats(0.001, 1.0),
    )
    def test_identify_matches_manual_comparison(self, estimates, threshold):
        result = identify_links(estimates, threshold)
        expected = {
            index for index, value in enumerate(estimates) if value > threshold
        }
        assert result.convicted == expected


class TestMcEstimatorEquivalence:
    @settings(max_examples=20)
    @given(
        score_rows=st.lists(
            st.lists(st.integers(0, 50), min_size=6, max_size=6),
            min_size=1,
            max_size=5,
        ),
        rounds=st.integers(1, 500),
    )
    def test_vectorized_interval_estimator_matches_scalar(self, score_rows, rounds):
        """The MC engine's vectorized difference estimator must agree with
        the reference ScoreBoard/DifferenceEstimator implementation."""
        from repro.mc.detection import ModelBackend

        d = 6
        # Make rows valid interval-score profiles (non-increasing in j),
        # as real PAAI-2 scoring always produces.
        profiles = []
        for row in score_rows:
            profile = sorted(row, reverse=True)
            profiles.append(profile)
        scores = np.array(profiles)
        rounds_vector = np.full(len(profiles), rounds)
        vectorized = ModelBackend._estimates(
            scores, rounds_vector, models.KIND_INTERVAL, d
        )
        for row_index, profile in enumerate(profiles):
            board = ScoreBoard(d)
            for _ in range(rounds):
                board.record_round()
            for link, score in enumerate(profile):
                board.add(link, score)
            reference = DifferenceEstimator(board).estimates()
            assert np.allclose(vectorized[row_index], reference)


class TestWindowedBoardProperties:
    @settings(max_examples=40)
    @given(
        events=st.lists(
            st.tuples(st.integers(0, 5), st.integers(0, 3)),
            min_size=1,
            max_size=200,
        ),
        window=st.integers(1, 50),
    )
    def test_window_equals_suffix_sum(self, events, window):
        """The windowed totals must equal the sum of the last `window`
        rounds' scores, for any event sequence."""
        from repro.core.windows import WindowedScoreBoard

        d = 6
        board = WindowedScoreBoard(d, window=window)
        history = []
        for link, amount in events:
            board.record_round()
            history.append([0] * d)
            if amount:
                board.add(link, amount)
                history[-1][link] += amount
        expected = [0] * d
        for round_scores in history[-window:]:
            for index, value in enumerate(round_scores):
                expected[index] += value
        assert board.window_scores == expected
        assert board.window_rounds == min(len(history), window)
        # Cumulative view unaffected by windowing.
        totals = [0] * d
        for round_scores in history:
            for index, value in enumerate(round_scores):
                totals[index] += value
        assert board.scores == totals
