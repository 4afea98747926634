"""Unit coverage for the fast-path building blocks: DrawStream's
bit-identity with ``random.Random``, failure schedules against naive
per-draw consumption, HotPRF's (and its batched coin's) identity with
PRF, the coin tables against per-round PRF coins, CounterBatch semantics,
and the backend-seam plumbing."""

import math
import random

import pytest

from repro.crypto.hashing import packet_identifier
from repro.crypto.keys import DEFAULT_KEY_SEED, KeyManager
from repro.crypto.prf import PRF, HotPRF, fraction_threshold
from repro.exceptions import ConfigurationError
from repro.mc.detection import ModelBackend
from repro.net import fastpath
from repro.net.backend import (
    BACKEND_NAMES,
    DetectionRequest,
    EventBackend,
    get_backend,
    run_seed,
    wire_send_interval,
)
from repro.net.fastpath import (
    BLOCK,
    COIN_CHUNK,
    COIN_TABLES,
    DrawStream,
    FailureSchedule,
    FastpathBackend,
    clear_coin_tables,
    coin_table,
    stream_seed,
)
from repro.net.rng import RngFactory
from repro.obs.registry import (
    CounterBatch,
    MetricsRegistry,
    NullRegistry,
    using_registry,
)
from repro.workloads.scenarios import paper_scenario


class TestDrawStream:
    def test_matches_random_random_large_seed(self):
        seed = (37 << 32) | 12345  # numpy two-word path
        stream = DrawStream(seed)
        reference = random.Random(seed)
        assert [stream.random() for _ in range(10_000)] == [
            reference.random() for _ in range(10_000)
        ]

    def test_matches_random_random_small_seed(self):
        seed = 12345  # below 2**32: scalar fallback path
        stream = DrawStream(seed)
        reference = random.Random(seed)
        assert [stream.random() for _ in range(5_000)] == [
            reference.random() for _ in range(5_000)
        ]

    def test_matches_factory_stream(self):
        factory = RngFactory(982451653)
        for label in ("link-0", "link-5", "adversary-4"):
            stream = DrawStream(stream_seed(982451653, label))
            reference = factory.stream(label)
            assert [stream.random() for _ in range(100)] == [
                reference.random() for _ in range(100)
            ]

    def test_rejects_oversized_seed(self):
        with pytest.raises(ValueError):
            DrawStream(1 << 64)

    def test_stream_seed_matches_factory_method(self):
        assert stream_seed(7, "link-3") == RngFactory(7).stream_seed("link-3")


class _NaiveStream:
    """Per-draw reference: a unit reads one draw and, when it survives,
    ``stride - 1`` more (the link latency draw)."""

    def __init__(self, seed, probability, stride):
        self.rng = random.Random(seed)
        self.probability = probability
        self.stride = stride
        self.position = 0

    def fail(self):
        failed = self.rng.random() < self.probability
        self.position += 1
        if not failed:
            for _ in range(self.stride - 1):
                self.rng.random()
                self.position += 1
        return failed

    def clean(self, units):
        state = self.rng.getstate(), self.position
        run = 0
        while run < units and not self.fail():
            run += 1
        self.rng.setstate(state[0])
        self.position = state[1]
        return run


class TestFailureSchedule:
    LARGE_SEED = stream_seed(982451653, "link-3")  # numpy two-word path
    SMALL_SEED = 12345  # below 2**32: scalar fallback path

    @pytest.mark.parametrize("stride", [1, 2], ids=["unpaired", "paired"])
    @pytest.mark.parametrize("probability", [0.0, 1e-4, 0.01, 1.0])
    @pytest.mark.parametrize("seed", [LARGE_SEED, SMALL_SEED], ids=["large", "small"])
    def test_matches_naive_consumption(self, seed, probability, stride):
        schedule = FailureSchedule(seed, probability, stride)
        naive = _NaiveStream(seed, probability, stride)
        steer = random.Random(seed ^ stride)
        # Mixed single units and bulk skips past >= 3 block boundaries.
        while naive.position < 3 * BLOCK + 500:
            if steer.random() < 0.5:
                assert schedule.fail() == naive.fail()
            else:
                wanted = steer.randrange(1, 400)
                run = schedule.clean(wanted)
                assert run == naive.clean(wanted)
                schedule.skip(run)
                for _ in range(run):
                    assert not naive.fail()
            assert schedule.cursor == naive.position

    def test_keeps_failure_indices_not_draws(self):
        probability = 0.01
        schedule = FailureSchedule(self.LARGE_SEED, probability, stride=2)
        while schedule.cursor < 3 * BLOCK:
            schedule.skip(schedule.clean(10_000))
            schedule.fail()
        reference = DrawStream(self.LARGE_SEED)
        draws = [reference.random() for _ in range(4 * BLOCK)]
        kept = [index for lane in schedule._lanes for index in lane]
        assert all(draws[index] < probability for index in kept)
        assert len(kept) < 0.05 * BLOCK  # a block's failures, not its draws
        assert not schedule._draws._buffer  # no per-draw buffer was filled

    def test_unit_probabilities_read_no_draws(self):
        never = FailureSchedule(self.LARGE_SEED, 0.0, stride=2)
        always = FailureSchedule(self.LARGE_SEED, 1.0, stride=1)
        assert never.clean(10**9) == 10**9
        assert always.clean(10) == 0 and always.fail()
        assert never._draws is None and always._draws is None


class TestHotPRF:
    def test_identical_to_prf(self):
        prf = PRF(b"k" * 32, label="statfl-sketch")
        hot = prf.hot()
        for index in range(200):
            data = b"packet-%d" % index
            assert hot.digest(data) == prf.digest(data)
            assert hot.fraction(data) == prf.fraction(data)
            for probability in (0.0, 0.01, 0.5, 1.0):
                assert hot.bernoulli(data, probability) == prf.bernoulli(
                    data, probability
                )

    def test_long_key_hashed_like_hmac(self):
        key = bytes(range(200))  # above the 64-byte HMAC block
        prf = PRF(key, label="x")
        assert prf.hot().digest(b"data") == prf.digest(b"data")

    def test_bernoulli_validates_probability(self):
        hot = HotPRF(b"key")
        with pytest.raises(ValueError):
            hot.bernoulli(b"data", 1.5)


class TestBatchedCoin:
    PROBABILITIES = [0.0, 1.0, 0.01, 1 / 36]

    @staticmethod
    def _neighbours(probability):
        return sorted(
            {
                min(1.0, max(0.0, value))
                for value in (
                    probability,
                    math.nextafter(probability, 0.0),
                    math.nextafter(probability, 2.0),
                )
            }
        )

    def test_equals_prf_bernoulli(self):
        prf = PRF(b"k" * 32, label="paai1-secure-sampling")
        hot = prf.hot()
        inputs = [b"packet-%d" % index for index in range(300)]
        for probability in self.PROBABILITIES:
            for p in self._neighbours(probability):
                expected = [prf.bernoulli(data, p) for data in inputs]
                assert hot.bernoulli_many(inputs, p) == expected

    def test_threshold_is_exact_at_its_edges(self):
        for probability in self.PROBABILITIES:
            for p in self._neighbours(probability):
                threshold = fraction_threshold(p)
                for value in (threshold - 1, threshold, threshold + 1):
                    if 0 <= value < 1 << 64:
                        assert (value < threshold) == (
                            value / float(1 << 64) < p
                        )

    def test_values_rounding_up_to_two_pow_64(self):
        top = 1 << 64
        for value in (top - 1, top - 512, top - 1024):
            assert float(value) == float(top)  # rounds up: fraction 1.0
            assert not value < fraction_threshold(1.0)
            assert not value / float(top) < 1.0
        assert top - 1025 < fraction_threshold(1.0)
        assert (top - 1025) / float(top) < 1.0

    def test_empty_batch_and_validation(self):
        hot = HotPRF(b"key")
        assert hot.bernoulli_many([], 0.5) == []
        with pytest.raises(ValueError):
            hot.bernoulli_many([b"data"], 1.5)
        with pytest.raises(ValueError):
            hot.bernoulli(b"data", -0.1)


def _reference_coins(family, path_length, interval, probability, rounds,
                     key_seed=DEFAULT_KEY_SEED):
    """Per-round coins the event engine's agents draw, one PRF call each."""
    keys = KeyManager(path_length, seed=key_seed)
    if family == "paai1":
        prfs = [PRF(keys.source_sampling_key, label="paai1-secure-sampling")]
    else:
        prfs = [
            PRF(keys.master_key(position), label="statfl-sketch")
            for position in range(1, path_length + 1)
        ]
    identifiers = [
        packet_identifier(b"data-%016d" % index, index * interval)
        for index in range(rounds)
    ]
    return [
        [prf.bernoulli(identifier, probability) for identifier in identifiers]
        for prf in prfs
    ]


class TestCoinTable:
    #: (family, path length, probability)
    FAMILIES = [("paai1", 6, 1 / 36), ("statfl", 3, 0.25)]
    INTERVAL = wire_send_interval(paper_scenario().params)

    @pytest.fixture(autouse=True)
    def fresh_tables(self):
        clear_coin_tables()
        yield
        clear_coin_tables()

    def _check(self, family, path_length, interval, probability, rounds,
               key_seed=DEFAULT_KEY_SEED):
        rows, sampled = coin_table(
            family, path_length, interval, probability, key_seed=key_seed
        ).upto(rounds)
        expected = _reference_coins(
            family, path_length, interval, probability, rounds, key_seed
        )
        assert rows.shape == (len(expected), rounds)
        assert rows.tolist() == expected
        assert list(sampled) == [
            index for index, coin in enumerate(expected[0]) if coin
        ]
        return rows

    @pytest.mark.parametrize(
        "family, path_length, probability",
        FAMILIES,
        ids=[family for family, _, _ in FAMILIES],
    )
    def test_rows_equal_per_round_prf(self, family, path_length, probability):
        # Growth from a short horizon to longer ones, then a shorter one;
        # none but the last is a multiple of COIN_CHUNK.
        for rounds in (300, COIN_CHUNK + 1, 2 * COIN_CHUNK + 77, 700,
                       2 * COIN_CHUNK):
            self._check(
                family, path_length, self.INTERVAL, probability, rounds
            )
        rows, sampled = coin_table(
            family, path_length, self.INTERVAL, probability
        ).upto(0)
        assert rows.shape[1] == 0 and sampled == ()

    @pytest.mark.parametrize(
        "family, path_length, probability",
        FAMILIES,
        ids=[family for family, _, _ in FAMILIES],
    )
    def test_every_key_part_selects_its_own_table(
        self, family, path_length, probability
    ):
        rounds = 400
        base = self._check(
            family, path_length, self.INTERVAL, probability, rounds
        )
        for interval, p, key_seed in [
            (self.INTERVAL, 2 * probability, DEFAULT_KEY_SEED),
            (2 * self.INTERVAL, probability, DEFAULT_KEY_SEED),
            (self.INTERVAL, probability, b"another-key-seed"),
        ]:
            rows = self._check(
                family, path_length, interval, p, rounds, key_seed
            )
            assert rows.tolist() != base.tolist()
        # A longer path: statfl gains a row, PAAI-1 keeps its coins.
        self._check(family, path_length + 1, self.INTERVAL, probability, rounds)
        # The first table is still there, untouched.
        assert coin_table(
            family, path_length, self.INTERVAL, probability
        ).upto(rounds)[0].tolist() == base.tolist()

    def test_rows_are_read_only(self):
        table = coin_table("statfl", 3, self.INTERVAL, 0.5)
        short, _ = table.upto(100)
        with pytest.raises(ValueError):
            short[0, 0] = not short[0, 0]
        long, sampled = table.upto(COIN_CHUNK + 5)
        with pytest.raises(ValueError):
            long[:, -1] = True
        assert isinstance(sampled, tuple)
        # A slice handed out before the table grew keeps its values.
        assert short.tolist() == long[:, :100].tolist()

    def test_least_recently_used_table_is_evicted(self):
        def table(index):
            return coin_table("paai1", 6, self.INTERVAL, 1 / (index + 2))

        kept = {index: table(index) for index in (0, 1)}
        for index in range(2, COIN_TABLES + 1):
            assert table(0) is kept[0]  # keeps table 0 recently used
            kept[index] = table(index)
        # COIN_TABLES + 1 tables were built; table 1, never touched again,
        # was the one evicted.
        assert len(fastpath._coin_tables) == COIN_TABLES
        assert table(0) is kept[0]
        assert table(1) is not kept[1]  # built afresh, evicting table 2
        for index in range(3, COIN_TABLES + 1):
            assert table(index) is kept[index]
        assert table(2) is not kept[2]
        assert len(fastpath._coin_tables) == COIN_TABLES


class TestCounterBatch:
    def test_batches_and_flushes_sums(self):
        registry = MetricsRegistry()
        batch = CounterBatch(registry)
        for _ in range(5):
            batch.inc("net.link.transmissions", link="0", kind="data")
        batch.inc("net.link.transmissions", 3, link="0", kind="data")
        batch.inc("net.link.transmissions", 2, link="1", kind="data")
        assert len(batch) == 2  # two pending label sets, not 10 events
        batch.flush()
        assert registry.counter_value(
            "net.link.transmissions", link="0", kind="data"
        ) == 8
        assert registry.counter_value(
            "net.link.transmissions", link="1", kind="data"
        ) == 2
        assert len(batch) == 0

    def test_zero_amount_is_dropped(self):
        batch = CounterBatch(MetricsRegistry())
        batch.inc("protocol.rounds", 0, protocol="full-ack")
        assert len(batch) == 0

    def test_disabled_registry_is_noop(self):
        batch = CounterBatch(NullRegistry())
        assert not batch.enabled
        batch.inc("protocol.rounds", 5, protocol="full-ack")
        assert len(batch) == 0
        batch.flush()  # must not raise

    def test_binds_active_registry_by_default(self):
        registry = MetricsRegistry()
        with using_registry(registry):
            batch = CounterBatch()
            batch.inc("protocol.rounds", 4, protocol="paai1")
            batch.flush()
        assert registry.counter_value(
            "protocol.rounds", protocol="paai1"
        ) == 4


class TestBackendSeam:
    def test_backend_names_resolve(self):
        assert BACKEND_NAMES == ("model", "fastpath", "event")
        assert isinstance(get_backend("event"), EventBackend)
        assert isinstance(get_backend("fastpath"), FastpathBackend)
        assert isinstance(get_backend("model"), ModelBackend)
        with pytest.raises(ConfigurationError):
            get_backend("warp")

    def test_request_validation(self):
        scenario = paper_scenario()
        with pytest.raises(ConfigurationError):
            DetectionRequest("full-ack", scenario, runs=0, horizon=10,
                             checkpoints=[10], seed=0)
        with pytest.raises(ConfigurationError):
            DetectionRequest("full-ack", scenario, runs=1, horizon=10,
                             checkpoints=[10, 5], seed=0)
        with pytest.raises(ConfigurationError):
            DetectionRequest("full-ack", scenario, runs=1, horizon=10,
                             checkpoints=[], seed=0)
        with pytest.raises(ConfigurationError):
            DetectionRequest("full-ack", scenario, runs=1, horizon=10,
                             checkpoints=[10], seed=0, run_offset=-1)
        with pytest.raises(ConfigurationError):
            DetectionRequest("full-ack", scenario, runs=1, horizon=10,
                             checkpoints=[5, 15], seed=0)

    def test_run_seed_is_stable_and_distinct(self):
        assert run_seed(0, 0) == run_seed(0, 0)
        assert run_seed(0, 0) != run_seed(0, 1)
        assert run_seed(0, 0) != run_seed(1, 0)

    def test_send_interval_serializes_rounds(self):
        params = paper_scenario().params
        assert wire_send_interval(params) == 6.0 * params.r0
