"""Vectorized fast-path wire backend.

Replays wire detection rounds without the event queue. The discrete-event
engine spends almost all of its time scheduling and dispatching per-packet
events; under the serialized-round traffic schedule
(:func:`repro.net.backend.wire_send_interval`) each round's outcome is a
pure function of the random draws it consumes, so the round can be
replayed directly — walk the data packet link by link, then the ack, then
the probe, then the report cascade — provided the draws come from the
*same* ``RngFactory`` streams in the same per-stream order.

Why per-stream order is sufficient
----------------------------------
The event engine owns one ``random.Random`` per link
(``rng.stream("link-<i>")``, serving loss *and* latency draws for both
directions) and one per adversary (``rng.stream("adversary-<pos>")``).
Two backends agree byte-for-byte iff every stream is consumed in the same
order — the *global* interleaving across streams is irrelevant. Within a
serialized round, each link stream sees its draws in packet-lifecycle
order (data, then e2e ack, then probe, then report cascade — later phases
start strictly later in simulated time, and each cascade crosses a link
at most once), so a phase-ordered sequential replay consumes every stream
identically. This also covers PAAI-1's pipelined probe, which trails the
data packet by one hop in event time but still draws after it on every
individual link stream (FIFO links, later send times).

Failure schedules
-----------------
Each stream is consumed in *units* with a fixed draw pattern. A link
crossing takes one loss draw and, when the packet survives, one latency
draw (its value cannot change outcomes under serialized rounds, but it
keeps the stream aligned); an adversary coin takes one draw. So the k-th
unit on a stream starts at a draw index fixed by the outcomes of units
``0..k-1`` on that stream alone, and it fails exactly when that draw is
below the stream's probability (``ρ`` or the drop rate).
:class:`FailureSchedule` therefore keeps only a cursor and the indices of
the failing draws, found with ``flatnonzero(block < p)`` over blocks of
the very doubles the event engine draws. A surviving crossing advances the
cursor by two, so the loss draws of a run of surviving crossings share
the cursor's parity: link schedules split their failure indices by
parity, and the first failure in the cursor's lane ends the run.

:class:`DrawStream` reproduces CPython's Mersenne Twister with numpy:
``random.Random(seed)`` for ``2**32 <= seed < 2**64`` seeds the twister
via ``init_by_array([seed & 0xffffffff, seed >> 32])``, exactly what
``np.random.RandomState`` does for a two-element ``uint32`` seed array,
and both produce doubles with the same 53-bit recipe. Stream seeds are
the first 8 bytes of ``sha256(f"{seed}:{label}")`` (mirroring
``RngFactory.stream``), so they virtually always take the numpy path and
are drawn :data:`BLOCK` at a time. Seeds below ``2**32`` fall back to a
scalar ``random.Random``.

Clean-round skipping
--------------------
A *clean* round loses nothing, drops nothing, delivers the data and ends
there: the onion-ack e2e ack is verified too, the PAAI-1 round is not
sampled, the statfl round is not an interval-request boundary. Every
stream spends a fixed number of surviving units on it and its effects are
fixed — one transmission per link and pass, and fixed protocol counters.
The replay asks every schedule how many surviving units lie ahead, skips
the common number of clean rounds in one step, and walks only the rounds
in between, link by link, taking their crossings and coins from the same
schedules.

PAAI-1's sampling coins and statfl's sketch coins are PRFs of the data
packet's identifier, keyed from the fixed
:data:`repro.crypto.keys.DEFAULT_KEY_SEED`: a coin depends on the keys,
the round, the send interval and the probability, never on the run seed.
So each process keeps a bounded :class:`CoinTable` per (key seed, PRF
label, path length, interval, probability) — :data:`COIN_TABLES` tables,
least recently used evicted, one byte per (row, round). The first run
that needs rounds past a table's end evaluates only those, a
:data:`COIN_CHUNK` at a time (:meth:`repro.crypto.prf.HotPRF.bernoulli_many`
over :func:`repro.crypto.hashing.packet_identifiers`); every later run of
every batch slices the table's read-only rows and PAAI-1's sampled-round
indices. ``--jobs`` workers each build their own.

Eligibility
-----------
:func:`classify_reasons` lists why a request cannot be replayed
exactly — fault schedules, bidirectional (reverse-path) adversaries,
probe retransmissions, windowed scoreboards, tight freshness windows, or
protocols without a ported round model — and any request with a reason
runs on the full event engine. The engine used per run is recorded in
``BackendRunResult.engines``, the reasons in ``BackendRunResult.reasons``.
"""

from __future__ import annotations

import random
from bisect import bisect_left
from collections import OrderedDict
from typing import Dict, List, Optional, Tuple

import numpy as np

from repro.crypto.hashing import packet_identifiers
from repro.crypto.keys import DEFAULT_KEY_SEED, KeyManager
from repro.crypto.prf import PRF, HotPRF
from repro.net.backend import (
    BackendRunResult,
    DetectionRequest,
    EventBackend,
    RunLedgerScribe,
    SimulationBackend,
    run_seed,
    wire_send_interval,
)
from repro.net.rng import RngFactory
from repro.obs.profile import phase as profile_phase
from repro.obs.registry import (
    NULL_REGISTRY,
    CounterBatch,
    metrics_enabled,
    using_registry,
)
from repro.protocols.models import decision_thresholds

#: Doubles drawn per vectorized refill of a :class:`DrawStream`.
BLOCK = 4096

#: Rounds whose PRF coins are evaluated in one batch.
COIN_CHUNK = 1024

#: Coin tables kept per process; the least recently used is evicted.
COIN_TABLES = 8

#: ``fastpath_family`` tags with a ported round replay.
PORTED_FAMILIES = ("onion-ack", "paai1", "statfl")

_FORWARD = "forward"
_REVERSE = "reverse"
_DATA = "data"
_PROBE = "probe"
_ACK = "ack"

#: Retransmissions of a statfl report request (``StatFLSource.MAX_ATTEMPTS``).
_STATFL_MAX_ATTEMPTS = 3


class DrawStream:
    """Batched clone of one ``RngFactory.stream`` ``random.Random``.

    :meth:`block` yields the stream's doubles :data:`BLOCK` at a time,
    through numpy when the seed admits the two-word ``init_by_array``
    equivalence (see module docstring); :meth:`random` serves the same
    sequence one double at a time. A stream is read through one of the
    two, never both.
    """

    __slots__ = ("_state", "_buffer", "_position", "_scalar")

    def __init__(self, seed: int) -> None:
        if seed >> 32:
            if seed >> 64:  # RngFactory seeds are 64-bit; guard anyway
                raise ValueError(f"stream seed out of range: {seed}")
            words = np.array(
                [seed & 0xFFFFFFFF, seed >> 32], dtype=np.uint32
            )
            self._state = np.random.RandomState(words)
            self._scalar = None
        else:
            self._state = None
            self._scalar = random.Random(seed)
        self._buffer: List[float] = []
        self._position = 0

    def block(self) -> np.ndarray:
        """The next :data:`BLOCK` doubles in [0, 1), as one array."""
        if self._scalar is not None:
            draw = self._scalar.random
            return np.array([draw() for _ in range(BLOCK)])
        return self._state.random_sample(BLOCK)

    def random(self) -> float:
        """Next double in [0, 1) — bit-identical to the event engine's."""
        if self._position >= len(self._buffer):
            self._buffer = self.block().tolist()
            self._position = 0
        value = self._buffer[self._position]
        self._position += 1
        return value


class FailureSchedule:
    """One stream seen through its failing draws, consumed unit by unit.

    A unit is a link crossing (``stride`` 2) or an adversary coin
    (``stride`` 1). The unit starting at draw ``cursor`` fails iff that
    draw is below ``probability``; a failed unit consumes one draw, a
    surviving one ``stride`` draws. Only failure indices are kept, in
    ``stride`` lanes by ``index % stride``: the deciding draws of a run
    of surviving units all lie in the cursor's lane, so the first failure
    there ends the run. A probability outside (0, 1) decides every draw
    without reading it (doubles lie in [0, 1)), so no stream is drawn.
    """

    __slots__ = ("cursor", "_stride", "_probability", "_draws", "_lanes", "_scanned")

    def __init__(self, seed: int, probability: float, stride: int) -> None:
        self.cursor = 0
        self._stride = stride
        self._probability = probability
        self._draws = DrawStream(seed) if 0.0 < probability < 1.0 else None
        self._lanes: List[List[int]] = [[] for _ in range(stride)]
        self._scanned = 0  # draws examined so far

    def _first_failure(self, limit: int) -> int:
        """Index of the first failing draw at or past the cursor in the
        cursor's lane; ``limit`` or more when none lies below ``limit``."""
        if self._draws is None:
            return self.cursor if self._probability >= 1.0 else limit
        lane = self._lanes[self.cursor % self._stride]
        while True:
            at = bisect_left(lane, self.cursor)
            if at < len(lane):
                return lane[at]
            if self._scanned >= limit:
                return limit
            self._scan()

    def _scan(self) -> None:
        """Index the failures of the next block; forget those behind the cursor."""
        block = self._draws.block()
        hits = np.flatnonzero(block < self._probability) + self._scanned
        self._scanned += len(block)
        for residue, lane in enumerate(self._lanes):
            del lane[: bisect_left(lane, self.cursor)]
            lane.extend(hits[hits % self._stride == residue].tolist())

    def fail(self) -> bool:
        """Consume one unit; True when it fails."""
        failed = self._first_failure(self.cursor + 1) == self.cursor
        self.cursor += 1 if failed else self._stride
        return failed

    def clean(self, units: int) -> int:
        """How many of the next ``units`` units survive in a row."""
        limit = self.cursor + units * self._stride
        return (min(self._first_failure(limit), limit) - self.cursor) // self._stride

    def skip(self, units: int) -> None:
        """Consume ``units`` units known to survive."""
        self.cursor += units * self._stride


def stream_seed(root_seed: int, label: str) -> int:
    """Seed of ``RngFactory(root_seed).stream(label)``."""
    return RngFactory(root_seed).stream_seed(label)


#: Per family: the coins' PRF label and the keys of its rows, in row order.
_COIN_PRFS = {
    # PAAI-1's SecureSampler: one source-only sampling key.
    "paai1": ("paai1-secure-sampling", lambda keys: [keys.source_sampling_key]),
    # statfl's sketch: row ``position - 1`` is node ``position``'s coin.
    "statfl": (
        "statfl-sketch",
        lambda keys: [
            keys.master_key(position)
            for position in range(1, keys.path_length + 1)
        ],
    ),
}


class CoinTable:
    """Every round's PRF coins for one family of PRFs, grown on demand.

    Column ``i`` of row ``r`` is PRF ``r``'s coin on the identifier of the
    data packet sent in round ``i`` (payload ``data-<i>``, timestamp
    ``i * interval``). Nothing here depends on the run seed, so one table
    serves every run of every batch with the same keys, interval and
    probability. :meth:`upto` evaluates only the rounds past the table's
    end, :data:`COIN_CHUNK` at a time, and returns read-only slices.

    Memory: one byte per (row, round) — a statfl table over ``d`` nodes
    and ``H`` rounds holds ``d * H`` bytes (48 KB at d=6, H=8,000) — plus
    one Python int per set row-0 coin (225 sampled rounds for PAAI-1 at
    d=6, H=8,000).
    """

    __slots__ = ("_prfs", "_probability", "_interval", "_state")

    def __init__(
        self, prfs: List[HotPRF], probability: float, interval: float
    ) -> None:
        self._prfs = prfs
        self._probability = probability
        self._interval = interval
        empty = np.zeros((len(prfs), 0), dtype=bool)
        empty.flags.writeable = False
        # (rows, rounds whose row-0 coin is set), replaced as one value.
        self._state: Tuple[np.ndarray, Tuple[int, ...]] = (empty, ())

    def upto(self, horizon: int) -> Tuple[np.ndarray, Tuple[int, ...]]:
        """The coins of rounds ``0 .. horizon - 1`` (one read-only row per
        PRF) and, ascending, those rounds whose row-0 coin is set — PAAI-1's
        sampled rounds."""
        rows, hits = self._state
        start = rows.shape[1]
        if start < horizon:
            parts = [rows]
            # One pass per COIN_CHUNK rounds, not per round.
            for begin in range(start, horizon, COIN_CHUNK):
                sequences = range(begin, min(begin + COIN_CHUNK, horizon))
                identifiers = packet_identifiers(
                    [b"data-%016d" % sequence for sequence in sequences],
                    [sequence * self._interval for sequence in sequences],
                )
                parts.append(
                    np.array(
                        [
                            prf.bernoulli_many(identifiers, self._probability)
                            for prf in self._prfs
                        ],
                        dtype=bool,
                    )
                )
            rows = np.concatenate(parts, axis=1)
            rows.flags.writeable = False
            hits += tuple((np.flatnonzero(rows[0, start:]) + start).tolist())
            self._state = (rows, hits)
        return rows[:, :horizon], hits[: bisect_left(hits, horizon)]


_coin_tables: "OrderedDict[tuple, CoinTable]" = OrderedDict()


def coin_table(
    family: str,
    path_length: int,
    interval: float,
    probability: float,
    key_seed: bytes = DEFAULT_KEY_SEED,
) -> CoinTable:
    """The process's :class:`CoinTable` for ``family``'s coins on a path
    of ``path_length`` keyed from ``key_seed``.

    At most :data:`COIN_TABLES` tables are kept, least recently used
    evicted first; each holds its rounds at one byte per (row, round).
    """
    label, row_keys = _COIN_PRFS[family]
    key = (key_seed, label, path_length, interval, probability)
    table = _coin_tables.get(key)
    if table is None:
        # Whether a run finds its table built depends on what ran before
        # in the process, so building one must not show in the metrics.
        with using_registry(NULL_REGISTRY):
            keys = KeyManager(path_length, seed=key_seed)
            prfs = [PRF(row, label=label).hot() for row in row_keys(keys)]
        table = CoinTable(prfs, probability, interval)
        _coin_tables[key] = table
        while len(_coin_tables) > COIN_TABLES:
            _coin_tables.popitem(last=False)
    else:
        _coin_tables.move_to_end(key)
    return table


def clear_coin_tables() -> None:
    """Forget every coin table (the next run evaluates its coins afresh)."""
    _coin_tables.clear()


def classify_reasons(request: DetectionRequest) -> List[str]:
    """Every ineligibility reason for ``request``, deduplicated and
    sorted — empty when the replay is exact.

    Anything that perturbs packet lifecycles beyond the regular
    per-crossing loss/adversary coins — fault schedules, reverse-path
    droppers, retransmission timing, windowed scoring, freshness windows
    tight enough to expire in-flight packets — must run on the event
    engine. The returned order is canonical (sorted), never the clause
    evaluation order, so ledger/report bytes cannot flake when a request
    trips multiple clauses at once.
    """
    from repro.protocols.registry import protocol_class

    reasons: List[str] = []
    family = getattr(protocol_class(request.protocol), "fastpath_family", None)
    if family not in PORTED_FAMILIES:
        reasons.append(
            f"protocol {request.protocol!r} has no vectorized round model"
        )
    if request.faults is not None:
        reasons.append("fault schedule requires event-engine timing")
    scenario = request.scenario
    if scenario.bidirectional:
        reasons.append("bidirectional adversary drops on the reverse path")
    params = scenario.params
    if params.probe_retries != 0:
        reasons.append("probe retransmission changes per-round draw order")
    if params.score_window is not None:
        reasons.append("windowed scoreboard is not round-order invariant")
    if params.freshness_window < 0.5 * params.r0:
        reasons.append("freshness window below in-flight transit bound")
    return sorted(set(reasons))


class _MetricTally:
    """Plain-dict counter accumulation, flushed once per backend run.

    The event engine pays one ``Counter.inc()`` per occurrence; the fast
    path tallies in local dicts and publishes each series with a single
    batched increment (``CounterBatch``) so the metrics surface matches
    while the hot loop touches no registry machinery.
    """

    def __init__(self) -> None:
        self.links: Dict[Tuple[str, int, str, str], int] = {}
        self.nodes: Dict[Tuple[int, str, str, str], int] = {}
        self.protocol: Dict[str, int] = {}

    def link_series(
        self, name: str, kind: str, direction: str, counts: List[int]
    ) -> None:
        """Merge one per-link count vector into the tally."""
        for link, amount in enumerate(counts):
            if amount:
                key = (name, link, kind, direction)
                self.links[key] = self.links.get(key, 0) + amount

    def node_drop(self, node: int, kind: str, direction: str, cause: str) -> None:
        key = (node, kind, direction, cause)
        self.nodes[key] = self.nodes.get(key, 0) + 1

    def protocol_event(self, name: str, amount: int = 1) -> None:
        self.protocol[name] = self.protocol.get(name, 0) + amount

    def publish(self, protocol_name: str) -> None:
        if not metrics_enabled():
            return
        batch = CounterBatch()
        # The replayed wire run builds exactly one Path on a fresh
        # Simulator, so the event engine stamps every series with
        # path id 0; the fast path must emit identical labels for the
        # engine-equivalence gate to hold byte-for-byte.
        for (name, link, kind, direction), amount in self.links.items():
            batch.inc(
                name,
                amount,
                link=str(link),
                path="0",
                kind=kind,
                direction=direction,
            )
        for (node, kind, direction, cause), amount in self.nodes.items():
            batch.inc(
                "net.node.drops",
                amount,
                node=str(node),
                path="0",
                kind=kind,
                direction=direction,
                cause=cause,
            )
        for name, amount in self.protocol.items():
            batch.inc(name, amount, protocol=protocol_name, path="0")
        batch.flush()


class _RoundReplay:
    """Sequential replay of one wire run's serialized rounds."""

    def __init__(
        self,
        request: DetectionRequest,
        seed: int,
        family: str,
        tally: _MetricTally,
    ) -> None:
        scenario = request.scenario
        params = scenario.params
        self.family = family
        self.d = params.path_length
        self.interval = wire_send_interval(params)
        self.horizon = request.checkpoints[-1]
        self.tally = tally
        self.links = [
            FailureSchedule(
                stream_seed(seed, f"link-{index}"), params.natural_loss, stride=2
            )
            for index in range(self.d)
        ]
        # Adversary streams draw one coin per matching crossing, but only
        # when the rate is strictly positive (PaperTacticAdversary
        # short-circuits the draw at rate 0).
        self.adversaries: Dict[int, FailureSchedule] = {
            position: FailureSchedule(
                stream_seed(seed, f"adversary-{position}"), rate, stride=1
            )
            for position, rate in scenario.malicious_nodes.items()
            if rate > 0.0
        }
        self.schedules = self.links + list(self.adversaries.values())
        # Per-link transmission/loss tallies, one (tx, loss) vector pair
        # per traffic class the replay generates. Plain list increments
        # keep the per-crossing cost at two index operations; the vectors
        # merge into the shared tally once per run.
        self.series: Dict[Tuple[str, str], Tuple[List[int], List[int]]] = {
            (_DATA, _FORWARD): ([0] * self.d, [0] * self.d),
            (_PROBE, _FORWARD): ([0] * self.d, [0] * self.d),
            (_ACK, _REVERSE): ([0] * self.d, [0] * self.d),
        }
        # A clean round relays the data forward and, for onion-ack, the
        # e2e ack back: one surviving unit per pass on every stream.
        self.clean_tx = [self.series[_DATA, _FORWARD][0]]
        if family == "onion-ack":
            self.clean_tx.append(self.series[_ACK, _REVERSE][0])
        # Scoreboard mirror (DirectEstimator state) for the onion families.
        self.board_rounds = 0
        self.scores = [0] * self.d
        # Protocol counter mirrors (published as protocol.* series).
        self.obs_rounds = 0
        self.probes_sent = 0
        self.acks_verified = 0
        self.report_timeouts = 0
        self.sampling_hits = 0
        self.next_round = 0
        # Per-round PRF coins, one column per round (see CoinTable).
        if family == "paai1":
            self.coins, self.sampled_rounds = coin_table(
                family, self.d, self.interval, params.probe_frequency
            ).upto(self.horizon)
        elif family == "statfl":
            self.fl_sampling = request.fl_sampling
            self.fl_interval = request.fl_interval
            self.coins, _ = coin_table(
                family, self.d, self.interval, request.fl_sampling
            ).upto(self.horizon)
            self.sketch_counts = [0] * (self.d + 1)
            self.latest_counts: Dict[int, int] = {}
            self.latest_snapshot: Dict[int, int] = {}
            self.resolved_requests = 0

    def merge_tally(self) -> None:
        """Fold this run's per-link vectors into the shared tally."""
        for (kind, direction), (tx, loss) in self.series.items():
            self.tally.link_series(
                "net.link.transmissions", kind, direction, tx
            )
            self.tally.link_series(
                "net.link.natural_losses", kind, direction, loss
            )

    # -- round driver ------------------------------------------------------

    def advance(self, until: int) -> None:
        """Replay rounds ``next_round .. until - 1``: clean stretches in
        one step each, every other round walked."""
        index = self.next_round
        while index < until:
            clean = self._clean_rounds(min(until, self._next_busy(index)) - index)
            if clean:
                self._skip(index, clean)
                index += clean
            if index < until:
                self._walk_round(index)
                index += 1
        self.next_round = index

    def _next_busy(self, index: int) -> int:
        """First round at or after ``index`` that must be walked whatever
        its draws: a sampled PAAI-1 round, a statfl request boundary."""
        if self.family == "paai1":
            at = bisect_left(self.sampled_rounds, index)
            if at < len(self.sampled_rounds):
                return self.sampled_rounds[at]
            return self.horizon
        if self.family == "statfl":
            return index + (-(index + 1)) % self.fl_interval
        return self.horizon

    def _clean_rounds(self, limit: int) -> int:
        """How many of the next ``limit`` rounds every stream survives."""
        passes = len(self.clean_tx)
        rounds = limit
        for schedule in self.schedules:
            if not rounds:
                break
            rounds = schedule.clean(rounds * passes) // passes
        return rounds

    def _skip(self, index: int, rounds: int) -> None:
        """Apply ``rounds`` clean rounds starting at round ``index``."""
        for schedule in self.schedules:
            schedule.skip(rounds * len(self.clean_tx))
        for tx in self.clean_tx:
            for link in range(self.d):
                tx[link] += rounds
        if self.family == "onion-ack":
            self.acks_verified += rounds
            self.board_rounds += rounds
            self.obs_rounds += rounds
        elif self.family == "statfl":
            self.board_rounds += rounds
            sampled = self.coins[:, index : index + rounds].sum(axis=1)
            for position, count in enumerate(sampled.tolist(), start=1):
                self.sketch_counts[position] += count

    # -- draw primitives ---------------------------------------------------

    def _cross(self, link: int, tx: List[int], loss: List[int]) -> bool:
        """One crossing attempt; True when the packet survives.

        Mirrors ``Link.transmit``: the transmission counts before the
        loss draw, and the schedule's stride consumes the survivor's
        latency draw.
        """
        tx[link] += 1
        if self.links[link].fail():
            loss[link] += 1
            return False
        return True

    def _coin(self, position: int, kind: str, direction: str, cause: str) -> bool:
        """Adversary drop coin at ``position``; True when dropped."""
        schedule = self.adversaries.get(position)
        if schedule is None or not schedule.fail():
            return False
        self.tally.node_drop(position, kind, direction, cause)
        return True

    # -- packet walks ------------------------------------------------------

    def _forward_walk(self, kind: str) -> int:
        """Walk a forward packet relayed by every reached node.

        Returns the deepest node reached (0..d). Matches data packets
        (all families) and statfl report requests: an egress coin at
        each malicious relay, then the link's loss/latency draws.
        """
        tx, loss = self.series[kind, _FORWARD]
        at = 0
        while True:
            if at >= 1 and self._coin(at, kind, _FORWARD, "egress"):
                return at
            if not self._cross(at, tx, loss):
                return at
            at += 1
            if at == self.d:
                return at

    def _ack_walk(self) -> Tuple[bool, int]:
        """Walk the destination's e2e ack back toward the source.

        Returns ``(verified, death_index)``. The paper-tactic adversary
        swallows e2e acks at *ingress*, after the link draws — so both a
        link loss on ``l_j`` and a swallow at ``F_j`` leave exactly nodes
        ``1..j`` still holding state (the ack popped every node it
        passed under full-ack's ``"pop"`` policy, and an ingress swallow
        skips the pop).
        """
        tx, loss = self.series[_ACK, _REVERSE]
        link = self.d - 1
        while link >= 0:
            if not self._cross(link, tx, loss):
                return False, link
            if link == 0:
                return True, -1
            if self._coin(link, _ACK, _REVERSE, "ingress"):
                return False, link
            link -= 1
        return True, -1  # unreachable; loop exits via link == 0

    def _probe_walk(self, frontier: int, delivered: bool) -> Optional[int]:
        """Walk the probe; return the report-cascade origin (or None).

        ``frontier`` is the deepest forwarder still holding the packet's
        entry. Forwarders past it discard the probe (after the link
        draws are consumed); forwarders up to it mark themselves probed
        *before* their egress coin, so a node that drops the relayed
        probe still answers the cascade. A probe that reaches the
        destination finds an entry only when the data was delivered.
        """
        tx, loss = self.series[_PROBE, _FORWARD]
        deepest_probed = 0
        at = 0
        while True:
            if at >= 1 and self._coin(at, _PROBE, _FORWARD, "egress"):
                break
            if not self._cross(at, tx, loss):
                break
            at += 1
            if at == self.d:
                if delivered:
                    return self.d
                break  # no entry at the destination: probe discarded
            if at > frontier:
                break  # no entry at this forwarder: probe discarded
            deepest_probed = at
        return deepest_probed if deepest_probed >= 1 else None

    def _cascade(self, origin: Optional[int]) -> Optional[int]:
        """Replay the report cascade; return the accepted report's depth.

        A chain from ``origin`` crosses links ``origin-1 .. 0`` (loss and
        latency only — every node on the path relays reports honestly).
        When it dies crossing link ``j``, node ``j``'s own report timer
        re-originates a chain from depth ``j``. Timer spacing guarantees
        a traveling chain always beats downstream timers, so at most one
        chain is in flight and each link is crossed at most once.
        """
        tx, loss = self.series[_ACK, _REVERSE]
        while origin:
            link = origin - 1
            survived = True
            while link >= 0:
                if not self._cross(link, tx, loss):
                    survived = False
                    break
                link -= 1
            if survived:
                return origin
            origin = link if link >= 1 else None
        return None

    # -- round models ------------------------------------------------------

    def _walk_round(self, index: int) -> None:
        if self.family == "statfl":
            self._statfl_round(index)
        else:
            self._onion_round(index)

    def _onion_round(self, index: int) -> None:
        """One full-ack / sig-ack / PAAI-1 round."""
        d = self.d
        paai1 = self.family == "paai1"
        reach = self._forward_walk(_DATA)
        delivered = reach == d
        if paai1:
            if not self.coins[0, index]:
                return  # unmonitored packet: no probe, no observation
            self.sampling_hits += 1
            frontier = min(reach, d - 1)
        else:
            if delivered:
                verified, death = self._ack_walk()
                if verified:
                    self.acks_verified += 1
                    self.board_rounds += 1
                    self.obs_rounds += 1
                    return
                frontier = death
            else:
                frontier = min(reach, d - 1)
        self.probes_sent += 1
        depth = self._cascade(self._probe_walk(frontier, delivered))
        self.board_rounds += 1
        self.obs_rounds += 1
        if depth is None:
            self.report_timeouts += 1
            self.scores[0] += 1  # footnote 8: silence blames l_0
        elif depth == d:
            if paai1:
                self.acks_verified += 1  # complete onion == delivery proof
        else:
            self.scores[depth] += 1

    def _statfl_round(self, index: int) -> None:
        """One statfl data round, plus the interval report collection."""
        self.board_rounds += 1
        reach = self._forward_walk(_DATA)
        for position in range(1, reach + 1):
            if self.coins[position - 1, index]:
                self.sketch_counts[position] += 1
        sent = index + 1
        if sent % self.fl_interval == 0:
            self._statfl_request(snapshot=sent)

    def _statfl_request(self, snapshot: int) -> None:
        """Replay one report-request lifecycle (up to 3 attempts).

        Attempts are self-contained: every cascade resolves strictly
        before the attempt timer, and every forwarder entry is popped
        (by the chain or its own timer) before the next attempt arrives,
        so the replay is a simple sequential loop. Counters wrapped into
        reports are the values stored at request arrival, which equal
        the current cumulative sketch counts (no data is in flight).
        """
        for _attempt in range(_STATFL_MAX_ATTEMPTS):
            self.probes_sent += 1
            reach = self._forward_walk(_PROBE)
            origin = reach if reach >= 1 else None
            depth = self._cascade(origin)
            if depth is not None:
                for position in range(1, depth + 1):
                    self.latest_counts[position] = self.sketch_counts[position]
                    self.latest_snapshot[position] = snapshot
                self.acks_verified += 1
                self.resolved_requests += 1
                return
        self.report_timeouts += 1
        self.resolved_requests += 1

    # -- estimator mirrors -------------------------------------------------

    def estimates(self) -> List[float]:
        if self.family == "statfl":
            return self._statfl_estimates()
        return self._direct_estimates()

    def _direct_estimates(self) -> List[float]:
        """``DirectEstimator`` verbatim: per-link blame frequency."""
        if self.board_rounds == 0:
            return [0.0] * self.d
        return [score / self.board_rounds for score in self.scores]

    def _statfl_estimates(self) -> List[float]:
        """``StatFLSource.survival_fractions``/``estimates`` verbatim."""
        fractions = [1.0]
        for position in range(1, self.d + 1):
            count = self.latest_counts.get(position)
            snapshot = self.latest_snapshot.get(position, 0)
            if count is None or snapshot == 0:
                fractions.append(float("nan"))
                continue
            fractions.append(count / (self.fl_sampling * snapshot))
        estimates = []
        for link in range(self.d):
            upstream, downstream = fractions[link], fractions[link + 1]
            if upstream != upstream or upstream <= 0.0:
                estimates.append(0.0)
                continue
            if downstream != downstream:
                if self.resolved_requests > 0:
                    downstream = 0.0
                else:
                    estimates.append(0.0)
                    continue
            estimates.append(max(0.0, 1.0 - downstream / upstream))
        return estimates


class FastpathBackend(SimulationBackend):
    """Vectorized round replay with automatic event-engine fallback."""

    name = "fastpath"

    def run(self, request: DetectionRequest) -> BackendRunResult:
        reasons = classify_reasons(request)
        if reasons:
            fallback = EventBackend().run(request)
            fallback.reasons = reasons
            return fallback
        from repro.protocols.registry import protocol_class

        family = protocol_class(request.protocol).fastpath_family
        params = request.scenario.params
        thresholds = np.asarray(decision_thresholds(request.protocol, params))
        convictions = np.zeros(
            (len(request.checkpoints), request.runs, params.path_length),
            dtype=bool,
        )
        estimates_last = np.zeros((request.runs, params.path_length))
        tally = _MetricTally()
        for run_index in range(request.runs):
            with profile_phase("setup"):
                replay = _RoundReplay(
                    request,
                    run_seed(request.seed, request.run_offset + run_index),
                    family,
                    tally,
                )
            scribe = RunLedgerScribe(request, run_index, thresholds)
            estimates = np.zeros(params.path_length)
            for slot, checkpoint in enumerate(request.checkpoints):
                with profile_phase("wire-replay"):
                    replay.advance(checkpoint)
                with profile_phase("scoring"):
                    estimates = np.asarray(replay.estimates())
                with profile_phase("conviction"):
                    convictions[slot, run_index] = estimates > thresholds
                    scribe.checkpoint(
                        checkpoint, estimates, convictions[slot, run_index]
                    )
            scribe.verdict(request.checkpoints[-1])
            estimates_last[run_index] = estimates
            replay.merge_tally()
            tally.protocol_event("protocol.rounds", replay.obs_rounds)
            tally.protocol_event("protocol.probes_sent", replay.probes_sent)
            tally.protocol_event(
                "protocol.acks_verified", replay.acks_verified
            )
            tally.protocol_event(
                "protocol.report_timeouts", replay.report_timeouts
            )
            tally.protocol_event(
                "protocol.sampling_hits", replay.sampling_hits
            )
        tally.publish(request.protocol)
        return BackendRunResult(
            convictions=convictions,
            estimates_last=estimates_last,
            engines=["fastpath"] * request.runs,
        )
