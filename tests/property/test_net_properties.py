"""Property-based tests for the network substrate."""

from hypothesis import given, settings
from hypothesis import strategies as st

from repro.net.events import EventQueue
from repro.net.node import Node, PacketStore
from repro.net.packets import DataPacket, Direction
from repro.net.path import Path
from repro.net.simulator import Simulator


class Collector(Node):
    def __init__(self, position):
        super().__init__(position)
        self.received = []

    def on_packet(self, packet, direction):
        self.received.append(packet.sequence)


class TestEventOrdering:
    @given(times=st.lists(st.floats(0.0, 1000.0, allow_nan=False,
                                    allow_infinity=False),
                          min_size=1, max_size=100))
    def test_events_fire_in_time_order(self, times):
        queue = EventQueue()
        fired = []
        for time in times:
            queue.schedule(time, lambda t=time: fired.append(t))
        while (item := queue.pop()) is not None:
            item[1]()
        assert fired == sorted(times)

    @given(times=st.lists(st.floats(0.0, 100.0, allow_nan=False),
                          min_size=1, max_size=60))
    def test_simulator_clock_never_regresses(self, times):
        simulator = Simulator()
        observed = []
        for time in times:
            simulator.schedule_at(time, lambda: observed.append(simulator.now))
        simulator.run()
        assert observed == sorted(observed)

    @settings(max_examples=200)
    @given(
        events=st.lists(
            st.tuples(
                st.sampled_from([0.0, 0.5, 1.0, 1.0 + 2**-40, 3.0]),
                st.booleans(),  # cancelled before it fires
                st.booleans(),  # cancelled after it fires
            ),
            min_size=1,
            max_size=80,
        )
    )
    def test_pop_order_len_and_handles_under_ties_and_cancels(self, events):
        """Pops follow ``(time, insertion order)`` over the live events;
        ``len()`` counts only live events; handles read their time and
        cancellation. Cancelling a fired event changes nothing queued."""
        queue = EventQueue()
        fired = []
        handles = [
            queue.schedule(time, lambda index=index: fired.append(index))
            for index, (time, _, _) in enumerate(events)
        ]
        for handle, (_, before, _) in zip(handles, events):
            if before:
                handle.cancel()
        live = [i for i, (_, before, _) in enumerate(events) if not before]
        assert len(queue) == len(live)
        assert queue.size() == len(events)
        for handle, (time, before, _) in zip(handles, events):
            assert handle.time == time
            assert handle.cancelled is before

        expected = sorted(live, key=lambda i: (events[i][0], i))
        while (item := queue.pop()) is not None:
            time, action = item
            action()
            index = fired[-1]
            assert time == events[index][0]
            assert len(queue) == len(live) - len(fired)
            if events[index][2]:
                handles[index].cancel()
                assert handles[index].cancelled
                assert len(queue) == len(live) - len(fired)
        assert fired == expected
        assert len(queue) == 0
        assert queue.peek_time() is None
        for handle, (time, _, _) in zip(handles, events):
            assert handle.time == time


class TestFifoLinks:
    @settings(max_examples=25)
    @given(
        count=st.integers(2, 60),
        seed=st.integers(0, 10_000),
        gap=st.floats(0.0, 0.002),
    )
    def test_no_reordering_on_a_link(self, count, seed, gap):
        """Packets sent in order on a link arrive in order regardless of
        the per-packet latency draws — FIFO is what lets a probe trail its
        data packet safely."""
        simulator = Simulator(seed=seed)
        path = Path(simulator, length=1, natural_loss=0.0, max_latency=0.005)
        sender, receiver = Collector(0), Collector(1)
        path.attach_nodes([sender, receiver])

        for index in range(count):
            simulator.schedule_at(
                index * gap,
                lambda i=index: sender.send_forward(
                    DataPacket.create(b"p%d" % i, timestamp=0.0, sequence=i)
                ),
            )
        simulator.run()
        assert receiver.received == sorted(receiver.received)
        assert len(receiver.received) == count


class TestPacketStoreInvariants:
    @given(
        operations=st.lists(
            st.tuples(st.sampled_from(["add", "pop"]), st.integers(0, 15)),
            max_size=100,
        )
    )
    def test_size_and_peak_consistency(self, operations):
        store = PacketStore()
        alive = set()
        clock = 0.0
        peak = 0
        for action, key in operations:
            clock += 1.0
            identifier = bytes([key])
            if action == "add":
                store.add(identifier, clock)
                alive.add(identifier)
            else:
                store.pop(identifier, clock)
                alive.discard(identifier)
            peak = max(peak, len(alive))
            assert len(store) == len(alive)
            for identifier in alive:
                assert identifier in store
        assert store.peak == peak
