"""Round-level tracing spans.

Debugging or auditing an AAI protocol round means following one data
packet's identifier through its whole probe→ack→report lifecycle: the data
packet hop by hop, the probe that chased it, the (onion/oblivious) report
that came back, and any natural loss or adversarial drop along the way.

:class:`RoundTraceCollector` subscribes to the public path/link hook API
(:meth:`repro.net.path.Path.add_observer`) and groups every link and node
event by packet identifier into one :class:`RoundSpan` per round. Spans
export as JSONL — one JSON object per line, one line per round — so large
traces stream instead of accumulating a single document — and render as
a human-readable per-event :meth:`RoundSpan.story` for debugging.
Attaching is idempotent (a path never registers the same observer
twice), and :meth:`RoundTraceCollector.detach` stops recording while
keeping the spans already collected.

A collector can be activated process-wide (:func:`set_collector` /
:func:`using_collector`); paths constructed while a collector is active
attach themselves automatically, which is how the CLI's ``--trace-out``
flag traces experiments without threading a collector through every
experiment entry point.
"""

from __future__ import annotations

import json
from collections import OrderedDict
from contextlib import contextmanager
from dataclasses import dataclass, field
from typing import TYPE_CHECKING, Dict, Iterator, List, Optional

from repro.exceptions import ConfigurationError

if TYPE_CHECKING:  # imported lazily: obs must not depend on repro.net at
    # runtime (repro.net.packets -> repro.crypto -> repro.obs would cycle)
    from repro.net.packets import Direction, Packet

#: Span event kinds (the ``kind`` field of each span event).
SEND = "send"
LOSS = "loss"
DELIVER = "deliver"
DROP = "drop"  # adversarial drop at a node

#: Wire packet categories as they appear in span events — the ``.value``
#: strings of :class:`repro.net.packets.PacketKind`, spelled out here to
#: keep this module import-independent of the net layer.
KIND_DATA = "data"
KIND_PROBE = "probe"
KIND_ACK = "ack"


def _location(event: dict) -> str:
    """Where a span event happened: link ``l<i>`` or dropping node ``F<i>``."""
    if event["link"] is not None:
        return f"l{event['link']}"
    return f"F{event['node']}"


@dataclass
class RoundSpan:
    """Everything observed for one data-packet round.

    ``events`` hold dicts with stable keys::

        {"t": float, "kind": send|loss|deliver|drop, "packet": data|probe|ack,
         "direction": forward|reverse, "link": int | None, "node": int | None,
         "report": bool}

    ``link`` is set for link events, ``node`` for adversarial drops.
    """

    identifier: str  # hex
    sequence: int
    path_id: int
    path_length: int
    start: float
    end: float = 0.0
    events: List[dict] = field(default_factory=list)

    def add(self, event: dict) -> None:
        self.events.append(event)
        self.end = event["t"]

    # -- derived round outcome --------------------------------------------

    @property
    def packet_kinds(self) -> List[str]:
        return sorted({event["packet"] for event in self.events})

    @property
    def data_delivered(self) -> bool:
        """True when the data packet crossed the final link to D."""
        last = self.path_length - 1
        return any(
            e["kind"] == DELIVER
            and e["packet"] == KIND_DATA
            and e["link"] == last
            for e in self.events
        )

    @property
    def probed(self) -> bool:
        return any(e["packet"] == KIND_PROBE for e in self.events)

    @property
    def report_returned(self) -> bool:
        """True when a report-carrying ack made it back across ``l_0``."""
        return any(
            e["kind"] == DELIVER
            and e["packet"] == KIND_ACK
            and e["link"] == 0
            and e["report"]
            for e in self.events
        )

    @property
    def acked(self) -> bool:
        """True when a plain end-to-end ack made it back across ``l_0``."""
        return any(
            e["kind"] == DELIVER
            and e["packet"] == KIND_ACK
            and e["link"] == 0
            and not e["report"]
            for e in self.events
        )

    def outcome(self) -> str:
        """Compact round classification for summaries."""
        if self.report_returned:
            return "reported"
        if self.acked:
            return "acked"
        if self.data_delivered:
            return "delivered"
        drops = [e for e in self.events if e["kind"] in (LOSS, DROP)]
        if drops:
            return f"lost@{_location(drops[0])}"
        return "in-flight"

    def story(self) -> str:
        """Human-readable life of the round, one line per event in time
        order — the debugging view of "where did this round go wrong?"."""
        lines = [
            f"round #{self.sequence} on path {self.path_id}: "
            f"{self.outcome()}"
        ]
        for event in self.events:
            arrow = "->" if event["direction"] == "forward" else "<-"
            report = " (report)" if event["report"] else ""
            lines.append(
                f"  t={event['t'] * 1000:9.3f}ms {_location(event)} {arrow} "
                f"{event['packet']:<5} {event['kind']}{report}"
            )
        return "\n".join(lines)

    def to_dict(self) -> dict:
        return {
            "identifier": self.identifier,
            "sequence": self.sequence,
            "path": self.path_id,
            "start": self.start,
            "end": self.end,
            "outcome": self.outcome(),
            "packet_kinds": self.packet_kinds,
            "probed": self.probed,
            "events": self.events,
        }


class RoundTraceCollector:
    """Aggregates link/node events into per-round spans.

    Parameters
    ----------
    capacity:
        Maximum retained spans; the oldest span is evicted beyond it, so
        long runs stay bounded.

    The collector implements the :class:`repro.net.path.PathObserver`
    interface and can be attached to any number of paths (spans carry the
    path id).
    """

    def __init__(self, capacity: int = 100_000) -> None:
        if capacity <= 0:
            raise ConfigurationError("capacity must be positive")
        self._capacity = capacity
        self._spans: "OrderedDict[str, RoundSpan]" = OrderedDict()
        self._path_lengths: Dict[int, int] = {}
        self.evicted = 0

    # -- path attachment ---------------------------------------------------

    def attach(self, path) -> None:
        """Subscribe to ``path``'s link and node events."""
        self._path_lengths[path.path_id] = path.length
        path.add_observer(self)

    def detach(self, path) -> None:
        path.remove_observer(self)

    # -- PathObserver interface --------------------------------------------

    def on_transmit(self, link, packet: Packet, direction: Direction) -> None:
        self._record(link.simulator.now, link.path_id, packet, direction,
                     SEND, link=link.index)

    def on_loss(self, link, packet: Packet, direction: Direction) -> None:
        self._record(link.simulator.now, link.path_id, packet, direction,
                     LOSS, link=link.index)

    def on_deliver(self, link, packet: Packet, direction: Direction) -> None:
        self._record(link.simulator.now, link.path_id, packet, direction,
                     DELIVER, link=link.index)

    def on_node_drop(self, node, packet: Packet, direction: Direction,
                     cause: str) -> None:
        self._record(node.path.simulator.now, node.path.path_id, packet,
                     direction, DROP, node=node.position)

    # -- recording ---------------------------------------------------------

    def _record(
        self,
        now: float,
        path_id: int,
        packet: Packet,
        direction: Direction,
        kind: str,
        link: Optional[int] = None,
        node: Optional[int] = None,
    ) -> None:
        identifier = packet.identifier.hex()
        # Keyed by (path, identifier): concurrent protocol instances
        # built from the same key material emit identical packet
        # identifiers, so the identifier alone would merge rounds from
        # different paths into one span.
        key = f"{path_id}:{identifier}"
        span = self._spans.get(key)
        if span is None:
            span = RoundSpan(
                identifier=identifier,
                sequence=packet.sequence,
                path_id=path_id,
                path_length=self._path_lengths.get(path_id, 0),
                start=now,
            )
            self._spans[key] = span
            if len(self._spans) > self._capacity:
                self._spans.popitem(last=False)
                self.evicted += 1
        span.add(
            {
                "t": now,
                "kind": kind,
                "packet": packet.kind.value,
                "direction": direction.value,
                "link": link,
                "node": node,
                "report": bool(getattr(packet, "is_report", False)),
            }
        )

    # -- querying ----------------------------------------------------------

    def __len__(self) -> int:
        return len(self._spans)

    def spans(self) -> List[RoundSpan]:
        """All retained spans in creation (start-time) order."""
        return list(self._spans.values())

    def span_for(
        self, identifier: bytes, path_id: int = 0
    ) -> Optional[RoundSpan]:
        return self._spans.get(f"{path_id}:{identifier.hex()}")

    # -- export ------------------------------------------------------------

    def to_jsonl_lines(self) -> Iterator[str]:
        for span in self._spans.values():
            yield json.dumps(span.to_dict(), sort_keys=True)

    def write_jsonl(self, path: str) -> int:
        """Write one span per line; returns the number of spans written."""
        written = 0
        with open(path, "w") as handle:
            for line in self.to_jsonl_lines():
                handle.write(line)
                handle.write("\n")
                written += 1
        return written


# -- process-wide active collector ----------------------------------------


class _ActiveState:
    __slots__ = ("collector",)

    def __init__(self) -> None:
        self.collector: Optional[RoundTraceCollector] = None


_STATE = _ActiveState()


def get_collector() -> Optional[RoundTraceCollector]:
    """The collector new paths auto-attach to, or None."""
    return _STATE.collector


def set_collector(collector: Optional[RoundTraceCollector]) -> None:
    _STATE.collector = collector


@contextmanager
def using_collector(
    collector: Optional[RoundTraceCollector],
) -> Iterator[Optional[RoundTraceCollector]]:
    """Activate ``collector`` for the dynamic extent of the block."""
    previous = _STATE.collector
    _STATE.collector = collector
    try:
        yield collector
    finally:
        _STATE.collector = previous


def read_jsonl(path: str) -> List[dict]:
    """Load a span file written by :meth:`RoundTraceCollector.write_jsonl`."""
    spans = []
    with open(path) as handle:
        for line in handle:
            line = line.strip()
            if line:
                spans.append(json.loads(line))
    return spans


__all__ = [
    "RoundSpan",
    "RoundTraceCollector",
    "get_collector",
    "set_collector",
    "using_collector",
    "read_jsonl",
    "SEND",
    "LOSS",
    "DELIVER",
    "DROP",
]
