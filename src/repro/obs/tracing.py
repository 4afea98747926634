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

Paths constructed while the active session has a collector
(:func:`using_collector`) attach themselves automatically, which is how
the CLI's ``--trace-out`` flag traces experiments without threading a
collector through every experiment entry point.
"""

from __future__ import annotations

import json
from collections import OrderedDict
from dataclasses import dataclass, field
from functools import partial
from typing import TYPE_CHECKING, Iterator, List, Optional, Tuple
from weakref import WeakKeyDictionary

from repro.exceptions import ConfigurationError
from repro.obs.registry import ACTIVE, using_part

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
    path_id: int  # the collector's number for the path (attach order)
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
    interface and can be attached to any number of paths. Spans carry
    the collector's own path number, given in :meth:`attach` order
    (``attached`` counts them): simulators all number their paths from
    0, and runs share key material.
    """

    def __init__(self, capacity: int = 100_000) -> None:
        if capacity <= 0:
            raise ConfigurationError("capacity must be positive")
        self._capacity = capacity
        self._spans: "OrderedDict[str, RoundSpan]" = OrderedDict()
        #: ``(number, length)`` per attached path and per link of one;
        #: made on first attach, so a fresh collector pickles.
        self._paths: Optional[WeakKeyDictionary] = None
        self.attached = 0
        self.evicted = 0

    # -- path attachment ---------------------------------------------------

    def attach(self, path) -> None:
        """Subscribe to ``path``'s link and node events (idempotent; a
        re-attached path keeps its number)."""
        if self._paths is None:
            self._paths = WeakKeyDictionary()
        if path not in self._paths:
            for key in [path, *path.links]:
                self._paths[key] = (self.attached, path.length)
            self.attached += 1
        path.add_observer(self)

    def detach(self, path) -> None:
        path.remove_observer(self)

    # -- PathObserver interface --------------------------------------------

    def on_transmit(self, link, packet: Packet, direction: Direction) -> None:
        self._record(link.simulator.now, self._paths[link], packet,
                     direction, SEND, link=link.index)

    def on_loss(self, link, packet: Packet, direction: Direction) -> None:
        self._record(link.simulator.now, self._paths[link], packet,
                     direction, LOSS, link=link.index)

    def on_deliver(self, link, packet: Packet, direction: Direction) -> None:
        self._record(link.simulator.now, self._paths[link], packet,
                     direction, DELIVER, link=link.index)

    def on_node_drop(self, node, packet: Packet, direction: Direction,
                     cause: str) -> None:
        self._record(node.path.simulator.now, self._paths[node.path], packet,
                     direction, DROP, node=node.position)

    # -- recording ---------------------------------------------------------

    def _open(self, identifier: str, sequence: int, path_id: int,
              path_length: int, start: float) -> RoundSpan:
        """The span for ``(path_id, identifier)``, created if new."""
        key = f"{path_id}:{identifier}"
        span = self._spans.get(key)
        if span is None:
            span = self._spans[key] = RoundSpan(
                identifier=identifier,
                sequence=sequence,
                path_id=path_id,
                path_length=path_length,
                start=start,
            )
            if len(self._spans) > self._capacity:
                self._spans.popitem(last=False)
                self.evicted += 1
        return span

    def _record(
        self,
        now: float,
        path: Tuple[int, int],
        packet: Packet,
        direction: Direction,
        kind: str,
        link: Optional[int] = None,
        node: Optional[int] = None,
    ) -> None:
        span = self._open(packet.identifier.hex(), packet.sequence, *path,
                          now)
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

    def absorb(self, spans: List[RoundSpan], attached: int,
               evicted: int) -> None:
        """Append another collector's spans, its path numbers shifted
        after this one's, as if they had been recorded here."""
        offset = self.attached
        for span in spans:
            mine = self._open(span.identifier, span.sequence,
                              offset + span.path_id, span.path_length,
                              span.start)
            for event in span.events:
                mine.add(event)
        self.attached += attached
        self.evicted += evicted

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


def get_collector() -> Optional[RoundTraceCollector]:
    """The active session's collector, which new paths auto-attach to."""
    return ACTIVE.session.collector


#: ``with using_collector(collector):`` swaps the session's collector.
using_collector = partial(using_part, "collector")


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
    "using_collector",
    "read_jsonl",
    "SEND",
    "LOSS",
    "DELIVER",
    "DROP",
]
