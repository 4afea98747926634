"""Discrete-event network substrate.

The paper evaluates its protocols on a single multi-hop forwarding path
(Figure 1): nodes ``F_0 = S, F_1, ..., F_d = D`` joined by links
``l_0 .. l_{d-1}``, each link exhibiting independent natural loss and a
uniformly distributed per-direction latency, with loosely synchronized node
clocks. This package provides that substrate as a small discrete-event
simulator:

* :mod:`repro.net.rng` — deterministic, labeled random streams;
* :mod:`repro.net.clock` — simulation clock plus per-node skew;
* :mod:`repro.net.events` — event queue and scheduler;
* :mod:`repro.net.packets` — the packet taxonomy (data/probe/ack);
* :mod:`repro.net.loss` — Bernoulli and Gilbert-Elliott loss models;
* :mod:`repro.net.latency` — link latency models;
* :mod:`repro.net.link` — lossy, delaying wires and the per-path links
  riding them;
* :mod:`repro.net.node` — node runtime: packet store, timers, forwarding;
* :mod:`repro.net.path` — the linear path topology;
* :mod:`repro.net.simulator` — the engine tying it together;
* :mod:`repro.net.stats` — counters for packets and overhead.

Observability: links accept :class:`~repro.net.link.LinkObserver`
listeners and paths accept :class:`~repro.net.path.PathObserver`
observers (link events plus adversarial node drops) — the supported hook
surface that :mod:`repro.obs` builds on; its
:class:`~repro.obs.tracing.RoundTraceCollector` groups those events into
per-round spans with a readable :meth:`~repro.obs.tracing.RoundSpan.story`.
"""

from repro.net.clock import NodeClock, SimClock
from repro.net.events import EventQueue
from repro.net.latency import FixedLatency, UniformLatency
from repro.net.link import Link, LinkObserver, Wire
from repro.net.loss import BernoulliLoss, GilbertElliottLoss, NoLoss
from repro.net.node import Node, PacketStore
from repro.net.packets import (
    AckPacket,
    DataPacket,
    Direction,
    Packet,
    PacketKind,
    ProbePacket,
)
from repro.net.path import Path, PathObserver
from repro.net.rng import RngFactory
from repro.net.simulator import Simulator
from repro.net.stats import LinkStats, PathStats

__all__ = [
    "SimClock",
    "NodeClock",
    "EventQueue",
    "UniformLatency",
    "FixedLatency",
    "Link",
    "LinkObserver",
    "Wire",
    "BernoulliLoss",
    "GilbertElliottLoss",
    "NoLoss",
    "Node",
    "PacketStore",
    "Packet",
    "PacketKind",
    "Direction",
    "DataPacket",
    "ProbePacket",
    "AckPacket",
    "Path",
    "PathObserver",
    "RngFactory",
    "Simulator",
    "LinkStats",
    "PathStats",
]
