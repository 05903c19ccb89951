"""The asynchronous event-queue network engine (``engine="async"``).

The synchronous :class:`~repro.congest.network.Network` advances a
global round counter in lockstep; :class:`AsyncNetwork` subclasses it
and replaces the round loop with a discrete-event simulation on a
virtual clock:

* a heap-ordered event queue holds message deliveries, wake-ups, and
  control events (crashes, joins), each stamped with a float time;
* each directed edge carries a seeded latency distribution
  (:class:`~repro.congest.model.LatencySpec`): a message sent at time
  ``t`` is delivered at ``t + delay``, so messages *reorder* whenever
  two delays cross;
* the network's :class:`~repro.congest.faults.FaultInjector` can drop
  messages and crash-stop nodes, and a churn schedule can crash or
  late-join nodes at arbitrary virtual times.

Everything else is the shared core in ``Network``: per-node contexts
and RNG streams, the CONGEST send rules (one message per directed edge
per activation, the bit budget) and their accounting, wake-up
validation, activation order, the memory audit and the substrate
report.  The *same* :class:`~repro.congest.node.Protocol` objects run
unchanged.  ``ctx.round_index`` reads as ``floor(virtual time)``, so the
round-indexed deadlines synchronous protocols compute stay meaningful.

**Synchronous parity.**  With unit latency, no faults, and no churn,
the event queue degenerates into rounds: all deliveries land on
integer times, simultaneous events are batched, and the shared
activation step runs nodes in id order with inboxes sorted by sender —
exactly the synchronous schedule, with identical per-node RNG streams.
``tests/test_async_engine.py`` pins seed-for-seed equality for all four
congest algorithms; the registry gate requires it of every
``async_capable`` engine entry.

**Quiescence, not exceptions.**  Message loss, reordering, and churn
can drive synchronous protocols into states they were never written
for.  A protocol raising during an activation is *crash-stopped*
(halted, counted in ``async_summary()["protocol_errors"]``) rather
than aborting the simulation — the distributed-systems reading of a
node hitting an unhandled state.  Runs wind down by quiescence (empty
queue), global halt, or the watchdog budget; the runners' verified
readout means ``success`` still requires a genuine Hamiltonian cycle.
"""

from __future__ import annotations

import heapq
from typing import Callable

import numpy as np

from repro.congest.message import Message
from repro.congest.metrics import Metrics
from repro.congest.network import Network

__all__ = ["AsyncNetwork"]

#: Event priorities within one instant: control events (crashes,
#: joins) apply before any delivery or wake-up at the same time —
#: mirroring the synchronous engine, which applies a round's crashes
#: before building its inboxes.
_PRIO_CONTROL = 0
_PRIO_EVENT = 1


class AsyncNetwork(Network):
    """A lossy asynchronous network running synchronous-style protocols.

    Takes the :class:`~repro.congest.network.Network` parameters; its
    :class:`~repro.congest.model.NetworkModel` (``mode="async"``, the
    default) also carries the latency distribution, churn schedule and
    substrate seed.  ``record_events=True`` keeps a full event trace in
    ``self.events`` for determinism tests and debugging.
    """

    mode = "async"
    engine = "async"

    def __init__(self, graph, protocol_factory, *, record_events: bool = False,
                 **kwargs):
        super().__init__(graph, protocol_factory, **kwargs)
        self.virtual_time = 0.0

        # Event machinery.
        self._queue: list[tuple] = []  # (time, prio, seq, kind, data)
        self._seq = 0
        self._send_seq = 0
        self._edge_rngs: dict[tuple[int, int], np.random.Generator] = {}
        self._edge_last_seq: dict[tuple[int, int], int] = {}

        # Churn schedule: earliest join per node defers its start.
        self._join_at: dict[int, float] = {}
        for action, node, time in self.model.churn:
            if action == "join":
                self._join_at.setdefault(node, time)
        self._started = [v not in self._join_at for v in range(self.n)]
        self._churn_crashed: set[int] = set()
        self._churn_joined = 0

        # Accounting.
        self._delivered = 0
        self._dropped = 0
        self._undeliverable = 0
        self._reordered = 0
        self._depth = [0] * self.n  # Lamport depth: longest causal chain
        self._max_depth = 0
        self._protocol_errors: list[tuple[int, str]] = []
        self.events: list[tuple] | None = [] if record_events else None

    # -- the event-time halves of the shared send/wake API ----------------------

    def _post(self, src: int, dst: int, payload: tuple) -> None:
        deliver_at = self.virtual_time + self._latency(src, dst)
        if self.adversary is not None and self.adversary.offer(
                src, dst, int(deliver_at)):
            self._dropped += 1
            if self.events is not None:
                self.events.append(("drop", self.virtual_time, src, dst,
                                    payload[0]))
            return
        self._push(deliver_at, _PRIO_EVENT, "deliver",
                   (src, dst, payload, self._depth[src] + 1, self._send_seq))
        self._send_seq += 1

    def _schedule_wake(self, node: int, round_index: int) -> None:
        if node in self._wakes.get(round_index, ()):
            return  # the synchronous engine coalesces per-round wakes too
        super()._schedule_wake(node, round_index)
        self._push(float(round_index), _PRIO_EVENT, "wake", node)

    def _push(self, time: float, prio: int, kind: str, data) -> None:
        heapq.heappush(self._queue, (time, prio, self._seq, kind, data))
        self._seq += 1

    def _latency(self, src: int, dst: int) -> float:
        spec = self.model.latency
        if spec.is_unit:
            return 1.0
        rng = self._edge_rngs.get((src, dst))
        if rng is None:
            # Per-directed-edge streams keyed by (substrate seed, src,
            # dst): an edge's delay sequence is independent of global
            # send order, so traces stay deterministic per seed.
            rng = np.random.default_rng(
                np.random.SeedSequence((self.model.seed, src, dst)))
            self._edge_rngs[(src, dst)] = rng
        return spec.sample(rng)

    # -- execution -------------------------------------------------------------

    def run(
        self,
        *,
        max_rounds: int,
        until: Callable[["AsyncNetwork"], bool] | None = None,
        raise_on_limit: bool = True,
    ) -> Metrics:
        """Drain the event queue until quiescence or a budget.

        ``max_rounds`` is the synchronous watchdog; the virtual-time
        budget scales it by the latency distribution's mean (so a
        mean-2 latency gets twice the virtual time), and an activation
        cap backstops pathological event storms.  Hitting either
        budget raises :class:`RoundLimitExceeded` (or returns, when
        ``raise_on_limit`` is false) — exactly the synchronous
        contract.
        """
        if self.round_observer is not None:
            raise ValueError(
                "round_observer is a synchronous-engine observer; the "
                "async engine takes faults from the NetworkModel and "
                "records an event trace instead")
        self.virtual_time = 0.0
        self._time_limit = float(max_rounds) * max(1.0, self.model.latency.mean())
        self._activation_cap = 4 * (self.n + 4) * max(1, max_rounds)
        return super().run(max_rounds=max_rounds, until=until,
                           raise_on_limit=raise_on_limit)

    def _start(self) -> None:
        if self.adversary is not None:
            for node, crash_at in sorted(self.model.fault_plan.crash_rounds.items()):
                self._push(float(crash_at), _PRIO_CONTROL, "crash", node)
        for action, node, time in self.model.churn:
            if action == "crash":
                self._push(time, _PRIO_CONTROL, "churn-crash", node)
            elif time == self._join_at.get(node):
                self._push(time, _PRIO_CONTROL, "join", node)
        for v in range(self.n):
            if self._started[v]:
                self._call(v, self.protocols[v].on_start, self._contexts[v])

    def _pending(self) -> bool:
        return bool(self._queue)

    def _over_budget(self, max_rounds: int) -> bool:
        return (self._queue[0][0] > self._time_limit
                or self._activations >= self._activation_cap)

    def _step(self) -> None:
        """Apply one instant: control events, then deliveries/wake-ups.

        Simultaneous events batch into one activation per node (the
        shared :meth:`_activate`) — under unit latency this *is* the
        synchronous round schedule, which is what makes zero-latency
        parity exact rather than approximate.
        """
        when = self._queue[0][0]
        self.virtual_time = when
        self.round_index = int(when)
        batch = []
        while self._queue and self._queue[0][0] == when:
            batch.append(heapq.heappop(self._queue))
        inboxes: dict[int, list[Message]] = {}
        depths: dict[int, int] = {}
        wakes: set[int] = set()
        for _when, _prio, _seq, kind, data in batch:
            if kind == "crash":
                self._crash(data, self.adversary.crashed)
            elif kind == "churn-crash":
                self._crash(data, self._churn_crashed)
            elif kind == "join":
                self._join(data)
            elif kind == "wake":
                self._wakes.pop(self.round_index, None)
                if self._started[data] and not self._contexts[data].halted:
                    wakes.add(data)
                    if self.events is not None:
                        self.events.append(("wake", when, data))
            elif kind == "deliver":
                self._deliver(when, data, inboxes, depths)
        for v, depth in depths.items():
            if depth > self._depth[v]:
                self._depth[v] = depth
        self._activate(inboxes, wakes)

    def _deliver(self, when: float, data, inboxes, depths) -> None:
        src, dst, payload, depth, send_seq = data
        if self.adversary is not None and (src in self.adversary.crashed
                                           or dst in self.adversary.crashed):
            # Crashed between send and delivery: the in-flight message
            # is lost, counted against the adversary like the
            # synchronous engine does.
            self.adversary.drop_in_flight()
            self._dropped += 1
            return
        if (not self._started[dst] or self._contexts[dst].halted
                or src in self._churn_crashed):
            self._undeliverable += 1
            self._dropped += 1
            return
        last = self._edge_last_seq.get((src, dst), -1)
        if send_seq < last:
            self._reordered += 1
        else:
            self._edge_last_seq[(src, dst)] = send_seq
        self._delivered += 1
        if depth > self._max_depth:
            self._max_depth = depth
        inboxes.setdefault(dst, []).append(Message(src, payload))
        depths[dst] = max(depths.get(dst, 0), depth)
        if self.events is not None:
            self.events.append(("deliver", when, src, dst, payload[0],
                                send_seq))

    def _crash(self, node: int, registry: set[int]) -> None:
        if not self._contexts[node].halted and self.events is not None:
            self.events.append(("crash", self.virtual_time, node))
        super()._crash(node, registry)

    def _join(self, node: int) -> None:
        if self._started[node] or self._contexts[node].halted:
            return
        self._started[node] = True
        self._churn_joined += 1
        if self.events is not None:
            self.events.append(("join", self.virtual_time, node))
        self._call(node, self.protocols[node].on_start, self._contexts[node])

    def _handler_failed(self, v: int, exc: Exception) -> None:
        # Loss, reordering, and churn can push synchronous protocols
        # into states they were never written for; the honest
        # asynchronous reading is a node failure, not a simulator
        # abort.  Verified readout keeps this safe: success still
        # requires a checked Hamiltonian cycle.
        self._protocol_errors.append((v, f"{type(exc).__name__}: {exc}"))
        self._contexts[v].halt()
        if self.events is not None:
            self.events.append(("error", self.virtual_time, v,
                                type(exc).__name__))

    # -- inspection ------------------------------------------------------------

    def substrate_detail(self) -> dict:
        detail = super().substrate_detail()
        detail["async"] = self.async_summary()
        return detail

    def async_summary(self) -> dict:
        """Event-level counters for ``detail["async"]``.

        ``depth`` is the longest causal message chain (Lamport depth);
        ``stretch`` is virtual completion time over that depth — 1.0
        under unit latency for delivery-driven runs, growing with the
        latency distribution's tail.  ``dropped`` counts every message
        lost in flight (adversary drops plus undeliverable ones —
        recipients halted, crashed, or not yet joined).  ``limited``
        is 1 when the run ended on the watchdog budget rather than by
        quiescence or global halt (the bench's termination criterion).
        """
        depth = self._max_depth
        return {
            "virtual_time": round(self.virtual_time, 9),
            "limited": int(self._limited),
            "delivered": self._delivered,
            "dropped": self._dropped,
            "undeliverable": self._undeliverable,
            "reordered": self._reordered,
            "activations": self._activations,
            "depth": depth,
            "stretch": (round(self.virtual_time / depth, 9) if depth
                        else None),
            "protocol_errors": len(self._protocol_errors),
            "churn_crashed": len(self._churn_crashed),
            "churn_joined": self._churn_joined,
        }
