"""The CONGEST message-passing core and its synchronous round engine.

Semantics (Section I-A of the paper):

* computation proceeds in synchronous rounds; all nodes share the round
  counter;
* per round, each node may send at most one ``B = O(log n)``-bit message
  over each incident edge (enforced at send time);
* messages sent in round ``r`` are delivered at the start of round
  ``r + 1``;
* local computation is free in the round measure, but protocols are
  written so their per-round local work is sublinear, and the optional
  memory audit checks per-node state stays o(n).

The engine is event-driven: a node runs in a round only if it received
messages or scheduled a wake-up, so simulation cost tracks message
activity rather than ``n * rounds``.

:class:`Network` is also the shared core of the asynchronous engine
(:class:`~repro.congest.async_engine.AsyncNetwork` subclasses it): the
per-node contexts and RNG streams, the send rules and their accounting
(checked and counted in :meth:`Context.send`, whose one engine hook is
:meth:`Network._post`), wake-up validation, activation order, the
memory audit, the fault adversary and the substrate report live here
once.  The subclass swaps the round loop for an event queue and keeps
only what event time needs.
"""

from __future__ import annotations

from typing import Callable

import numpy as np

from repro.congest.errors import RoundLimitExceeded
from repro.congest.faults import FaultInjector
from repro.congest.message import TAG_BITS, Message, word_bits
from repro.congest.metrics import Metrics
from repro.congest.model import NetworkModel
from repro.congest.node import Context, Protocol
from repro.graphs.adjacency import Graph

__all__ = ["Network", "DEFAULT_BANDWIDTH_WORDS", "run_network"]

DEFAULT_BANDWIDTH_WORDS = 8


def _by_sender(msg: Message) -> int:
    return msg.sender


class Network:
    """A CONGEST network: a topology plus one protocol instance per node.

    Parameters
    ----------
    graph:
        The communication topology.
    protocol_factory:
        ``factory(node_id) -> Protocol`` building each node's code.
    seed:
        Master seed; each node receives an independent child generator,
        so executions are reproducible and node randomness is isolated.
    model:
        The :class:`~repro.congest.model.NetworkModel` whose fault plan
        (and, for the async subclass, latency, churn and substrate seed)
        this network applies; ``None`` is the fault-free default.  Every
        node id the model names must exist in ``graph``.  Bandwidth and
        the memory audit come from the two keywords below
        (:func:`~repro.congest.model.build_network` folds the model's
        values into them).
    bandwidth_words:
        Per-message budget in integer words (total bits =
        ``TAG_BITS + bandwidth_words * ceil(log2(n+1))`` — a constant
        number of O(log n)-bit fields, as the model prescribes).
    audit_memory:
        If true, periodically record each node's protocol state size
        (words) to validate the o(n) fully-distributed restriction.
    """

    #: The ``NetworkModel.mode`` this class runs, and the engine label
    #: its runs report.
    mode = "sync"
    engine = "congest"

    def __init__(
        self,
        graph: Graph,
        protocol_factory: Callable[[int], Protocol],
        *,
        seed: int = 0,
        model: NetworkModel | None = None,
        bandwidth_words: int = DEFAULT_BANDWIDTH_WORDS,
        audit_memory: bool = False,
        audit_every: int = 64,
    ):
        self.graph = graph
        self.n = graph.n
        self.model = model if model is not None else NetworkModel(mode=self.mode)
        if self.model.mode != self.mode:
            raise ValueError(f"{type(self).__name__} needs a NetworkModel "
                             f"with mode={self.mode!r}")
        self._check_node_ids()
        self.round_index = 0
        self._word_bits = word_bits(self.n)
        self._bandwidth_bits = TAG_BITS + bandwidth_words * self._word_bits
        self._audit_memory = audit_memory
        self._audit_every = max(1, audit_every)
        self._last_audit = 0

        self._outbox: list[tuple[int, int, tuple]] = []
        self._edges_used: set[tuple[int, int]] = set()  # current activation
        #: Live counters behind ``metrics.sent_per_node`` (a list is far
        #: cheaper to bump than a numpy scalar) and ``_all_halted``.
        self._sent = [0] * self.n
        self._halted = 0

        seeds = np.random.SeedSequence(seed).spawn(self.n)
        self.protocols: list[Protocol] = []
        self._contexts: list[Context] = []
        for v in range(self.n):
            proto = protocol_factory(v)
            ctx = Context(self, v, graph.neighbor_list(v), np.random.default_rng(seeds[v]))
            self.protocols.append(proto)
            self._contexts.append(ctx)

        self._wakes: dict[int, set[int]] = {}
        self._activations = 0
        self._limited = False
        #: Optional observer called once per executed round with the list of
        #: ``(src, dst, payload)`` messages delivered at the start of that
        #: round, as offered (before the fault adversary).  Used by
        #: :mod:`repro.kmachine` to re-cost the execution under a different
        #: communication model without touching protocols.
        self.round_observer: Callable[["Network", list[tuple[int, int, tuple]]], None] | None = None
        self.metrics = Metrics(
            sent_per_node=np.zeros(self.n, dtype=np.int64),
            peak_state_words=np.zeros(self.n, dtype=np.int64),
            memory_audited=audit_memory,
        )
        plan = self.model.fault_plan
        self.adversary = FaultInjector(plan) if plan is not None else None

    def _check_node_ids(self) -> None:
        """Reject a model naming a node the graph does not have."""
        named = [("churn event", node) for _, node, _ in self.model.churn]
        if self.model.fault_plan is not None:
            named += [("fault plan", node)
                      for node in sorted(self.model.fault_plan.nodes())]
        for what, node in named:
            if not 0 <= node < self.n:
                raise ValueError(f"{what} names node {node} but the graph "
                                 f"has {self.n} nodes")

    # -- internal API used by Context -----------------------------------------

    def _post(self, src: int, dst: int, payload: tuple) -> None:
        """Put a message ``Context.send`` accepted in flight (next round's
        delivery).  The engine's one send hook."""
        self._outbox.append((src, dst, payload))

    def _edge_free(self, src: int, dst: int) -> bool:
        return (src, dst) not in self._edges_used

    def _schedule_wake(self, node: int, round_index: int) -> None:
        if round_index <= self.round_index:
            raise ValueError(
                f"wake-up for node {node} must be in the future "
                f"(requested {round_index} at round {self.round_index})"
            )
        self._wakes.setdefault(round_index, set()).add(node)

    # -- execution -------------------------------------------------------------

    def run(
        self,
        *,
        max_rounds: int,
        until: Callable[["Network"], bool] | None = None,
        raise_on_limit: bool = True,
    ) -> Metrics:
        """Execute the protocol until global termination.

        Termination is: every node halted, or the optional ``until``
        predicate returns true, or no activity remains (nothing in
        flight and no wake-ups scheduled).  Exhausting the watchdog
        budget first (``max_rounds`` rounds) raises
        :class:`RoundLimitExceeded` (or returns, when ``raise_on_limit``
        is false).
        """
        self.round_index = 0
        self._start()
        self._maybe_audit(force=True)
        self._limited = False
        try:
            while not (self._all_halted() or (until is not None and until(self))):
                if not self._pending():
                    break  # quiescence: nothing will ever happen again
                if self._over_budget(max_rounds):
                    self._limited = True
                    break
                self._step()
                self._maybe_audit()
        finally:
            self.metrics.rounds = self.round_index
            self.metrics.sent_per_node[:] = self._sent
        self._maybe_audit(force=True)
        if self._limited and raise_on_limit:
            raise RoundLimitExceeded(
                f"protocol did not terminate within the watchdog budget "
                f"(max_rounds={max_rounds})")
        return self.metrics

    def _start(self) -> None:
        for v in range(self.n):
            self._call(v, self.protocols[v].on_start, self._contexts[v])

    def _pending(self) -> bool:
        return bool(self._outbox or self._wakes)

    def _over_budget(self, max_rounds: int) -> bool:
        return self.round_index >= max_rounds

    def _step(self) -> None:
        outbox, self._outbox = self._outbox, []
        if self.round_observer is not None:
            self.round_observer(self, outbox)
        delivery_round = self.round_index + 1
        adversary = self.adversary
        if adversary is not None:
            for node in adversary.due_crashes(delivery_round):
                self._crash(node, adversary.crashed)
            outbox = [m for m in outbox
                      if not adversary.offer(m[0], m[1], delivery_round)]
        inboxes: dict[int, list[Message]] = {}
        for src, dst, payload in outbox:
            box = inboxes.get(dst)
            if box is None:
                inboxes[dst] = [Message(src, payload)]
            else:
                box.append(Message(src, payload))
        self.round_index = delivery_round
        self._activate(inboxes, self._wakes.pop(delivery_round, ()))

    def _activate(self, inboxes: dict[int, list[Message]], wakes) -> None:
        """Run every live node with mail or a wake-up, in id order.

        Each inbox is sorted by sender, so an instant's schedule does
        not depend on the order its messages arrived in.
        """
        contexts, protocols = self._contexts, self.protocols
        edges_used = self._edges_used
        for v in sorted(inboxes.keys() | wakes) if wakes else sorted(inboxes):
            ctx = contexts[v]
            if ctx.halted:
                continue
            inbox = inboxes.get(v)
            if inbox is None:
                inbox = []
            elif len(inbox) > 1:
                inbox.sort(key=_by_sender)
            self._activations += 1
            # _call, inlined: this runs once per activation.
            edges_used.clear()
            try:
                protocols[v].on_round(ctx, inbox)
            except Exception as exc:  # noqa: BLE001 — the engine decides
                self._handler_failed(v, exc)

    def _call(self, v: int, handler, *args) -> None:
        """Run one handler of node ``v`` with a fresh per-edge send budget."""
        self._edges_used.clear()
        try:
            handler(*args)
        except Exception as exc:  # noqa: BLE001 — the engine decides
            self._handler_failed(v, exc)

    def _handler_failed(self, v: int, exc: Exception) -> None:
        """A handler of node ``v`` raised: the synchronous engine aborts."""
        raise exc

    def _crash(self, node: int, registry: set[int]) -> None:
        """Crash-stop ``node``: the engine never runs a halted node again."""
        registry.add(node)
        self._contexts[node].halt()

    # -- inspection -------------------------------------------------------------

    def context(self, v: int) -> Context:
        """The execution context of node ``v`` (for tests and result readout)."""
        return self._contexts[v]

    def _all_halted(self) -> bool:
        return self._halted == self.n

    def _maybe_audit(self, *, force: bool = False) -> None:
        if not self._audit_memory:
            return
        if not force and self.round_index - self._last_audit < self._audit_every:
            return
        self._last_audit = self.round_index
        peaks = self.metrics.peak_state_words
        for v, proto in enumerate(self.protocols):
            words = proto.state_size()
            if words > peaks[v]:
                peaks[v] = words

    def substrate_detail(self) -> dict:
        """What the substrate did, for a runner's ``RunResult.detail``.

        ``faults`` (the adversary's counters) when the model has a fault
        plan, ``async`` on the event engine, and the per-node state
        audit when the memory audit ran.
        """
        detail = {}
        if self.adversary is not None:
            detail["faults"] = self.adversary.summary()
        if self.metrics.memory_audited:
            detail["max_state_words"] = self.metrics.max_state_words()
            detail["state_words"] = self.metrics.peak_state_words.tolist()
        return detail


def run_network(
    graph: Graph,
    protocol_factory: Callable[[int], Protocol],
    *,
    seed: int = 0,
    max_rounds: int,
    audit_memory: bool = False,
    until: Callable[[Network], bool] | None = None,
    network=None,
) -> Network:
    """Build a network, run it, and return it (metrics + protocols inside).

    ``network`` is a :class:`~repro.congest.model.NetworkModel` (or its
    JSON form) describing the substrate — including ``mode="async"``,
    in which case the returned object is an
    :class:`~repro.congest.async_engine.AsyncNetwork`.
    """
    from repro.congest.model import build_network, coerce_network_model

    net = build_network(graph, protocol_factory, seed=seed,
                        model=coerce_network_model(network),
                        audit_memory=audit_memory)
    net.run(max_rounds=max_rounds, until=until)
    return net
