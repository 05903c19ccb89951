"""Failure injection for CONGEST executions.

The paper's model is synchronous and fault-free, so faults are *not*
part of the reproduction target.  What failure injection validates is a
safety property every front end in this library promises: ``success``
is reported only for a verified Hamiltonian cycle.  Under message loss
or node crashes the algorithms may stall, hit their watchdog budgets,
or abort — but they must never claim success falsely, and the simulator
must wind down cleanly (quiescence, not exceptions).

Usage::

    plan = FaultPlan(drop_probability=0.05, seed=7)
    result = run_dra(graph, seed=1, network=NetworkModel(fault_plan=plan))
    result.detail["faults"]   # {"offered", "dropped", "drop_rate",
                              #  "crashed_nodes"}
    # result.success is False unless a real HC was still produced

The network builds one :class:`FaultInjector` from the plan and exposes
it as ``network.adversary`` (capture it through a
``NetworkModel(network_hook=...)`` to read ``crashed`` directly).

Fault kinds:

* *probabilistic message drops* — each in-flight message is discarded
  independently with ``drop_probability``, within an optional round
  ``window``;
* *link kills* — every message over the (undirected) links in
  ``dead_links`` is discarded from ``window`` start;
* *crash-stop nodes* — ``crash_rounds[v] = r`` silences node ``v`` from
  round ``r``: its queued messages are dropped and it never executes
  again (the engine skips halted nodes).

The adversary is deterministic per ``seed`` and independent of the
protocol's own randomness (separate generator), so adding or removing
a fault plan never perturbs node decisions — only which messages
survive delivery.
"""

from __future__ import annotations

from dataclasses import dataclass, field

import numpy as np

__all__ = ["FaultPlan", "FaultInjector"]


@dataclass(frozen=True)
class FaultPlan:
    """A declarative description of the failures to inject.

    Attributes
    ----------
    drop_probability:
        Per-message independent drop chance in ``[0, 1]``.
    dead_links:
        Undirected node pairs whose messages are always dropped (both
        directions), e.g. ``{(3, 7)}``.
    crash_rounds:
        ``node -> round``; the node is crash-stopped at the *start* of
        that round (it receives nothing and sends nothing from then on).
    window:
        ``(first_round, last_round)`` during which probabilistic and
        link drops apply; crashes fire regardless.  ``None`` = always.
    seed:
        Seed of the adversary's own RNG.
    """

    drop_probability: float = 0.0
    dead_links: frozenset = field(default_factory=frozenset)
    crash_rounds: dict = field(default_factory=dict)
    window: tuple | None = None
    seed: int = 0

    def __post_init__(self):
        if not 0.0 <= self.drop_probability <= 1.0:
            raise ValueError(
                f"drop_probability must be in [0, 1], got {self.drop_probability}")
        normalized = frozenset(
            (min(a, b), max(a, b)) for a, b in self.dead_links)
        object.__setattr__(self, "dead_links", normalized)
        lowest = min(self.nodes(), default=0)
        if lowest < 0:
            raise ValueError(f"fault plan node ids must be >= 0, got {lowest}")
        if self.window is not None:
            lo, hi = self.window
            if lo > hi:
                raise ValueError(f"empty fault window {self.window}")

    def is_benign(self) -> bool:
        """True when this plan injects nothing."""
        return (self.drop_probability == 0.0 and not self.dead_links
                and not self.crash_rounds)

    def nodes(self) -> set[int]:
        """Every node id the plan names (crashes and dead-link ends)."""
        return {*self.crash_rounds, *(v for link in self.dead_links
                                      for v in link)}

    def to_json(self) -> dict:
        """JSON-safe dict form (see :meth:`from_json`)."""
        return {
            "drop_probability": self.drop_probability,
            "dead_links": sorted(list(pair) for pair in self.dead_links),
            "crash_rounds": {str(v): r for v, r in
                             sorted(self.crash_rounds.items())},
            "window": None if self.window is None else list(self.window),
            "seed": self.seed,
        }

    @classmethod
    def from_json(cls, data: dict) -> "FaultPlan":
        """Inverse of :meth:`to_json` (JSON objects string their keys)."""
        known = {"drop_probability", "dead_links", "crash_rounds",
                 "window", "seed"}
        unknown = sorted(set(data) - known)
        if unknown:
            raise ValueError(f"unknown FaultPlan fields: {', '.join(unknown)}")
        kwargs = dict(data)
        if "dead_links" in kwargs:
            kwargs["dead_links"] = frozenset(
                tuple(pair) for pair in kwargs["dead_links"])
        if "crash_rounds" in kwargs:
            kwargs["crash_rounds"] = {int(v): r for v, r in
                                      kwargs["crash_rounds"].items()}
        if kwargs.get("window") is not None:
            kwargs["window"] = tuple(kwargs["window"])
        return cls(**kwargs)


class FaultInjector:
    """The adversary applying a :class:`FaultPlan`, and its counters.

    Both engines build one from ``model.fault_plan`` (as
    ``network.adversary``) and ask :meth:`offer` about each message.
    The synchronous engine asks at delivery, after that round's crashes
    (:meth:`due_crashes`) are applied; the asynchronous one asks at send
    time.  Windows and crash rounds compare against the message's
    delivery round in both.  After the run:

    * ``dropped`` — messages discarded (all causes combined);
    * ``crashed`` — nodes crash-stopped so far;
    * ``offered`` — messages the protocol attempted to deliver.
    """

    def __init__(self, plan: FaultPlan):
        self.plan = plan
        self.dropped = 0
        self.offered = 0
        self.crashed: set[int] = set()
        self._rng = np.random.default_rng(np.random.SeedSequence(plan.seed))

    def offer(self, src: int, dst: int, delivery_round: int) -> bool:
        """Count one message; True if the adversary eats it."""
        self.offered += 1
        if src in self.crashed or dst in self.crashed:
            self.dropped += 1
            return True
        window = self.plan.window
        if window is not None and not window[0] <= delivery_round <= window[1]:
            return False
        if self._link_dead(src, dst) or (
                self.plan.drop_probability > 0.0
                and self._rng.random() < self.plan.drop_probability):
            self.dropped += 1
            return True
        return False

    def due_crashes(self, round_index: int) -> list[int]:
        """Nodes not yet crashed whose crash round is ``<= round_index``."""
        return [node for node, crash_at in self.plan.crash_rounds.items()
                if crash_at <= round_index and node not in self.crashed]

    def drop_in_flight(self) -> None:
        """Count a message lost between send and delivery (late crash)."""
        self.dropped += 1

    def _link_dead(self, src: int, dst: int) -> bool:
        if not self.plan.dead_links:
            return False
        key = (src, dst) if src < dst else (dst, src)
        return key in self.plan.dead_links

    def summary(self) -> dict[str, float]:
        """Injection counters for reports."""
        return {
            "offered": float(self.offered),
            "dropped": float(self.dropped),
            "drop_rate": self.dropped / self.offered if self.offered else 0.0,
            "crashed_nodes": float(len(self.crashed)),
        }
