"""Native k-machine execution engine (``engine="kmachine"``).

The converted path (:func:`repro.kmachine.simulation.run_converted_hc`)
reaches the k-machine model by driving the message-level CONGEST
simulator node by node and re-costing what it observes — faithful, but
it pays the full per-message simulation price, so it cannot leave toy
sizes.  This engine is the model *natively*: the ``k`` machines jointly
hold the graph via the random vertex partition
(:class:`~repro.kmachine.partition.VertexPartition`, same RVP seed
convention as the converted path), each machine's hosted nodes live in
*array* state on the CSR kernel (:mod:`repro.engines.arraywalk` — no
per-node ``Node`` objects, no message-level ``Network``), machine
rounds advance as batched steps over all hosted nodes, and cross-link
traffic is word-capped bundles accounted by
:class:`~repro.kmachine.ledger.LinkLedger` under the exact charging
rule of the Conversion Theorem (per CONGEST-equivalent tick,
``max(1, ceil(busiest link / W))`` machine rounds).

Parity contract (enforced by ``tests/test_kmachine_native.py`` and the
registry gate)
---------------------------------------------------------------------
* the produced ``cycle`` (and ``steps``) is seed-for-seed identical to
  the converted simulator's — the replay consumes the same per-node
  RNG streams in the same decision order as the CONGEST protocols, so
  conversion and native execution agree on every output;
* the reported ``detail["kmachine_rounds"]`` must stay within the
  Conversion Theorem's ``O~(M/k^2 + T*Delta/k)`` bound
  (:func:`~repro.kmachine.simulation.conversion_round_bound`) and
  preserve its ``~1/k`` scaling.  Setup floods (election, BFS build)
  and walk progress traffic are modelled exactly; renumbering floods
  use the root-based tree profile, and event-driven phases without an
  array replay of their timing (DHC2 merges, Turau tokens, DHC1's
  virtual fabric) are charged structurally — the same estimate stance
  the fast engines take for their round counts.

The converted simulator stays registered as the *oracle*, mirroring
how the reference engines gate the fast engines.

Keyword surface (declared per spec in the registry): ``k_machines``
(machine count, default :data:`DEFAULT_K_MACHINES`; plain ``k`` is an
alias for DRA, where no colour-count meaning collides),
``link_words`` (the model's per-link ``W``), and ``partition_seed``
(RVP stream override; defaults to ``seed`` — the converted path's
convention, so both engines draw the identical partition).
"""

from __future__ import annotations

import numpy as np

from repro.analysis.bounds import diameter_budget, dra_step_budget
from repro.engines.results import RunResult
from repro.graphs.adjacency import Graph, csr_sources
from repro.kmachine.ledger import (
    LinkLedger,
    TreeFloodProfile,
    bfs_messages,
    floodmin_traffic,
    gossip_traffic,
)
from repro.kmachine.partition import VertexPartition
from repro.kmachine.simulation import DEFAULT_LINK_WORDS

__all__ = [
    "DEFAULT_K_MACHINES",
    "_dra_kmachine",
    "_dhc2_kmachine",
    "_turau_kmachine",
]

#: Machine count when the caller does not pass ``k_machines``.
DEFAULT_K_MACHINES = 8

#: Word sizes of the rotation walk's wire messages (kind tag included),
#: matching :mod:`repro.congest.message` accounting for the payloads
#: :class:`repro.core.rotation.RotationWalk` sends.
_PROGRESS_WORDS = 6
_ROTATE_WORDS = 6
_FLOOD_WORDS = 3


def _setup(graph: Graph, seed: int, machines: int | None,
           link_words: int, partition_seed: int | None):
    """Partition + ledger shared by every driver."""
    k = DEFAULT_K_MACHINES if machines is None else int(machines)
    partition = VertexPartition.random(
        graph.n, k, seed=seed if partition_seed is None else partition_seed)
    return partition, LinkLedger(partition, link_words)


def _finish(result: RunResult, ledger: LinkLedger) -> RunResult:
    """Reconcile the modelled clock and attach the k-machine accounting.

    The traffic model walks the same schedule the round estimate in
    ``result.rounds`` describes; any CONGEST ticks the structural
    phases did not explicitly model are quiet (1 machine round each),
    which is exactly the converted accountant's floor.
    """
    m = ledger.metrics
    gap = result.rounds - m.congest_rounds
    if gap > 0:
        ledger.quiet(gap)
    result.detail["kmachine"] = m.summary()
    result.detail["kmachine_rounds"] = m.kmachine_rounds
    result.detail["k_machines"] = ledger.k
    result.detail["link_words"] = ledger.link_words
    return result


def _walk_traffic(ledger: LinkLedger, walk, trace: list,
                  profile: TreeFloodProfile, flood_ecc: int) -> None:
    """Charge one rotation walk: progress singles, renumbering floods
    with their quiescence windows, and the final win/fail flood."""
    if trace:
        arr = np.asarray(trace, dtype=np.int64)
        ledger.singles(arr[:, 0], arr[:, 1], _PROGRESS_WORDS)
    if walk.rotations:
        ledger.flood(profile, _ROTATE_WORDS, times=walk.rotations)
        wait = 2 * walk.tree_depth + 2 - profile.tree_depth
        ledger.quiet(wait * walk.rotations)
    ledger.flood(profile, _FLOOD_WORDS)
    ledger.quiet(max(0, flood_ecc - profile.tree_depth))


# ---------------------------------------------------------------------------
# DRA — Algorithm 1
# ---------------------------------------------------------------------------


def _dra_kmachine(
    graph: Graph,
    *,
    seed: int = 0,
    step_budget: int | None = None,
    k: int | None = None,
    k_machines: int | None = None,
    link_words: int = DEFAULT_LINK_WORDS,
    partition_seed: int | None = None,
) -> RunResult:
    """Algorithm 1 under native k-machine execution.

    Same replay as the ``fast`` engine (identical cycle, steps, and
    CONGEST round count), with election, BFS build, and walk traffic
    binned onto the machine links tick by tick.  ``k`` is accepted as
    an alias for ``k_machines`` (DRA has no partition-count keyword).
    """
    from repro.engines.arraywalk import ArrayWalk, build_array_tree, edge_twins
    from repro.engines.fast import _dra_result

    n = graph.n
    partition, ledger = _setup(
        graph, seed, k_machines if k_machines is not None else k,
        link_words, partition_seed)
    budget = step_budget if step_budget is not None else dra_step_budget(n)
    seeds = np.random.SeedSequence(seed).spawn(n) if n else []
    rngs = [np.random.default_rng(s) for s in seeds]

    election_rounds = diameter_budget(n)
    indptr, indices = graph.indptr, graph.indices
    members = np.arange(n, dtype=np.int64)
    tree = build_array_tree(indptr, indices, members, root=0) if n else None
    if tree is None:
        deadline = election_rounds + 3 * diameter_budget(n) + 8
        if n:
            floodmin_traffic(ledger, indptr, indices, members, election_rounds)
        result = RunResult("dra", False, None, deadline, engine="kmachine",
                           detail={"fail_codes": ["bfs-unreachable"]})
        return _finish(result, ledger)

    trace: list[tuple[int, int]] = []
    walk = ArrayWalk(
        indptr=indptr,
        indices=indices,
        twins=edge_twins(indptr, indices),
        alive=np.ones(indices.size, dtype=bool),
        rngs=rngs,
        size=n,
        initial_head=tree.root,
        step_budget=budget,
        tree_depth=max(1, tree.tree_depth),
        start_round=tree.completion_round(election_rounds) + 1,
        trace=trace,
    )
    walk.run()
    flood_ecc = tree.eccentricity(walk.flood_initiator)
    result = _dra_result(graph, walk, walk.end_round + flood_ecc,
                         engine="kmachine")

    # -- machine-level accounting of the identical schedule ---------------------
    floodmin_traffic(ledger, indptr, indices, members, election_rounds)
    done = tree.completion_times(election_rounds)
    ticks, src, dst, words = bfs_messages(tree, indptr, indices,
                                          election_rounds, done)
    span = int(done[tree.root]) - election_rounds + 1
    ledger.series(np.minimum(ticks, span - 1), src, dst, words, span=span)
    profile = TreeFloodProfile(ledger, tree.parent, tree.depth, members)
    _walk_traffic(ledger, walk, trace, profile, flood_ecc)
    return _finish(result, ledger)


# ---------------------------------------------------------------------------
# DHC2 — Algorithm 3
# ---------------------------------------------------------------------------


def _dhc2_kmachine(
    graph: Graph,
    *,
    delta: float = 0.5,
    k: int | None = None,
    seed: int = 0,
    k_machines: int | None = None,
    link_words: int = DEFAULT_LINK_WORDS,
    partition_seed: int | None = None,
) -> RunResult:
    """Algorithm 3 under native k-machine execution.

    Phase 1 replays every colour-class walk on the shared-mask CSR
    kernel exactly as the ``fast`` engine does (``k`` keeps its DHC2
    meaning: the colour count).  Concurrent class traffic folds with
    wall-clock semantics: the shared election and BFS ticks are binned
    jointly across classes, and per-class walk charges combine as the
    across-class maximum.  Phase 2 reuses the deterministic merge
    replay with bridge-scan bursts charged per pair.
    """
    from repro.core.dhc2 import default_color_count
    from repro.engines.fast_dhc2 import _fail, _phase2
    from repro.engines.phase1_replay import (
        color_partition,
        replay_partition_walks,
    )

    n = graph.n
    partition, ledger = _setup(graph, seed, k_machines, link_words,
                               partition_seed)
    colors = k if k is not None else default_color_count(n, delta)
    seeds = np.random.SeedSequence(seed).spawn(n) if n else []
    rngs = [np.random.default_rng(s) for s in seeds]

    color_of, sub_indptr, sub_indices, twins, alive = color_partition(
        graph, rngs, colors)
    indptr, indices = graph.indptr, graph.indices
    ledger.burst(csr_sources(indptr), indices, 2)  # colour announcement

    elect_budget = diameter_budget(max(3, (2 * n) // max(1, colors)))
    phase1_start = 1 + elect_budget
    floodmin_traffic(ledger, sub_indptr, sub_indices,
                     np.arange(n, dtype=np.int64), elect_budget)

    bfs_parts: list[tuple] = []
    bfs_span = 1
    walk_forks: list[LinkLedger] = []

    def flush_phase1():
        # The classes' builds and walks share wall-clock rounds: bin
        # the BFS schedules jointly, fold the walk forks as a maximum.
        # Charged on walk-failure paths too — the traffic demonstrably
        # ran.
        if bfs_parts:
            ticks = np.concatenate([p[0] for p in bfs_parts])
            ledger.series(np.minimum(ticks, bfs_span - 1),
                          np.concatenate([p[1] for p in bfs_parts]),
                          np.concatenate([p[2] for p in bfs_parts]),
                          np.concatenate([p[3] for p in bfs_parts]),
                          span=bfs_span)
        ledger.absorb_concurrent(walk_forks)

    def charge_class(c, members, tree, done, walk, trace, flood_ecc):
        nonlocal bfs_span
        bfs_parts.append(bfs_messages(tree, sub_indptr, sub_indices,
                                      phase1_start, done))
        bfs_span = max(bfs_span, int(done[tree.root]) - phase1_start + 1)
        fork = ledger.fork()
        _walk_traffic(fork, walk, trace,
                      TreeFloodProfile(fork, tree.parent, tree.depth, members),
                      flood_ecc)
        walk_forks.append(fork)

    p1 = replay_partition_walks(
        indptr=sub_indptr, indices=sub_indices, twins=twins, alive=alive,
        rngs=rngs, color_of=color_of, colors=colors,
        start_round=phase1_start, observer=charge_class)
    if not p1.ok:
        if p1.walk_failed:
            flush_phase1()
        return _finish(_fail(n, colors, p1.fail_round, p1.fail_reason,
                             "kmachine"), ledger)
    cycles, steps, phase1_end = p1.cycles, p1.steps, p1.phase1_end

    ledger.quiet(1)  # the BFS-commit / walk-start separation round
    flush_phase1()

    def _charge_merge(a_cycle, b_cycle, merged):
        # Bridge scan: every class-A node polls its class-B neighbours,
        # candidates answer — one burst each way over the A-B edges.
        from repro.engines.arraywalk import gather_neighbors

        a_arr = np.asarray(a_cycle, dtype=np.int64)
        in_b = np.zeros(n, dtype=bool)
        in_b[np.asarray(b_cycle, dtype=np.int64)] = True
        counts = indptr[a_arr + 1] - indptr[a_arr]
        v_e = np.repeat(a_arr, counts)
        w_e = gather_neighbors(indptr, indices, a_arr)
        keep = in_b[w_e]
        ledger.burst(v_e[keep], w_e[keep], 3)
        ledger.burst(w_e[keep], v_e[keep], 3)
        # Winner convergecast + splice broadcast over the merged class:
        # structural, like the fast engine's level cost.
        ledger.uniform_burst(2 * len(merged), 3, ticks=2)

    result = _phase2(graph, cycles, colors, phase1_end, steps, "kmachine",
                     observer=_charge_merge)
    return _finish(result, ledger)


# ---------------------------------------------------------------------------
# Turau path merging (arXiv:1805.06728)
# ---------------------------------------------------------------------------


def _turau_kmachine(
    graph: Graph,
    *,
    seed: int = 0,
    phase_budget: int | None = None,
    k_machines: int | None = None,
    link_words: int = DEFAULT_LINK_WORDS,
    partition_seed: int | None = None,
) -> RunResult:
    """Turau path merging under native k-machine execution.

    Decisions (and hence cycle/steps/failure codes) come from the
    array replay; the proposal round, per-phase announce/request/grant
    bursts, and the closure gossip flood are binned exactly, while the
    in-flight token walks are charged as an RVP-uniform estimate over
    each phase's window (tokens are single messages walking disjoint
    paths — never the busiest-link driver).
    """
    from repro.engines.fast_turau import _turau_fast

    trace: dict = {}
    result = _turau_fast(graph, seed=seed, phase_budget=phase_budget,
                         trace=trace)
    result.engine = "kmachine"
    partition, ledger = _setup(graph, seed, k_machines, link_words,
                               partition_seed)
    indptr, indices = graph.indptr, graph.indices

    if trace.get("proposals") is not None:
        proposers, targets = trace["proposals"]
        ledger.burst(proposers, targets, 2)
        acc_targets, acc_winners = trace["accepts"]
        ledger.burst(acc_targets, acc_winners, 2)
        ledger.quiet(1)  # link-commit settling round
    for phase in trace.get("phases", ()):
        announcers = phase["announcers"]
        if announcers.size:
            from repro.engines.arraywalk import gather_neighbors

            counts = indptr[announcers + 1] - indptr[announcers]
            src = np.repeat(announcers, counts)
            dst = gather_neighbors(indptr, indices, announcers)
            ledger.burst(src, dst, 2)
        else:
            ledger.quiet(1)
        requests, grants = phase["requests"], phase["grants"]
        ledger.burst(requests[:, 0], requests[:, 1], 3)
        ledger.burst(grants[:, 0], grants[:, 1], 3)
        window = phase["window"]
        hops = 2 * int(grants.shape[0]) * min(window, graph.n)
        ledger.uniform_burst(hops, 2, ticks=max(1, window + 1))
    if trace.get("flood_source", -1) >= 0:
        gossip_traffic(ledger, indptr, indices, int(trace["flood_source"]),
                       words=1)
    return _finish(result, ledger)
