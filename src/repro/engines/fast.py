"""Step-level fast engine: the same algorithms without per-message cost.

For scaling experiments the message-level simulator is too slow (a
single rotation broadcast is Θ(n) Python-object messages).  This engine
executes the *identical* algorithm — same leader, same spanning tree,
same per-node RNG streams, same unused-edge bookkeeping, same decision
order — and advances the round counter by the deterministic schedule
the CONGEST protocol follows:

* flood-min election: ``diameter_budget(n)`` rounds (fixed deadline);
* BFS build: exact per-node event recursion (join wave, response wave,
  done convergecast, commit wave) — the same rounds the message-level
  :class:`~repro.primitives.bfs.BfsTree` takes;
* rotation walk: 1 round per extension, ``2 * tree_depth + 3`` rounds
  per rotation (flood + quiescence wait), and the final win/fail flood
  costs the initiator's tree eccentricity.

Integration tests (``tests/test_engine_parity.py``) assert that, seed
for seed on connected graphs, this engine and the CONGEST engine
return the *same cycle, step count, and round count* — which is what
licenses using it for the large-n benchmark sweeps.  On a disconnected
graph the two still agree on the outcome but not on the work done
(the strict-xfail test there records the gap).

``engine="fast"`` runs on the array-native CSR kernel
(:mod:`repro.engines.arraywalk`): dead-edge bitmask, int64
path/position arrays, vectorised tree timing.
"""

from __future__ import annotations

import numpy as np

from repro.analysis.bounds import diameter_budget, dra_step_budget
from repro.engines.results import RunResult
from repro.graphs.adjacency import Graph
from repro.verify.hamiltonicity import CycleViolation, verify_cycle


def _dra_fast(
    graph: Graph,
    *,
    seed: int = 0,
    step_budget: int | None = None,
) -> RunResult:
    """Algorithm 1 on the array kernel; see module docstring for fidelity."""
    from repro.engines.arraywalk import ArrayWalk, build_array_tree, edge_twins

    n = graph.n
    budget = step_budget if step_budget is not None else dra_step_budget(n)
    seeds = np.random.SeedSequence(seed).spawn(n) if n else []
    rngs = [np.random.default_rng(s) for s in seeds]

    election_rounds = diameter_budget(n)
    indptr, indices = graph.indptr, graph.indices
    tree = build_array_tree(indptr, indices,
                            np.arange(n, dtype=np.int64), root=0) if n else None
    if tree is None:
        deadline = election_rounds + 3 * diameter_budget(n) + 8
        return RunResult("dra", False, None, deadline, engine="fast",
                         detail={"fail_codes": ["bfs-unreachable"]})

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
    )
    walk.run()
    end_round = walk.end_round + tree.eccentricity(walk.flood_initiator)
    return _dra_result(graph, walk, end_round, engine="fast")


def _dra_result(graph: Graph, walk, end_round: int, *, engine: str) -> RunResult:
    """Shared verification + RunResult assembly for the DRA walks."""
    cycle = None
    ok = walk.success
    if ok:
        cycle = walk.cycle()
        try:
            verify_cycle(graph, cycle)
        except CycleViolation:
            ok, cycle = False, None
    return RunResult(
        algorithm="dra",
        success=ok,
        cycle=cycle,
        rounds=end_round,
        steps=walk.steps,
        engine=engine,
        detail={"fail_codes": [walk.fail_code] if walk.fail_code else [],
                "rotations": walk.rotations, "extensions": walk.extensions,
                "retries": walk.retries},
    )
