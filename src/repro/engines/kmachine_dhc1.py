"""DHC1 (Algorithm 2) under native k-machine execution.

DHC1 never had a step-level replay: its hypernode phase lives on a
relayed virtual fabric whose timing is event-driven.  The native
k-machine engine supplies the first one.  Decisions replay exactly —
the same per-node RNG streams in the same order as
:class:`repro.core.dhc1.Dhc1Protocol`:

1. **Phase 1** — colour draw + per-class rotation walks on the
   colour-filtered CSR, identical to the DHC2 fast engine's Phase 1
   (the CONGEST protocols share :class:`PartitionedPhase1Protocol`,
   and the preceding global election/BFS consume no randomness, so the
   streams line up even though DHC1 runs them first in wall-clock).
2. **Hypernode selection** (Algorithm 2 l.13-15) — each class's
   ``cycindex == 1`` node (the class root: the initial head is never
   renumbered) draws ``r``; ``u = path[r-1]`` holds the hypernode,
   ``v`` is its cycle predecessor.
3. **Virtual-edge assembly** — port announcements become, per holder,
   the sorted realization list ``(peer class, my role, peer role,
   far endpoint)``; duplicates per key are kept as distinct
   :class:`VirtualEdge` realizations and the far map keeps the last
   (largest ``phys``) entry, exactly as ``Dhc1Protocol`` builds
   ``_vedges`` / ``_far``.
4. **Ported virtual walk** — :class:`_PortedWalk`, this module's
   replay of the ported ``RotationWalk``, with per-hypernode streams
   taken from the holders' generators; the virtual BFS tree (built by
   :func:`~repro.engines.arraywalk.build_array_tree` over a CSR of the
   hypernode colours) supplies the depth the ledger charges, and the
   winning closure edge is captured for stitching.
5. **Stitching** (Fig. 1) — each class's entry/exit ports and the
   ``_far`` lookup reproduce every node's ``global_succ``, flattened
   from node 0 like the CONGEST engine.

Rounds are a structural machine-level estimate (the fabric's relay
pacing is event-driven), accounted phase by phase on the
:class:`~repro.kmachine.ledger.LinkLedger`; the parity contract for
DHC1 is therefore ``success``/``cycle``/``steps``, with round conformance
covered by the Conversion-Theorem bound like every k-machine entry.
"""

from __future__ import annotations

import numpy as np

from repro.analysis.bounds import diameter_budget, dra_step_budget
from repro.engines.kmachine_engine import (
    DEFAULT_LINK_WORDS,
    _setup,
    _finish,
    _walk_traffic,
)
from repro.engines.results import RunResult
from repro.graphs.adjacency import Graph, csr_sources
from repro.kmachine.ledger import (
    LinkLedger,
    TreeFloodProfile,
    bfs_messages,
    floodmin_traffic,
)
from repro.verify.hamiltonicity import (
    CycleViolation,
    cycle_from_successors,
    verify_cycle,
)

__all__ = ["_dhc1_kmachine"]

_ROLE_U = 0
_ROLE_V = 1


class _PortedWalk:
    """Centralised replay of the ported :class:`~repro.core.rotation.RotationWalk`.

    ``edges[c]`` lists hypernode ``c``'s virtual-edge triples ``(peer,
    my_port, peer_port)`` in exactly the order the distributed walk
    builds them, and ``rngs[c]`` is the same generator stream — those
    two invariants make it decision-identical to the CONGEST walk.
    Every hypernode has two ports (its ``u`` and ``v`` endpoints): the
    head moves only through its free port, a closure must land on the
    tail's free port, and a hit on an inner node that misses its
    successor port is a retry.  Rounds are not tracked: the engine
    charges the virtual walk on its ledger from ``steps`` and
    ``rotations``.  ``_bound[c] = (pred_port, succ_port)`` and the
    winning closure edge ``win_edge`` are what the stitching reads.
    """

    def __init__(self, *, edges, rngs, initial_head, step_budget):
        self.size = len(edges)
        self.edges = edges
        self.rngs = rngs
        self.initial_head = initial_head
        self.step_budget = step_budget

        self.success = False
        self.fail_code = 0
        self.steps = 0
        self.rotations = 0
        self.retries = 0
        self.win_edge: tuple[int, int, int, int] | None = None

        self._dead: set[tuple[int, int, int, int]] = set()  # (owner, peer, my, their)
        self._path: list[int] = []
        self._pos: dict[int, int] = {}
        self._free_port: dict[int, int | None] = {}
        self._bound: dict[int, tuple[int, int]] = {}  # c -> (pred_port, succ_port)

    def run(self) -> None:
        from repro.core.rotation import FAIL_BUDGET, FAIL_NO_EDGES, FAIL_TOO_SMALL

        if self.size < 3:
            self.fail_code = FAIL_TOO_SMALL
            return
        head = self.initial_head
        self._path = [head]
        self._pos[head] = 0
        self._free_port[head] = None
        for step in range(1, self.step_budget + 1):
            free = self._free_port[head]
            usable = [e for e in self.edges[head]
                      if (head, *e) not in self._dead
                      and (free is None or e[1] == free)]
            if not usable:
                self.fail_code = FAIL_NO_EDGES
                return
            target, my_port, their_port = usable[
                int(self.rngs[head].integers(len(usable)))]
            self.steps = step
            self._dead.add((head, target, my_port, their_port))
            self._dead.add((target, head, their_port, my_port))
            if free is None:
                self._free_port[head] = 1 - my_port
            if target not in self._pos:
                self._grow(head, target, my_port, their_port)
                head = target
                continue
            outcome = self._hit(head, target, my_port, their_port)
            if outcome == "win":
                self.success = True
                self.win_edge = (head, target, my_port, their_port)
                return
            if outcome == "retry":
                self.retries += 1
            else:
                self.rotations += 1
                head = self._path[-1]
        self.fail_code = FAIL_BUDGET

    def _grow(self, head: int, target: int, my_port: int, their_port: int) -> None:
        pred_port, _ = self._bound.get(head, (0, 0))
        self._bound[head] = (pred_port, my_port)
        self._pos[target] = len(self._path)
        self._path.append(target)
        self._bound[target] = (their_port, 0)
        self._free_port[target] = 1 - their_port

    def _hit(self, head: int, target: int, my_port: int, their_port: int) -> str:
        """Progress landed on an on-path node: closure, retry, or rotation."""
        tpos = self._pos[target]
        tail = tpos == 0
        t_pred, t_succ = self._bound.get(target, (0, 0))
        if tail and their_port == self._free_port[target] \
                and len(self._path) == self.size:
            self._bound[target] = (their_port, t_succ)
            return "win"
        if not tail and their_port != t_succ:
            return "retry"
        # Rotation at j = tpos + 1 (1-based): reverse list indices
        # tpos+1 .. end; the far end becomes the new head.  Port
        # bookkeeping mirrors RotationWalk._on_rotation.
        seg = self._path[tpos + 1:]
        seg.reverse()
        self._path[tpos + 1:] = seg
        for offset, v in enumerate(seg):
            self._pos[v] = tpos + 1 + offset
        if tail:
            self._free_port[target] = 1 - their_port
        self._bound[target] = (t_pred, their_port)
        degenerate = len(seg) == 1  # the head hit its own predecessor
        for v in seg:
            p, s = self._bound.get(v, (0, 0))
            if v == head and degenerate:
                self._bound[v] = (my_port, 0)
                self._free_port[v] = p
            elif v == head:
                self._bound[v] = (my_port, p)
            elif v == seg[-1]:  # the new head: pred-side port freed
                self._bound[v] = (s, 0)
                self._free_port[v] = p
            else:
                self._bound[v] = (s, p)
        return "rotate"

    def cycle(self) -> list[int]:
        return list(self._path)


def _dhc1_fail(n: int, colors: int, reason: str) -> RunResult:
    return RunResult("dhc1", False, None, 0, engine="kmachine",
                     detail={"k": colors, "fail": reason})


def _dhc1_kmachine(
    graph: Graph,
    *,
    k: int | None = None,
    seed: int = 0,
    k_machines: int | None = None,
    link_words: int = DEFAULT_LINK_WORDS,
    partition_seed: int | None = None,
) -> RunResult:
    """Algorithm 2 under native k-machine execution (see module docs).

    ``k`` keeps its DHC1 meaning — the colour count, defaulting to
    ``sqrt(n)`` — and ``k_machines`` selects the machine count.
    """
    from repro.core.dhc1 import default_sqrt_colors
    from repro.engines.arraywalk import build_array_tree
    from repro.engines.phase1_replay import (
        color_partition,
        replay_partition_walks,
    )

    n = graph.n
    partition, ledger = _setup(graph, seed, k_machines, link_words,
                               partition_seed)
    colors = k if k is not None else default_sqrt_colors(n)
    seeds = np.random.SeedSequence(seed).spawn(n) if n else []
    rngs = [np.random.default_rng(s) for s in seeds]
    indptr, indices = graph.indptr, graph.indices
    members_all = np.arange(n, dtype=np.int64)

    if n == 0 or graph.m == 0 or int(graph.degrees().min()) == 0:
        # An isolated node admits no Hamiltonian cycle; the protocol
        # aborts in its first round.
        result = _dhc1_fail(n, colors, "isolated-node")
        return _finish(result, ledger)

    # -- global election + BFS (consume rounds, not randomness) ----------------
    global_elect = diameter_budget(n)
    floodmin_traffic(ledger, indptr, indices, members_all, global_elect)
    gtree = build_array_tree(indptr, indices, members_all, root=0)
    if gtree is None:
        return _finish(_dhc1_fail(n, colors, "global-bfs-unreachable"), ledger)
    gdone = gtree.completion_times(global_elect)
    gticks, gsrc, gdst, gwords = bfs_messages(gtree, indptr, indices,
                                              global_elect, gdone)
    gspan = int(gdone[gtree.root]) - global_elect + 1
    ledger.series(np.minimum(gticks, gspan - 1), gsrc, gdst, gwords,
                  span=gspan)
    gprofile = TreeFloodProfile(ledger, gtree.parent, gtree.depth, members_all)
    ledger.quiet(max(1, gtree.tree_depth))  # synchronized announce wait

    # -- Phase 1: colours + per-class walks (same replay as DHC2) --------------
    color_of, sub_indptr, sub_indices, twins, alive = color_partition(
        graph, rngs, colors)
    ledger.burst(csr_sources(indptr), indices, 2)  # colour announcement
    elect_budget = diameter_budget(max(3, (2 * n) // max(1, colors)))
    floodmin_traffic(ledger, sub_indptr, sub_indices, members_all,
                     elect_budget)

    bfs_parts: list[tuple] = []
    bfs_span = 1
    walk_forks: list[LinkLedger] = []
    p1_start = 0  # relative clock: class BFS begins after the election

    def flush_phase1():
        # Jointly-binned class BFS ticks + wall-clock-max walk forks;
        # charged on walk-failure paths too (the traffic demonstrably
        # ran).
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
                                      p1_start, done))
        bfs_span = max(bfs_span, int(done[tree.root]) - p1_start + 1)
        fork = ledger.fork()
        _walk_traffic(fork, walk, trace,
                      TreeFloodProfile(fork, tree.parent, tree.depth, members),
                      flood_ecc)
        walk_forks.append(fork)

    p1 = replay_partition_walks(
        indptr=sub_indptr, indices=sub_indices, twins=twins, alive=alive,
        rngs=rngs, color_of=color_of, colors=colors, start_round=p1_start,
        observer=charge_class)
    if not p1.ok:
        if p1.walk_failed:
            flush_phase1()
        return _finish(_dhc1_fail(n, colors, p1.fail_reason), ledger)
    paths, class_trees = p1.cycles, p1.trees
    flush_phase1()

    # -- hypernode selection (l.13-15) + port announcement ----------------------
    holder = np.full(colors + 1, -1, dtype=np.int64)   # u_i per class
    partner = np.full(colors + 1, -1, dtype=np.int64)  # v_i per class
    port_class = np.zeros(n, dtype=np.int64)
    port_role = np.zeros(n, dtype=np.int64)
    max_class_depth = 0
    for c in range(1, colors + 1):
        path = paths[c]
        size = len(path)
        root = path[0]  # cycindex 1: the initial head, never renumbered
        r = 1 + int(rngs[root].integers(size))
        u = path[r - 1]
        v = path[r - 2] if r > 1 else path[size - 1]
        holder[c], partner[c] = u, v
        port_class[u], port_role[u] = c, _ROLE_U
        port_class[v], port_role[v] = c, _ROLE_V
        max_class_depth = max(max_class_depth, class_trees[c].tree_depth)
    # Selection floods over the class trees, then the "hp" broadcast.
    ledger.uniform_burst(2 * (n - colors), 2, ticks=max(1, 2 * max_class_depth))
    ports = np.flatnonzero(port_class > 0)
    counts = indptr[ports + 1] - indptr[ports]
    ledger.burst(np.repeat(ports, counts),
                 _gather(indptr, indices, ports), 3)

    # -- barrier 1, adjacency assembly, barrier 2 -------------------------------
    ledger.flood(gprofile, 1, times=2)  # barrier 1: ready up, go down
    entries_max = 0
    realizations: dict[int, list[tuple[int, int, int, int]]] = {}
    for c in range(1, colors + 1):
        entries: list[tuple[int, int, int, int]] = []
        for endpoint, my_role in ((holder[c], _ROLE_U), (partner[c], _ROLE_V)):
            for w in graph.neighbors(int(endpoint)):
                w = int(w)
                pc = int(port_class[w])
                if pc and pc != c:
                    entries.append((pc, my_role, int(port_role[w]), w))
        entries.sort()
        realizations[c] = entries
        entries_max = max(
            entries_max, sum(1 for e in entries if e[1] == _ROLE_V) + 1)
    ledger.burst(partner[1:], holder[1:], 4)  # first v -> u relay tick
    ledger.quiet(entries_max)                 # rest of the paced queue
    ledger.flood(gprofile, 1, times=2)        # barrier 2

    # -- virtual BFS + ported walk over G' --------------------------------------
    # The virtual CSR has one row per hypernode colour; row 0 is empty.
    vpeers = [sorted({e[0] for e in realizations[c]})
              for c in range(1, colors + 1)]
    vindptr = np.zeros(colors + 2, dtype=np.int64)
    np.cumsum([len(p) for p in vpeers], out=vindptr[2:])
    vindices = np.array([h for p in vpeers for h in p], dtype=np.int64)
    vtree = build_array_tree(vindptr, vindices,
                             np.arange(1, colors + 1, dtype=np.int64), root=1)
    if vtree is None:
        return _finish(_dhc1_fail(n, colors, "virtual-bfs-unreachable"),
                       ledger)
    latency = 3  # a virtual hop is at most 3 physical hops
    vdepth = max(1, vtree.tree_depth)
    ledger.uniform_burst(4 * colors, 3,
                         ticks=latency * (2 * vtree.tree_depth + 4))
    vwalk = _PortedWalk(
        edges={c: [(h, mp, tp) for h, mp, tp, _f in realizations[c]]
               for c in range(1, colors + 1)},
        rngs={c: rngs[int(holder[c])] for c in range(1, colors + 1)},
        initial_head=1,
        step_budget=dra_step_budget(colors),
    )
    vwalk.run()
    ledger.uniform_burst(3 * max(1, vwalk.steps), 6,
                         ticks=latency * max(1, vwalk.steps))
    ledger.quiet(vwalk.rotations * (2 * vdepth * latency + 2))
    if not vwalk.success:
        result = _dhc1_fail(n, colors, f"virtual-walk-{vwalk.fail_code}")
        result.steps = vwalk.steps
        return _finish(result, ledger)

    # -- stitching (Fig. 1) ------------------------------------------------------
    vorder = vwalk.cycle()  # hypernode colours in virtual-cycle order
    vhead = vorder[-1]
    far = {c: {(h, mp, tp): f for h, mp, tp, f in realizations[c]}
           for c in range(1, colors + 1)}
    succ_global: dict[int, int] = {}
    for i, c in enumerate(vorder):
        vsucc = vorder[(i + 1) % colors]
        pred_port, succ_port = vwalk._bound[c]
        if c == vhead:
            _head, _target, succ_port, succ_peer_port = vwalk.win_edge
        else:
            succ_peer_port = vwalk._bound[vsucc][0]
        exit_phys = int(holder[c] if succ_port == _ROLE_U else partner[c])
        next_entry = far[c][(vsucc, succ_port, succ_peer_port)]
        entry_is_u = pred_port == _ROLE_U
        path = paths[c]
        size = len(path)
        for j, w in enumerate(path):
            if w == exit_phys:
                succ_global[w] = next_entry
            elif entry_is_u:
                succ_global[w] = path[(j + 1) % size]
            else:
                succ_global[w] = path[(j - 1) % size]
    ok = True
    cycle = None
    try:
        cycle = cycle_from_successors(succ_global)
        verify_cycle(graph, cycle)
    except CycleViolation:
        ok, cycle = False, None
    ledger.flood(gprofile, 3)  # the final stitching flood
    ledger.quiet(max(0, 2 * gtree.tree_depth - gprofile.tree_depth))
    result = RunResult(
        algorithm="dhc1",
        success=ok,
        cycle=cycle,
        rounds=ledger.metrics.congest_rounds,
        steps=vwalk.steps,
        engine="kmachine",
        detail={"k": colors} if ok else {"k": colors, "fail": "bad-stitch"},
    )
    return _finish(result, ledger)


def _gather(indptr: np.ndarray, indices: np.ndarray,
            nodes: np.ndarray) -> np.ndarray:
    from repro.engines.arraywalk import gather_neighbors

    return gather_neighbors(indptr, indices, nodes)
