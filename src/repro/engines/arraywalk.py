"""Array-native execution kernel: CSR rotation walks and tree timing.

This module is the step-level engines' hot core, written on raw CSR
buffers (:attr:`repro.graphs.adjacency.Graph.indptr` /
:attr:`~repro.graphs.adjacency.Graph.indices`) rather than Python
edge lists and dead-edge sets.  The rotation walk runs on:

* a **dead-edge bitmask** over the directed CSR entries, with a
  precomputed ``twin`` table so killing an undirected edge is two
  O(1) stores (no reverse-slice search);
* **int64 path/position arrays**, so a rotation is one slice reversal
  plus one fancy-indexed position update instead of a Python loop;
* **vectorised tree construction** (:class:`ArrayTree`): frontier BFS,
  the min-id parent rule, the BFS completion-round recursion, and tree
  eccentricities all run as whole-level numpy operations.

RNG-parity contract
-------------------
The kernel consumes the *same per-node RNG streams in the same
decision order* as the CONGEST protocol:
at each step the head ``v`` draws exactly one
``rngs[v].integers(k)`` where ``k`` is the count of its remaining
(non-dead) edges, listed in sorted CSR order — the same count and
order the distributed walk sees.  That invariant is what makes the
``fast`` engine cycle/step/round-identical to ``congest`` (enforced
by the registry ``parity`` declarations and
``tests/test_engine_parity.py``).

CSR invariants the kernel relies on
-----------------------------------
* every row slice ``indices[indptr[v]:indptr[v+1]]`` is sorted
  ascending (true for :class:`~repro.graphs.adjacency.Graph` and
  preserved by :func:`filtered_csr` masking);
* the CSR is *member-closed* for the walk/tree at hand: every listed
  neighbour of a participant is itself a participant (trivially true
  for the full graph; true per colour class for the same-colour CSR,
  since colour classes partition the nodes);
* the directed entries come in reverse pairs, so the ``twin``
  permutation (edge ``u→v`` ↔ ``v→u``) is well defined.

A new algorithm targets the kernel by building (or filtering) a CSR,
spawning per-node generators from one ``SeedSequence``, and driving
:class:`ArrayWalk` / :class:`ArrayTree`; see ``docs/ARCHITECTURE.md``.
"""

from __future__ import annotations

import contextlib
from typing import Callable

import numpy as np

from repro.graphs.adjacency import csr_gather, csr_sources

__all__ = [
    "ArrayTree",
    "ArrayWalk",
    "build_array_tree",
    "edge_twins",
    "filtered_csr",
    "gather_neighbors",
    "observe_walks",
]


#: Active kernel observers; see :func:`observe_walks`.
_walk_observers: list[Callable[["ArrayWalk"], None]] = []


@contextlib.contextmanager
def observe_walks(callback: Callable[["ArrayWalk"], None]):
    """Kernel-level inspection hook: see every completed walk.

    Within the context, ``callback(walk)`` fires after each
    :meth:`ArrayWalk.run` finishes (success or failure), in execution
    order — e.g. DHC2's Phase-1 partition walks arrive in colour
    order 1..K.  Ablation studies use this to capture intermediate
    walk state (paths, step counts) from a normal ``repro.run``
    dispatch instead of re-deriving partitions by hand; the walk is
    live kernel state, so observers must not mutate it.  The cost is
    one list check per *walk*, not per step — negligible.
    """
    _walk_observers.append(callback)
    try:
        yield
    finally:
        _walk_observers.remove(callback)


#: Multi-row CSR gather; lives beside the CSR structure itself.
gather_neighbors = csr_gather


def edge_twins(indptr: np.ndarray, indices: np.ndarray) -> np.ndarray:
    """Reverse-orientation permutation of the directed CSR entries.

    ``twins[i]`` is the position of edge ``v→u`` given that position
    ``i`` holds ``u→v``.  Sorting the directed edge list by
    ``(dst, src)`` visits exactly the reverse partners in ``(src,
    dst)`` order, so one lexsort yields the whole table.
    """
    return np.lexsort((csr_sources(indptr), indices))


def filtered_csr(indptr: np.ndarray, indices: np.ndarray,
                 keep: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
    """CSR with only the directed entries where ``keep`` is True.

    ``keep`` is a boolean mask parallel to ``indices``.  Row order (and
    hence per-row sortedness) is preserved.  The caller is responsible
    for keeping the mask symmetric (keep ``u→v`` iff ``v→u``) so the
    result is still an undirected CSR.
    """
    n = len(indptr) - 1
    src = csr_sources(indptr)
    new_indices = indices[keep]
    new_indptr = np.zeros(n + 1, dtype=np.int64)
    np.cumsum(np.bincount(src[keep], minlength=n), out=new_indptr[1:])
    return new_indptr, new_indices


class ArrayTree:
    """Vectorised replay of the min-id BFS spanning tree.

    Produces the same tree (root, parents, depths) as the message-level
    :class:`~repro.primitives.bfs.BfsTree` and the timing quantities
    the protocol's rounds follow (:meth:`completion_round`,
    :meth:`eccentricity`), computed with whole-level numpy operations
    over the CSR.
    """

    __slots__ = ("root", "depth", "parent", "tree_depth", "members",
                 "_indptr", "_indices")

    def __init__(self, root: int, depth: np.ndarray, parent: np.ndarray,
                 tree_depth: int, members: np.ndarray,
                 indptr: np.ndarray, indices: np.ndarray):
        self.root = root
        self.depth = depth          # full-id-space, -1 outside the tree
        self.parent = parent        # full-id-space, -1 at root / outside
        self.tree_depth = tree_depth
        self.members = members      # sorted participant ids
        self._indptr = indptr
        self._indices = indices

    def completion_round(self, start_round: int) -> int:
        """Round at which the distributed BFS root sends commit."""
        return int(self.completion_times(start_round)[self.root])

    def completion_times(self, start_round: int) -> np.ndarray:
        """Per-member round at which the done-report leaves each node.

        Mirrors :class:`~repro.primitives.bfs.BfsTree`: ``join(v) =
        start + depth(v)``, a response from peer ``w`` arrives at
        ``join(w) + 1``, and ``done(v) = max(join(v) + 1, peer
        responses, children done + 1)`` — evaluated level by level
        from the deepest up, with the peer response term computed as
        one masked scatter-max over the member edges.  The full vector (meaningful at member indices)
        is what the native k-machine engine's traffic model needs; the
        root's entry is the commit round the fast engines use.
        """
        members, depth, parent = self.members, self.depth, self.parent
        n = len(self._indptr) - 1
        counts = self._indptr[members + 1] - self._indptr[members]
        srcs = np.repeat(members, counts)
        dsts = gather_neighbors(self._indptr, self._indices, members)
        # resp(v) = max over non-parent member neighbours w of
        # (start + depth(w) + 1); 0 when v has no such neighbour.
        peer = dsts != parent[srcs]
        respd = np.full(n, np.iinfo(np.int64).min, dtype=np.int64)
        np.maximum.at(respd, srcs[peer], depth[dsts[peer]])
        resp = np.where(respd >= 0, start_round + respd + 1, 0)

        done = np.zeros(n, dtype=np.int64)
        kid = np.zeros(n, dtype=np.int64)
        by_depth = members[np.argsort(depth[members], kind="stable")]
        level_sizes = np.bincount(depth[members], minlength=self.tree_depth + 1)
        stops = np.cumsum(level_sizes)
        for d in range(self.tree_depth, -1, -1):
            level = by_depth[stops[d] - level_sizes[d]:stops[d]]
            done[level] = np.maximum(
                np.maximum(start_round + d + 1, resp[level]), kid[level])
            if d > 0:
                np.maximum.at(kid, parent[level], done[level] + 1)
        return done

    def eccentricity(self, v: int) -> int:
        """Largest tree distance from ``v`` (cost of a flood it starts)."""
        kids = self.members[self.members != self.root]
        if kids.size == 0:
            return 0
        src = np.concatenate((kids, self.parent[kids]))
        dst = np.concatenate((self.parent[kids], kids))
        order = np.argsort(src, kind="stable")
        src, dst = src[order], dst[order]
        n = len(self._indptr) - 1
        tree_indptr = np.zeros(n + 1, dtype=np.int64)
        np.cumsum(np.bincount(src, minlength=n), out=tree_indptr[1:])
        seen = np.zeros(n, dtype=bool)
        seen[v] = True
        frontier = np.array([v], dtype=np.int64)
        far = 0
        while True:
            nbrs = gather_neighbors(tree_indptr, dst, frontier)
            nbrs = np.unique(nbrs[~seen[nbrs]])
            if nbrs.size == 0:
                return far
            seen[nbrs] = True
            frontier = nbrs
            far += 1


def build_array_tree(indptr: np.ndarray, indices: np.ndarray,
                     members: np.ndarray, root: int) -> ArrayTree | None:
    """Build the min-id BFS tree over ``members``, or ``None`` if the
    member subgraph is disconnected (the distributed BFS would hit its
    deadline).

    The CSR must be member-closed (see module docstring).  Matches
    :class:`~repro.primitives.bfs.BfsTree`: BFS depths from ``root``,
    then each non-root member's parent is its *minimum-id* neighbour
    one level up — the offer the distributed protocol keeps.
    """
    n = len(indptr) - 1
    depth = np.full(n, -1, dtype=np.int64)
    depth[root] = 0
    frontier = np.array([root], dtype=np.int64)
    reached = 1
    d = 0
    while frontier.size:
        nbrs = gather_neighbors(indptr, indices, frontier)
        fresh = np.unique(nbrs[depth[nbrs] < 0])
        if fresh.size == 0:
            break
        d += 1
        depth[fresh] = d
        reached += fresh.size
        frontier = fresh
    if reached != members.size:
        return None

    counts = indptr[members + 1] - indptr[members]
    srcs = np.repeat(members, counts)
    dsts = gather_neighbors(indptr, indices, members)
    up = depth[dsts] == depth[srcs] - 1
    parent = np.full(n, n, dtype=np.int64)  # sentinel above any id
    np.minimum.at(parent, srcs[up], dsts[up])
    parent[parent == n] = -1
    parent[root] = -1
    return ArrayTree(root, depth, parent, d, members, indptr, indices)


class ArrayWalk:
    """The rotation walk of Algorithm 1 on CSR buffers.

    Decision-identical to the unported
    :class:`repro.core.rotation.RotationWalk` (the mode DRA and the
    DHC Phase-1 class walks use): same RNG draws, same edge kills,
    same extension/rotation/win sequence, same round accounting and
    failure codes.  A rotation costs ``2 * tree_depth + 3`` rounds.
    The ported DHC1 virtual walk has its own walker
    (:class:`repro.engines.kmachine_dhc1._PortedWalk`) — port
    bookkeeping is per-edge state the bitmask does not model.

    Parameters
    ----------
    indptr / indices:
        The walk's CSR (full graph, or a colour-filtered view).
    twins:
        Reverse-orientation table from :func:`edge_twins` for this CSR.
    alive:
        Boolean mask parallel to ``indices``; killed (traversed) edges
        are flipped off in both orientations.  Shared across walks on
        disjoint member sets (the DHC2 colour classes).
    rngs:
        Per-node generators, indexed by *original* node id.
    size:
        Participant count — the cycle length a win requires.
    """

    __slots__ = ("size", "rngs", "initial_head", "step_budget", "tree_depth",
                 "round", "success", "fail_code", "steps",
                 "rotations", "extensions", "retries", "end_round",
                 "flood_initiator", "trace", "_indptr", "_indices", "_twins",
                 "_alive", "_path", "_pos", "_plen")

    def __init__(self, *, indptr, indices, twins, alive, rngs, size,
                 initial_head, step_budget, tree_depth, start_round,
                 trace=None):
        self.size = size
        self.rngs = rngs
        self.initial_head = initial_head
        self.step_budget = step_budget
        self.tree_depth = tree_depth
        self.round = start_round

        self.success = False
        self.fail_code = 0
        self.steps = 0
        self.rotations = 0
        self.extensions = 0
        self.retries = 0  # unported walks never retry; kept for RunResult parity
        self.end_round = start_round
        self.flood_initiator = initial_head
        #: Optional per-step endpoint log: ``(head, target)`` appended
        #: for every progress message the walk sends, in step order.
        #: The native k-machine engine feeds this to its link ledger;
        #: ``None`` (the default) keeps the hot loop branch-only.
        self.trace = trace

        self._indptr = indptr
        self._indices = indices
        self._twins = twins
        self._alive = alive
        self._path = np.empty(size, dtype=np.int64)
        self._pos = np.full(len(indptr) - 1, -1, dtype=np.int64)
        self._plen = 0

    def run(self) -> None:
        self._run()
        for callback in _walk_observers:
            callback(self)

    def _run(self) -> None:
        # Lazy: the fail codes live beside the CONGEST walk, and
        # importing that module drags in the simulator substrate.
        from repro.core.rotation import FAIL_BUDGET, FAIL_NO_EDGES, FAIL_TOO_SMALL

        if self.size < 3:
            self._fail(FAIL_TOO_SMALL, self.initial_head)
            return
        indices, twins, alive = self._indices, self._twins, self._alive
        path, pos, rngs = self._path, self._pos, self.rngs
        # Hot-loop locals: Python-int row pointers (cheaper lookups than
        # numpy scalars), a preallocated position ramp for rotations,
        # and the per-step constants.
        row = self._indptr.tolist()
        ramp = np.arange(self.size, dtype=np.int64)
        size, budget = self.size, self.step_budget
        rotation_cost = 2 * self.tree_depth + 3
        trace = self.trace

        head = self.initial_head
        path[0] = head
        pos[head] = 0
        plen = 1
        step = 1
        while True:
            if step > budget:
                self._plen = plen
                self._fail(FAIL_BUDGET, head)
                return
            start = row[head]
            usable = alive[start:row[head + 1]].nonzero()[0]
            if usable.size == 0:
                self._plen = plen
                self._fail(FAIL_NO_EDGES, head)
                return
            slot = start + usable[rngs[head].integers(usable.size)]
            target = int(indices[slot])
            alive[slot] = False
            alive[twins[slot]] = False
            self.steps = step
            if trace is not None:
                trace.append((head, target))

            tpos = int(pos[target])
            if tpos < 0:
                # Extension: 1 round (send; the new head acts next round).
                pos[target] = plen
                path[plen] = target
                plen += 1
                head = target
                self.round += 1
                self.extensions += 1
            elif tpos == 0 and plen == size:
                # Closure: the head hit the open tail with a full path.
                self._plen = plen
                self.success = True
                self.flood_initiator = target
                self.end_round = self.round + 1
                return
            else:
                # Rotation at j = tpos + 1: reverse path positions
                # tpos+1 .. plen-1; the far end becomes the new head.
                lo = tpos + 1
                path[lo:plen] = path[lo:plen][::-1].copy()
                pos[path[lo:plen]] = ramp[lo:plen]
                head = int(path[plen - 1])
                self.round += rotation_cost
                self.rotations += 1
            step += 1

    def _fail(self, code: int, at: int) -> None:
        self.fail_code = code
        self.flood_initiator = at
        self.end_round = self.round

    def cycle(self) -> list[int]:
        return self._path[:self._plen].tolist()
