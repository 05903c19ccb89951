"""Batch-major execution kernel: B same-n trials per numpy pass.

:mod:`repro.engines.arraywalk` vectorised the walk *within* one trial;
at sweep sizes the residual cost is per-trial Python dispatch — every
step of every trial pays its own numpy-call overhead.  This module
vectorises across the *trial axis* instead: a batch of B same-n
trials, each with its own sampled graph, lives in one disjoint-union
CSR (trial ``b``'s node ``v`` becomes global id ``b * n + v``), and
every kernel pass advances all still-live trials at once.

Layout
------
* **stacked CSR** (:func:`stack_graph_csrs`): the B per-trial CSRs
  concatenated with node ids offset by ``b * n`` — one ``indptr`` of
  length ``B*n + 1`` and one int32 ``indices`` array (components never
  touch, so all single-trial CSR invariants hold per block).  Two
  per-edge tables come along at setup: a **twin table** — CSR order is
  (src, dst)-lexicographic and reversal is an order-preserving
  bijection onto (dst, src) order, so one stable argsort of ``indices``
  *is* the reverse-edge permutation, no lexsort of pairs needed — and
  a **live-edge bitmask**, one bit per directed edge packed into
  per-row uint64 words, so a head's whole row of dead/live flags is a
  handful of words instead of a byte per edge;
* **flat node state**: backing positions, live-edge counts, and RNG
  states are flat ``B*n`` arrays indexed by global id;
* **per-trial walk state**: length-B vectors for path length, head,
  round, step, and outcome.

Segment representation of the path
----------------------------------
At sweep sizes the serial walk's cost is *data movement*: ~90% of
steps are rotations, each reversing an O(n) path suffix eagerly.
:class:`BatchWalk` instead keeps every path in an append-only backing
row (nodes never move once written) and describes path order as a
short list of directed runs ``(lo, hi, dir)`` over that row, stacked
as one ``(B, 3, seg_cap)`` descriptor array.  A rotation at target
``t`` splits the run containing ``t`` and reverses the order (and
direction flags) of everything after it — an O(#segments) descriptor
shuffle done for *all* rotating trials in one set of (R, 3, seg_cap)
array passes, instead of O(n) element moves per trial.  The walk's
decisions never read positions: membership is a backing-index test,
closure is ``target == tail`` (position 0 is never touched by a
suffix reversal), and the new head is the target's path-successor
read straight from the descriptors.  When a trial accumulates
``seg_cap - 2`` runs it is flattened back to one run — a blocked
gather/scatter over every crowded trial at once — so amortised
movement per rotation drops from ~n/2 elements to ~n/seg_cap.

Masking
-------
Each pass gathers the live trials' head rows' live-bit words into a
``(A, W)`` matrix (W = max words per row, ~deg/64), finds every drawn
edge by popcount prefix + an in-word bit select, classifies every
trial's step outcome with whole-array ops, applies
extensions/closures as single fancy-indexed updates and all rotations
as one descriptor shuffle, then drops finished trials from the live
set.  Finished/failed trials stop consuming RNG draws exactly where
their serial counterpart stopped.

RNG parity across the batch axis
--------------------------------
Trial ``b`` draws from its own per-node streams (the same
``SeedSequence(seed_b).spawn(n)`` tree as ``engine="fast"``) in the
same decision order — one draw per step, on the same remaining-edge
count, in the same sorted CSR row order.  Trials are independent
streams, so interleaving their draws across the batch changes
nothing; that is the whole parity argument, and it is why batched
results are seed-for-seed identical to serial
(``tests/test_engine_parity.py::TestFastBatchParity`` and the
registry parity gate enforce it).

What *is* batched is the mechanics of drawing: :class:`DrawPool`
replicates the whole numpy stack below ``Generator.integers(bound)``
in whole-array arithmetic — the SeedSequence entropy-pool hash that
seeds every spawned child (children differ only in their spawn-key
word, so one vector pass per parent seed yields all n child states),
the PCG64 LCG advance and XSL-RR output (128-bit multiply-add in
64-bit limbs), and the buffered Lemire bounded-integer reduction over
32-bit half-words.  No per-node ``SeedSequence`` / ``PCG64`` /
``Generator`` objects are ever constructed on the hot path; one
vector advance per pass produces every live trial's draw.  The
replication is verified against real numpy objects at first pool
construction; if a numpy build ever disagrees, pools transparently
fall back to per-draw ``integers`` calls on real per-node generators,
which is slower but definitionally exact.

An optional compiled backend (:mod:`repro.engines._jit`, behind
``REPRO_JIT`` + the ``jit`` extra) replaces the whole per-pass step
loop with one fused numba kernel per batch — per-step PCG64 draw,
bit-select, twin kill, and path update in a single compiled loop over
the same state arrays, bitwise identical by construction (trials are
independent, so per-trial completion order equals pass-interleaved
order stream by stream).  The fallback is pure numpy and the default;
dispatch looks the kernels up on :mod:`repro.engines._jit` at call
time so a host can toggle them within one process.  Under
``REPRO_JIT_THREADS=N`` the dispatch attributes point at the
``parallel=True`` build of the same kernel sources, which runs the
trial lanes on N cores — still bitwise identical, because each lane touches only its own
disjoint node-id block and RNG state rows (see the threading section
of :mod:`repro.engines._jit`).
"""

from __future__ import annotations

import numpy as np

from repro.engines import _jit
from repro.graphs.adjacency import csr_gather, csr_sources

__all__ = [
    "BatchTree",
    "BatchWalk",
    "DrawPool",
    "build_batch_tree",
    "stack_graph_csrs",
    "stacked_edge_twins",
    "reverse_path_blocks",
]


def stack_graph_csrs(graphs) -> tuple[np.ndarray, np.ndarray]:
    """The disjoint-union CSR of B same-n graphs (ids offset by ``b*n``).

    ``indices`` comes back int32: global ids and edge offsets both fit
    comfortably (the chunker caps directed entries well below 2**31),
    and the stacked row contents are what every kernel pass gathers —
    half-width entries are half the memory traffic.
    """
    n = graphs[0].n
    indptrs = np.stack([np.asarray(g.indptr, dtype=np.int64) for g in graphs])
    edge_off = np.concatenate(
        ([0], np.cumsum(indptrs[:, -1], dtype=np.int64)))
    if edge_off[-1] >= 2**31 or len(graphs) * n >= 2**31:
        raise ValueError(
            "stacked batch exceeds int32 id space; lower "
            "REPRO_BATCH_EDGE_BUDGET so chunks stay below 2**31 entries")
    indptr = np.concatenate(
        ((indptrs[:, :-1] + edge_off[:-1, None]).ravel(), edge_off[-1:]))
    indices = np.empty(int(edge_off[-1]), dtype=np.int32)
    for b, g in enumerate(graphs):
        at = int(edge_off[b])
        row = np.asarray(g.indices)
        indices[at:at + row.size] = row
        if b:
            indices[at:at + row.size] += np.int32(b * n)
    return indptr, indices


# -- exact batched replication of Generator.integers -----------------------


_MASK32 = np.uint64(0xFFFFFFFF)
_SHIFT32 = np.uint64(32)
_RANGE32 = np.uint64(1 << 32)

# SeedSequence entropy-pool hash constants (numpy bit_generator).
_SS_INIT_A = 0x43B0D7E5
_SS_MULT_A = 0x931E8875
_SS_INIT_B = 0x8B51F9DD
_SS_MULT_B = 0x58F38DED
_SS_MIX_L = 0xCA01F9DD
_SS_MIX_R = 0x4973F715
_SS_XSHIFT = np.uint32(16)
_M32 = 0xFFFFFFFF

# PCG64's 128-bit LCG multiplier, split into 64-bit limbs (and the low
# limb again into 32-bit halves for the mulhi decomposition).
_PCG_MH = np.uint64(0x2360ED051FC65DA4)
_PCG_ML = np.uint64(0x4385DF649FCCF645)
_PCG_ML_LO = np.uint64(0x9FCCF645)
_PCG_ML_HI = np.uint64(0x4385DF64)

#: Lazily-established verdict of the replication self-checks.
_EXACT: bool | None = None


def _entropy_words(seed: int) -> list[int]:
    """``seed`` as little-endian uint32 words (SeedSequence's coercion)."""
    words = []
    while seed:
        words.append(seed & _M32)
        seed >>= 32
    return words or [0]


def _spawned_pcg_states(seeds, n: int) -> np.ndarray:
    """PCG64 seed material of every spawn child, one vector pass per seed.

    Row ``s * n + i`` is ``SeedSequence(seeds[s]).spawn(n)[i]
    .generate_state(4, uint64)``.  A child's assembled entropy is the
    parent's entropy words zero-padded to the pool size (4) plus the
    child index, so the entropy-pool state after the scalar prefix is
    shared by all n children; only the final four spawn-key mixes and
    the eight ``generate_state`` hashes see the index, and those
    vectorise over ``arange(n)``.
    """
    out = np.empty((len(seeds) * n, 4), dtype=np.uint64)
    iv = np.arange(n, dtype=np.uint32)
    for s_at, seed in enumerate(seeds):
        words = _entropy_words(int(seed))
        if len(words) < 4:
            words = words + [0] * (4 - len(words))
        hc = _SS_INIT_A

        def hashmix(value: int) -> int:
            nonlocal hc
            value = (value ^ hc) & _M32
            hc = (hc * _SS_MULT_A) & _M32
            value = (value * hc) & _M32
            return value ^ (value >> 16)

        def mix(x: int, y: int) -> int:
            r = (x * _SS_MIX_L - y * _SS_MIX_R) & _M32
            return r ^ (r >> 16)

        pool = [hashmix(w) for w in words[:4]]
        for i_src in range(4):
            for i_dst in range(4):
                if i_src != i_dst:
                    pool[i_dst] = mix(pool[i_dst], hashmix(pool[i_src]))
        for w in words[4:]:
            for i_dst in range(4):
                pool[i_dst] = mix(pool[i_dst], hashmix(w))
        # Spawn key (the child index): the one vector word, mixed last.
        poolv = []
        for i_dst in range(4):
            v = iv ^ np.uint32(hc)
            hc = (hc * _SS_MULT_A) & _M32
            v = v * np.uint32(hc)
            v ^= v >> _SS_XSHIFT
            r = np.uint32((pool[i_dst] * _SS_MIX_L) & _M32) \
                - v * np.uint32(_SS_MIX_R)
            r ^= r >> _SS_XSHIFT
            poolv.append(r)
        hc2 = _SS_INIT_B
        halves = []
        for i_dst in range(8):
            d = poolv[i_dst % 4] ^ np.uint32(hc2)
            hc2 = (hc2 * _SS_MULT_B) & _M32
            d = d * np.uint32(hc2)
            d ^= d >> _SS_XSHIFT
            halves.append(d.astype(np.uint64))
        rows = out[s_at * n:(s_at + 1) * n]
        for k in range(4):
            rows[:, k] = halves[2 * k] | (halves[2 * k + 1] << _SHIFT32)
    return out


def _pcg_mult_add(lo, hi, inc_lo, inc_hi):
    """One 128-bit LCG step ``state * MULT + inc`` in 64-bit limbs."""
    al = lo & _MASK32
    ah = lo >> _SHIFT32
    mid1 = ah * _PCG_ML_LO
    mid2 = al * _PCG_ML_HI
    spill = ((al * _PCG_ML_LO >> _SHIFT32) + (mid1 & _MASK32)
             + (mid2 & _MASK32)) >> _SHIFT32
    mulhi = ah * _PCG_ML_HI + (mid1 >> _SHIFT32) + (mid2 >> _SHIFT32) + spill
    nlo = lo * _PCG_ML
    nhi = mulhi + lo * _PCG_MH + hi * _PCG_ML
    out_lo = nlo + inc_lo
    out_hi = nhi + inc_hi + (out_lo < nlo)
    return out_lo, out_hi


def _pcg_out(hi, lo):
    """The XSL-RR output of a (stepped) 128-bit state."""
    x = hi ^ lo
    rot = hi >> np.uint64(58)
    return (x >> rot) | (x << ((np.uint64(64) - rot) & np.uint64(63)))


def _pcg_srandom(states: np.ndarray):
    """PCG64's seeding, vectorised: seed material -> (sh, sl, ih, il)."""
    ish, isl = states[:, 0], states[:, 1]
    qh, ql = states[:, 2], states[:, 3]
    ih = (qh << np.uint64(1)) | (ql >> np.uint64(63))
    il = (ql << np.uint64(1)) | np.uint64(1)
    # state = 0 stepped once is just the increment; add the init state,
    # step again.
    sl = il + isl
    sh = ih + ish + (sl < isl)
    sl, sh = _pcg_mult_add(sl, sh, il, ih)
    return sh, sl, ih, il


def _replication_self_check() -> bool:
    """Does the raw-word Lemire replication match this numpy's Generator?

    Drains one PCG64 stream twice — through a real ``Generator`` and
    through the half-word arithmetic :class:`DrawPool` uses — over a
    bound mix that exercises the no-consumption ``bound == 1`` case,
    small and large bounds, and the rejection path (``2**31 + 1``
    rejects ~50% of halves).  Any numpy whose bounded-integer
    algorithm differs fails this check and demotes every pool to the
    per-draw ``integers`` fallback, keeping parity unconditional.
    """
    ss = np.random.SeedSequence(0xBA7C4ED)
    ref = np.random.default_rng(ss)
    words = np.random.PCG64(ss).random_raw(256)
    halves = np.empty(512, dtype=np.uint64)
    halves[0::2] = words & _MASK32
    halves[1::2] = words >> _SHIFT32
    pos = 0
    bounds = [1, 2, 3, 7, 1, 100, 4096, 2**31 + 1, 1, 5, 12,
              1000003, 2**31 + 1, 64, 1, 2] * 4
    for c in bounds:
        expect = int(ref.integers(c))
        if c == 1:
            got = 0
        else:
            threshold = ((1 << 32) - c) % c
            while True:
                if pos >= halves.size:
                    return False
                m = int(halves[pos]) * c
                pos += 1
                if (m & 0xFFFFFFFF) >= threshold:
                    got = m >> 32
                    break
        if got != expect:
            return False
    return True


def _vector_seed_self_check() -> bool:
    """Do the vectorised SeedSequence + PCG64 replications match numpy?

    Reconstructs a few parents' spawn children end to end — seed
    material, seeded LCG state, and the first raw words — against the
    real objects, over one-word, multi-word (> 32-bit) and > 128-bit
    entropy.  Any mismatch demotes every pool to the per-draw
    ``integers`` fallback, keeping parity unconditional.
    """
    for seed in (0, 1, 0xBA7C4ED, (1 << 40) + 7, (1 << 130) + 5):
        k = 3
        try:
            states = _spawned_pcg_states([seed], k)
        except Exception:
            return False
        sh, sl, ih, il = _pcg_srandom(states)
        sh, sl = sh.copy(), sl.copy()
        for i, child in enumerate(np.random.SeedSequence(seed).spawn(k)):
            bg = np.random.PCG64(child)
            st = bg.state["state"]
            if ((int(sh[i]) << 64) | int(sl[i])) != st["state"]:
                return False
            if ((int(ih[i]) << 64) | int(il[i])) != st["inc"]:
                return False
            want = [int(w) for w in bg.random_raw(4)]
            got = []
            for _ in range(4):
                lo, hi = _pcg_mult_add(sl[i:i + 1], sh[i:i + 1],
                                       il[i:i + 1], ih[i:i + 1])
                sl[i:i + 1], sh[i:i + 1] = lo, hi
                got.append(int(_pcg_out(hi, lo)[0]))
            if got != want:
                return False
    return True


class DrawPool:
    """Per-node bounded-integer streams, drawn for a whole pass at once.

    One pool owns the ``B*n`` node streams of a batch — the exact
    ``SeedSequence(seed_b).spawn(n)`` children that ``engine="fast"``
    hands to ``default_rng`` — and serves ``draw(nodes, bounds)``:
    one value per lane, each from its own stream, bitwise identical
    to ``Generator(PCG64(child)).integers(bound)`` called in the same
    per-node order.

    How: the PCG64 LCG states of *all* children are materialised up
    front by the vectorised SeedSequence replication — four uint64
    columns per node, no bit-generator objects anywhere — and each
    step's lanes advance their LCGs in one 64-bit-limb array pass.  A
    ``Generator`` satisfies bounded draws from 32-bit halves of its
    raw 64-bit words (low half first), applying Lemire's
    multiply-shift with rejection, and consumes *nothing* for
    ``bound == 1``; the pool mirrors that with a one-word half buffer
    per node (``_word`` plus a high-half-pending flag).  Rejections
    (probability ``< bound / 2**32``) finish on tiny index subsets.

    The replication is self-checked once per process against real
    ``SeedSequence`` / ``PCG64`` / ``Generator`` objects; on mismatch
    every pool runs per-draw ``integers`` calls instead (exact by
    definition, no longer vectorised).
    """

    __slots__ = ("exact", "_children", "_gens", "_sh", "_sl", "_ih",
                 "_il", "_word", "_pend")

    def __init__(self, seeds, n: int):
        global _EXACT
        if _EXACT is None:
            _EXACT = _replication_self_check() and _vector_seed_self_check()
        self.exact = _EXACT
        if not self.exact:
            self._children = []
            for seed in seeds:
                self._children.extend(np.random.SeedSequence(seed).spawn(n))
            self._gens: list = [None] * len(self._children)
            return
        states = _spawned_pcg_states(list(seeds), n)
        self._sh, self._sl, self._ih, self._il = _pcg_srandom(states)
        total = states.shape[0]
        self._word = np.zeros(total, dtype=np.uint64)
        self._pend = np.zeros(total, dtype=bool)

    def _next_halves(self, nv: np.ndarray) -> np.ndarray:
        """Next 32-bit half per node; ``nv`` must be pairwise distinct."""
        pend = self._pend[nv]
        fresh = nv[~pend]
        if fresh.size:
            lo, hi = _pcg_mult_add(self._sl[fresh], self._sh[fresh],
                                   self._il[fresh], self._ih[fresh])
            self._sl[fresh] = lo
            self._sh[fresh] = hi
            self._word[fresh] = _pcg_out(hi, lo)
        w = self._word[nv]
        self._pend[nv] = ~pend
        return np.where(pend, w >> _SHIFT32, w & _MASK32)

    def draw(self, nodes: np.ndarray, bounds: np.ndarray) -> np.ndarray:
        """One bounded draw per lane; ``nodes`` must be pairwise distinct."""
        if not self.exact:
            gens, children = self._gens, self._children
            out = np.empty(nodes.size, dtype=np.int64)
            for i, (v, c) in enumerate(zip(nodes.tolist(), bounds.tolist())):
                g = gens[v]
                if g is None:
                    g = gens[v] = np.random.default_rng(children[v])
                out[i] = g.integers(c)
            return out

        if bounds.min() > 1:
            nv, need, out = nodes, None, None
        else:
            out = np.zeros(nodes.size, dtype=np.int64)
            need = np.flatnonzero(bounds > 1)  # bound 1 consumes no entropy
            if need.size == 0:
                return out
            nodes, bounds = nodes[need], bounds[need]
            nv = nodes
        half = self._next_halves(nv)
        c = bounds.astype(np.uint64)
        m = half * c
        leftover = m & _MASK32
        vals = (m >> _SHIFT32).astype(np.int64)
        if (leftover < c).any():  # threshold < bound: almost never taken
            threshold = (_RANGE32 - c) % c
            retry = np.flatnonzero(leftover < threshold)
            while retry.size:
                m = self._next_halves(nv[retry]) * c[retry]
                vals[retry] = (m >> _SHIFT32).astype(np.int64)
                retry = retry[(m & _MASK32) < threshold[retry]]
        if need is None:
            return vals
        out[need] = vals
        return out


# -- pluggable inner scans (numpy fallback / optional numba) ---------------


def _padded_rows(values: np.ndarray, starts: np.ndarray,
                 ends: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
    """Rows ``values[starts[i]:ends[i]]`` as a padded matrix + validity mask.

    Padding slots hold an arbitrary in-range element and are masked
    False; callers must apply the mask before trusting any entry.
    """
    degs = ends - starts
    width = int(degs.max()) if degs.size else 0
    cols = np.arange(width, dtype=np.int64)
    flat = starts[:, None] + cols
    np.minimum(flat, values.size - 1, out=flat)
    return values[flat], cols < degs[:, None]


def stacked_edge_twins(indptr: np.ndarray, indices: np.ndarray,
                       batch: int, size: int) -> np.ndarray:
    """Reverse-edge permutation of a stacked CSR, one block at a time.

    A stable argsort of the destination column re-lists the
    (src, dst)-sorted edges in (dst, src) order, and reversal is an
    order-preserving bijection between those orders — so the
    permutation *is* its own reverse-edge table (and involution).
    Per trial block: each block is closed under reversal, and the
    block-local sorts stay cache-resident.  Exposed so callers that
    run several walks over one stacked CSR (the per-colour-class
    DHC2 batch) can compute the table once.
    """
    twins = np.empty(indices.size, dtype=np.int32)
    for b in range(batch):
        lo = int(indptr[b * size])
        hi = int(indptr[(b + 1) * size])
        twins[lo:hi] = np.argsort(indices[lo:hi], kind="stable")
        twins[lo:hi] += np.int32(lo)
    return twins


def reverse_path_blocks(path_flat: np.ndarray, pos: np.ndarray,
                        rows: np.ndarray, los: np.ndarray,
                        highs: np.ndarray, size: int) -> None:
    """Reverse ``path[rows[t], los[t]:highs[t]]`` for every t, in place.

    One gather + one scatter over the concatenated segments (the same
    per-block arange trick as :func:`~repro.graphs.adjacency.csr_gather`)
    replaces a Python loop of per-trial slice reversals; ``pos`` picks
    up each moved node's new *local* path position.  This is the
    rotation step of every batched walk that keeps eager positions
    (the CRE chunk); :class:`BatchWalk` itself rotates by descriptor.
    """
    kern = _jit.reverse_blocks
    if kern is not None:  # pragma: no cover - jit variant
        kern(path_flat, pos, rows, los, highs, size)
        return
    seg = highs - los
    total = int(seg.sum())
    if total == 0:
        return
    offs = np.arange(total, dtype=np.int64) - np.repeat(
        np.cumsum(seg) - seg, seg)
    base = np.repeat(rows, seg) * size
    dst = np.repeat(los, seg) + offs
    vals = path_flat[base + (np.repeat(highs, seg) - 1 - offs)]
    path_flat[base + dst] = vals
    pos[vals] = dst


class BatchTree:
    """Min-id BFS trees of every trial in a batch, built in one BFS.

    The multi-root analogue of
    :class:`~repro.engines.arraywalk.ArrayTree` /
    :func:`~repro.engines.arraywalk.build_array_tree` over the
    disjoint-union CSR: one frontier BFS grows all B trees at once
    (components never interact), the min-id parent rule falls out of
    CSR row order, and the completion-round recursion and flood
    eccentricities run jointly over every connected trial.  Trials
    whose graph is disconnected are flagged in :attr:`ok` (their
    distributed BFS would hit its deadline) and excluded from the
    timing computations.
    """

    __slots__ = ("batch", "n", "roots", "ok", "depth", "parent",
                 "tree_depth", "_indptr", "_indices")

    def __init__(self, batch, n, roots, ok, depth, parent, tree_depth,
                 indptr, indices):
        self.batch = batch
        self.n = n
        self.roots = roots          # global ids, one per trial
        self.ok = ok                # per-trial: all participants reached?
        self.depth = depth          # flat B*n, -1 outside the trees
        self.parent = parent        # flat B*n, -1 at roots / outside
        self.tree_depth = tree_depth  # per-trial max depth
        self._indptr = indptr
        self._indices = indices

    def completion_times(self, start_round: int) -> np.ndarray:
        """Per-node done-report rounds for every connected trial.

        The same recursion as
        :meth:`~repro.engines.arraywalk.ArrayTree.completion_times` —
        ``done(v) = max(join(v) + 1, peer responses, children done +
        1)`` — run trial by trial over graph-local slices of the
        stacked CSR.  Trials are independent components, so per-trial
        evaluation is exactly the joint recursion; the local n-node
        working set stays cache-resident where a union-wide pass
        would stream every temp through memory.  The peer-response
        term is a masked per-row ``maximum.reduceat``, the per-level
        child scatter-max a sort + ``reduceat`` (ufunc.at is orders
        of magnitude slower).
        """
        n = self.n
        indptr, indices = self._indptr, self._indices
        done = np.zeros(self.batch * n, dtype=np.int64)
        lowest = np.iinfo(np.int64).min
        for b in np.flatnonzero(self.ok).tolist():
            base = b * n
            lo = int(indptr[base])
            ip = (indptr[base:base + n + 1] - lo).astype(np.int64)
            dsts = indices[lo:int(indptr[base + n])].astype(np.int64)
            dsts -= base
            dep = self.depth[base:base + n]
            par = self.parent[base:base + n] - base  # root stays < 0
            counts = np.diff(ip)
            srcs = np.repeat(np.arange(n, dtype=np.int64), counts)
            masked = np.where(dsts != par[srcs], dep[dsts], lowest)
            nonempty = counts > 0  # connected n >= 2 has none empty
            respd = np.full(n, lowest, dtype=np.int64)
            if masked.size:
                respd[nonempty] = np.maximum.reduceat(
                    masked, (np.cumsum(counts) - counts)[nonempty])
            resp = np.where(respd >= 0, start_round + respd + 1, 0)

            done_b = done[base:base + n]
            kid = np.zeros(n, dtype=np.int64)
            top = int(dep.max())
            # Nodes outside the tree (depth -1: non-participants of a
            # partition walk) sort into a trailing pseudo-level the
            # loop below never visits; full blocks have none, so this
            # relabelling is the identity there.
            dep_lv = np.where(dep >= 0, dep, top + 1)
            by_depth = np.argsort(dep_lv, kind="stable")
            level_sizes = np.bincount(dep_lv, minlength=top + 2)
            stops = np.cumsum(level_sizes)
            for d in range(top, -1, -1):
                level = by_depth[stops[d] - level_sizes[d]:stops[d]]
                done_b[level] = np.maximum(
                    np.maximum(start_round + d + 1, resp[level]),
                    kid[level])
                if d > 0:
                    pl = par[level]
                    order = np.argsort(pl, kind="stable")
                    sp = pl[order]
                    heads_ = np.ones(sp.size, dtype=bool)
                    heads_[1:] = sp[1:] != sp[:-1]
                    segmax = np.maximum.reduceat(
                        (done_b[level] + 1)[order], np.flatnonzero(heads_))
                    uniq = sp[heads_]
                    kid[uniq] = np.maximum(kid[uniq], segmax)
        return done

    def eccentricities(self, starts: np.ndarray) -> np.ndarray:
        """Largest tree distance from each start (one per connected trial).

        One multi-source BFS over the union's tree edges; sources must
        lie in distinct trials (components), so each BFS wave is
        confined to its own tree and the last level that touches a
        trial is that start's eccentricity.
        """
        far = np.zeros(starts.size, dtype=np.int64)
        kids = np.flatnonzero(self.depth > 0)
        if kids.size == 0 or starts.size == 0:
            return far
        src = np.concatenate((kids, self.parent[kids]))
        dst = np.concatenate((self.parent[kids], kids))
        order = np.argsort(src, kind="stable")
        src, dst = src[order], dst[order]
        total = self.batch * self.n
        tree_indptr = np.zeros(total + 1, dtype=np.int64)
        np.cumsum(np.bincount(src, minlength=total), out=tree_indptr[1:])
        slot_of_trial = np.full(self.batch, -1, dtype=np.int64)
        slot_of_trial[starts // self.n] = np.arange(starts.size)
        seen = np.zeros(total, dtype=bool)
        seen[starts] = True
        frontier = np.asarray(starts, dtype=np.int64)
        level = 0
        while frontier.size:
            nbrs = csr_gather(tree_indptr, dst, frontier)
            fresh = np.unique(nbrs[~seen[nbrs]])
            if fresh.size == 0:
                break
            level += 1
            seen[fresh] = True
            far[slot_of_trial[fresh // self.n]] = level
            frontier = fresh
        return far


def build_batch_tree(indptr: np.ndarray, indices: np.ndarray,
                     batch: int, n: int, roots: np.ndarray,
                     expect: np.ndarray | None = None,
                     live: np.ndarray | None = None) -> BatchTree:
    """Build every trial's min-id BFS tree over the stacked CSR.

    Unlike :func:`~repro.engines.arraywalk.build_array_tree` this never
    returns ``None``: disconnected trials are reported per-trial via
    :attr:`BatchTree.ok` so the rest of the batch keeps going.

    ``expect`` is the per-trial participant count a complete BFS must
    reach (default: all ``n`` nodes of the block; the per-colour-class
    DHC2 batch passes class sizes).  ``live`` masks trials to skip
    entirely — their root entry may be garbage and their block keeps
    depth -1 with ``ok`` False.
    """
    total = batch * n
    roots = np.asarray(roots, dtype=np.int64)
    expect = (np.full(batch, n, dtype=np.int64) if expect is None
              else np.asarray(expect, dtype=np.int64))
    live = (np.ones(batch, dtype=bool) if live is None
            else np.asarray(live, dtype=bool))
    depth = np.full(total, -1, dtype=np.int64)
    parent = np.full(total, -1, dtype=np.int64)
    ok = np.zeros(batch, dtype=bool)
    tree_depth = np.zeros(batch, dtype=np.int64)
    kern = _jit.tree_kernel
    if kern is not None:  # pragma: no cover - exercised in the jit lane
        kern(np.asarray(indptr, dtype=np.int64), indices, roots, expect,
             live, n, depth, parent, ok, tree_depth)
        return BatchTree(batch, n, roots, ok, depth, parent, tree_depth,
                         indptr, indices)
    # Trial by trial over graph-local slices: components never
    # interact, so this is the union BFS evaluated in an order that
    # keeps each trial's n-node arrays cache-resident instead of
    # streaming multi-million-entry union temps through memory.
    for b in range(batch):
        if not live[b]:
            continue
        base = b * n
        lo = int(indptr[base])
        ip = (indptr[base:base + n + 1] - lo).astype(np.int64)
        idx = indices[lo:int(indptr[base + n])].astype(np.int64)
        idx -= base
        dep = np.full(n, -1, dtype=np.int64)
        r = int(roots[b]) - base
        dep[r] = 0
        frontier = np.asarray([r], dtype=np.int64)
        d = 0
        while frontier.size:
            nbrs = csr_gather(ip, idx, frontier)
            fresh = nbrs[dep[nbrs] < 0]
            if fresh.size == 0:
                break
            d += 1
            # Duplicate marks are idempotent; re-scanning depth beats
            # the sort a np.unique of the wave would cost.
            dep[fresh] = d
            frontier = np.flatnonzero(dep == d)
        ok[b] = int((dep >= 0).sum()) == int(expect[b])
        tree_depth[b] = int(dep.max())

        # Min-id parent rule: rows are sorted ascending, so each
        # reached non-root's parent is its *first* one-level-up
        # neighbour.
        srcs = csr_sources(ip)
        up = np.flatnonzero(dep[idx] == dep[srcs] - 1)
        up_src = srcs[up]
        first = np.ones(up_src.size, dtype=bool)
        first[1:] = up_src[1:] != up_src[:-1]
        par = np.full(n, -1, dtype=np.int64)
        par[up_src[first]] = idx[up[first]]
        par[r] = -1
        depth[base:base + n] = dep
        parent[base:base + n] = np.where(par >= 0, par + base, -1)
    return BatchTree(batch, n, roots, ok, depth, parent, tree_depth,
                     indptr, indices)


class BatchWalk:
    """Algorithm 1's rotation walk over every live trial per pass.

    Step-for-step identical to running one
    :class:`~repro.engines.arraywalk.ArrayWalk` per trial (each trial's
    draws, edge kills, extension/rotation/closure sequence, round
    accounting, and failure codes are unchanged); only the execution
    order interleaves — pass k performs step k of every trial still
    live.  The budget gate runs before the edge scan and no-edge
    trials fail *before* any draw, exactly mirroring the serial check
    order.

    Parameters mirror :class:`~repro.engines.arraywalk.ArrayWalk` with
    the batch axis added: ``initial_heads`` / ``tree_depths`` /
    ``start_rounds`` are per-trial vectors, ``draws`` is the batch's
    :class:`DrawPool` (one stream per global node id), and ``live``
    masks trials excluded before the walk starts (e.g. disconnected
    graphs).  By default every trial's participant set is its full
    n-node block; partition walks (the per-colour-class DHC2 batch)
    pass per-trial participant counts via ``sizes`` and a per-trial
    ``step_budget`` vector — closure then requires
    ``plen == sizes[b]``, and blocks may contain non-participant
    nodes as long as the CSR never reaches them (class rows are
    colour-closed).  ``twins`` accepts a precomputed
    :func:`stacked_edge_twins` table so several walks over one
    stacked CSR share the sort.

    When :mod:`repro.engines._jit` has compiled kernels *and* the
    pool is in exact (vector-replication) mode, :meth:`run` hands the
    whole walk to the fused kernel instead of the numpy pass loop;
    outcomes are bitwise identical either way.
    """

    __slots__ = ("batch", "size", "sizes", "draws", "step_budget",
                 "seg_cap", "success", "fail_code", "steps", "rotations",
                 "extensions", "round", "end_round", "flood_initiator",
                 "plen", "head", "_indptr", "_ip32", "_twins", "_wp32",
                 "_bits", "_alive_count", "_idx_pad", "_buf", "_bpos",
                 "_tail", "_segs", "_seg_cnt", "_live", "_rotation_cost",
                 "_budgets", "_cols", "_cols32", "_lanes")

    def __init__(self, *, indptr, indices, draws, batch, size,
                 initial_heads, step_budget, tree_depths, start_rounds,
                 live=None, seg_cap=64, sizes=None, twins=None):
        self.batch = batch
        self.size = size
        self.sizes = (np.full(batch, size, dtype=np.int64) if sizes is None
                      else np.asarray(sizes, dtype=np.int64).copy())
        self.draws = draws
        self.step_budget = step_budget
        budgets = np.asarray(step_budget, dtype=np.int64)
        self._budgets = (np.full(batch, budgets) if budgets.ndim == 0
                         else budgets.copy())
        # Room for one split + one append per pass between compactions.
        self.seg_cap = cap = max(8, int(seg_cap))

        heads = np.asarray(initial_heads, dtype=np.int64)
        self.success = np.zeros(batch, dtype=bool)
        self.fail_code = np.zeros(batch, dtype=np.int64)
        self.steps = np.zeros(batch, dtype=np.int64)
        self.rotations = np.zeros(batch, dtype=np.int64)
        self.extensions = np.zeros(batch, dtype=np.int64)
        self.round = np.asarray(start_rounds, dtype=np.int64).copy()
        self.end_round = self.round.copy()
        self.flood_initiator = heads.copy()
        self.plen = np.zeros(batch, dtype=np.int64)
        self.head = heads.copy()

        self._indptr = indptr
        degs = np.diff(indptr)
        self._alive_count = degs.astype(np.int64)
        maxdeg = int(degs.max()) if degs.size else 0
        # Padding indices by one max-degree row lets every (A, width)
        # gather index unclamped: spill slots read -1 sentinels, never
        # a neighbouring row by accident.  int32 copies keep the
        # per-pass index matrices and row gathers at half the memory
        # traffic (global ids and edge offsets both stay far below
        # 2**31 at any sane chunk size).
        self._ip32 = indptr.astype(np.int32)
        self._idx_pad = np.concatenate(
            (np.asarray(indices, dtype=np.int32),
             np.full(maxdeg, -1, dtype=np.int32)))
        self._twins = (stacked_edge_twins(indptr, indices, batch, size)
                       if twins is None else twins)
        # Live edges, one bit per directed slot: row r owns words
        # [wptr[r], wptr[r+1]) — bit j of the run is local slot j.
        # One max-width spill row keeps masked gathers unclamped.
        nwords = (degs + 63) >> 6
        wptr = np.zeros(degs.size + 1, dtype=np.int64)
        np.cumsum(nwords, out=wptr[1:])
        self._wp32 = wptr.astype(np.int32)
        maxw = int(nwords.max()) if nwords.size else 0
        bits = np.zeros(int(wptr[-1]) + maxw, dtype=np.uint64)
        bits[:wptr[-1]] = ~np.uint64(0)
        rem = degs & 63
        partial = np.flatnonzero(rem)
        bits[wptr[1:][partial] - 1] = \
            (np.uint64(1) << rem[partial].astype(np.uint64)) - np.uint64(1)
        self._bits = bits
        self._cols = np.arange(max(maxdeg, cap, 1), dtype=np.int64)
        self._cols32 = self._cols.astype(np.int32)
        self._lanes = np.arange(batch, dtype=np.int64)

        # Append-only backing rows: a node's backing slot never moves;
        # path order lives in the (lo, hi, dir) run descriptors.
        # int32 throughout — these are the arrays every rotation pass
        # gathers and scatters, so width is bandwidth.
        self._buf = np.zeros((batch, max(size, 1)), dtype=np.int32)
        self._bpos = np.full(batch * size, -1, dtype=np.int32)
        self._tail = heads.copy()
        self._segs = np.zeros((batch, 3, cap), dtype=np.int32)
        self._segs[:, 2, :] = 1
        self._seg_cnt = np.zeros(batch, dtype=np.int64)
        self._live = (np.ones(batch, dtype=bool) if live is None
                      else np.asarray(live, dtype=bool).copy())

        self._rotation_cost = 2 * np.asarray(tree_depths, dtype=np.int64) + 3
        started = np.flatnonzero(self._live)
        self._buf[started, 0] = heads[started]
        if size:
            self._bpos[heads[started]] = 0
        self._segs[started, 1, 0] = 1
        self._seg_cnt[started] = 1
        self.plen[started] = 1

    def _flatten_rows(self, rows: np.ndarray) -> None:
        """Compact every listed trial back to one forward run, jointly.

        One gather + one scatter over the concatenation of all listed
        trials' runs in path order (reading into a scratch array first,
        since source and destination share the backing rows).
        """
        if rows.size == 0:
            return
        size = self.size
        buf_flat = self._buf.reshape(-1)
        cnt = self._seg_cnt[rows]
        g = self._segs[rows]
        keep = self._cols[:self.seg_cap][None, :] < cnt[:, None]
        lo = g[:, 0][keep]
        hi = g[:, 1][keep]
        fwd = g[:, 2][keep] > 0
        lens = hi - lo
        total = int(lens.sum())
        if total == 0:
            return
        offs = np.arange(total, dtype=np.int64) - np.repeat(
            np.cumsum(lens) - lens, lens)
        idx = np.where(np.repeat(fwd, lens),
                       np.repeat(lo, lens) + offs,
                       np.repeat(hi, lens) - 1 - offs)
        vals = buf_flat[np.repeat(np.repeat(rows, cnt) * size, lens) + idx]
        row_lens = self.plen[rows]
        dstoff = np.arange(total, dtype=np.int64) - np.repeat(
            np.cumsum(row_lens) - row_lens, row_lens)
        buf_flat[np.repeat(rows * size, row_lens) + dstoff] = vals
        self._bpos[vals] = dstoff
        self._segs[rows, 0, 0] = 0
        self._segs[rows, 1, 0] = row_lens
        self._segs[rows, 2, 0] = 1
        self._seg_cnt[rows] = 1

    def cycle(self, b: int) -> list[int]:
        """Trial ``b``'s path in *local* node ids."""
        if self.plen[b]:
            self._flatten_rows(np.asarray([b], dtype=np.int64))
        return (self._buf[b, :self.plen[b]] - b * self.size).tolist()

    def verified_cycles(self, trials: np.ndarray
                        ) -> tuple[np.ndarray, np.ndarray]:
        """Full-length paths of ``trials`` plus a Hamiltonian-cycle verdict.

        One joint flatten, then whole-array versions of the checks
        :func:`repro.verify.hamiltonicity.verify_cycle` performs
        per-trial — each row is a permutation of its trial's node
        block and every consecutive (and the closing) pair is a graph
        edge — so a serial run would accept exactly the same rows.
        The edge test is a lockstep binary search of every pair at
        once (rows are sorted, so each query halves in unison).
        Returns the ``(len(trials), n)`` global-id path matrix and a
        per-trial bool.
        """
        self._flatten_rows(trials)
        rows = self._buf[trials]
        n = self.size
        block = np.arange(n, dtype=np.int64) + (trials * n)[:, None]
        ok = (np.sort(rows, axis=1) == block).all(axis=1)
        u = rows.reshape(-1).astype(np.int64)
        v = np.roll(rows, -1, axis=1).reshape(-1).astype(np.int32)
        ip32, idx_pad = self._ip32, self._idx_pad
        if idx_pad.size == 0:  # edgeless batch: nothing can close
            return rows, np.zeros(len(trials), dtype=bool)
        lo = ip32[u].astype(np.int64)
        hi = ip32[u + 1].astype(np.int64)
        ends = hi
        while True:
            open_ = lo < hi
            if not open_.any():
                break
            mid = (lo + hi) >> 1
            less = idx_pad[mid] < v
            lo = np.where(open_ & less, mid + 1, lo)
            hi = np.where(open_ & ~less, mid, hi)
        good = (lo < ends) & (idx_pad[lo] == v)
        ok &= good.reshape(rows.shape).all(axis=1)
        return rows, ok

    def _fail(self, trials: np.ndarray, code: int) -> None:
        self.fail_code[trials] = code
        self.flood_initiator[trials] = self.head[trials]
        self.end_round[trials] = self.round[trials]
        self._live[trials] = False

    def _run_fused(self, kern) -> None:
        """Hand the whole walk to the compiled kernel (exact pools only)."""
        from repro.core.rotation import FAIL_BUDGET, FAIL_NO_EDGES

        pool = self.draws
        order = np.flatnonzero(self._live)
        if order.size == 0:
            return
        # uint64 wraparound is the LCG arithmetic itself; silence the
        # numpy-2 scalar overflow warning for the uncompiled case (the
        # parity tests run the kernel as plain Python).
        with np.errstate(over="ignore"):
            kern(order, np.asarray(self._indptr, dtype=np.int64),
                 self._idx_pad, self._twins, self._wp32, self._bits,
                 self._alive_count,
                 pool._sh, pool._sl, pool._ih, pool._il,
                 pool._word, pool._pend,
                 self._buf.reshape(-1), self._bpos, self._tail, self.sizes,
                 self._budgets, self._rotation_cost,
                 self.head, self.plen, self.round, self.steps,
                 self.rotations, self.extensions,
                 self.success, self.fail_code, self.end_round,
                 self.flood_initiator, self._live,
                 self.size, FAIL_BUDGET, FAIL_NO_EDGES)
        # The kernel keeps eager path positions in the backing rows;
        # re-describe each ran trial as one forward run so cycle() /
        # verified_cycles() read the same state the numpy path leaves.
        self._segs[order, 0, 0] = 0
        self._segs[order, 1, 0] = self.plen[order]
        self._segs[order, 2, 0] = 1
        self._seg_cnt[order] = 1

    def run(self) -> None:
        from repro.core.rotation import FAIL_BUDGET, FAIL_NO_EDGES, FAIL_TOO_SMALL

        small = np.flatnonzero(self._live & (self.sizes < 3))
        if small.size:
            self._fail(small, FAIL_TOO_SMALL)
        kern = _jit.walk_kernel
        if kern is not None and getattr(self.draws, "exact", False):
            self._run_fused(kern)
            return
        ip32, idx_pad, twins = self._ip32, self._idx_pad, self._twins
        wp32, bits = self._wp32, self._bits
        alive_count, pool = self._alive_count, self.draws
        bpos, live, cols = self._bpos, self._live, self._cols
        cols32 = self._cols32
        one = np.uint64(1)
        six3 = np.uint64(63)
        widths = [(np.uint64(w), (one << np.uint64(w)) - one)
                  for w in (32, 16, 8, 4, 2, 1)]
        buf_flat = self._buf.reshape(-1)
        segs = self._segs
        segs_flat = segs.reshape(-1)
        seg_cnt = self._seg_cnt
        size, budgets, cap = self.size, self._budgets, self.seg_cap
        plane = cap  # flat stride between the lo/hi/dir planes
        axis3 = np.arange(3, dtype=np.int64)[None, :, None]
        # Uniform batches (every full-block walk) keep the per-pass
        # budget gate and closure-length test scalar; only partition
        # walks with genuinely per-trial values pay the vector forms.
        budget_floor = int(budgets.min()) if budgets.size else 0
        uniform_size = bool((self.sizes == size).all())

        step = 1
        while True:
            act = np.flatnonzero(live)
            if act.size == 0:
                return
            if step > budget_floor:
                over = step > budgets[act]
                if over.any():
                    self._fail(act[over], FAIL_BUDGET)
                    act = act[~over]
                    if act.size == 0:
                        return
            heads = self.head[act]
            counts = alive_count[heads]
            cornered = counts == 0
            if cornered.any():
                # Serial order: a cornered head fails without drawing.
                self._fail(act[cornered], FAIL_NO_EDGES)
                going = ~cornered
                act, heads, counts = act[going], heads[going], counts[going]
                if act.size == 0:
                    step += 1
                    continue
            trials = act

            draws = pool.draw(heads, counts)
            wstart = wp32[heads]
            # Find the word holding the (draws+1)-th live bit of
            # each head row, then binary-select the bit inside it:
            # halve the window six times, descending into whichever
            # half still holds the wanted rank.
            wdeg = wp32[heads + 1] - wstart
            wwidth = int(wdeg.max())
            wmat = bits[wstart[:, None] + cols32[:wwidth]]
            wmat *= cols32[:wwidth] < wdeg[:, None]
            pc = np.bitwise_count(wmat)
            cum = pc.cumsum(axis=1, dtype=np.int32)
            d32 = draws.astype(np.int32)
            k = (cum > d32[:, None]).argmax(axis=1)
            r_ = self._lanes[:heads.size]
            rank = (d32 - cum[r_, k] + pc[r_, k]).astype(np.uint64)
            word = wmat[r_, k]
            pos = np.zeros(heads.size, dtype=np.uint64)
            for w64, mask in widths:
                low = word & mask
                c = np.bitwise_count(low).astype(np.uint64)
                up = rank >= c
                rank -= np.where(up, c, 0)
                pos += np.where(up, w64, 0)
                word = np.where(up, word >> w64, low)
            offs = (k.astype(np.int64) << 6) + pos.astype(np.int64)
            slots = ip32[heads].astype(np.int64) + offs
            targets = idx_pad[slots].astype(np.int64)

            # Kill the used edge in both directions: the reverse slot
            # is one twin-table gather, and each lane's head and target
            # rows are pairwise distinct (disjoint trial blocks, no
            # self-loops), so the word read-modify-writes never alias.
            twin_slots = twins[slots].astype(np.int64)
            toffs = twin_slots - ip32[targets]
            wk = wstart.astype(np.int64) + (offs >> 6)
            bits[wk] &= ~(one << (offs.astype(np.uint64) & six3))
            tk = wp32[targets].astype(np.int64) + (toffs >> 6)
            bits[tk] &= ~(one << (toffs.astype(np.uint64) & six3))
            alive_count[heads] -= 1
            alive_count[targets] -= 1
            self.steps[trials] = step

            is_ext = bpos[targets] < 0
            # The tail (path position 0) is never moved by a suffix
            # reversal, so the serial ``tpos == 0`` closure test is an
            # identity check against the start node.
            want = size if uniform_size else self.sizes[trials]
            is_win = ((targets == self._tail[trials])
                      & (self.plen[trials] == want))
            is_rot = ~(is_ext | is_win)

            if is_ext.any():
                grew = trials[is_ext]
                new_heads = targets[is_ext]
                lengths = self.plen[grew]
                bpos[new_heads] = lengths
                buf_flat[grew * size + lengths] = new_heads
                # Extend the last run in place when it already ends at
                # the backing top going forward; otherwise open a run.
                base3 = grew * (3 * cap)
                last = base3 + seg_cnt[grew] - 1
                can = (segs_flat[last + 2 * plane] > 0) \
                    & (segs_flat[last + plane] == lengths)
                segs_flat[(last + plane)[can]] += 1
                app = np.flatnonzero(~can)
                if app.size:
                    slot = base3[app] + seg_cnt[grew[app]]
                    segs_flat[slot] = lengths[app]
                    segs_flat[slot + plane] = lengths[app] + 1
                    segs_flat[slot + 2 * plane] = 1
                    seg_cnt[grew[app]] += 1
                self.plen[grew] = lengths + 1
                self.head[grew] = new_heads
                self.round[grew] += 1
                self.extensions[grew] += 1

            if is_win.any():
                won = trials[is_win]
                self.success[won] = True
                self.flood_initiator[won] = targets[is_win]
                self.end_round[won] = self.round[won] + 1
                live[won] = False

            if is_rot.any():
                # Path = S_0 .. S_{k-1} (A|B) S_{k+1} .. S_{m-1} with the
                # target last in A; the reversal rewrites this to
                # S_0 .. S_{k-1} A rev(S_{m-1}) .. rev(S_{k+1}) rev(B)
                # — descriptors only, no elements move.
                spun = trials[is_rot]
                p = bpos[targets[is_rot]]
                r_ = self._lanes[:spun.size]
                m = seg_cnt[spun]
                g = segs[spun]
                lo, hi, dr = g[:, 0], g[:, 1], g[:, 2]
                colr = cols[:cap][None, :]
                inside = ((lo <= p[:, None]) & (p[:, None] < hi)
                          & (colr < m[:, None]))
                k = inside.argmax(axis=1)
                klo, khi, kdr = lo[r_, k], hi[r_, k], dr[r_, k]
                fwd = kdr > 0
                alo = np.where(fwd, klo, p)
                ahi = np.where(fwd, p + 1, khi)
                blo = np.where(fwd, p + 1, klo)
                bhi = np.where(fwd, khi, p)
                has_b = blo < bhi

                # New head = the target's path-successor: B's first
                # element, or the next run's first element when the
                # split lands on a run boundary (target == head leaves
                # the head as-is, mirroring serial's empty reversal).
                base = spun * size
                # The masked-out corners still index the gather: empty-B
                # lanes can put first_b at -1 (bhi == 0) or at size
                # (blo == p + 1 past the backing top), and stale
                # next-run descriptors can send first_n to -1 — but
                # stale values are always old backing coords < size, so
                # first_b needs both clamps and first_n the lower one.
                first_b = np.where(fwd, blo, bhi - 1)
                np.maximum(first_b, 0, out=first_b)
                np.minimum(first_b, size - 1, out=first_b)
                nxt = np.minimum(k + 1, cap - 1)
                first_n = np.where(dr[r_, nxt] > 0, lo[r_, nxt],
                                   hi[r_, nxt] - 1)
                np.maximum(first_n, 0, out=first_n)
                new_head = np.where(
                    has_b, buf_flat[base + first_b],
                    np.where(k + 1 < m, buf_flat[base + first_n],
                             self.head[spun]))

                srcs = np.where(colr <= k[:, None], colr,
                                (m + k)[:, None] - colr)
                np.maximum(srcs, 0, out=srcs)  # reflected side: <= k < cap
                new_g = g[r_[:, None, None], axis3, srcs[:, None, :]]
                flip = (colr > k[:, None]) & (colr < m[:, None])
                np.negative(new_g[:, 2], out=new_g[:, 2], where=flip)
                new_g[r_, 0, k] = alo
                new_g[r_, 1, k] = ahi
                new_g[r_, 2, k] = kdr
                wb = np.flatnonzero(has_b)
                if wb.size:
                    new_g[wb, 0, m[wb]] = blo[wb]
                    new_g[wb, 1, m[wb]] = bhi[wb]
                    new_g[wb, 2, m[wb]] = -kdr[wb]
                segs[spun] = new_g
                seg_cnt[spun] = m + has_b

                self.head[spun] = new_head
                self.round[spun] += self._rotation_cost[spun]
                self.rotations[spun] += 1

            # Splits and run appends each add at most one descriptor per
            # trial per pass; compact before anyone can overflow.
            self._flatten_rows(trials[seg_cnt[trials] >= cap - 2])

            step += 1
