"""Fused-kernel vs pure-numpy bitwise equality (``repro.engines._jit``).

The fused batch kernels (:func:`~repro.engines._jit.walk_steps_impl`,
:func:`~repro.engines._jit.tree_build_impl`,
:func:`~repro.engines._jit.reverse_blocks_impl`) promise results
*bitwise identical* to the numpy pass loop whether or not numba
compiles them.  These tests enforce that promise on every host by
installing the ``*_impl`` functions **uncompiled** as the dispatch
targets — the exact code numba would compile, minus the compilation —
and holding every RunResult field against the numpy path.  Each
kernel has one source, compiled serial or threaded from the same
body (its outer ``prange`` loop is plain ``range`` uncompiled), so
these checks cover both builds' code.  The CI jit lanes
(``REPRO_JIT=1`` with numba installed; one with
``REPRO_JIT_THREADS=2``) re-run the whole suite with the kernels
actually compiled — serial and threaded — closing the loop.
"""

import math

import numpy as np
import pytest

from repro.engines import _jit
from repro.engines.arraywalk import edge_twins
from repro.engines.batchwalk import (
    build_batch_tree,
    reverse_path_blocks,
    stack_graph_csrs,
    stacked_edge_twins,
)
from repro.engines.fast_batch import (
    _cre_fast_batch,
    _dhc2_fast_batch,
    _dra_fast_batch,
    _turau_fast_batch,
)
from repro.graphs import gnp_random_graph

BATCH_RUNNERS = {
    "dra": _dra_fast_batch,
    "cre": _cre_fast_batch,
    "dhc2": _dhc2_fast_batch,
    "turau": _turau_fast_batch,
}

FIELDS = ("success", "cycle", "steps", "rounds", "detail")


def sample(n, factor, seed):
    return gnp_random_graph(n, min(1.0, factor * math.log(n) / n), seed=seed)


def mixed_batch(n, trials, *, factors=(1.0, 8.0, 14.0), base_seed=300):
    graphs = [sample(n, factors[i % len(factors)], base_seed + i)
              for i in range(trials)]
    return graphs, [50 + i for i in range(trials)]


@pytest.fixture
def fused(monkeypatch):
    """Install the uncompiled impls as the live kernel dispatch targets."""
    monkeypatch.setattr(_jit, "walk_kernel", _jit.walk_steps_impl)
    monkeypatch.setattr(_jit, "tree_kernel", _jit.tree_build_impl)
    monkeypatch.setattr(_jit, "reverse_blocks", _jit.reverse_blocks_impl)


class TestFusedKernelEquality:
    """One fused trial-at-a-time loop == interleaved numpy passes."""

    def assert_paths_identical(self, algorithm, graphs, seeds, monkeypatch,
                               **kwargs):
        runner = BATCH_RUNNERS[algorithm]
        with monkeypatch.context() as m:
            m.setattr(_jit, "walk_kernel", None)
            m.setattr(_jit, "tree_kernel", None)
            m.setattr(_jit, "reverse_blocks", None)
            plain = runner(graphs, seeds=seeds, **kwargs)
        with monkeypatch.context() as m:
            m.setattr(_jit, "walk_kernel", _jit.walk_steps_impl)
            m.setattr(_jit, "tree_kernel", _jit.tree_build_impl)
            m.setattr(_jit, "reverse_blocks", _jit.reverse_blocks_impl)
            fused = runner(graphs, seeds=seeds, **kwargs)
        assert len(fused) == len(plain) == len(graphs)
        outcomes = set()
        for i, (a, b) in enumerate(zip(fused, plain)):
            outcomes.add(b.success)
            for field in FIELDS:
                assert getattr(a, field) == getattr(b, field), (
                    f"{algorithm}: trial {i} field {field}")
        return outcomes

    @pytest.mark.parametrize("algorithm", sorted(BATCH_RUNNERS))
    @pytest.mark.parametrize("n", [16, 96])
    def test_mixed_outcomes(self, algorithm, n, monkeypatch):
        graphs, seeds = mixed_batch(n, 9)
        outcomes = self.assert_paths_identical(
            algorithm, graphs, seeds, monkeypatch)
        if n == 96 and algorithm in ("dra", "cre"):
            # The density mix must exercise success and failure alike.
            assert outcomes == {True, False}

    @pytest.mark.parametrize("algorithm", sorted(BATCH_RUNNERS))
    def test_single_trial(self, algorithm, monkeypatch):
        graphs, seeds = mixed_batch(64, 1, factors=(8.0,))
        self.assert_paths_identical(algorithm, graphs, seeds, monkeypatch)

    def test_budget_failures(self, monkeypatch):
        # FAIL_BUDGET exits mid-walk: end_round / flood bookkeeping
        # must match where the numpy pass loop stops.
        graphs, seeds = mixed_batch(64, 4, factors=(8.0,))
        self.assert_paths_identical("dra", graphs, seeds, monkeypatch,
                                    step_budget=7)

    def test_walk_trial_order_does_not_matter(self, monkeypatch):
        # The threaded build may run the trial lanes in any order; each
        # lane owns its own streams and slots, so walking the listed
        # trials back to front must give the numpy results too.
        def reversed_walk(order, *args):
            _jit.walk_steps_impl(order[::-1].copy(), *args)

        graphs, seeds = mixed_batch(96, 6)
        runner = BATCH_RUNNERS["dra"]
        with monkeypatch.context() as m:
            m.setattr(_jit, "walk_kernel", None)
            plain = runner(graphs, seeds=seeds)
        with monkeypatch.context() as m:
            m.setattr(_jit, "walk_kernel", reversed_walk)
            backwards = runner(graphs, seeds=seeds)
        for i, (a, b) in enumerate(zip(backwards, plain)):
            for field in FIELDS:
                assert getattr(a, field) == getattr(b, field), (
                    f"trial {i} field {field}")

    def test_dhc2_partition_walks(self, monkeypatch):
        # Explicit k forces empty / disconnected colour classes, so the
        # fused walk runs with per-trial sizes below the block size.
        graphs = [sample(12, 3.0, 900 + i) for i in range(6)]
        self.assert_paths_identical("dhc2", graphs, list(range(6)),
                                    monkeypatch, k=5)


class TestFusedTreeKernel:
    def test_tree_matches_numpy(self, monkeypatch):
        graphs = [sample(32, 8.0, 20 + i) for i in range(5)]
        indptr, indices = stack_graph_csrs(graphs)
        roots = np.arange(5, dtype=np.int64) * 32
        with monkeypatch.context() as m:
            m.setattr(_jit, "tree_kernel", None)
            plain = build_batch_tree(indptr, indices, 5, 32, roots)
        with monkeypatch.context() as m:
            m.setattr(_jit, "tree_kernel", _jit.tree_build_impl)
            fused = build_batch_tree(indptr, indices, 5, 32, roots)
        np.testing.assert_array_equal(fused.depth, plain.depth)
        np.testing.assert_array_equal(fused.parent, plain.parent)
        np.testing.assert_array_equal(fused.ok, plain.ok)
        np.testing.assert_array_equal(fused.tree_depth, plain.tree_depth)

    def test_tree_trials_are_independent(self):
        # Each trial's BFS uses its own queue and node-id block: building
        # one trial alone fills exactly its block of the full build, and
        # the skipped trials keep depth -1 everywhere.
        # Mixed densities give the trials different tree depths.
        factors = (1.5, 8.0, 3.0, 12.0)
        batch, n = len(factors), 24
        graphs = [sample(n, f, 60 + i) for i, f in enumerate(factors)]
        indptr, indices = stack_graph_csrs(graphs)
        ip = np.asarray(indptr, dtype=np.int64)
        roots = np.arange(batch, dtype=np.int64) * n + 3
        expect = np.full(batch, n, dtype=np.int64)

        def build(live):
            depth = np.full(batch * n, -1, dtype=np.int64)
            parent = np.full(batch * n, -1, dtype=np.int64)
            ok = np.zeros(batch, dtype=bool)
            tree_depth = np.zeros(batch, dtype=np.int64)
            _jit.tree_build_impl(ip, indices, roots, expect, live, n,
                                 depth, parent, ok, tree_depth)
            return depth, parent, ok, tree_depth

        depth, parent, ok, tree_depth = build(np.ones(batch, dtype=bool))
        for b in range(batch):
            live = np.zeros(batch, dtype=bool)
            live[b] = True
            d1, p1, ok1, td1 = build(live)
            block = slice(b * n, (b + 1) * n)
            np.testing.assert_array_equal(d1[block], depth[block])
            np.testing.assert_array_equal(p1[block], parent[block])
            assert ok1[b] == ok[b] and td1[b] == tree_depth[b]
            rest = np.ones(batch * n, dtype=bool)
            rest[block] = False
            assert (d1[rest] == -1).all()


class TestReverseBlocksKernel:
    def test_matches_numpy_reversal(self, monkeypatch):
        rng = np.random.default_rng(7)
        batch, size = 6, 17
        rows = np.array([0, 2, 3, 5], dtype=np.int64)
        los = np.array([1, 0, 4, 2], dtype=np.int64)
        highs = np.array([9, 17, 11, 15], dtype=np.int64)
        # Each trial block holds a permutation of its own global node
        # ids, exactly the layout the walk kernels keep ``path_flat``
        # in — so the per-trial pos writes land in disjoint slots.
        flat_a = np.concatenate(
            [rng.permutation(size) + b * size for b in range(batch)])
        flat_b = flat_a.copy()
        pos_a = np.empty(batch * size, dtype=np.int64)
        pos_a[flat_a] = np.tile(np.arange(size, dtype=np.int64), batch)
        pos_b = pos_a.copy()
        original = flat_a.copy()
        with monkeypatch.context() as m:
            m.setattr(_jit, "reverse_blocks", None)
            reverse_path_blocks(flat_a, pos_a, rows, los, highs, size)
        _jit.reverse_blocks_impl(flat_b, pos_b, rows, los, highs, size)
        assert not np.array_equal(flat_a, original)  # something reversed
        np.testing.assert_array_equal(flat_b, flat_a)
        np.testing.assert_array_equal(pos_b, pos_a)


class TestStackedEdgeTwins:
    def test_per_block_twins_match_serial(self):
        graphs = [sample(24, 6.0, 40 + i) for i in range(4)]
        indptr, indices = stack_graph_csrs(graphs)
        twins = stacked_edge_twins(indptr, indices, 4, 24)
        for b, g in enumerate(graphs):
            lo = int(indptr[b * 24])
            hi = int(indptr[(b + 1) * 24])
            want = edge_twins(g.indptr, g.indices)
            np.testing.assert_array_equal(twins[lo:hi] - lo, want)


class TestJitGating:
    def test_disabled_by_default(self):
        # Without REPRO_JIT (or without numba) nothing is compiled and
        # the dispatch attributes are None -> pure-numpy everywhere.
        if not _jit.ENABLED:
            assert _jit.walk_kernel is None
            assert _jit.tree_kernel is None
            assert _jit.reverse_blocks is None

    def test_impls_are_plain_python(self):
        # The docstring contract: *_impl stay callable uncompiled.
        for fn in (_jit.walk_steps_impl, _jit.tree_build_impl,
                   _jit.reverse_blocks_impl):
            assert callable(fn) and fn.__module__ == "repro.engines._jit"

    def test_fused_not_used_without_exact_pool(self, fused, monkeypatch):
        # The kernel replays DrawPool's PCG64 state arrays directly, so
        # dispatch must stay numpy when the pool fell back to per-node
        # Generators (no state arrays to advance) — and the fallback
        # results must equal the fused ones.
        from repro.engines import batchwalk

        calls = []

        def counting_kernel(*args):
            calls.append(1)
            return _jit.walk_steps_impl(*args)

        monkeypatch.setattr(_jit, "walk_kernel", counting_kernel)
        graphs, seeds = mixed_batch(16, 2, factors=(8.0,))
        with monkeypatch.context() as m:
            m.setattr(batchwalk, "_EXACT", False)
            plain = _dra_fast_batch(graphs, seeds=seeds)
        assert calls == []  # kernel installed but never dispatched
        want = _dra_fast_batch(graphs, seeds=seeds)
        assert calls  # exact pool restored -> fused dispatch taken
        for a, b in zip(plain, want):
            for field in FIELDS:
                assert getattr(a, field) == getattr(b, field)
