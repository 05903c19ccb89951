"""The native k-machine engine vs the Conversion-Theorem oracle.

The contract (ISSUE 5 / docs/ARCHITECTURE.md):

* ``repro.run(g, alg, engine="kmachine", ...)`` works for every
  ``kmachine_convertible`` algorithm, threading ``k_machines``,
  ``link_words`` and ``partition_seed``;
* on a shared seed tree the native engine reproduces the converted
  simulator's ``cycle`` exactly (the converted run itself never
  perturbs the protocol, so this is simultaneously congest parity);
* the native ``kmachine_rounds`` respects the Conversion Theorem's
  bound and falls as machines are added (the ``~1/k`` shape);
* the RVP is drawn from the same stream as the converted path, so both
  engines place every node identically for a given seed.

The registry-wide enforcement lives in
``tests/test_engine_parity.py::TestKmachineOracleGate``; this module
covers the behavioural surface in depth for DRA (the exactly-modelled
driver) and spot-checks the structural ones.
"""

import math

import numpy as np
import pytest

import repro
from repro.engines.kmachine_engine import DEFAULT_K_MACHINES
from repro.engines.registry import REGISTRY
from repro.graphs import gnp_random_graph, paper_probability
from repro.kmachine import (
    LinkLedger,
    VertexPartition,
    conversion_round_bound,
    run_converted_hc,
)

CONVERTIBLE = ("dra", "dhc1", "dhc2", "turau")


def _dra_graph(n=96, seed=3):
    return gnp_random_graph(n, paper_probability(n, 1.0, 8.0), seed=seed)


class TestRegistrySurface:
    def test_every_convertible_algorithm_has_a_kmachine_engine(self):
        for algorithm in REGISTRY.convertible_algorithms():
            spec = REGISTRY.get(algorithm, "kmachine")
            assert {"k_machines", "link_words",
                    "partition_seed"} <= spec.supported_kwargs

    def test_issue_call_shape(self):
        # The acceptance criterion verbatim: k aliases k_machines for DRA.
        g = _dra_graph()
        result = repro.run(g, "dra", engine="kmachine", k=8, seed=1)
        assert result.engine == "kmachine"
        assert result.detail["k_machines"] == 8

    def test_defaults_applied(self):
        result = repro.run(_dra_graph(48), "dra", engine="kmachine", seed=1)
        assert result.detail["k_machines"] == DEFAULT_K_MACHINES

    def test_auto_resolution_steers_kmachine_kwargs(self):
        spec = REGISTRY.resolve("dra", "auto", require={"k_machines": 4})
        assert spec.engine == "kmachine"
        # ...but a plain run still lands on the fast engine.
        assert REGISTRY.resolve("dra", "auto").engine == "fast"


class TestDraNativeParity:
    """DRA: the exactly-modelled driver, held to the oracle tightly."""

    @pytest.mark.parametrize("k", [1, 2, 4, 8])
    def test_cycle_rounds_and_words_match_converted(self, k):
        g = _dra_graph()
        for seed in (1, 4):
            native = repro.run(g, "dra", engine="kmachine", seed=seed,
                               k_machines=k)
            converted, km = run_converted_hc(g, algorithm="dra",
                                             k_machines=k, seed=seed)
            assert native.success and converted.success
            assert native.cycle == converted.cycle
            assert native.rounds == converted.rounds
            assert native.steps == converted.steps
            summary = native.detail["kmachine"]
            assert summary["congest_rounds"] == km.congest_rounds
            # Setup floods and walk progress are modelled message-exactly;
            # only renumbering floods use the root-based profile.
            assert summary["cross_words"] == km.cross_words
            assert summary["local_words"] == km.local_words
            assert native.detail["kmachine_rounds"] == pytest.approx(
                km.kmachine_rounds, rel=0.05)

    def test_single_machine_rounds_equal_congest(self):
        g = _dra_graph(64)
        native = repro.run(g, "dra", engine="kmachine", seed=2, k_machines=1)
        detail = native.detail["kmachine"]
        assert detail["cross_words"] == 0
        assert native.detail["kmachine_rounds"] == native.rounds

    def test_rounds_fall_as_machines_are_added(self):
        g = _dra_graph()
        series = [repro.run(g, "dra", engine="kmachine", seed=3,
                            k_machines=k).detail["kmachine_rounds"]
                  for k in (2, 4, 8, 16)]
        assert series == sorted(series, reverse=True)
        assert series[0] > 1.5 * series[-1]  # a real ~1/k shape, not noise

    def test_within_conversion_bound(self):
        g = _dra_graph()
        native = repro.run(g, "dra", engine="kmachine", seed=3, k_machines=4)
        delta_max = max(g.degree(v) for v in range(g.n))
        bound = conversion_round_bound(
            native.detail["kmachine"]["cross_words"]
            + native.detail["kmachine"]["local_words"],
            native.rounds, delta_max, k=4)
        assert native.detail["kmachine_rounds"] <= 20 * bound + 10 * native.rounds

    def test_link_words_inflate_rounds(self):
        g = _dra_graph(64)
        wide = repro.run(g, "dra", engine="kmachine", seed=2, k_machines=4,
                         link_words=32)
        narrow = repro.run(g, "dra", engine="kmachine", seed=2, k_machines=4,
                           link_words=1)
        assert narrow.cycle == wide.cycle  # cost model never touches decisions
        assert narrow.detail["kmachine_rounds"] > wide.detail["kmachine_rounds"]

    def test_failure_paths_replay(self):
        g = _dra_graph(64)
        native = repro.run(g, "dra", engine="kmachine", seed=3, k_machines=4,
                           step_budget=5)
        fast = repro.run(g, "dra", engine="fast", seed=3, step_budget=5)
        assert not native.success
        assert native.rounds == fast.rounds
        assert native.detail["fail_codes"] == fast.detail["fail_codes"]
        assert native.detail["kmachine_rounds"] >= 1

    def test_disconnected_graph_fails_cleanly(self):
        g = repro.Graph(6, [(0, 1), (1, 2), (3, 4), (4, 5)])
        native = repro.run(g, "dra", engine="kmachine", seed=1, k_machines=2)
        assert not native.success
        assert native.detail["fail_codes"] == ["bfs-unreachable"]


class TestPartitionThreading:
    """The RVP stream is shared with the converted path and overridable."""

    def test_same_seed_same_partition_as_converted(self):
        # The converted path draws VertexPartition.random(n, k, seed=seed);
        # the native engine must use the identical stream.
        g = _dra_graph(64)
        seed, k = 7, 4
        expected = VertexPartition.random(g.n, k, seed=seed)
        ledger = LinkLedger(expected, 16)
        native = repro.run(g, "dra", engine="kmachine", seed=seed, k_machines=k)
        _converted, km = run_converted_hc(g, algorithm="dra", k_machines=k,
                                          seed=seed)
        # Identical partitions + exact traffic model => identical word split.
        assert native.detail["kmachine"]["cross_words"] == km.cross_words
        assert ledger.k == km.k

    def test_partition_seed_override_changes_costs_not_cycle(self):
        g = _dra_graph(64)
        base = repro.run(g, "dra", engine="kmachine", seed=3, k_machines=4)
        other = repro.run(g, "dra", engine="kmachine", seed=3, k_machines=4,
                          partition_seed=99)
        assert base.cycle == other.cycle
        assert (base.detail["kmachine"]["cross_words"]
                != other.detail["kmachine"]["cross_words"])


class TestStructuralDrivers:
    """DHC1/DHC2/Turau: cycle-exact, rounds within the oracle envelope."""

    @pytest.mark.parametrize("algorithm,kwargs", [
        ("dhc2", {"delta": 0.5, "k": 4}),
        ("turau", {}),
    ])
    def test_cycle_parity_grid(self, algorithm, kwargs):
        n = 64
        p = (paper_probability(n, 0.5, 6.0) if algorithm == "dhc2"
             else min(1.0, 30 * math.log(n) / n))
        g = gnp_random_graph(n, p, seed=3)
        succeeded = 0
        for seed in (1, 3, 7):
            native = repro.run(g, algorithm, engine="kmachine", seed=seed,
                               k_machines=4, **kwargs)
            converted, km = run_converted_hc(
                g, algorithm=algorithm, k_machines=4, seed=seed, **kwargs)
            assert native.success == converted.success
            assert native.cycle == converted.cycle
            if native.success:
                succeeded += 1
                assert native.steps == converted.steps
        assert succeeded >= 2

    def test_dhc1_cycle_parity_grid(self):
        for n, gseed in ((64, 3), (100, 5)):
            p = min(1.0, 8.0 * math.log(n) / math.sqrt(n))
            g = gnp_random_graph(n, p, seed=gseed)
            for seed in (2, 9):
                native = repro.run(g, "dhc1", engine="kmachine", seed=seed,
                                   k_machines=4)
                converted, _km = run_converted_hc(
                    g, algorithm="dhc1", k_machines=4, seed=seed)
                assert native.success == converted.success
                assert native.cycle == converted.cycle
                if native.success:
                    assert native.steps == converted.steps

    def test_dhc2_rounds_match_fast_estimate(self):
        g = gnp_random_graph(96, paper_probability(96, 0.5, 6.0), seed=3)
        native = repro.run(g, "dhc2", engine="kmachine", seed=1, k=4,
                           k_machines=4, delta=0.5)
        fast = repro.run(g, "dhc2", engine="fast", seed=1, k=4, delta=0.5)
        assert native.rounds == fast.rounds

    def test_turau_rounds_match_fast_estimate(self):
        n = 64
        g = gnp_random_graph(n, min(1.0, 30 * math.log(n) / n), seed=3)
        native = repro.run(g, "turau", engine="kmachine", seed=1, k_machines=4)
        fast = repro.run(g, "turau", engine="fast", seed=1)
        assert native.rounds == fast.rounds
        assert native.detail["fail"] == fast.detail["fail"]

    def test_too_small_graph(self):
        g = repro.Graph(2, [(0, 1)])
        native = repro.run(g, "turau", engine="kmachine", seed=1, k_machines=2)
        assert not native.success
        assert native.detail["kmachine_rounds"] == 0


class TestPortedWalkPin:
    """DHC1's ported virtual walk reproduces its recorded outcomes.

    Each row was recorded from the DHC1 k-machine engine's virtual
    walk and holds every walk field the engine reads: outcome, steps,
    rotations and retries (charged on the ledger), the hypernode order
    and the winning closure edge (read by the stitching).  Every
    succeeding row both rotates and retries, so the port bookkeeping
    is exercised, and two rows strand the head (fail code 1).
    """

    PINS = [
        # (n, p, graph seed, k, seed, success, steps, rotations, retries,
        #  hypernode order, win_edge)
        (64, 1.0, 3, None, 0, True, 20, 7, 5,
         [1, 3, 6, 5, 8, 4, 2, 7], (7, 1, 0, 1)),
        (64, 1.0, 3, None, 5, True, 51, 24, 19,
         [1, 2, 5, 6, 8, 4, 7, 3], (3, 1, 1, 1)),
        (100, 1.0, 5, None, 0, True, 37, 15, 12,
         [1, 2, 7, 9, 6, 4, 10, 5, 3, 8], (8, 1, 1, 1)),
        (100, 1.0, 5, None, 9, True, 48, 20, 18,
         [1, 2, 7, 8, 3, 10, 6, 4, 5, 9], (9, 1, 0, 0)),
        (192, 1.0, 11, None, 2, True, 75, 35, 27,
         [1, 4, 7, 6, 10, 12, 11, 8, 3, 5, 2, 9, 13], (13, 1, 0, 0)),
        (192, 1.0, 11, None, 8, True, 99, 47, 39,
         [1, 10, 11, 13, 8, 4, 9, 5, 3, 7, 12, 6, 2], (2, 1, 0, 1)),
        (64, 0.8, 100, 4, 0, False, 10, 4, 3, [1, 4, 3, 2], None),
        (100, 0.8, 102, 5, 2, False, 15, 8, 3, [1, 2, 5, 4, 3], None),
    ]

    @pytest.mark.parametrize("row", PINS, ids=lambda r: f"n{r[0]}-s{r[4]}")
    def test_virtual_walk_pin(self, row, monkeypatch):
        from repro.engines import kmachine_dhc1

        (n, p, gseed, k, seed, success, steps, rotations, retries,
         order, win_edge) = row
        walks = []

        class Recording(kmachine_dhc1._PortedWalk):
            def run(self):
                super().run()
                walks.append(self)

        monkeypatch.setattr(kmachine_dhc1, "_PortedWalk", Recording)
        kwargs = {} if k is None else {"k": k}
        result = repro.run(gnp_random_graph(n, p, seed=gseed), "dhc1",
                           engine="kmachine", seed=seed, k_machines=4,
                           **kwargs)
        (walk,) = walks
        assert (walk.success, walk.steps, walk.rotations, walk.retries) == (
            success, steps, rotations, retries)
        assert walk.cycle() == order
        assert walk.win_edge == win_edge
        assert (result.success, result.steps) == (success, steps)
        if not success:
            assert walk.fail_code == 1
            assert result.detail["fail"] == "virtual-walk-1"


class TestLedgerInvariants:
    """Internal consistency of the machine-level accounting."""

    def test_word_totals_consistent(self):
        g = _dra_graph(64)
        native = repro.run(g, "dra", engine="kmachine", seed=5, k_machines=4)
        s = native.detail["kmachine"]
        assert s["cross_words"] >= 0 and s["local_words"] >= 0
        assert s["kmachine_rounds"] >= s["congest_rounds"]
        assert s["max_round_link_words"] <= s["cross_words"]

    def test_link_matrix_totals(self):
        part = VertexPartition(np.array([0, 0, 1, 1]), k=2)
        ledger = LinkLedger(part, 4)
        ledger.burst(np.array([0, 1, 2]), np.array([2, 0, 3]), 3)
        m = ledger.metrics
        assert m.cross_words == 3      # only 0->2 crosses; 1->0 and 2->3 are local
        assert m.local_words == 6
        assert int(m.link_words.sum()) == m.cross_words
        assert m.congest_rounds == 1
        assert m.kmachine_rounds == 1  # 3 words fit one W=4 round

    def test_quiet_floors_one_round_per_tick(self):
        ledger = LinkLedger(VertexPartition.round_robin(8, 4), 16)
        ledger.quiet(7)
        assert ledger.metrics.kmachine_rounds == 7
        assert ledger.metrics.congest_rounds == 7

    def test_bad_link_words_rejected(self):
        with pytest.raises(ValueError, match="bandwidth"):
            LinkLedger(VertexPartition.round_robin(8, 4), 0)
