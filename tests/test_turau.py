"""Turau-style path merging: protocol behaviour and schedule math.

Cross-engine parity lives in ``tests/test_engine_parity.py``; this
module covers the algorithm itself — success in its dense regime,
honest failure codes outside it, the deterministic phase schedule both
engines share, cycle assembly, and the capability integrations
(k-machine conversion, fault plans, memory audit) that ride on the
congest spec.
"""

import math

import pytest

import repro
from repro.core.turau import (
    FAIL_NO_CLOSURE_EDGE,
    FAIL_PHASE_BUDGET,
    FAIL_TOO_SMALL,
    cycle_from_links,
    phase_starts,
    phase_windows,
    role_bit,
    run_turau,
    turau_phase_budget,
    turau_round_budget,
)
from repro.graphs import gnp_random_graph
from repro.verify.hamiltonicity import verify_cycle


def dense_graph(n: int, seed: int):
    return gnp_random_graph(n, 1.0, seed=seed)


class TestSchedule:
    def test_windows_double_then_cap(self):
        windows = phase_windows(100, 10)
        assert windows[0] == 8
        for a, b in zip(windows, windows[1:]):
            assert b == min(2 * 100 + 4, 2 * a)
        assert max(windows) == 2 * 100 + 4

    def test_starts_are_increasing_and_cover_floods(self):
        n, budget = 64, 12
        starts = phase_starts(n, budget)
        assert len(starts) == budget + 1
        assert all(b > a for a, b in zip(starts, starts[1:]))
        # The final gap always covers a done/abort flood (diameter < n).
        assert starts[-1] - starts[-2] >= 4 + n + 2
        assert turau_round_budget(n, budget) > starts[-1]

    def test_phase_budget_grows_logarithmically(self):
        assert turau_phase_budget(16) < turau_phase_budget(1024)
        assert turau_phase_budget(1024) <= 4 * 10 + 8

    def test_role_bit_reaches_all_four_pairings(self):
        # For any two distinct pids, across one odd period of phases
        # both (request-end = pid) assignments must occur in both
        # combinations — the property that unsticks the two-path
        # endgame.
        n = 256
        period = n.bit_length() | 1
        for pid_a, pid_b in ((3, 5), (12, 44), (7, 7 + 128), (0, 255)):
            combos = {(role_bit(pid_a, ell, n), role_bit(pid_b, ell, n))
                      for ell in range(1, 2 * period + 1)}
            assert combos == {(0, 0), (0, 1), (1, 0), (1, 1)}, (pid_a, pid_b)


class TestCycleFromLinks:
    def test_assembles_canonical_cycle(self):
        links = [[1, 3], [0, 2], [1, 3], [2, 0]]
        assert cycle_from_links(links) == [0, 1, 2, 3]

    def test_rejects_broken_structures(self):
        assert cycle_from_links([[1, 2], [0, 2], [0, 1], []]) is None
        # Two disjoint 3-cycles over 6 nodes: not one Hamiltonian cycle.
        two = [[1, 2], [0, 2], [0, 1], [4, 5], [3, 5], [3, 4]]
        assert cycle_from_links(two) is None


class TestRunTurau:
    def test_succeeds_on_dense_graphs(self):
        wins = 0
        for seed in range(5):
            result = run_turau(dense_graph(64, seed), seed=seed)
            if result.success:
                wins += 1
                verify_cycle(dense_graph(64, seed), result.cycle)
                assert result.steps == 64  # n committed edges
                assert result.detail["fail"] is None
        assert wins == 5

    def test_deterministic_seed_for_seed(self):
        g = dense_graph(48, 3)
        a = run_turau(g, seed=3)
        b = run_turau(g, seed=3)
        assert a.cycle == b.cycle
        assert a.rounds == b.rounds
        assert a.messages == b.messages

    def test_too_small_graph(self):
        result = run_turau(repro.Graph(2, [(0, 1)]), seed=1)
        assert not result.success
        assert result.detail["fail"] == FAIL_TOO_SMALL

    def test_disconnected_graph_times_out_honestly(self):
        g = repro.Graph(6, [(0, 1), (1, 2), (2, 0), (3, 4), (4, 5), (5, 3)])
        result = run_turau(g, seed=1, phase_budget=4)
        assert not result.success
        assert result.detail["fail"] == FAIL_PHASE_BUDGET
        assert result.detail["phases"] == 4

    def test_sparse_graph_reports_failure_code(self):
        # Below the algorithm's working density the failure is one of
        # the two documented Monte Carlo codes, never a crash.
        n = 96
        g = gnp_random_graph(n, 2.0 * math.log(n) / n, seed=5)
        result = run_turau(g, seed=5)
        assert not result.success
        assert result.detail["fail"] in (FAIL_PHASE_BUDGET,
                                         FAIL_NO_CLOSURE_EDGE)

    def test_initial_paths_reported(self):
        result = run_turau(dense_graph(64, 2), seed=2)
        assert 1 <= result.detail["initial_paths"] <= 64

    def test_detail_phases_on_success_is_closure_phase(self):
        result = run_turau(dense_graph(64, 4), seed=4)
        assert result.success
        assert 1 <= result.detail["phases"] <= turau_phase_budget(64)


class TestCapabilities:
    def test_kmachine_conversion(self):
        from repro.kmachine import run_converted_hc

        g = dense_graph(48, 2)
        result, metrics = run_converted_hc(
            g, algorithm="turau", k_machines=4, seed=2)
        native = run_turau(g, seed=2)
        # Conversion never perturbs the protocol.
        assert result.cycle == native.cycle
        assert metrics.kmachine_rounds > 0

    def test_fault_plan_counters_reported(self):
        from repro.congest import FaultPlan, NetworkModel

        g = dense_graph(48, 2)
        result = repro.run(g, "turau", seed=2, network=NetworkModel(
            fault_plan=FaultPlan(drop_probability=0.0)))
        assert result.engine == "congest"
        assert result.detail["faults"]["dropped"] == 0

    def test_lossy_run_fails_honestly(self):
        from repro.congest import FaultPlan, NetworkModel

        g = dense_graph(48, 2)
        result = repro.run(g, "turau", seed=2, network=NetworkModel(
            fault_plan=FaultPlan(drop_probability=0.4, seed=9)))
        assert result.engine == "congest"
        if not result.success:
            assert result.detail["fail"] in (FAIL_PHASE_BUDGET,
                                             FAIL_NO_CLOSURE_EDGE)

    def test_audit_memory(self):
        g = dense_graph(32, 1)
        result = repro.run(g, "turau", seed=1, audit_memory=True)
        assert result.engine == "congest"
        assert result.detail["max_state_words"] > 0

    def test_auto_engine_is_fast(self):
        result = repro.run(dense_graph(32, 1), "turau", seed=1)
        assert result.engine == "fast"

    @pytest.mark.parametrize("engine", ["congest", "fast"])
    def test_phase_budget_kwarg(self, engine):
        g = dense_graph(32, 1)
        result = repro.run(g, "turau", engine=engine, seed=1, phase_budget=1)
        assert result.detail["phases"] <= 1
