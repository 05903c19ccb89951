"""Failure-injection tests (repro.congest.faults).

The paper's model is fault-free; these tests validate the library's
safety promise instead: under message loss, dead links, or crash-stop
nodes, every front end either still produces a *verified* Hamiltonian
cycle or reports failure — it never claims success falsely, and the
simulator never raises out of a faulty run.
"""

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.congest import FaultPlan, LatencySpec, NetworkModel
from repro.core import run_dhc1, run_dhc2, run_dra, run_turau
from repro.graphs import gnp_random_graph, paper_probability
from repro.verify import is_hamiltonian_cycle

from tests.conftest import dense_gnp


def _graph(n=48, seed=11, c=6.0):
    return gnp_random_graph(n, paper_probability(n, 0.5, c), seed=seed)


# ---------------------------------------------------------------------------
# FaultPlan validation
# ---------------------------------------------------------------------------


class TestFaultPlan:
    def test_default_plan_is_benign(self):
        assert FaultPlan().is_benign()

    def test_nonbenign_detection(self):
        assert not FaultPlan(drop_probability=0.1).is_benign()
        assert not FaultPlan(dead_links=frozenset({(1, 2)})).is_benign()
        assert not FaultPlan(crash_rounds={3: 10}).is_benign()

    def test_dead_links_normalised_to_sorted_pairs(self):
        plan = FaultPlan(dead_links=frozenset({(7, 3), (2, 5)}))
        assert plan.dead_links == frozenset({(3, 7), (2, 5)})

    def test_rejects_bad_probability(self):
        with pytest.raises(ValueError):
            FaultPlan(drop_probability=1.5)
        with pytest.raises(ValueError):
            FaultPlan(drop_probability=-0.1)

    def test_rejects_negative_node_ids(self):
        with pytest.raises(ValueError, match=">= 0, got -1"):
            FaultPlan(crash_rounds={-1: 3})
        with pytest.raises(ValueError, match=">= 0, got -2"):
            FaultPlan(dead_links=frozenset({(4, -2)}))

    def test_network_rejects_nodes_past_the_graph(self):
        graph = _graph(n=16)
        for plan, node in ((FaultPlan(crash_rounds={16: 3}), 16),
                           (FaultPlan(dead_links=frozenset({(0, 99)})), 99)):
            for mode in ("sync", "async"):
                model = NetworkModel(mode=mode, fault_plan=plan)
                with pytest.raises(ValueError,
                                   match=f"fault plan names node {node} "):
                    run_dra(graph, seed=1, network=model)

    def test_rejects_empty_window(self):
        with pytest.raises(ValueError):
            FaultPlan(window=(10, 5))


# ---------------------------------------------------------------------------
# Injection mechanics
# ---------------------------------------------------------------------------


def _run_with_plan(graph, plan, runner=run_dra, **kwargs):
    """Run under ``plan``; return the result and the network's adversary."""
    built = []
    model = NetworkModel(fault_plan=plan, network_hook=built.append)
    result = runner(graph, network=model, **kwargs)
    return result, built[0].adversary


class TestInjectorMechanics:
    def test_benign_plan_changes_nothing(self):
        graph = _graph()
        native = run_dra(graph, seed=4)
        faulty, injector = _run_with_plan(graph, FaultPlan(), seed=4)
        assert faulty.success == native.success
        assert faulty.cycle == native.cycle
        assert faulty.rounds == native.rounds
        assert injector.dropped == 0
        assert injector.offered == native.messages

    def test_total_blackout_drops_everything(self):
        graph = _graph(n=32)
        result, injector = _run_with_plan(
            graph, FaultPlan(drop_probability=1.0), seed=2)
        assert not result.success
        assert result.cycle is None
        assert injector.dropped == injector.offered > 0

    def test_window_limits_drops(self):
        graph = _graph(n=32)
        # Blackout only the first two delivery rounds (the leader
        # election's initial flood): the run must lose something, but
        # later traffic (deadline-driven BFS, walk) must survive.
        _result, injector = _run_with_plan(
            graph, FaultPlan(drop_probability=1.0, window=(1, 2)), seed=2)
        assert 0 < injector.dropped < injector.offered

    def test_summary_counters(self):
        graph = _graph(n=32)
        result, injector = _run_with_plan(
            graph, FaultPlan(drop_probability=0.3, seed=9), seed=2)
        s = injector.summary()
        assert s["offered"] > 0
        assert 0.0 <= s["drop_rate"] <= 1.0
        assert s["dropped"] == injector.dropped
        assert result.detail["faults"] == s


# ---------------------------------------------------------------------------
# Safety under faults: no false success, no exceptions
# ---------------------------------------------------------------------------


class TestSafetyUnderFaults:
    @pytest.mark.parametrize("drop_p", [0.02, 0.1, 0.5])
    def test_dra_never_reports_false_success_under_drops(self, drop_p):
        graph = _graph(n=40, seed=3)
        for seed in range(4):
            result, _ = _run_with_plan(
                graph, FaultPlan(drop_probability=drop_p, seed=seed), seed=seed)
            if result.success:
                assert is_hamiltonian_cycle(graph, result.cycle)
            else:
                assert result.cycle is None

    def test_dhc2_never_reports_false_success_under_drops(self):
        graph = _graph(n=48, seed=5)
        for seed in range(3):
            result, _ = _run_with_plan(
                graph, FaultPlan(drop_probability=0.05, seed=seed),
                runner=run_dhc2, delta=0.5, seed=seed)
            if result.success:
                assert is_hamiltonian_cycle(graph, result.cycle)
            else:
                assert result.cycle is None

    def test_early_crash_of_every_node_fails_cleanly(self):
        graph = _graph(n=32)
        plan = FaultPlan(crash_rounds={v: 2 for v in range(32)})
        result, injector = _run_with_plan(graph, plan, seed=1)
        assert not result.success
        assert len(injector.crashed) == 32

    def test_single_crash_mid_run_is_fatal_but_clean(self):
        # A Hamiltonian cycle needs every node; killing one mid-run must
        # produce a clean failure.
        graph = _graph(n=32, seed=8)
        plan = FaultPlan(crash_rounds={5: 20})
        result, injector = _run_with_plan(graph, plan, seed=3)
        assert not result.success
        assert injector.crashed == {5}

    def test_crash_after_termination_is_noop(self):
        graph = _graph(n=32, seed=8)
        native = run_dra(graph, seed=4)
        plan = FaultPlan(crash_rounds={5: native.rounds + 10_000})
        result, injector = _run_with_plan(graph, plan, seed=4)
        assert result.success == native.success
        assert result.cycle == native.cycle
        assert injector.crashed == set()

    def test_dead_links_degrade_but_stay_safe(self):
        graph = _graph(n=32, seed=9)
        # Kill a band of links touching node 0.
        dead = frozenset((0, w) for w in graph.neighbor_list(0)[:3])
        result, _ = _run_with_plan(graph, FaultPlan(dead_links=dead), seed=2)
        if result.success:
            assert is_hamiltonian_cycle(graph, result.cycle)
        else:
            assert result.cycle is None

    @given(drop_p=st.floats(0.0, 0.8), seed=st.integers(0, 20))
    @settings(max_examples=10, deadline=None)
    def test_no_exception_no_false_success_property(self, drop_p, seed):
        graph = _graph(n=24, seed=1)
        result, _ = _run_with_plan(
            graph, FaultPlan(drop_probability=drop_p, seed=seed), seed=seed)
        if result.success:
            assert is_hamiltonian_cycle(graph, result.cycle)
        else:
            assert result.cycle is None


class TestRegistryFaultPlan:
    """A fault plan travels in the declared ``network`` capability:
    sweeps mix fault scenarios without importing repro.congest.faults
    at call sites, and engine="auto" steers such runs onto the
    simulator — the only engine that can inject."""

    def test_repro_run_accepts_fault_plan(self):
        import repro

        graph = _graph(n=32, seed=9)
        result = repro.run(graph, "dra", seed=2, network=NetworkModel(
            fault_plan=FaultPlan(drop_probability=1.0)))
        assert result.engine == "congest"  # auto-steered to the simulator
        assert not result.success
        assert result.detail["faults"]["dropped"] > 0

    def test_benign_plan_preserves_native_decisions(self):
        import repro

        graph = _graph()
        native = run_dra(graph, seed=3)
        observed = repro.run(graph, "dra", engine="congest", seed=3,
                             network=NetworkModel(fault_plan=FaultPlan()))
        assert observed.success == native.success
        assert observed.cycle == native.cycle
        assert observed.rounds == native.rounds
        assert observed.detail["faults"]["offered"] > 0
        assert observed.detail["faults"]["dropped"] == 0

    def test_every_congest_hc_spec_declares_fault_plan(self):
        from repro.engines.registry import REGISTRY

        for algorithm in ("dra", "dhc1", "dhc2"):
            spec = REGISTRY.get(algorithm, "congest")
            assert "network" in spec.supported_kwargs, algorithm

    def test_fast_engine_rejects_fault_plan(self):
        from repro.engines.registry import REGISTRY

        with pytest.raises(ValueError, match="does not support"):
            REGISTRY.resolve("dra", "fast", require=["network"])

    def test_composes_with_existing_network_hook(self):
        seen = []
        model = NetworkModel(fault_plan=FaultPlan(drop_probability=1.0),
                             network_hook=seen.append)
        graph = _graph(n=24, seed=4)
        result = run_dra(graph, seed=4, network=model)
        assert len(seen) == 1  # the caller's hook still ran
        assert not result.success
        assert seen[0].adversary.dropped > 0


# ---------------------------------------------------------------------------
# Exact fault semantics on both engines
# ---------------------------------------------------------------------------


def _fault_counts(offered, dropped, crashed):
    return {"offered": float(offered), "dropped": float(dropped),
            "drop_rate": dropped / offered, "crashed_nodes": float(crashed)}


def _async_counts(virtual_time, delivered, dropped, undeliverable,
                  reordered, activations, depth, stretch):
    return {"virtual_time": virtual_time, "limited": 0,
            "delivered": delivered, "dropped": dropped,
            "undeliverable": undeliverable, "reordered": reordered,
            "activations": activations, "depth": depth, "stretch": stretch,
            "protocol_errors": 0, "churn_crashed": 0, "churn_joined": 0}


#: ``(success, rounds, messages, bits, detail["faults"],
#: detail.get("async"))`` of each runner under :data:`_PIN_PLAN`.  The
#: adversary draws one number per message that reaches the drop test,
#: so these counters move whenever the order in which it sees messages
#: (or the order of its checks) changes, even when no property such as
#: "no false success" does.
_PINNED = {
    ("congest", "dra"): (False, 104, 1610, 20820,
                         _fault_counts(1610, 45, 1), None),
    ("congest", "dhc1"): (False, 104, 2139, 25052,
                          _fault_counts(1610, 45, 1), None),
    ("congest", "dhc2"): (False, 25, 1417, 15706,
                          _fault_counts(1394, 47, 1), None),
    ("congest", "turau"): (False, 1523, 2277, 40156,
                           _fault_counts(2277, 112, 1), None),
    ("async", "dra"): (False, 104, 2668, 34574,
                       _fault_counts(2668, 45, 1),
                       _async_counts(104.0, 2623, 45, 0, 482, 2691, 6,
                                     17.333333333)),
    ("async", "dhc1"): (False, 104, 3197, 38806,
                        _fault_counts(3197, 68, 1),
                        _async_counts(104.0, 2623, 68, 0, 482, 2691, 6,
                                      17.333333333)),
    ("async", "dhc2"): (False, 24, 1256, 13623,
                        _fault_counts(1256, 49, 1),
                        _async_counts(24.53314876, 717, 136, 87, 5, 772, 7,
                                      3.504735537)),
    ("async", "turau"): (False, 1523, 1996, 25743,
                         _fault_counts(1996, 84, 1),
                         _async_counts(1523.0, 1912, 84, 0, 621, 3249, 8,
                                       190.375)),
}

#: Drops, a dead link, a crash and a window in one plan.
_PIN_PLAN = FaultPlan(drop_probability=0.03, dead_links=frozenset({(0, 1)}),
                      crash_rounds={7: 20}, window=(3, 60), seed=11)


class TestExactFaultSemantics:
    @pytest.mark.parametrize("engine,name", sorted(_PINNED),
                             ids=[f"{e}-{a}" for e, a in sorted(_PINNED)])
    def test_counters_pinned(self, engine, name):
        runner, kwargs = {"dra": (run_dra, {}), "dhc1": (run_dhc1, {}),
                          "dhc2": (run_dhc2, {"delta": 0.5}),
                          "turau": (run_turau, {})}[name]
        if engine == "congest":
            model = NetworkModel(fault_plan=_PIN_PLAN)
        else:
            model = NetworkModel(
                mode="async", fault_plan=_PIN_PLAN,
                latency=LatencySpec(kind="uniform", low=0.5, high=1.5))
        graph = dense_gnp(24, seed=3)
        assert graph.has_edge(0, 1)  # the dead link is a real link
        result = runner(graph, seed=5, network=model, **kwargs)
        assert result.engine == engine
        observed = (result.success, result.rounds, result.messages,
                    result.bits, result.detail["faults"],
                    result.detail.get("async"))
        assert observed == _PINNED[engine, name]
