"""Tests for the CONGEST simulator: model rules, delivery, metrics."""

import numpy as np
import pytest

from repro.congest import (
    AsyncNetwork,
    BandwidthExceededError,
    DuplicateSendError,
    FaultPlan,
    Message,
    Network,
    NetworkModel,
    NotANeighborError,
    Protocol,
    RoundLimitExceeded,
    payload_bits,
    state_size_words,
    word_bits,
)
from repro.graphs import Graph
from repro.primitives.submachine import SubMachine, SubMachineHost

from tests.conftest import complete, dense_gnp, path_graph, ring


class Silent(Protocol):
    def __init__(self, v):
        self.v = v

    def on_round(self, ctx, inbox):
        ctx.halt()


class TestMessageAccounting:
    def test_word_bits(self):
        assert word_bits(1) == 1
        assert word_bits(255) == 8
        assert word_bits(256) == 9

    def test_payload_bits_counts_fields(self):
        assert payload_bits(("k", 1, 2, 3), 255) == 8 + 3 * 8

    def test_message_kind(self):
        msg = Message(0, ("ping", 7))
        assert msg.kind == "ping"
        assert msg.bits(255) == 8 + 8


class TestModelRules:
    def test_bandwidth_enforced(self):
        class Chatty(Protocol):
            def on_start(self, ctx):
                ctx.send(ctx.neighbors[0], "big", *range(50))

            def on_round(self, ctx, inbox):
                ctx.halt()

        net = Network(ring(4), lambda v: Chatty(), bandwidth_words=8)
        with pytest.raises(BandwidthExceededError):
            net.run(max_rounds=5)

    def test_one_message_per_edge_per_round(self):
        class Doubler(Protocol):
            def on_start(self, ctx):
                ctx.send(ctx.neighbors[0], "a")
                ctx.send(ctx.neighbors[0], "b")

            def on_round(self, ctx, inbox):
                ctx.halt()

        with pytest.raises(DuplicateSendError):
            Network(ring(4), lambda v: Doubler()).run(max_rounds=5)

    def test_non_neighbor_send_rejected(self):
        class Reacher(Protocol):
            def on_start(self, ctx):
                ctx.send((ctx.node_id + 2) % ctx.n, "x")

            def on_round(self, ctx, inbox):
                ctx.halt()

        with pytest.raises(NotANeighborError):
            Network(ring(6), lambda v: Reacher()).run(max_rounds=5)

    def test_edge_free_reflects_usage(self):
        seen = {}

        class Checker(Protocol):
            def on_start(self, ctx):
                seen["before"] = ctx.edge_free(ctx.neighbors[0])
                ctx.send(ctx.neighbors[0], "x")
                seen["after"] = ctx.edge_free(ctx.neighbors[0])
                ctx.halt()

            def on_round(self, ctx, inbox):
                ctx.halt()

        Network(ring(3), lambda v: Checker()).run(max_rounds=3)
        assert seen == {"before": True, "after": False}


class TestDeliverySemantics:
    def test_next_round_delivery_and_sender(self):
        log = []

        class PingPong(Protocol):
            def on_start(self, ctx):
                if ctx.node_id == 0:
                    ctx.send(1, "ping", 42)

            def on_round(self, ctx, inbox):
                for msg in inbox:
                    log.append((ctx.round_index, msg.sender, msg.payload))
                ctx.halt()

        Network(path_graph(2), lambda v: PingPong()).run(max_rounds=4)
        assert log == [(1, 0, ("ping", 42))]

    def test_inbox_sorted_by_sender(self):
        order = []

        class Collect(Protocol):
            def on_start(self, ctx):
                if ctx.node_id != 2:
                    ctx.send(2, "hi")

            def on_round(self, ctx, inbox):
                order.extend(m.sender for m in inbox)
                ctx.halt()

        g = Graph(4, [(0, 2), (1, 2), (3, 2)])
        Network(g, lambda v: Collect()).run(max_rounds=4)
        assert order == [0, 1, 3]

    def test_wake_scheduling(self):
        fired = []

        class Sleeper(Protocol):
            def on_start(self, ctx):
                ctx.request_wake(5)

            def on_round(self, ctx, inbox):
                fired.append(ctx.round_index)
                ctx.halt()

        Network(ring(3), lambda v: Sleeper()).run(max_rounds=10)
        assert fired == [5, 5, 5]

    def test_wake_must_be_future(self):
        class BadWake(Protocol):
            def on_start(self, ctx):
                ctx.request_wake(0)

            def on_round(self, ctx, inbox):
                ctx.halt()

        with pytest.raises(ValueError):
            Network(ring(3), lambda v: BadWake()).run(max_rounds=3)


class TestTermination:
    def test_quiescence_without_halt(self):
        class Once(Protocol):
            def on_start(self, ctx):
                if ctx.node_id == 0:
                    ctx.send(ctx.neighbors[0], "x")

            def on_round(self, ctx, inbox):
                pass  # never halts, never sends again

        net = Network(ring(4), lambda v: Once())
        metrics = net.run(max_rounds=100)
        assert metrics.rounds == 1  # quiesced after the single delivery

    def test_round_limit_raises(self):
        class Forever(Protocol):
            def on_start(self, ctx):
                ctx.send(ctx.neighbors[0], "x")

            def on_round(self, ctx, inbox):
                ctx.send(ctx.neighbors[0], "x")

        for engine in (Network, AsyncNetwork):
            net = engine(ring(4), lambda v: Forever(), audit_memory=True)
            with pytest.raises(RoundLimitExceeded):
                net.run(max_rounds=10)
            # The watchdog still reports what the run did.
            metrics = net.metrics
            assert metrics.rounds == 10, engine
            assert metrics.messages > 0 and metrics.bits > 0, engine
            assert int(metrics.sent_per_node.sum()) == metrics.messages, engine
            assert metrics.max_state_words() > 0, engine

    def test_round_limit_soft(self):
        class Forever(Protocol):
            def on_start(self, ctx):
                ctx.send(ctx.neighbors[0], "x")

            def on_round(self, ctx, inbox):
                ctx.send(ctx.neighbors[0], "x")

        metrics = Network(ring(4), lambda v: Forever()).run(
            max_rounds=10, raise_on_limit=False)
        assert metrics.rounds == 10


class TestMetrics:
    def test_message_and_bit_totals(self):
        class OneShot(Protocol):
            def on_start(self, ctx):
                if ctx.node_id == 0:
                    ctx.send(ctx.neighbors[0], "x", 1, 2)

            def on_round(self, ctx, inbox):
                ctx.halt()

        net = Network(ring(4), lambda v: OneShot())
        metrics = net.run(max_rounds=4)
        assert metrics.messages == 1
        assert metrics.bits == payload_bits(("x", 1, 2), 4)
        assert metrics.max_sent() == 1

    def test_per_node_rng_deterministic(self):
        draws = {}

        class Draw(Protocol):
            def on_start(self, ctx):
                draws.setdefault(ctx.node_id, []).append(int(ctx.rng.integers(1000)))
                ctx.halt()

            def on_round(self, ctx, inbox):
                ctx.halt()

        Network(ring(4), lambda v: Draw(), seed=9).run(max_rounds=2)
        first = dict(draws)
        draws.clear()
        Network(ring(4), lambda v: Draw(), seed=9).run(max_rounds=2)
        assert draws == first
        assert len(set(tuple(v) for v in first.values())) > 1  # nodes independent

    def test_state_size_words(self):
        assert state_size_words(5) == 1
        assert state_size_words([1, 2, 3]) == 4
        assert state_size_words({"a": 1}) == 3
        assert state_size_words(np.zeros(10)) == 11


class Ticker(Protocol):
    """Wakes every round until round 6; even nodes then halt, odd ones
    just go quiet.  Node 0 halts early, twice over."""

    def on_start(self, ctx):
        ctx.request_wake(1)

    def on_round(self, ctx, inbox):
        if ctx.node_id == 0 and ctx.round_index == 2:
            ctx.halt()
            ctx.halt()
            return
        if ctx.round_index >= 6:
            if ctx.node_id % 2 == 0:
                ctx.halt()
            return
        ctx.send(ctx.neighbors[0], "t", ctx.round_index)
        ctx.request_wake(ctx.round_index + 1)


class Bomb(Ticker):
    def on_round(self, ctx, inbox):
        if ctx.node_id == 3 and ctx.round_index == 3:
            raise RuntimeError("alien state")
        super().on_round(ctx, inbox)


class Chatty(Protocol):
    def __init__(self, fields):
        self.fields = fields

    def on_start(self, ctx):
        ctx.send(ctx.neighbors[0], "big", *range(self.fields))

    def on_round(self, ctx, inbox):
        ctx.halt()


def _halted_count_matches(net) -> bool:
    count = sum(net.context(v).halted for v in range(net.n))
    assert net._halted == count, (net._halted, count)  # noqa: SLF001
    return False  # as an ``until`` predicate: never stop the run


class TestSendFrameInvariants:
    """The cheap paths of the message core agree with the plain rules."""

    @pytest.mark.parametrize("case", ["double-halt", "crash-halted", "async-error",
                                      "churn-crash"])
    def test_halted_counter_tracks_contexts(self, case):
        graph = ring(6)
        if case == "double-halt":
            net = Network(graph, lambda v: Ticker())
        elif case == "crash-halted":
            # Node 0 halts at round 2 and is crashed again at round 4;
            # node 1 is crashed while live.
            plan = FaultPlan(crash_rounds={0: 4, 1: 3})
            net = Network(graph, lambda v: Ticker(), model=NetworkModel(fault_plan=plan))
        elif case == "async-error":
            net = AsyncNetwork(graph, lambda v: Bomb())
        else:
            model = NetworkModel(mode="async", churn=[("crash", 0, 4.0), ("crash", 5, 3.0)])
            net = AsyncNetwork(graph, lambda v: Ticker(), model=model)
        net.run(max_rounds=50, until=_halted_count_matches)
        _halted_count_matches(net)
        halted = {v for v in range(net.n) if net.context(v).halted}
        expected = {"double-halt": {0, 2, 4}, "crash-halted": {0, 1, 2, 4},
                    "async-error": {0, 2, 3, 4}, "churn-crash": {0, 2, 4, 5}}[case]
        assert halted == expected

    def test_all_halted_stops_the_run(self):
        class HaltAll(Ticker):
            def on_round(self, ctx, inbox):
                if ctx.round_index >= 6:
                    ctx.halt()
                    ctx.halt()
                    return
                super().on_round(ctx, inbox)

        for engine in (Network, AsyncNetwork):
            net = engine(ring(6), lambda v: HaltAll())
            metrics = net.run(max_rounds=50)
            assert net._halted == net.n  # noqa: SLF001
            assert metrics.rounds == 6

    @pytest.mark.parametrize("n", [2, 7, 255, 256, 1000])
    def test_inline_bit_cost_is_payload_bits(self, n):
        words = 8
        payloads = [("k", *range(fields)) for fields in range(words + 1)]

        class SendAll(Protocol):
            def on_start(self, ctx):
                if ctx.node_id == 0:
                    for dest, payload in zip(ctx.neighbors, payloads):
                        ctx.send(dest, *payload)

            def on_round(self, ctx, inbox):
                ctx.halt()

        graph = Graph(n, [(0, v) for v in range(1, min(n, words + 2))])
        sent = payloads[:graph.degree(0)]
        net = Network(graph, lambda v: SendAll(), bandwidth_words=words)
        metrics = net.run(max_rounds=3)
        assert metrics.messages == len(sent)
        assert metrics.bits == sum(payload_bits(p, n) for p in sent)
        assert metrics.bits == sum(Message(0, p).bits(n) for p in sent)
        with pytest.raises(BandwidthExceededError):
            Network(complete(2), lambda v: Chatty(words + 1),
                    bandwidth_words=words).run(max_rounds=3)

    def test_activation_sorts_multi_message_inboxes(self):
        seen = []

        class Collect(Protocol):
            def on_round(self, ctx, inbox):
                seen.append((ctx.node_id, [m.sender for m in inbox]))

        for engine in (Network, AsyncNetwork):
            seen.clear()
            net = engine(complete(4), lambda v: Collect())
            inboxes = {2: [Message(3, ("x",)), Message(0, ("x",)), Message(1, ("x",))],
                       0: [Message(3, ("x",))]}
            net._activate(inboxes, {1})  # noqa: SLF001
            assert seen == [(0, [3]), (1, []), (2, [0, 1, 3])]

    def test_message_is_a_value(self):
        a, b = Message(3, ("rw.p", 1, 2)), Message(3, ("rw.p", 1, 2))
        assert a == b and hash(a) == hash(b)
        assert len({a, b, Message(4, ("rw.p", 1, 2))}) == 2
        assert a != Message(3, ("rw.p", 1, 3))
        assert a != (3, ("rw.p", 1, 2))
        assert repr(a) == "Message(sender=3, payload=('rw.p', 1, 2))"
        assert a.kind == "rw.p" and a.bits(255) == payload_bits(a.payload, 255)


class _Recorder(SubMachine):
    def __init__(self, prefix, log):
        super().__init__()
        self.PREFIX = prefix
        self.log = log

    def on_messages(self, ctx, messages):
        self.log.append((self.PREFIX, [m.payload for m in messages]))

    def on_wake(self, ctx):
        self.log.append((self.PREFIX, "wake"))


class _Ctx:
    round_index = 5

    def request_wake(self, round_index):
        pass


def _reference_routing(inbox):
    """Group an inbox by kind prefix, in first-appearance order."""
    groups = {}
    for message in inbox:
        groups.setdefault(message.kind.split(".", 1)[0], []).append(message.payload)
    return list(groups.items())


class TestDispatch:
    def _host(self):
        log = []
        host = SubMachineHost()
        for prefix in ("a", "b"):
            host.activate(_Ctx(), _Recorder(prefix, log))
        return host, log

    @pytest.mark.parametrize("kinds", [["a.x"], ["b.y"], ["a.x", "b.y", "a.z"],
                                       ["b.y", "a.x", "b.q", "b.r"]])
    def test_routes_by_prefix(self, kinds):
        host, log = self._host()
        inbox = [Message(i, (kind, i)) for i, kind in enumerate(kinds)]
        host.dispatch(_Ctx(), inbox)
        assert log == _reference_routing(inbox)

    @pytest.mark.parametrize("batch", [False, True])
    def test_early_and_retired_prefixes(self, batch):
        host, log = self._host()
        ctx = _Ctx()
        host.deactivate(host._machines["b"])  # noqa: SLF001
        early = [Message(1, ("c.e", 1)), Message(2, ("b.late", 2)), Message(3, ("c.f", 3))]
        if batch:
            host.dispatch(ctx, early)
        else:
            for message in early:
                host.dispatch(ctx, [message])
        assert log == []  # "c" is not active yet; "b" is retired
        host.activate(ctx, _Recorder("c", log))
        assert log == [("c", [("c.e", 1), ("c.f", 3)])]
        host.dispatch(ctx, [Message(4, ("b.late", 4))])
        assert log == [("c", [("c.e", 1), ("c.f", 3)])]

    def test_wakes_after_messages(self):
        host, log = self._host()
        ctx = _Ctx()
        for prefix in ("b", "a"):
            host.machine_schedule(ctx, host._machines[prefix], 5)  # noqa: SLF001
        host.dispatch(ctx, [Message(0, ("b.y", 0))])
        assert log == [("b", [("b.y", 0)]), ("a", "wake"), ("b", "wake")]
        host.dispatch(ctx, [])
        assert len(log) == 3  # the due wakes were consumed

    def test_dhc1_run_routes_like_the_reference(self, monkeypatch):
        """Every dispatch of a DHC1 run -- including the one-message
        re-dispatch of relayed virtual-walk messages -- routes each kind
        prefix's messages, in order, exactly as the split-based rule."""
        from repro.core import run_dhc1

        stack, sizes, kinds = [], set(), set()
        dispatch, deliver = SubMachineHost.dispatch, SubMachineHost._deliver

        def checked_dispatch(self, ctx, inbox):
            stack.append([])
            dispatch(self, ctx, inbox)
            assert stack.pop() == _reference_routing(inbox)
            sizes.add(min(len(inbox), 2))
            kinds.update(m.kind for m in inbox)

        def recording_deliver(self, ctx, prefix, batch):
            stack[-1].append((prefix, [m.payload for m in batch]))
            deliver(self, ctx, prefix, batch)

        monkeypatch.setattr(SubMachineHost, "dispatch", checked_dispatch)
        monkeypatch.setattr(SubMachineHost, "_deliver", recording_deliver)
        result = run_dhc1(dense_gnp(48, seed=1), k=3, seed=1)
        assert result.success
        assert sizes == {0, 1, 2}
        assert {"vw.p", "vw.r"} <= kinds  # relayed walk traffic was re-dispatched
