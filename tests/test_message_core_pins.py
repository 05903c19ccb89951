"""Literal counter pins for the CONGEST message core.

The parity gates compare ``congest`` with ``async`` (which share one
core and so drift together) and ``fast`` with ``congest`` on outcomes
only, never on messages or bits.  These pins hold the core itself to
recorded values: for each algorithm, seed and substrate, the run's
``(success, rounds, messages, bits, steps)``, a digest of its cycle and
of its per-node send counts, and the substrate report
(``detail["async"]`` on the event engine, ``detail["faults"]`` under a
fault plan).  Any change to what a message costs, when it is delivered
or which node sends it shows up here as a changed literal.
"""

from __future__ import annotations

import dataclasses
import hashlib

import pytest

from repro.analysis.bounds import diameter_budget
from repro.congest import FaultPlan, LatencySpec, NetworkModel
from repro.congest.model import build_network
from repro.core import run_dhc1, run_dhc2, run_dra, run_turau
from repro.core.upcast import UpcastProtocol, upcast_sample_size

from tests.conftest import dense_gnp

SUBSTRATES = {
    "congest": NetworkModel(),
    "async-unit": NetworkModel(mode="async"),
    "async-jitter": NetworkModel(
        mode="async", latency=LatencySpec(kind="uniform", low=0.5, high=1.5),
        seed=4),
    "congest-drops": NetworkModel(
        fault_plan=FaultPlan(drop_probability=0.02, seed=9)),
}

RUNNERS = {
    "dra": (run_dra, {}),
    "dhc1": (run_dhc1, {"k": 3}),
    "dhc2": (run_dhc2, {"k": 3}),
    "turau": (run_turau, {}),
}


def _digest(values) -> str:
    return hashlib.sha256(repr(values).encode()).hexdigest()[:16]


def _run_upcast(graph, seed: int, model: NetworkModel):
    """Upcast's protocol on ``model`` (its runner is congest-only)."""
    n = graph.n
    budget = 20 * diameter_budget(n) + 4 * n * (2 + upcast_sample_size(n, 3.0)) + 512
    net = build_network(graph, lambda v: UpcastProtocol(v, n, c_prime=3.0),
                        seed=seed, model=model)
    net.run(max_rounds=budget, raise_on_limit=False)
    finished = all(p.finished and p.succ >= 0 for p in net.protocols)
    successors = [p.succ for p in net.protocols]
    return net, finished, successors, 0


def observe(algorithm: str, substrate: str, n: int, seed: int) -> tuple:
    """The pinned observation of one run."""
    graph = dense_gnp(n, seed=seed)
    model = SUBSTRATES[substrate]
    if algorithm == "upcast":
        net, success, cycle, steps = _run_upcast(graph, seed, model)
        detail = net.substrate_detail()
        metrics = net.metrics
        rounds, messages, bits = metrics.rounds, metrics.messages, metrics.bits
    else:
        captured = []
        runner, kwargs = RUNNERS[algorithm]
        hooked = dataclasses.replace(model, network_hook=captured.append)
        result = runner(graph, seed=seed, network=hooked, **kwargs)
        (net,) = captured
        success, cycle, steps, detail = (result.success, result.cycle,
                                         result.steps, result.detail)
        rounds, messages, bits = result.rounds, result.messages, result.bits
    sent = [int(x) for x in net.metrics.sent_per_node]
    assert sum(sent) == messages
    return (bool(success), rounds, messages, bits, steps,
            _digest(cycle), _digest(sent),
            detail.get("async"), detail.get("faults"))


#: (algorithm, substrate, n, seed) -> observation, recorded before the
#: message core's send path, inbox and dispatch were reworked.
PINS: dict[tuple[str, str, int, int], tuple] = {
    ('dra', 'congest', 40, 1): (
        True, 989, 9097, 255014, 171, '6ff54e2a00449942', 'eafba8322fec075f',
        None,
        None),
    ('dra', 'async-unit', 40, 1): (
        True, 989, 9097, 255014, 171, '6ff54e2a00449942', 'eafba8322fec075f',
        {'virtual_time': 989.0, 'limited': 0, 'delivered': 9097, 'dropped': 0,
         'undeliverable': 0, 'reordered': 0, 'activations': 5812, 'depth': 488,
         'stretch': 2.026639344, 'protocol_errors': 0, 'churn_crashed': 0,
         'churn_joined': 0},
        None),
    ('dra', 'async-jitter', 40, 1): (
        True, 911, 11470, 288236, 171, '6ff54e2a00449942', 'a88045564cd8a7b3',
        {'virtual_time': 911.542879251, 'limited': 0, 'delivered': 11470, 'dropped': 0,
         'undeliverable': 0, 'reordered': 1164, 'activations': 11760, 'depth': 528,
         'stretch': 1.726406968, 'protocol_errors': 0, 'churn_crashed': 0,
         'churn_joined': 0},
        None),
    ('dra', 'congest-drops', 40, 1): (
        False, 104, 3745, 52436, 0, 'dc937b59892604f5', '7da5e27d37371478',
        None,
        {'offered': 3745.0, 'dropped': 56.0, 'drop_rate': 0.014953271028037384,
         'crashed_nodes': 0.0}),
    ('dra', 'congest', 40, 2): (
        True, 1395, 11378, 342628, 229, '7043955fae56b9d3', '3dc2e5914bcef423',
        None,
        None),
    ('dra', 'async-unit', 40, 2): (
        True, 1395, 11378, 342628, 229, '7043955fae56b9d3', '3dc2e5914bcef423',
        {'virtual_time': 1395.0, 'limited': 0, 'delivered': 11378, 'dropped': 0,
         'undeliverable': 0, 'reordered': 0, 'activations': 8189, 'depth': 697,
         'stretch': 2.00143472, 'protocol_errors': 0, 'churn_crashed': 0,
         'churn_joined': 0},
        None),
    ('dra', 'async-jitter', 40, 2): (
        True, 1305, 14020, 379616, 229, '7043955fae56b9d3', 'f0f95d1ebb7fcd16',
        {'virtual_time': 1305.118623087, 'limited': 0, 'delivered': 14020, 'dropped': 0,
         'undeliverable': 0, 'reordered': 1367, 'activations': 14368, 'depth': 787,
         'stretch': 1.658346408, 'protocol_errors': 0, 'churn_crashed': 0,
         'churn_joined': 0},
        None),
    ('dra', 'congest-drops', 40, 2): (
        False, 104, 3718, 52106, 0, 'dc937b59892604f5', '076e5290586f84fd',
        None,
        {'offered': 3718.0, 'dropped': 56.0, 'drop_rate': 0.01506186121570737,
         'crashed_nodes': 0.0}),
    ('dra', 'congest', 40, 3): (
        True, 1066, 9654, 273372, 182, '0510ef4445b201e8', '9cbdb873ccab83ee',
        None,
        None),
    ('dra', 'async-unit', 40, 3): (
        True, 1066, 9654, 273372, 182, '0510ef4445b201e8', '9cbdb873ccab83ee',
        {'virtual_time': 1066.0, 'limited': 0, 'delivered': 9654, 'dropped': 0,
         'undeliverable': 0, 'reordered': 0, 'activations': 6286, 'depth': 543,
         'stretch': 1.963167587, 'protocol_errors': 0, 'churn_crashed': 0,
         'churn_joined': 0},
        None),
    ('dra', 'async-jitter', 40, 3): (
        True, 988, 12225, 309366, 182, '0510ef4445b201e8', '494fa22f058d36fa',
        {'virtual_time': 988.386651657, 'limited': 0, 'delivered': 12225, 'dropped': 0,
         'undeliverable': 0, 'reordered': 1316, 'activations': 12526, 'depth': 591,
         'stretch': 1.672397042, 'protocol_errors': 0, 'churn_crashed': 0,
         'churn_joined': 0},
        None),
    ('dra', 'congest-drops', 40, 3): (
        False, 104, 3872, 54262, 0, 'dc937b59892604f5', 'e06fa51ab961eec8',
        None,
        {'offered': 3872.0, 'dropped': 57.0, 'drop_rate': 0.014721074380165289,
         'crashed_nodes': 0.0}),
    ('dhc1', 'congest', 48, 1): (
        True, 329, 9834, 169908, 5, 'f55570e2af36f99e', '4fcd9b6f223053ca',
        None,
        None),
    ('dhc1', 'async-unit', 48, 1): (
        True, 329, 9834, 169908, 5, 'f55570e2af36f99e', '4fcd9b6f223053ca',
        {'virtual_time': 329.0, 'limited': 0, 'delivered': 9789, 'dropped': 42,
         'undeliverable': 42, 'reordered': 0, 'activations': 2751, 'depth': 156,
         'stretch': 2.108974359, 'protocol_errors': 0, 'churn_crashed': 0,
         'churn_joined': 0},
        None),
    ('dhc1', 'async-jitter', 48, 1): (
        False, 138, 12613, 168398, 0, 'dc937b59892604f5', 'e72b34f59838addc',
        {'virtual_time': 138.398490549, 'limited': 0, 'delivered': 11164, 'dropped': 108,
         'undeliverable': 108, 'reordered': 2049, 'activations': 11519, 'depth': 21,
         'stretch': 6.590404312, 'protocol_errors': 0, 'churn_crashed': 0,
         'churn_joined': 0},
        None),
    ('dhc1', 'congest-drops', 48, 1): (
        False, 108, 6452, 81634, 0, 'dc937b59892604f5', 'd8a4c7a42f18c301',
        None,
        {'offered': 4982.0, 'dropped': 71.0, 'drop_rate': 0.014251304696908872,
         'crashed_nodes': 0.0}),
    ('dhc1', 'congest', 48, 2): (
        False, 255, 10679, 168448, 0, 'dc937b59892604f5', '86db679033c1a10c',
        None,
        None),
    ('dhc1', 'async-unit', 48, 2): (
        False, 255, 10679, 168448, 0, 'dc937b59892604f5', '86db679033c1a10c',
        {'virtual_time': 255.0, 'limited': 0, 'delivered': 9590, 'dropped': 560,
         'undeliverable': 560, 'reordered': 0, 'activations': 2210, 'depth': 121,
         'stretch': 2.107438017, 'protocol_errors': 0, 'churn_crashed': 0,
         'churn_joined': 0},
        None),
    ('dhc1', 'async-jitter', 48, 2): (
        False, 138, 11995, 159890, 0, 'dc937b59892604f5', '7c6831ce24818928',
        {'virtual_time': 138.606947871, 'limited': 0, 'delivered': 10562, 'dropped': 78,
         'undeliverable': 78, 'reordered': 1658, 'activations': 10921, 'depth': 20,
         'stretch': 6.930347394, 'protocol_errors': 0, 'churn_crashed': 0,
         'churn_joined': 0},
        None),
    ('dhc1', 'congest-drops', 48, 2): (
        False, 108, 6414, 81174, 0, 'dc937b59892604f5', 'eefa060bfe2a8763',
        None,
        {'offered': 4964.0, 'dropped': 71.0, 'drop_rate': 0.014302981466559226,
         'crashed_nodes': 0.0}),
    ('dhc2', 'congest', 48, 1): (
        True, 332, 8282, 169270, 44, '6bbe19ce52f33f3a', '2c434a953c8e1511',
        None,
        None),
    ('dhc2', 'async-unit', 48, 1): (
        True, 332, 8282, 169270, 44, '6bbe19ce52f33f3a', '2c434a953c8e1511',
        {'virtual_time': 332.0, 'limited': 0, 'delivered': 8282, 'dropped': 0,
         'undeliverable': 0, 'reordered': 0, 'activations': 3600, 'depth': 219,
         'stretch': 1.515981735, 'protocol_errors': 0, 'churn_crashed': 0,
         'churn_joined': 0},
        None),
    ('dhc2', 'async-jitter', 48, 1): (
        False, 105, 3910, 45686, 0, 'dc937b59892604f5', '9ac257c9b6c8bc81',
        {'virtual_time': 105.0, 'limited': 0, 'delivered': 2440, 'dropped': 0,
         'undeliverable': 0, 'reordered': 74, 'activations': 2629, 'depth': 9,
         'stretch': 11.666666667, 'protocol_errors': 0, 'churn_crashed': 0,
         'churn_joined': 0},
        None),
    ('dhc2', 'congest-drops', 48, 1): (
        False, 106, 4497, 55428, 10, 'dc937b59892604f5', '86a6b44fa6e292c1',
        None,
        {'offered': 4125.0, 'dropped': 63.0, 'drop_rate': 0.015272727272727273,
         'crashed_nodes': 0.0}),
    ('dhc2', 'congest', 48, 3): (
        True, 435, 8308, 173522, 62, '74e2c36d342c7f2c', '0896e7a911aaa0a8',
        None,
        None),
    ('dhc2', 'async-unit', 48, 3): (
        True, 435, 8308, 173522, 62, '74e2c36d342c7f2c', '0896e7a911aaa0a8',
        {'virtual_time': 435.0, 'limited': 0, 'delivered': 8308, 'dropped': 0,
         'undeliverable': 0, 'reordered': 0, 'activations': 3708, 'depth': 251,
         'stretch': 1.733067729, 'protocol_errors': 0, 'churn_crashed': 0,
         'churn_joined': 0},
        None),
    ('dhc2', 'async-jitter', 48, 3): (
        False, 105, 3965, 46480, 0, 'dc937b59892604f5', 'bbcddbc10d20f5b6',
        {'virtual_time': 105.0, 'limited': 0, 'delivered': 2501, 'dropped': 0,
         'undeliverable': 0, 'reordered': 99, 'activations': 2690, 'depth': 10,
         'stretch': 10.5, 'protocol_errors': 0, 'churn_crashed': 0, 'churn_joined': 0},
        None),
    ('dhc2', 'congest-drops', 48, 3): (
        False, 105, 4456, 53690, 0, 'dc937b59892604f5', 'e2a4d1be246b8ce0',
        None,
        {'offered': 2992.0, 'dropped': 39.0, 'drop_rate': 0.01303475935828877,
         'crashed_nodes': 0.0}),
    ('turau', 'congest', 40, 1): (
        False, 753, 3374, 48850, 39, 'dc937b59892604f5', '26169920ef09e2d4',
        None,
        None),
    ('turau', 'async-unit', 40, 1): (
        False, 753, 3374, 48850, 39, 'dc937b59892604f5', '26169920ef09e2d4',
        {'virtual_time': 753.0, 'limited': 0, 'delivered': 2498, 'dropped': 494,
         'undeliverable': 494, 'reordered': 0, 'activations': 2072, 'depth': 308,
         'stretch': 2.444805195, 'protocol_errors': 0, 'churn_crashed': 0,
         'churn_joined': 0},
        None),
    ('turau', 'async-jitter', 40, 1): (
        False, 2687, 4291, 56846, 377, 'dc937b59892604f5', 'c3f215f2bb6ba95c',
        {'virtual_time': 2687.0, 'limited': 0, 'delivered': 4291, 'dropped': 0,
         'undeliverable': 0, 'reordered': 1704, 'activations': 6931, 'depth': 12,
         'stretch': 223.916666667, 'protocol_errors': 0, 'churn_crashed': 0,
         'churn_joined': 0},
        None),
    ('turau', 'congest-drops', 40, 1): (
        False, 2687, 3626, 73378, 39, 'dc937b59892604f5', 'c799831c9074343f',
        None,
        {'offered': 3626.0, 'dropped': 54.0, 'drop_rate': 0.014892443463872035,
         'crashed_nodes': 0.0}),
    ('turau', 'congest', 40, 2): (
        True, 313, 2821, 36536, 40, '93f74e4e6f500457', 'cc0e60c0808dee36',
        None,
        None),
    ('turau', 'async-unit', 40, 2): (
        True, 313, 2821, 36536, 40, '93f74e4e6f500457', 'cc0e60c0808dee36',
        {'virtual_time': 313.0, 'limited': 0, 'delivered': 1948, 'dropped': 551,
         'undeliverable': 551, 'reordered': 0, 'activations': 1122, 'depth': 114,
         'stretch': 2.745614035, 'protocol_errors': 0, 'churn_crashed': 0,
         'churn_joined': 0},
        None),
    ('turau', 'async-jitter', 40, 2): (
        False, 2687, 4418, 64048, 261, 'dc937b59892604f5', '70a68f10550c87c5',
        {'virtual_time': 2687.0, 'limited': 0, 'delivered': 4418, 'dropped': 0,
         'undeliverable': 0, 'reordered': 1085, 'activations': 7058, 'depth': 66,
         'stretch': 40.712121212, 'protocol_errors': 0, 'churn_crashed': 0,
         'churn_joined': 0},
        None),
    ('turau', 'congest-drops', 40, 2): (
        False, 2687, 3802, 75872, 39, 'dc937b59892604f5', '706b8e5e6d6531f2',
        None,
        {'offered': 3802.0, 'dropped': 56.0, 'drop_rate': 0.014729089952656496,
         'crashed_nodes': 0.0}),
    ('turau', 'congest', 40, 3): (
        True, 313, 2795, 36190, 40, 'a7df710e2c32f0d6', '4cc1413612831d1d',
        None,
        None),
    ('turau', 'async-unit', 40, 3): (
        True, 313, 2795, 36190, 40, 'a7df710e2c32f0d6', '4cc1413612831d1d',
        {'virtual_time': 313.0, 'limited': 0, 'delivered': 1900, 'dropped': 584,
         'undeliverable': 584, 'reordered': 0, 'activations': 1129, 'depth': 112,
         'stretch': 2.794642857, 'protocol_errors': 0, 'churn_crashed': 0,
         'churn_joined': 0},
        None),
    ('turau', 'async-jitter', 40, 3): (
        False, 2687, 3334, 47078, 241, 'dc937b59892604f5', '8295591500e5e934',
        {'virtual_time': 2687.0, 'limited': 0, 'delivered': 3334, 'dropped': 0,
         'undeliverable': 0, 'reordered': 911, 'activations': 5974, 'depth': 10,
         'stretch': 268.7, 'protocol_errors': 0, 'churn_crashed': 0, 'churn_joined': 0},
        None),
    ('turau', 'congest-drops', 40, 3): (
        False, 2687, 3592, 72854, 39, 'dc937b59892604f5', '0ec95cc57da1478d',
        None,
        {'offered': 3592.0, 'dropped': 54.0, 'drop_rate': 0.015033407572383074,
         'crashed_nodes': 0.0}),
    ('upcast', 'congest', 32, 1): (
        True, 59, 3282, 48864, 0, 'ed5a7e2c4e6ab8e2', '8e14a7c10dcdcceb',
        None,
        None),
    ('upcast', 'async-unit', 32, 1): (
        True, 59, 3282, 48864, 0, 'ed5a7e2c4e6ab8e2', '8e14a7c10dcdcceb',
        {'virtual_time': 59.0, 'limited': 0, 'delivered': 3282, 'dropped': 0,
         'undeliverable': 0, 'reordered': 0, 'activations': 767, 'depth': 13,
         'stretch': 4.538461538, 'protocol_errors': 0, 'churn_crashed': 0,
         'churn_joined': 0},
        None),
    ('upcast', 'async-jitter', 32, 1): (
        False, 109, 5318, 77842, 0, 'fd6bb034d3ae9ed4', 'cc1c4dd325638bed',
        {'virtual_time': 109.840762065, 'limited': 0, 'delivered': 5318, 'dropped': 0,
         'undeliverable': 0, 'reordered': 996, 'activations': 5913, 'depth': 14,
         'stretch': 7.845768719, 'protocol_errors': 0, 'churn_crashed': 0,
         'churn_joined': 0},
        None),
    ('upcast', 'congest-drops', 32, 1): (
        False, 104, 2752, 38570, 0, 'd8a351946e4d6ad5', '93e294c56acc9b03',
        None,
        {'offered': 2752.0, 'dropped': 37.0, 'drop_rate': 0.013444767441860465,
         'crashed_nodes': 0.0}),
    ('upcast', 'congest', 32, 2): (
        True, 59, 3181, 47372, 0, 'd3fd8154eb5896bf', '617830336bdc0302',
        None,
        None),
    ('upcast', 'async-unit', 32, 2): (
        True, 59, 3181, 47372, 0, 'd3fd8154eb5896bf', '617830336bdc0302',
        {'virtual_time': 59.0, 'limited': 0, 'delivered': 3181, 'dropped': 0,
         'undeliverable': 0, 'reordered': 0, 'activations': 754, 'depth': 13,
         'stretch': 4.538461538, 'protocol_errors': 0, 'churn_crashed': 0,
         'churn_joined': 0},
        None),
    ('upcast', 'async-jitter', 32, 2): (
        True, 98, 5161, 75560, 0, '95713ccd8b03a481', '9ff9540b47991dbc',
        {'virtual_time': 98.175257445, 'limited': 0, 'delivered': 5161, 'dropped': 0,
         'undeliverable': 0, 'reordered': 951, 'activations': 5711, 'depth': 14,
         'stretch': 7.012518389, 'protocol_errors': 0, 'churn_crashed': 0,
         'churn_joined': 0},
        None),
    ('upcast', 'congest-drops', 32, 2): (
        False, 104, 2665, 37400, 0, 'd8a351946e4d6ad5', '80295883e8673c44',
        None,
        {'offered': 2665.0, 'dropped': 37.0, 'drop_rate': 0.013883677298311446,
         'crashed_nodes': 0.0}),
}


@pytest.mark.parametrize("key", sorted(PINS), ids=lambda k: "-".join(map(str, k)))
def test_message_core_counters_pinned(key):
    assert observe(*key) == PINS[key]
