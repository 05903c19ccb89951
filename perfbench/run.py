#!/usr/bin/env python3
"""The repository benchmark: sweep throughput and trial latency.

Runs one named workload through the path ``repro sweep`` drives --
seeded G(n,p) generation, registry dispatch, a ``TrialRunner`` with a
JSONL store and a ``MetricsCollector`` -- and re-verifies every returned
cycle with ``repro.verify.verify_cycle``.  Run from the repository root::

    python3 perfbench/run.py --workload dra-fast --seed 1 --seconds 25 --trace 0
    python3 perfbench/run.py --workload dra-fast --seed 1 --trace 1

``--trace 0`` measures the end-to-end metrics for ``--seconds``;
``--trace 1`` runs the workload's trial set untraced, then traced (see
``layers.py``), and reports the per-layer split.  The last line of
standard output is one JSON object; earlier lines print every metric by
name with its unit, and the host record.  Exit codes: 0 when every
reported cycle verified and the deterministic per-trial records agree
between passes, 1 when not, 2 when the run cannot start (no ``src/``
tree beside this directory, or ``REPRO_JIT``/``REPRO_JIT_THREADS`` set).
See ``NOTES.md`` for the workloads and the metrics.
"""

from __future__ import annotations

import time

T0 = time.perf_counter()  # setup clock: before any heavy import

import argparse  # noqa: E402
import contextlib  # noqa: E402
import importlib.util  # noqa: E402
import json  # noqa: E402
import os  # noqa: E402
import platform  # noqa: E402
import resource  # noqa: E402
import statistics  # noqa: E402
import subprocess  # noqa: E402
import sys  # noqa: E402
import tempfile  # noqa: E402
from dataclasses import dataclass  # noqa: E402
from pathlib import Path  # noqa: E402

ROOT = Path(__file__).resolve().parents[1]
SRC = ROOT / "src"

#: Set-up probes per run; ``setup_s`` is their median.
SETUP_PROBES = 3
#: Environment variables that switch in compiled kernels.
JIT_VARS = ("REPRO_JIT", "REPRO_JIT_THREADS")


@dataclass(frozen=True)
class Workload:
    name: str
    algorithm: str
    engine: str
    n: int
    delta: float
    c: float
    trials: int
    #: ``NetworkModel`` JSON for the simulator substrate, if not default.
    network: dict | None = None
    #: Engine timed on the same seeds for ``engines.batch_vs_fast``.
    reference: str | None = None


WORKLOADS = {w.name: w for w in (
    Workload("dra-fast", "dra", "fast", 1024, 1.0, 8.0, 100,
             reference="fast-batch"),
    Workload("dhc2-batch", "dhc2", "fast-batch", 512, 0.75, 8.0, 128,
             reference="fast"),
    Workload("dra-congest", "dra", "congest", 64, 1.0, 8.0, 100),
    Workload("dra-async-jitter", "dra", "async", 32, 1.0, 8.0, 100,
             network={"mode": "async", "latency": {
                 "kind": "uniform", "low": 0.5, "high": 1.5}}),
)}

#: name -> unit, for ``--trace 0``.
END_TO_END = {
    "trials_per_s": "1/s",
    "trial_ms_p50": "ms",
    "trial_ms_p90": "ms",
    "success_rate": "ratio",
    "rounds_p50": "count",
    "setup_s": "s",
    "peak_rss_mb": "MB",
}

#: name -> unit, for ``--trace 1``.  A layer the workload never enters
#: reads 0 (see NOTES.md).
PER_LAYER = {
    "graphs.gen_ms": "ms",
    "graphs.edges": "count",
    "engines.call_ms": "ms",
    "engines.other_ms": "ms",
    "engines.steps": "count",
    "engines.rounds": "count",
    "engines.arraywalk.walk_ms": "ms",
    "engines.arraywalk.tree_ms": "ms",
    "engines.arraywalk.twins_ms": "ms",
    "engines.batchwalk.walk_ms": "ms",
    "engines.batchwalk.tree_ms": "ms",
    "engines.batchwalk.twins_ms": "ms",
    "engines.batchwalk.verify_ms": "ms",
    "engines.batch_vs_fast": "ratio",
    "congest.call_ms": "ms",
    "congest.core_ms": "ms",
    "congest.handler_ms": "ms",
    "congest.send_ms": "ms",
    "congest.activations": "count",
    "congest.messages_p50": "count",
    "congest.bits": "count",
    "congest.async.reordered": "count",
    "congest.async.stretch": "ratio",
    "verify.ms": "ms",
    "harness.store_ms": "ms",
    "harness.store_bytes": "B",
    "harness.metrics_ms": "ms",
    "harness.self_ms": "ms",
    "setup.import_s": "s",
    "setup.warmup_s": "s",
    "trace.wall_ms": "ms",
    "trace.overhead_frac": "ratio",
}


class StartError(RuntimeError):
    """The benchmark cannot run here (exit code 2, no result)."""


def import_program() -> None:
    """Import ``repro`` from this checkout's ``src/`` and nowhere else."""
    if not (SRC / "repro" / "__init__.py").is_file():
        raise StartError(f"no program source at {SRC}/repro")
    sys.path.insert(0, str(SRC))
    import repro

    if Path(repro.__file__).resolve().parent != SRC / "repro":
        raise StartError(f"imported repro from {repro.__file__}, not {SRC}")
    import repro.cli  # noqa: F401  (the import graph of `repro sweep`)


# -- the trial path -----------------------------------------------------------


class Checker:
    """Re-verifies every reported cycle and records what went wrong."""

    def __init__(self):
        self.violations: list[str] = []
        self.errors: list[str] = []
        self.edges: dict[int, int] = {}

    def verify(self, graph_of, cycle) -> None:
        """``verify_cycle`` against the trial's graph, built if still lazy."""
        from repro.verify import verify_cycle

        verify_cycle(graph_of(), cycle)

    def check(self, seed: int, result, edges: int, graph_of):
        """``result`` if its cycle (if any) verifies, else a failed record."""
        from repro.verify import CycleViolation

        self.edges[seed] = int(edges)
        if not result.success:
            return result
        try:
            self.verify(graph_of, result.cycle)
        except CycleViolation as exc:
            self.violations.append(f"seed {seed}: {exc}")
            return {"success": False, "rounds": result.rounds,
                    "messages": result.messages, "bits": result.bits,
                    "steps": result.steps}
        return result

    def error(self, seed: int, exc: Exception) -> dict:
        self.errors.append(f"seed {seed}: {type(exc).__name__}: {exc}")
        return {"success": False}


class SweepTrial:
    """One trial as ``repro sweep`` runs it, plus the benchmark's check.

    Mirrors ``repro.cli._SweepTrial`` (and ``SweepBatch`` mirrors
    ``_SweepTrialBatch``) but keeps the generated graph, which the
    check needs and the CLI's callables do not expose.
    """

    def __init__(self, wl: Workload, engine: str, p: float, checker: Checker):
        self.algorithm, self.engine, self.delta = wl.algorithm, engine, wl.delta
        self.p = p
        self.checker = checker

    def _spec(self, point):
        from repro.engines.registry import REGISTRY

        spec = REGISTRY.resolve(self.algorithm, self.engine)
        kwargs = spec.filter_kwargs({"delta": self.delta})
        if "network" in point:
            kwargs["network"] = point["network"]
        return spec, kwargs

    def __call__(self, point: dict, seed: int):
        import repro.graphs as graphs_pkg

        graph = graphs_pkg.gnp_random_graph(int(point["n"]), self.p, seed=seed)
        spec, kwargs = self._spec(point)
        try:
            result = spec.call(graph, seed=seed, **kwargs)
        except Exception as exc:  # noqa: BLE001 — a raising trial fails
            return self.checker.error(seed, exc)
        return self.checker.check(seed, result, graph.m, lambda: graph)


class SweepBatch(SweepTrial):
    """A same-point group as one ``call_batch`` pass on pooled graphs."""

    def __call__(self, point: dict, seeds: list[int]):
        import repro.graphs as graphs_pkg

        graphs = graphs_pkg.batch_gnp(int(point["n"]), self.p, seeds)
        spec, kwargs = self._spec(point)
        try:
            results = spec.call_batch(graphs, seeds=list(seeds), **kwargs)
        except Exception as exc:  # noqa: BLE001 — a raising group fails
            return [self.checker.error(seed, exc) for seed in seeds]
        edges = graphs.edge_counts.tolist()
        return [self.checker.check(seed, result, edges[i],
                                   lambda i=i: graphs[i])
                for i, (seed, result) in enumerate(zip(seeds, results))]


@dataclass
class Pass:
    """One sweep of the harness over the first ``len(trials)`` trials."""

    trials: list
    wall_s: float
    store_bytes: int

    def records(self) -> list[tuple]:
        """The deterministic per-trial record each pass must reproduce."""
        return [(t.trial_index, t.success,
                 *(t.metrics.get(k) for k in
                   ("rounds", "steps", "messages", "bits")))
                for t in self.trials]


class Bench:
    def __init__(self, wl: Workload, seed: int, n: int | None = None,
                 trials: int | None = None):
        from repro.graphs import paper_probability

        self.wl = wl
        self.seed = seed
        self.n = n or wl.n
        self.trials = trials or wl.trials
        self.p = paper_probability(self.n, wl.delta, wl.c)
        self.point: dict = {"n": self.n}
        if wl.network is not None:
            from repro.congest.model import NetworkModel

            # Canonical JSON in the grid point, exactly as sweep --network.
            self.point["network"] = NetworkModel.from_json(
                wl.network).canonical()
        self.checker = Checker()
        self.mismatches: list[str] = []
        self.attempted = 0
        self.failed = 0

    def set_up(self) -> tuple[float, float]:
        """Self-checks, registry resolution and one untimed warm-up trial.

        Returns ``(import_s, warmup_s)``; ``import_s`` runs from the
        top of this script, so it covers the imports too.
        """
        from repro.engines.batchwalk import DrawPool
        from repro.engines.registry import REGISTRY
        from repro.harness import TrialRunner

        DrawPool([self.seed], 2)  # the stream-replication self-check
        importlib.import_module("repro.graphs.batch_gnp").pooled_sampling_exact()
        REGISTRY.resolve(self.wl.algorithm, self.wl.engine)
        import_s = time.perf_counter() - T0
        start = time.perf_counter()
        seed = TrialRunner(None, master_seed=self.seed).derive_seed(0, 0)
        if self.wl.engine == "fast-batch":
            SweepBatch(self.wl, self.wl.engine, self.p, self.checker)(
                self.point, [seed])
        else:
            SweepTrial(self.wl, self.wl.engine, self.p, self.checker)(
                self.point, seed)
        return import_s, time.perf_counter() - start

    def run_pass(self, workdir: Path, label: str, trials: int,
                 engine: str | None = None, tracer=None) -> Pass:
        from repro.engines.fast_batch import auto_batch_size
        from repro.harness import JsonlStore, MetricsCollector, TrialRunner

        engine = engine or self.wl.engine
        store = JsonlStore(workdir / f"{label}.jsonl")
        collector = MetricsCollector()
        kwargs = {"master_seed": self.seed, "store": store,
                  "metrics": collector}
        if engine == "fast-batch":
            # The caps `repro sweep` picks when it auto-batches.
            kwargs["batch_fn"] = SweepBatch(self.wl, engine, self.p,
                                            self.checker)
            kwargs["batch_size"] = lambda point: auto_batch_size(
                int(point["n"]), self.p)
        runner = TrialRunner(
            SweepTrial(self.wl, engine, self.p, self.checker), **kwargs)
        with tracer or contextlib.nullcontext():
            start = time.perf_counter()
            out = runner.run([self.point], trials=trials)
            wall = time.perf_counter() - start
        store.write_metrics(collector.payload(
            {"algorithm": self.wl.algorithm, "engine": engine,
             "trials": trials, "master_seed": self.seed}))
        self.attempted += len(out)
        self.failed += sum(not t.success for t in out)
        return Pass(out, wall, store.path.stat().st_size)

    def agree(self, a: Pass, b: Pass, what: str) -> None:
        """Record a mismatch unless ``b``'s records repeat ``a``'s."""
        ra, rb = a.records()[:len(b.trials)], b.records()
        for x, y in zip(ra, rb):
            if x != y:
                self.mismatches.append(f"{what}: trial {x[0]}: {x} != {y}")
                return

    # -- the two modes ----------------------------------------------------

    def timed(self, seconds: float) -> tuple[dict, str]:
        """End-to-end metrics: the trial set, then repeats until ``seconds``."""
        with tempfile.TemporaryDirectory(prefix=".perfbench-", dir=ROOT) as tmp:
            first = self.run_pass(Path(tmp), "pass0", self.trials)
            passes = [first]
            elapsed = first.wall_s
            while True:
                done = sum(len(p.trials) for p in passes)
                more = min(self.trials,
                           int((seconds - elapsed) * done / elapsed))
                if more < 1:
                    break
                extra = self.run_pass(Path(tmp), f"pass{len(passes)}", more)
                self.agree(first, extra, f"pass {len(passes)}")
                passes.append(extra)
                elapsed += extra.wall_s
        trials = [t for p in passes for t in p.trials]
        ms = [1e3 * t.elapsed_s for t in trials]
        return {
            "trials_per_s": len(trials) / elapsed,
            "trial_ms_p50": statistics.median(ms),
            "trial_ms_p90": statistics.quantiles(ms, n=10,
                                                 method="inclusive")[-1],
            "success_rate": sum(t.success for t in trials) / len(trials),
            "rounds_p50": statistics.median(
                t.metrics.get("rounds", 0.0) for t in first.trials),
            "peak_rss_mb": peak_rss_mb(),
        }, (f"latency percentiles over {len(trials)} trials in "
            f"{len(passes)} passes of the {self.trials}-trial set")

    def traced(self, import_s: float, warmup_s: float) -> tuple[dict, str]:
        """Per-layer metrics: untraced pass, traced pass, reference pass."""
        from layers import SELF_METRICS, TOTAL_METRICS, Tracer

        with tempfile.TemporaryDirectory(prefix=".perfbench-", dir=ROOT) as tmp:
            plain = self.run_pass(Path(tmp), "plain", self.trials)
            tracer = Tracer()
            tracer.patch(Checker, "verify", "verify")
            traced = self.run_pass(Path(tmp), "traced", self.trials,
                                   tracer=tracer)
            self.agree(plain, traced, "traced run")
            ratio = 0.0
            if self.wl.reference is not None:
                ref = self.run_pass(Path(tmp), "reference", self.trials,
                                    engine=self.wl.reference)
                self.agree(plain, ref, f"{self.wl.reference} reference")
                batched, fast = ((plain, ref) if self.wl.engine == "fast-batch"
                                 else (ref, plain))
                ratio = batched.wall_s / fast.wall_s

        per = 1e3 / self.trials
        metrics = {name: 0.0 for name in PER_LAYER}
        for span, name in SELF_METRICS.items():
            metrics[name] = tracer.self_s.get(span, 0.0) * per
        for span, name in TOTAL_METRICS.items():
            metrics[name] = tracer.total_s.get(span, 0.0) * per
        wall = tracer.total_s["harness"]

        def total(key):
            return int(sum(t.metrics.get(key, 0.0) for t in traced.trials))

        stretch = [t.metrics["async_stretch"] for t in traced.trials
                   if "async_stretch" in t.metrics]
        metrics.update({
            "graphs.edges": sum(self.checker.edges.get(t.seed, 0)
                                for t in traced.trials),
            "engines.steps": total("steps"),
            "engines.rounds": total("rounds"),
            "engines.batch_vs_fast": ratio,
            "congest.activations": tracer.calls.get("congest.handler", 0),
            "congest.messages_p50": statistics.median(
                t.metrics.get("messages", 0.0) for t in traced.trials),
            "congest.bits": total("bits"),
            "congest.async.reordered": total("async_reordered"),
            "congest.async.stretch": (statistics.median(stretch)
                                      if stretch else 0.0),
            "harness.store_bytes": traced.store_bytes,
            "setup.import_s": import_s,
            "setup.warmup_s": warmup_s,
            "trace.wall_ms": wall * per,
            "trace.overhead_frac": traced.wall_s / plain.wall_s - 1.0,
        })
        return metrics, (f"{self.trials} trials run untraced, traced"
                         + (f" and on {self.wl.reference}"
                            if self.wl.reference else ""))


def peak_rss_mb() -> float:
    """Peak resident memory of this process (Linux reports KiB)."""
    return resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0


def probe_setup(args, count: int) -> list[float]:
    """Wall time from a fresh process to the end of its set-up, ``count`` times.

    The probe prints its ``perf_counter`` when ready; on Linux that
    clock is ``CLOCK_MONOTONIC``, shared by every process.
    """
    times = []
    for _ in range(count):
        start = time.perf_counter()
        proc = subprocess.Popen(
            [sys.executable, str(Path(__file__).resolve()),
             "--workload", args.workload, "--seed", str(args.seed),
             "--setup-probe"] + sizing_args(args),
            cwd=ROOT, stdout=subprocess.PIPE, text=True)
        try:
            out, _ = proc.communicate(timeout=120)
        finally:
            if proc.poll() is None:
                proc.kill()
                proc.wait()
        if proc.returncode != 0 or not out.startswith("ready "):
            raise RuntimeError(
                f"set-up probe failed with exit code {proc.returncode}")
        times.append(float(out.split()[1]) - start)
    return times


def sizing_args(args) -> list[str]:
    """The ``--nodes``/``--trials`` overrides, as command-line arguments."""
    out = []
    for flag, value in (("--nodes", args.nodes), ("--trials", args.trials)):
        if value is not None:
            out += [flag, str(value)]
    return out


def host_record(seed: int) -> dict:
    import numpy

    return {
        "nproc": len(os.sched_getaffinity(0)),
        "python": platform.python_version(),
        "numpy": numpy.__version__,
        "numba": importlib.util.find_spec("numba") is not None,
        "REPRO_BATCH_EDGE_BUDGET": os.environ.get(
            "REPRO_BATCH_EDGE_BUDGET", "unset"),
        "seed": seed,
    }


def parse_args(argv):
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload", required=True, choices=sorted(WORKLOADS))
    parser.add_argument("--seed", type=int, required=True,
                        help="master seed of the trial seed tree")
    parser.add_argument("--seconds", type=float, default=25.0,
                        help="measurement window of --trace 0")
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--nodes", type=int, default=None,
                        help="override the workload's n (tests, exploration)")
    parser.add_argument("--trials", type=int, default=None,
                        help="override the workload's trial-set size")
    parser.add_argument("--setup-probe", action="store_true",
                        help=argparse.SUPPRESS)
    return parser.parse_args(argv)


def main(argv=None) -> int:
    args = parse_args(argv)
    try:
        jit = [var for var in JIT_VARS if var in os.environ]
        if jit:
            raise StartError(f"unset {', '.join(jit)}: compiled kernels "
                             f"must not mix into the numbers")
        import_program()
    except StartError as exc:
        print(f"perfbench: {exc}", file=sys.stderr)
        return 2
    wl = WORKLOADS[args.workload]
    bench = Bench(wl, args.seed, args.nodes, args.trials)
    import_s, warmup_s = bench.set_up()
    if args.setup_probe:
        print(f"ready {time.perf_counter()!r}", flush=True)
        return 0

    if args.trace:
        metrics, note = bench.traced(import_s, warmup_s)
        units = PER_LAYER
    else:
        metrics, note = bench.timed(args.seconds)
        metrics["setup_s"] = statistics.median(
            probe_setup(args, SETUP_PROBES))
        units = END_TO_END
    correct = not bench.checker.violations and not bench.mismatches

    print(f"workload {wl.name}: {wl.algorithm} on {wl.engine}, "
          f"n={bench.n}, delta={wl.delta}, c={wl.c}, p={bench.p:.6f}")
    print("host " + json.dumps(host_record(args.seed), sort_keys=True))
    print(note)
    for name, unit in units.items():
        print(f"  {name:<28} {metrics[name]!r} {unit}")
    for problem in (bench.checker.violations + bench.mismatches
                    + bench.checker.errors):
        print(f"PROBLEM {problem}")
    print(json.dumps({
        "correct": correct,
        "attempted": bench.attempted,
        "failed": bench.failed,
        "metrics": {name: {"value": metrics[name], "unit": unit}
                    for name, unit in units.items()},
    }))
    return 0 if correct else 1


if __name__ == "__main__":
    sys.exit(main())
