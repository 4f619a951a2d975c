"""Per-layer accounting for the traced benchmark run.

A traced round does two things:

* it turns on the program's own span tracer and folds the spans the
  program already emits (``dp.compute_test_set``, ``bdd.gc``,
  ``bitparallel.batch``, ``campaign.chunk``) with
  :func:`repro.obs.profile.aggregate`;
* it installs timing shims around the public calls into each layer,
  patched at every module that looks the name up and restored when the
  segment ends, exception or not.

Self time is kept on one stack of open shim calls, so a layer's time
excludes the layers it calls. The campaign entry points and the
experiments absorb whatever the inner layers do not claim, so the self
times add up to the traced wall; what they miss is reported as
``bench.unattributed_frac``.
"""

from __future__ import annotations

import importlib
import inspect
import statistics
import sys
import time
from contextlib import contextmanager
from dataclasses import dataclass
from pathlib import Path
from typing import Any, Callable, Iterable, Iterator

from repro.experiments import ALL_EXPERIMENTS


@dataclass(frozen=True)
class LayerMetric:
    """One per-layer metric and the end-to-end metric it should move."""

    name: str
    unit: str
    better: str
    moves: str


#: Experiments of the suite (one timing metric each).
EXPERIMENTS = tuple(ALL_EXPERIMENTS)

#: Every per-layer metric, in report order. ``moves`` records, before
#: any measurement, which end-to-end metric a change to the layer should
#: move and on which workload.
METRICS: tuple[LayerMetric, ...] = (
    LayerMetric("bench.trace_overhead", "ratio", "lower",
                "traced / untraced wall_s - 1, all workloads"),
    LayerMetric("bench.unattributed_frac", "ratio", "lower",
                "traced wall no layer claims; must stay <= 0.10"),
    LayerMetric("benchcircuits.load_s", "s", "lower",
                "setup_s, all workloads (small)"),
    LayerMetric("faults.enumerate_s", "s", "lower",
                "wall_s on kernel-nfbf, dp-c432, suite-ledger"),
    LayerMetric("faults.sample_s", "s", "lower",
                "wall_s on kernel-nfbf, dp-c432, suite-ledger"),
    LayerMetric("core.symbolic.build_s", "s", "lower",
                "setup_s on dp-c1908, suite-ledger"),
    LayerMetric("core.symbolic.live_nodes", "count", "lower",
                "setup_s, peak_rss_mb on dp-c1908"),
    LayerMetric("core.engine.analyze_s", "s", "lower",
                "wall_s, faults_per_s on dp-c432 (most), suite-ledger, dp-c1908"),
    LayerMetric("core.engine.analyze_p50_ms", "ms", "lower",
                "wall_s on dp-c432"),
    LayerMetric("core.engine.analyze_p95_ms", "ms", "lower",
                "wall_s on dp-c432, dp-c1908"),
    LayerMetric("core.engine.analyze_calls", "count", "lower",
                "work count; fixed by the workload"),
    LayerMetric("core.engine.cone_gate_fraction", "ratio", "lower",
                "share of the every-gate scan that can do useful work; dp-c432"),
    LayerMetric("bdd.gc_s", "s", "lower",
                "wall_s, peak_rss_mb on dp-c1908"),
    LayerMetric("bdd.gc_runs", "count", "lower",
                "wall_s on dp-c1908"),
    LayerMetric("bdd.gc_reclaimed_nodes", "count", "lower",
                "peak_rss_mb on dp-c1908"),
    LayerMetric("bdd.peak_nodes", "count", "lower",
                "peak_rss_mb on dp-c1908"),
    LayerMetric("bdd.cache_lookups", "count", "lower",
                "wall_s on dp-c432, dp-c1908"),
    LayerMetric("bdd.cache_hit_rate", "ratio", "higher",
                "wall_s on dp-c1908, dp-c432"),
    LayerMetric("bdd.cache_evictions", "count", "lower",
                "wall_s on dp-c1908"),
    LayerMetric("core.metrics.count_s", "s", "lower",
                "wall_s on dp-c432, suite-ledger"),
    LayerMetric("core.metrics.bound_s", "s", "lower",
                "wall_s on dp-c432 (bridging), suite-ledger"),
    LayerMetric("core.metrics.stuck_eq_s", "s", "lower",
                "wall_s on dp-c432 (bridging), suite-ledger"),
    LayerMetric("simulation.pack_s", "s", "lower",
                "wall_s on kernel-nfbf only"),
    LayerMetric("simulation.init_s", "s", "lower",
                "wall_s on kernel-nfbf only"),
    LayerMetric("simulation.simulate_s", "s", "lower",
                "wall_s, faults_per_s on kernel-nfbf only"),
    LayerMetric("simulation.batch_p50_ms", "ms", "lower",
                "wall_s on kernel-nfbf only"),
    LayerMetric("simulation.batch_p95_ms", "ms", "lower",
                "wall_s on kernel-nfbf only"),
    LayerMetric("simulation.words_simulated", "count", "lower",
                "work count; fixed by the workload"),
    LayerMetric("simulation.words_per_s", "1/s", "higher",
                "faults_per_s on kernel-nfbf only"),
    LayerMetric("simulation.bound_s", "s", "lower",
                "wall_s on kernel-nfbf only"),
    LayerMetric("sampling.run_s", "s", "lower",
                "wall_s on kernel-nfbf"),
    LayerMetric("sampling.patterns_spent", "count", "lower",
                "wall_s on kernel-nfbf"),
    LayerMetric("sampling.budget_fraction", "ratio", "lower",
                "wall_s on kernel-nfbf"),
    LayerMetric("experiments.campaigns.calls", "count", "lower",
                "wall_s on suite-ledger"),
    LayerMetric("experiments.campaigns.memo_hits", "count", "higher",
                "wall_s on suite-ledger"),
    LayerMetric("experiments.campaigns.other_s", "s", "lower",
                "wall_s on all workloads"),
    LayerMetric("experiments.runcache.record_s", "s", "lower",
                "wall_s on suite-ledger"),
    LayerMetric("experiments.runcache.fetch_s", "s", "lower",
                "warm_s on all workloads"),
    LayerMetric("experiments.runcache.served", "count", "higher",
                "warm_s on all workloads"),
    LayerMetric("obs.store.bytes", "B", "lower",
                "warm_s, wall_s on suite-ledger"),
    *(
        LayerMetric(f"experiments.{name}_s", "s", "lower",
                    "wall_s, warm_s on suite-ledger")
        for name in EXPERIMENTS
    ),
    LayerMetric("analysis.other_s", "s", "lower",
                "warm_s on suite-ledger"),
)

#: Timing shims: (self-time bucket, ``module:function`` or
#: ``module:Class.attribute``). A module function is patched in every
#: ``repro`` module that binds it; a class attribute on the class.
SHIMS: tuple[tuple[str, str], ...] = (
    ("benchcircuits.load_s", "repro.benchcircuits.registry:get_circuit"),
    ("faults.enumerate_s", "repro.faults.stuck_at:collapsed_checkpoint_faults"),
    ("faults.enumerate_s", "repro.faults.bridging:enumerate_nfbfs"),
    ("faults.sample_s", "repro.faults.sampling:sample_bridging_faults"),
    ("faults.sample_s", "repro.sampling.strata:stratified_sample"),
    # the variable order is part of building the good functions
    ("core.symbolic.build_s", "repro.bdd.ordering:dfs_fanin_order"),
    ("core.symbolic.build_s", "repro.core.symbolic:CircuitFunctions.__init__"),
    ("core.engine.analyze_s", "repro.core.engine:DifferencePropagation.analyze"),
    ("core.metrics.count_s", "repro.core.metrics:FaultAnalysis.detectability"),
    ("core.metrics.bound_s", "repro.core.metrics:detectability_upper_bound"),
    ("core.metrics.stuck_eq_s", "repro.core.metrics:is_stuck_at_equivalent"),
    ("simulation.pack_s", "repro.simulation.packing:random_input_words"),
    ("simulation.pack_s", "repro.simulation.packing:exhaustive_input_words"),
    ("simulation.init_s",
     "repro.simulation.bitparallel:BitParallelSimulator.__init__"),
    ("simulation.simulate_s",
     "repro.simulation.bitparallel:BitParallelSimulator.simulate"),
    ("simulation.bound_s",
     "repro.simulation.bitparallel:BitParallelSimulator.upper_bound"),
    ("sampling.run_s", "repro.sampling.engine:SampledCampaignEngine.run"),
    ("experiments.campaigns.other_s",
     "repro.experiments.campaigns:stuck_at_campaign"),
    ("experiments.campaigns.other_s",
     "repro.experiments.campaigns:bridging_campaign"),
    ("experiments.runcache.record_s", "repro.experiments.runcache:record"),
    ("experiments.runcache.fetch_s", "repro.experiments.runcache:fetch"),
)


class LayerClock:
    """Self and cumulative seconds per bucket, over a stack of open calls."""

    def __init__(self) -> None:
        self.self_s: dict[str, float] = {}
        self.cum_s: dict[str, float] = {}
        self._stack: list[list[float]] = []

    def timed(
        self,
        bucket: str,
        fn: Callable,
        observe: Callable[[tuple, Any], None] | None = None,
    ) -> Callable:
        """``fn`` wrapped to charge its self time to ``bucket``.

        A generator result is drained inside the timed call (every
        caller of the shimmed generators consumes them whole), so the
        time spent producing its items is charged to ``bucket`` too.
        ``observe(args, result)`` runs after a successful call, outside
        the timed region.
        """
        stack = self._stack

        def shim(*args, **kwargs):
            frame = [0.0]
            stack.append(frame)
            start = time.perf_counter()
            try:
                result = fn(*args, **kwargs)
                if inspect.isgenerator(result):
                    result = iter(list(result))
            finally:
                elapsed = time.perf_counter() - start
                stack.pop()
                self.self_s[bucket] = (
                    self.self_s.get(bucket, 0.0) + elapsed - frame[0]
                )
                self.cum_s[bucket] = self.cum_s.get(bucket, 0.0) + elapsed
                if stack:
                    stack[-1][0] += elapsed
            if observe is not None:
                observe(args, result)
            return result

        shim.__wrapped__ = fn
        return shim


def _resolve(target: str) -> tuple[Any, str, Any]:
    """(owner, attribute, original) for one ``SHIMS`` target."""
    module_name, _, qualname = target.partition(":")
    module = importlib.import_module(module_name)
    owner_name, _, attr = qualname.rpartition(".")
    if owner_name:
        owner = getattr(module, owner_name)
        return owner, attr, owner.__dict__[attr]
    return module, attr, getattr(module, attr)


@contextmanager
def installed(
    clock: LayerClock,
    observers: dict[str, Callable[[tuple, Any], None]] | None = None,
) -> Iterator[None]:
    """Install every shim in :data:`SHIMS`; restore them all on exit.

    ``observers`` maps a target to a callback that sees each call's
    arguments and result.
    """
    observers = observers or {}
    patches: list[tuple[Any, str, Any]] = []
    try:
        for bucket, target in SHIMS:
            owner, attr, original = _resolve(target)
            observe = observers.get(target)
            if isinstance(owner, type):
                if isinstance(original, property):
                    shim = property(clock.timed(bucket, original.fget, observe))
                else:
                    shim = clock.timed(bucket, original, observe)
                setattr(owner, attr, shim)
                patches.append((owner, attr, original))
                continue
            shim = clock.timed(bucket, original, observe)
            for module in list(sys.modules.values()):
                if not getattr(module, "__name__", "").startswith("repro"):
                    continue
                for name, value in list(vars(module).items()):
                    if value is original:
                        setattr(module, name, shim)
                        patches.append((module, name, original))
        yield
    finally:
        for owner, attr, original in reversed(patches):
            setattr(owner, attr, original)


# ----------------------------------------------------------------------
# Structural metric: the fault's fanout cone against the whole netlist
# ----------------------------------------------------------------------
def _site_cone(circuit, fault, cache: dict) -> frozenset[str]:
    """Gates downstream of the fault's site(s): all the gates a
    selective trace can ever need to evaluate for this fault."""
    from repro.faults.bridging import BridgingFault
    from repro.faults.multiple import MultipleStuckAtFault

    def tfo(net: str) -> frozenset[str]:
        key = (id(circuit), net)
        if key not in cache:
            cache[key] = circuit.transitive_fanout(net)
        return cache[key]

    if isinstance(fault, MultipleStuckAtFault):
        cone: frozenset[str] = frozenset()
        for component in fault.components:
            cone |= _site_cone(circuit, component, cache)
        return cone
    if isinstance(fault, BridgingFault):
        return tfo(fault.net_a) | tfo(fault.net_b)
    line = fault.line
    if line.is_stem:
        return tfo(line.net)
    return tfo(line.sink) | {line.sink}


def cone_gate_fraction(analyzed: Iterable[tuple[Any, Any]]) -> float:
    """Mean over analysed faults of cone gates / netlist gates."""
    cache: dict = {}
    fractions = [
        len(_site_cone(circuit, fault, cache)) / circuit.num_gates
        for circuit, fault in analyzed
    ]
    return statistics.fmean(fractions) if fractions else 0.0


# ----------------------------------------------------------------------
# One traced run: recorder and the final per-layer table
# ----------------------------------------------------------------------
def _percentile_ms(durations: list[float], q: int) -> float:
    """The ``q``-th percentile of span durations, in milliseconds."""
    if not durations:
        return 0.0
    if len(durations) == 1:
        return 1000 * durations[0]
    return 1000 * statistics.quantiles(durations, n=100, method="inclusive")[q - 1]


def ledger_bytes(root: Path) -> int:
    """Bytes under a ledger directory (0 when it does not exist)."""
    if not root.exists():
        return 0
    return sum(p.stat().st_size for p in root.rglob("*") if p.is_file())


class TraceRecorder:
    """Everything the traced rounds of one run observe."""

    def __init__(self) -> None:
        self.clock = LayerClock()
        self.rounds = 0
        self.traced_wall = 0.0
        self.events: list[dict] = []
        self.analyzed: list[tuple[Any, Any]] = []
        self.computed: list[Any] = []  # campaigns computed, not served
        self.pattern_budget = 0
        self.live_nodes = 0
        self.store_bytes = 0
        self._returned: dict[int, Any] = {}  # holds results: ids stay unique
        self.campaign_calls = 0
        self.memo_hits = 0
        self.served = 0

    def observers(self) -> dict[str, Callable[[tuple, Any], None]]:
        def analyzed(args: tuple, _result: Any) -> None:
            engine, fault = args[0], args[1]
            self.analyzed.append((engine.circuit, fault))

        def campaign(_args: tuple, result: Any) -> None:
            self.campaign_calls += 1
            if id(result) in self._returned:
                self.memo_hits += 1
                return
            self._returned[id(result)] = result
            if result.from_cache:
                self.served += 1

        return {
            "repro.core.engine:DifferencePropagation.analyze": analyzed,
            "repro.experiments.campaigns:stuck_at_campaign": campaign,
            "repro.experiments.campaigns:bridging_campaign": campaign,
        }

    def experiment(self, name: str, fn: Callable) -> Callable:
        """``fn`` (one suite experiment) timed under its own bucket."""
        return self.clock.timed(f"experiments.{name}_s", fn)

    @contextmanager
    def segment(self) -> Iterator[None]:
        """Shims and span tracing on for one timed segment of a round."""
        from repro import obs

        with installed(self.clock, self.observers()):
            obs.enable_tracing()
            try:
                yield
            finally:
                self.events.extend(obs.get_tracer().drain())
                obs.disable_tracing()

    def metrics(self, overhead: float) -> dict[str, float]:
        """The per-layer metrics, per traced round."""
        from repro.obs.profile import aggregate

        rounds = max(self.rounds, 1)
        clock = self.clock
        spans = aggregate(self.events)

        def durations(name: str) -> list[float]:
            return [e["dur"] for e in self.events if e["name"] == name]

        gc_s = spans["bdd.gc"].cum if "bdd.gc" in spans else 0.0
        selfs = dict(clock.self_s)
        # GC runs only inside analyze; charge it to bdd, not the engine.
        selfs["core.engine.analyze_s"] = selfs.get("core.engine.analyze_s", 0.0) - gc_s
        selfs["bdd.gc_s"] = gc_s
        experiment_cum = {
            name: clock.cum_s.get(f"experiments.{name}_s", 0.0)
            for name in EXPERIMENTS
        }
        selfs["analysis.other_s"] = sum(
            clock.self_s.get(f"experiments.{name}_s", 0.0) for name in EXPERIMENTS
        )
        for name in EXPERIMENTS:
            selfs.pop(f"experiments.{name}_s", None)
        attributed = sum(selfs.values())

        def total(name: str) -> float:
            return sum(r.metrics().counter_value(name) for r in self.computed)

        hits = total("bdd.cache.hits")
        lookups = hits + total("bdd.cache.misses")
        words = total("sim.words_simulated")
        simulate_cum = clock.cum_s.get("simulation.simulate_s", 0.0)
        sampled_faults = sum(
            len(r.results) for r in self.computed if r.patterns_spent()
        )
        patterns = sum(r.patterns_spent() for r in self.computed)
        analyze = durations("dp.compute_test_set")
        batches = durations("bitparallel.batch")

        values: dict[str, float] = {
            "bench.trace_overhead": overhead,
            "bench.unattributed_frac": (
                (self.traced_wall - attributed) / self.traced_wall
                if self.traced_wall else 0.0
            ),
            "core.symbolic.live_nodes": self.live_nodes / rounds,
            "core.engine.analyze_p50_ms": _percentile_ms(analyze, 50),
            "core.engine.analyze_p95_ms": _percentile_ms(analyze, 95),
            "core.engine.analyze_calls": len(analyze) / rounds,
            "core.engine.cone_gate_fraction": cone_gate_fraction(self.analyzed),
            "bdd.gc_runs": len(durations("bdd.gc")) / rounds,
            "bdd.gc_reclaimed_nodes": total("bdd.gc.reclaimed_nodes") / rounds,
            "bdd.peak_nodes": max(
                (r.peak_nodes() for r in self.computed), default=0
            ),
            "bdd.cache_lookups": lookups / rounds,
            "bdd.cache_hit_rate": hits / lookups if lookups else 0.0,
            "bdd.cache_evictions": total("bdd.cache.evictions") / rounds,
            "simulation.batch_p50_ms": _percentile_ms(batches, 50),
            "simulation.batch_p95_ms": _percentile_ms(batches, 95),
            "simulation.words_simulated": words / rounds,
            "simulation.words_per_s": words / simulate_cum if simulate_cum else 0.0,
            "sampling.patterns_spent": patterns / rounds,
            "sampling.budget_fraction": (
                patterns / (sampled_faults * self.pattern_budget)
                if sampled_faults and self.pattern_budget else 0.0
            ),
            "experiments.campaigns.calls": self.campaign_calls / rounds,
            "experiments.campaigns.memo_hits": self.memo_hits / rounds,
            "experiments.runcache.served": self.served / rounds,
            "obs.store.bytes": self.store_bytes / rounds,
        }
        for name, seconds in selfs.items():
            values[name] = seconds / rounds
        for name, seconds in experiment_cum.items():
            values[f"experiments.{name}_s"] = seconds / rounds
        return {m.name: float(values.get(m.name, 0.0)) for m in METRICS}

    def table(self, values: dict[str, float]) -> list[str]:
        """The per-layer table as text: value, share of traced wall, and
        what the layer should move."""
        wall = self.traced_wall / max(self.rounds, 1)
        lines = [
            f"per-layer metrics ({self.rounds} traced round(s), "
            f"traced wall {wall:.3f} s per round)",
            f"{'metric':<34} {'value':>14} {'unit':<6} {'share':>6}  moves",
        ]
        cumulative = {f"experiments.{name}_s" for name in EXPERIMENTS}
        for metric in METRICS:
            value = values[metric.name]
            is_self_time = metric.unit == "s" and metric.name not in cumulative
            share = f"{100 * value / wall:5.1f}%" if is_self_time and wall else ""
            lines.append(
                f"{metric.name:<34} {value:>14.6g} {metric.unit:<6} "
                f"{share:>6}  {metric.moves}"
            )
        return lines
