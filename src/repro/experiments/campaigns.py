"""Shared fault campaigns: run Difference Propagation over a fault set
once and let every experiment consume the same records.

A campaign reduces each :class:`~repro.core.metrics.FaultAnalysis` to a
compact :class:`FaultResult` (plain fractions and names, no live OBDD
handles) so results can be cached across the experiment suite without
pinning BDD managers in memory.

Campaigns run serially in-process by default; pass ``workers`` (or set
``Scale.workers`` / ``$REPRO_WORKERS``) to shard the fault list over a
process pool — see :mod:`repro.experiments.parallel`. Both paths
produce bit-identical :class:`CampaignResult`\\ s.
"""

from __future__ import annotations

import dataclasses
import os
import random
import time
from dataclasses import dataclass, field
from fractions import Fraction
from typing import Callable, Sequence

from repro import knobs, obs
from repro.bdd.ordering import dfs_fanin_order
from repro.benchcircuits import get_circuit
from repro.circuit.netlist import Circuit
from repro.core.engine import DifferencePropagation
from repro.core.metrics import (
    Fault,
    adherence,
    detectability_upper_bound,
    is_stuck_at_equivalent,
)
from repro.core.symbolic import CircuitFunctions
from repro.experiments.config import Scale
from repro.faults.bridging import BridgeKind, BridgingFault, enumerate_nfbfs
from repro.faults.sampling import sample_bridging_faults
from repro.faults.stuck_at import collapsed_checkpoint_faults


@dataclass(frozen=True)
class FaultResult:
    """One fault's scalar outcomes (safe to cache and aggregate).

    The last four fields are populated only by sampled campaigns
    (:mod:`repro.sampling`): the Wilson confidence interval around the
    estimated detectability, the patterns the sequential stopping rule
    actually spent on this fault, and the stratum the fault was drawn
    from. Exact campaigns leave them ``None``.
    """

    fault: Fault
    detectability: Fraction
    upper_bound: Fraction
    observable_pos: frozenset[str]
    stuck_at_equivalent: bool | None = None  # bridging faults only
    ci_low: float | None = None
    ci_high: float | None = None
    patterns_spent: int | None = None
    stratum: str | None = None

    @property
    def is_detectable(self) -> bool:
        return self.detectability > 0

    @property
    def adherence(self) -> Fraction | None:
        return adherence(self.detectability, self.upper_bound)

    @property
    def ci_width(self) -> float | None:
        """Full CI width (``None`` on exact records)."""
        if self.ci_low is None or self.ci_high is None:
            return None
        return self.ci_high - self.ci_low


#: ChunkStat field ↔ registry metric name, for the counter-like fields
#: that merge by summing across chunks. The ``sim.*`` names report the
#: bit-parallel kernel's work (zero on OBDD chunks, and vice versa).
CHUNK_COUNTER_METRICS: dict[str, str] = {
    "num_faults": "campaign.faults",
    "seconds": "campaign.seconds",
    "reclaimed_nodes": "bdd.gc.reclaimed_nodes",
    "gc_runs": "bdd.gc.runs",
    "rebuilds": "bdd.rebuilds",
    "reorder_runs": "bdd.reorder.runs",
    "reorder_swaps": "bdd.reorder.swaps",
    "cache_hits": "bdd.cache.hits",
    "cache_misses": "bdd.cache.misses",
    "cache_evictions": "bdd.cache.evictions",
    "words_simulated": "sim.words_simulated",
    "batches": "sim.batches",
    "patterns_spent": "sampling.patterns_spent",
    "sampling_rounds": "sampling.rounds",
}

#: ChunkStat field ↔ registry metric name for the peak/footprint gauges
#: (merge by max across chunks).
CHUNK_GAUGE_METRICS: dict[str, str] = {
    "peak_nodes": "bdd.nodes.peak",
    "live_nodes": "bdd.nodes.live",
    "reorder_nodes_before": "bdd.reorder.nodes_before",
    "reorder_nodes_after": "bdd.reorder.nodes_after",
    "batch_size": "sim.batch_size",
}


@dataclass(frozen=True)
class ChunkStat:
    """Execution telemetry for one shard of a campaign.

    Serial campaigns report a single chunk; parallel campaigns report
    one per shard, in original fault order. Stats never participate in
    result equality — two runs of the same campaign compare equal on
    ``results`` regardless of how they were scheduled.

    The numeric fields are a *view* over the chunk's
    :class:`~repro.obs.metrics.MetricsRegistry` (see
    :meth:`from_metrics` / :meth:`to_metrics`); the registry is what
    travels, merges and aggregates, this dataclass is the stable public
    shape. Cache counters are the *delta* accrued while the chunk ran
    (a long-lived pool worker's manager counts cumulatively across
    chunks), node counts are the end-of-chunk snapshot.
    """

    index: int
    num_faults: int
    seconds: float
    peak_nodes: int
    worker_pid: int
    #: in-use node count of the chunk's manager when the chunk finished
    live_nodes: int = 0
    #: node slots reclaimed by GC sweeps during this chunk
    reclaimed_nodes: int = 0
    #: incremental GC sweeps the engine triggered during this chunk
    gc_runs: int = 0
    #: whole-manager rebuild fallbacks (should stay 0 with GC enabled)
    rebuilds: int = 0
    #: sifting passes the engine triggered during this chunk and the
    #: adjacent-level swaps they performed (zero with reordering off)
    reorder_runs: int = 0
    reorder_swaps: int = 0
    #: live nodes just before / after the chunk's most recent sift
    reorder_nodes_before: int = 0
    reorder_nodes_after: int = 0
    #: computed-table hits/misses/evictions accrued during this chunk
    cache_hits: int = 0
    cache_misses: int = 0
    cache_evictions: int = 0
    #: bit-parallel kernel work: 64-bit words swept and batches run
    #: during this chunk (zero on OBDD chunks), plus the kernel's
    #: fault-batch height
    words_simulated: int = 0
    batches: int = 0
    batch_size: int = 0
    #: sampled-mode work: patterns spent (summed over the chunk's
    #: faults) and sequential rounds run (zero on exact chunks)
    patterns_spent: int = 0
    sampling_rounds: int = 0
    #: per-fault final CI widths of a sampled chunk, observed into the
    #: ``sampling.ci_width`` histogram by :meth:`to_metrics`
    ci_widths: tuple[float, ...] = ()

    @property
    def cache_hit_rate(self) -> float:
        lookups = self.cache_hits + self.cache_misses
        return self.cache_hits / lookups if lookups else 0.0

    @classmethod
    def from_metrics(
        cls,
        registry: obs.MetricsRegistry,
        index: int,
        worker_pid: int,
    ) -> "ChunkStat":
        """Project one chunk's registry onto the public stat shape."""
        fields: dict[str, int | float] = {}
        for name, metric in CHUNK_COUNTER_METRICS.items():
            value = registry.counter_value(metric)
            fields[name] = value if name == "seconds" else int(value)
        for name, metric in CHUNK_GAUGE_METRICS.items():
            fields[name] = int(registry.gauge_value(metric))
        return cls(index=index, worker_pid=worker_pid, **fields)

    def to_metrics(self) -> obs.MetricsRegistry:
        """The chunk's metrics as a mergeable registry."""
        registry = obs.MetricsRegistry()
        for name, metric in CHUNK_COUNTER_METRICS.items():
            registry.counter(metric).inc(getattr(self, name))
        for name, metric in CHUNK_GAUGE_METRICS.items():
            registry.gauge(metric).set(getattr(self, name))
        registry.histogram("campaign.chunk_seconds").observe(self.seconds)
        for width in self.ci_widths:
            registry.histogram("sampling.ci_width").observe(width)
        return registry


@dataclass(frozen=True)
class CampaignResult:
    """All fault results for one circuit / fault model / scale."""

    circuit: Circuit
    results: tuple[FaultResult, ...]
    exact: bool  # False when decomposition or sampling was active
    #: per-chunk timing / peak-node telemetry (compare=False: scheduling
    #: details must never make two otherwise-equal campaigns differ)
    chunk_stats: tuple[ChunkStat, ...] = field(default=(), compare=False)
    #: sampled mode's stratification plan (population/allocated/sampled
    #: per stratum); empty on exact campaigns. compare=False: the plan
    #: is derived from the fault list, not part of result identity.
    strata: tuple = field(default=(), compare=False)
    #: True when this result was served from the run ledger instead of
    #: computed — such a result has empty ``chunk_stats`` (no work was
    #: done) and reports ``campaign.cache_hit = 1`` in :meth:`metrics`.
    #: compare=False: a served result *equals* the computed one.
    from_cache: bool = field(default=False, compare=False)
    #: resource time-series sampled while the campaign ran (empty when
    #: ``$REPRO_RESOURCE`` is off or the result came from the ledger)
    resources: obs.ResourceSeries = field(
        default=obs.EMPTY_SERIES, compare=False
    )

    def detectabilities(self) -> list[Fraction]:
        return [r.detectability for r in self.results]

    def detectable(self) -> list[FaultResult]:
        return [r for r in self.results if r.is_detectable]

    def metrics(self) -> obs.MetricsRegistry:
        """Aggregate registry: chunk metrics merged in shard order, plus
        the result-derived counters (``campaign.results``,
        ``campaign.detectable``). Every legacy aggregate below is a
        thin view over this."""
        registry = obs.MetricsRegistry.merged(
            stat.to_metrics().snapshot() for stat in self.chunk_stats
        )
        registry.counter("campaign.results").inc(len(self.results))
        registry.counter("campaign.detectable").inc(len(self.detectable()))
        registry.counter("campaign.cache_hit").inc(int(self.from_cache))
        return registry

    def total_seconds(self) -> float:
        """Summed per-chunk wall-clock (CPU-seconds of fault analysis)."""
        return self.metrics().counter_value("campaign.seconds")

    def peak_nodes(self) -> int:
        """Largest OBDD node store any chunk's engine reached."""
        return int(self.metrics().gauge_value("bdd.nodes.peak"))

    def live_nodes(self) -> int:
        """Largest end-of-chunk in-use node count across chunks."""
        return int(self.metrics().gauge_value("bdd.nodes.live"))

    def reclaimed_nodes(self) -> int:
        """Node slots reclaimed by GC, summed over every chunk."""
        return int(self.metrics().counter_value("bdd.gc.reclaimed_nodes"))

    def gc_runs(self) -> int:
        """Incremental GC sweeps, summed over every chunk."""
        return int(self.metrics().counter_value("bdd.gc.runs"))

    def rebuilds(self) -> int:
        """Whole-manager rebuild fallbacks, summed over every chunk."""
        return int(self.metrics().counter_value("bdd.rebuilds"))

    def reorder_runs(self) -> int:
        """Sifting passes triggered, summed over every chunk."""
        return int(self.metrics().counter_value("bdd.reorder.runs"))

    def cache_hit_rate(self) -> float:
        """Aggregate computed-table hit rate across every chunk."""
        return self.metrics().ratio(
            "bdd.cache.hits", ("bdd.cache.hits", "bdd.cache.misses")
        )

    def patterns_spent(self) -> int:
        """Total sampled patterns spent, summed over faults and chunks."""
        return int(self.metrics().counter_value("sampling.patterns_spent"))

    def ci_width_summary(self) -> dict:
        """Summary of the per-fault CI-width histogram (sampled mode)."""
        return self.metrics().histogram("sampling.ci_width").summary()


#: In-use node count that triggers incremental GC between faults —
#: tighter than the engine default because experiment processes hold
#: several circuits at once (and every pool worker holds its own copy).
CAMPAIGN_GC_LIMIT = 50_000

#: Legacy fallback: whole-manager rebuild budget. With GC keeping live
#: populations far smaller, campaigns should never reach this.
CAMPAIGN_REBUILD_LIMIT = 2_500_000

#: Exhaustive frontier for the bit-parallel campaign engine; beyond it
#: the kernel runs a seeded random-pattern sample instead.
BITPARALLEL_EXHAUSTIVE_LIMIT = 14

#: Sampled vector count for bitparallel campaigns beyond the frontier.
BITPARALLEL_SAMPLE_VECTORS = 1024

_functions_cache: dict[tuple[str, int | None, str], CircuitFunctions] = {}
#: every campaign this process ran or fetched, keyed by the run key of
#: its projection (:func:`repro.experiments.runcache.campaign_projection`)
_campaigns: dict[str, tuple[dict, CampaignResult]] = {}
_bitparallel_cache: dict[tuple[str, int], object] = {}


def circuit_functions(name: str, scale: Scale) -> CircuitFunctions:
    """Shared good functions for ``name`` under ``scale``'s policy."""
    threshold = scale.decompose_threshold(name)
    ordering = scale.ordering(name)
    key = (name, threshold, ordering)
    if key not in _functions_cache:
        circuit = get_circuit(name)
        order = dfs_fanin_order(circuit) if ordering == "dfs" else None
        _functions_cache[key] = CircuitFunctions(
            circuit, order=order, decompose_threshold=threshold
        )
    return _functions_cache[key]


def clear_campaign_caches() -> None:
    """Drop every cached campaign, function table, and worker state.

    This also shuts down the parallel executor's process pool (each
    worker holds its own function/manager caches), so the next campaign
    — serial or parallel — starts from freshly built OBDD managers.
    """
    from repro.experiments import parallel

    _functions_cache.clear()
    _campaigns.clear()
    _bitparallel_cache.clear()
    parallel.shutdown_pool()


def cached_campaigns() -> list[tuple[dict, CampaignResult]]:
    """(projection, result) of every memoised campaign, in run order."""
    return list(_campaigns.values())


def telemetry_report() -> list[str]:
    """One formatted line of GC/cache telemetry per cached campaign.

    Backs the CLI's ``--stats`` surface: every campaign the current
    process has run (serial or fanned out over workers) reports its
    fault count, wall-clock, node-store footprint, GC activity and
    computed-table hit rate. Each row is a rendering of the campaign's
    merged :meth:`CampaignResult.metrics` registry.
    """
    rows = cached_campaigns()
    if not rows:
        return ["campaign telemetry: no campaigns cached in this process"]
    lines = [
        "campaign telemetry (per cached campaign):",
        f"{'circuit':<10} {'model':<12} {'engine':<11} {'faults':>6} "
        f"{'sec':>8} {'peak':>9} {'live':>8} {'reclaimed':>9} {'gc':>4} "
        f"{'rebuilds':>8} {'sifts':>5} {'swaps':>7} {'cache-hit%':>10}",
    ]
    for projection, result in rows:
        model = projection["model"]
        if projection["bridge_kind"]:
            model = f"bridge/{projection['bridge_kind']}"
        metrics = result.metrics()
        lines.append(
            f"{projection['circuit']:<10} {model:<12} "
            f"{projection['routing']:<11} "
            f"{int(metrics.counter_value('campaign.results')):>6} "
            f"{metrics.counter_value('campaign.seconds'):>8.2f} "
            f"{int(metrics.gauge_value('bdd.nodes.peak')):>9} "
            f"{int(metrics.gauge_value('bdd.nodes.live')):>8} "
            f"{int(metrics.counter_value('bdd.gc.reclaimed_nodes')):>9} "
            f"{int(metrics.counter_value('bdd.gc.runs')):>4} "
            f"{int(metrics.counter_value('bdd.rebuilds')):>8} "
            f"{int(metrics.counter_value('bdd.reorder.runs')):>5} "
            f"{int(metrics.counter_value('bdd.reorder.swaps')):>7} "
            f"{100 * metrics.ratio('bdd.cache.hits', ('bdd.cache.hits', 'bdd.cache.misses')):>9.1f}%"
        )
    return lines


def _resolve_routing(
    scale: Scale, engine: str | None, mode: str | None
) -> str:
    """The chunk-body key one campaign call routes to.

    Explicit arguments win over the scale's knobs. Sampled mode
    supersedes the engine choice — its estimator *is* an engine (the
    bit-parallel kernel driven by the sequential sampler), so
    ``"sampled"`` acts as the engine key for dispatch, caching and
    telemetry. Exact mode routes to the resolved exact engine.
    """
    mode = knobs.MODE.parse(mode) if mode else scale.effective_mode()
    if mode == "sampled":
        return "sampled"
    return knobs.ENGINE.parse(engine) if engine else scale.effective_engine()


def stuck_at_campaign(
    name: str,
    scale: Scale,
    workers: int | None = None,
    engine: str | None = None,
    mode: str | None = None,
) -> CampaignResult:
    """Collapsed checkpoint faults of circuit ``name`` under ``scale``.

    ``workers`` overrides the scale's worker policy for this call,
    ``engine`` its engine policy and ``mode`` its exact/sampled policy;
    the memo is shared between serial and parallel runs because their
    results are identical.
    """
    return _campaign(name, None, scale, workers, engine, mode)


def bridging_campaign(
    name: str,
    kind: BridgeKind,
    scale: Scale,
    workers: int | None = None,
    engine: str | None = None,
    mode: str | None = None,
) -> CampaignResult:
    """Potentially detectable NFBFs of one dominance under ``scale``.

    Large circuits use the paper's distance-weighted exponential
    sampling (seeded); small circuits use the complete set. Sampled
    mode draws through the stratified sampler, which applies the same
    distance weighting inside the bridge stratum.
    """
    return _campaign(name, kind, scale, workers, engine, mode)


def _campaign(
    name: str,
    kind: BridgeKind | None,
    scale: Scale,
    workers: int | None,
    engine: str | None,
    mode: str | None,
) -> CampaignResult:
    """The one campaign body (stuck-at when ``kind`` is ``None``).

    The memo, then the run ledger (when on), are consulted under the
    run key of the campaign's projection before any fault is drawn.
    """
    from repro.experiments import runcache

    routing = _resolve_routing(scale, engine, mode)
    if kind is None:
        projection = runcache.stuck_at_projection(name, scale, routing)
    else:
        projection = runcache.bridging_projection(name, kind, scale, routing)
    key = obs.run_key(projection)
    if key in _campaigns:
        return _campaigns[key][1]
    use_ledger = runcache.cache_enabled(scale)
    result = runcache.fetch(projection) if use_ledger else None
    if result is None:
        # compute with exactly the knob values the key holds, here and
        # in every pool worker, whatever their environment says
        pinned = [k.name for k in knobs.KNOBS if k.affects_results]
        scale = dataclasses.replace(
            scale, **{name: projection[name] for name in pinned}
        )
        circuit = get_circuit(name)
        seed = scale.seed
        if kind is None:
            faults: Sequence[Fault] = collapsed_checkpoint_faults(circuit)
            limit = scale.stuck_at_limit(name)
        else:
            faults = enumerate_nfbfs(circuit, kind)
            limit = scale.bridging_target(name)
        sample = None
        if routing == "sampled":
            from repro.sampling.strata import stratified_sample

            sample = stratified_sample(circuit, faults, limit, seed=seed)
            faults = sample.faults
        elif limit is not None and limit < len(faults):
            if kind is None:
                rng = random.Random(seed)
                faults = sorted(rng.sample(list(faults), limit))
            else:
                drawn = sample_bridging_faults(circuit, faults, limit, seed)
                faults = [s.fault for s in drawn]
        elif kind is not None:
            faults = list(faults)  # no limit: every candidate is analyzed
        result = _dispatch(
            circuit, name, scale, faults, kind is not None, workers, routing
        )
        if sample is not None:
            # label each record with its stratum after the merge, so
            # scheduling can never perturb the labels
            labeled = tuple(
                dataclasses.replace(record, stratum=label)
                for record, label in zip(result.results, sample.labels)
            )
            result = dataclasses.replace(
                result, results=labeled, strata=sample.plan
            )
        if use_ledger:
            runcache.record(projection, result)
    _campaigns[key] = (projection, result)
    return result


def _dispatch(
    circuit: Circuit,
    name: str,
    scale: Scale,
    faults: Sequence[Fault],
    bridging: bool,
    workers: int | None,
    engine: str = "dp",
) -> CampaignResult:
    """Route one campaign to the serial or the parallel executor."""
    from repro.experiments import parallel

    requested = workers if workers is not None else scale.effective_workers()
    n_workers = parallel.effective_workers(requested, circuit, len(faults))
    if engine == "bitparallel":
        # the kernel is already fault-parallel inside one process;
        # process fan-out would only duplicate the packed good words.
        # Sampled mode is *not* clamped: its sequential rounds leave
        # plenty of per-shard work, and substream-seeded patterns make
        # any sharding bit-identical.
        n_workers = 1
    sampler = obs.resource_sampler()
    with obs.span(
        "campaign.run",
        circuit=name,
        model="bridging" if bridging else "stuck-at",
        scale=scale.name,
        faults=len(faults),
        workers=n_workers,
        engine=engine,
    ):
        sampler.start()
        try:
            if n_workers > 1:
                result = parallel.run_campaign(
                    circuit,
                    name,
                    scale,
                    faults,
                    bridging=bridging,
                    n_workers=n_workers,
                    engine=engine,
                )
            else:
                result = _run(circuit, name, scale, faults, bridging, engine)
        finally:
            series = sampler.stop()
    if series:
        result = dataclasses.replace(result, resources=series)
    return result


def analyze_faults(
    engine: DifferencePropagation,
    faults: Sequence[Fault],
    bridging: bool,
    meter=obs.NULL_METER,
) -> tuple[FaultResult, ...]:
    """Reduce each fault's analysis to a scalar :class:`FaultResult`.

    The single per-fault loop behind both the serial and the parallel
    path — equivalence of the two executors is by construction here and
    proven again by ``tests/test_parallel_campaigns.py``. ``meter``
    ticks once per fault; the default is the shared no-op meter, so
    the disabled-progress cost is one attribute call per fault (held
    under the <3% obs gate by ``benchmarks/test_bench_obs.py``).
    """
    records: list[FaultResult] = []
    for fault in faults:
        functions = engine.functions  # engine may have rebuilt it
        analysis = engine.analyze(fault)
        stuck_eq = None
        if bridging and isinstance(fault, BridgingFault):
            stuck_eq = is_stuck_at_equivalent(functions, fault)
        records.append(
            FaultResult(
                fault=fault,
                detectability=analysis.detectability,
                upper_bound=detectability_upper_bound(functions, fault),
                observable_pos=analysis.observable_pos,
                stuck_at_equivalent=stuck_eq,
            )
        )
        meter.update(1)
    return tuple(records)


def chunk_metrics(
    engine: DifferencePropagation,
    before_manager,
    before_stats,
) -> obs.MetricsRegistry:
    """The GC/cache registry for a finished chunk — ``ChunkStat``'s source.

    Cache counters are recorded as the delta against ``before_stats``
    (captured at chunk start) so long-lived pool workers — whose
    managers accumulate counts across chunks — still report per-chunk
    numbers. If the engine swapped managers mid-chunk (rebuild
    fallback), the fresh manager's counters already are the chunk's
    own, so they're recorded absolutely.
    """
    manager = engine.functions.manager
    stats = manager.stats()
    if manager is before_manager:
        hits = stats.cache_hits - before_stats.cache_hits
        misses = stats.cache_misses - before_stats.cache_misses
        evictions = stats.cache_evictions - before_stats.cache_evictions
    else:
        hits = stats.cache_hits
        misses = stats.cache_misses
        evictions = stats.cache_evictions
    registry = obs.MetricsRegistry()
    registry.gauge("bdd.nodes.live").set(stats.live_nodes)
    registry.counter("bdd.gc.reclaimed_nodes").inc(engine.reclaimed_nodes)
    registry.counter("bdd.gc.runs").inc(engine.gc_runs)
    registry.counter("bdd.rebuilds").inc(engine.rebuilds)
    registry.counter("bdd.reorder.runs").inc(engine.reorder_runs)
    registry.counter("bdd.reorder.swaps").inc(engine.reorder_swaps)
    registry.gauge("bdd.reorder.nodes_before").set(engine.reorder_nodes_before)
    registry.gauge("bdd.reorder.nodes_after").set(engine.reorder_nodes_after)
    registry.counter("bdd.cache.hits").inc(hits)
    registry.counter("bdd.cache.misses").inc(misses)
    registry.counter("bdd.cache.evictions").inc(evictions)
    return registry


def store_engine_functions(
    name: str, scale: Scale, engine: DifferencePropagation
) -> CircuitFunctions:
    """Return the engine's current functions to the shared cache.

    Memory hygiene: long campaigns can grow (and rebuild) the OBDD
    manager; keep the engine's *current* functions in the cache — never
    a pre-rebuild giant — and drop the computed table, which dwarfs the
    node store and is cheap to regrow. Pool workers run this too, so a
    long-lived worker reuses one compact function table across chunks.
    """
    functions = engine.functions
    functions.manager.clear_caches()
    _functions_cache[
        (name, scale.decompose_threshold(name), scale.ordering(name))
    ] = functions
    return functions


def _bitparallel_simulator(name: str, scale: Scale):
    """Shared kernel instance per (circuit, seed): exhaustive inside
    the frontier, a seeded random-pattern sample beyond it."""
    from repro.simulation import packing
    from repro.simulation.bitparallel import BitParallelSimulator

    key = (name, scale.effective_seed())
    sim = _bitparallel_cache.get(key)
    if sim is None:
        circuit = get_circuit(name)
        if circuit.num_inputs <= BITPARALLEL_EXHAUSTIVE_LIMIT:
            sim = BitParallelSimulator(circuit)
        else:
            words = packing.random_input_words(
                circuit.inputs, BITPARALLEL_SAMPLE_VECTORS, seed=key[1]
            )
            sim = BitParallelSimulator(
                circuit,
                input_words=words,
                num_vectors=BITPARALLEL_SAMPLE_VECTORS,
            )
        _bitparallel_cache[key] = sim
    return sim


def _bitparallel_chunk_body(
    circuit: Circuit,
    name: str,
    scale: Scale,
    faults: Sequence[Fault],
    bridging: bool,
    index: int,
) -> tuple[tuple[FaultResult, ...], bool, ChunkStat]:
    """One shard on the vectorized kernel instead of the OBDD engine.

    Exact (``exact=True``) when the circuit fits the exhaustive
    frontier; a seeded Monte-Carlo estimate otherwise. Bridging
    stuck-at equivalence needs symbolic analysis, so the kernel leaves
    ``stuck_at_equivalent`` as ``None``.
    """
    with obs.span(
        "campaign.chunk",
        circuit=name,
        index=index,
        faults=len(faults),
        engine="bitparallel",
    ):
        start = time.perf_counter()
        sim = _bitparallel_simulator(name, scale)
        words_before = sim.words_simulated
        batches_before = sim.batches_run
        outcomes = sim.simulate(list(faults))
        records = tuple(
            FaultResult(
                fault=fault,
                detectability=Fraction(
                    outcome.detection_count, sim.num_vectors
                ),
                upper_bound=sim.upper_bound(fault),
                observable_pos=outcome.observable_pos,
                stuck_at_equivalent=None,
            )
            for fault, outcome in zip(faults, outcomes)
        )
        exact = circuit.num_inputs <= BITPARALLEL_EXHAUSTIVE_LIMIT
        registry = obs.MetricsRegistry()
        registry.counter("campaign.faults").inc(len(faults))
        registry.counter("campaign.seconds").inc(
            time.perf_counter() - start
        )
        registry.counter("sim.words_simulated").inc(
            sim.words_simulated - words_before
        )
        registry.counter("sim.batches").inc(
            sim.batches_run - batches_before
        )
        registry.gauge("sim.batch_size").set(sim.batch_size)
        stat = ChunkStat.from_metrics(
            registry, index=index, worker_pid=os.getpid()
        )
        # One batch sweep = one heartbeat: the kernel has no per-fault
        # loop to tick, so the chunk reports as a single completion.
        meter = obs.meter(len(faults), label=f"{name} bitparallel")
        meter.chunk_done(index=index, faults=len(faults), seconds=stat.seconds)
    return records, exact, stat


def _sampled_chunk_body(
    circuit: Circuit,
    name: str,
    scale: Scale,
    faults: Sequence[Fault],
    bridging: bool,
    index: int,
) -> tuple[tuple[FaultResult, ...], bool, ChunkStat]:
    """One shard estimated by the sequential sampler (lazy import so
    the sampling package — and numpy under it — only loads when a
    sampled campaign actually runs)."""
    from repro.sampling.engine import sampled_chunk_body

    return sampled_chunk_body(circuit, name, scale, faults, bridging, index)


def _dp_chunk_body(
    circuit: Circuit,
    name: str,
    scale: Scale,
    faults: Sequence[Fault],
    bridging: bool,
    index: int,
) -> tuple[tuple[FaultResult, ...], bool, ChunkStat]:
    """One shard on the exact OBDD Δ-propagation engine."""
    with obs.span(
        "campaign.chunk", circuit=name, index=index, faults=len(faults)
    ):
        start = time.perf_counter()
        functions = circuit_functions(name, scale)
        engine = DifferencePropagation(
            circuit,
            functions=functions,
            gc_node_limit=CAMPAIGN_GC_LIMIT,
            rebuild_node_limit=CAMPAIGN_REBUILD_LIMIT,
            reorder=scale.effective_reorder(),
        )
        before_manager = functions.manager
        before_stats = before_manager.stats()
        meter = obs.meter(
            len(faults),
            label=f"{name} {'bridging' if bridging else 'stuck-at'} "
            f"chunk {index}",
        )
        records = analyze_faults(engine, faults, bridging, meter=meter)
        meter.finish()
        registry = chunk_metrics(engine, before_manager, before_stats)
        functions = store_engine_functions(name, scale, engine)
        registry.counter("campaign.faults").inc(len(faults))
        registry.counter("campaign.seconds").inc(
            time.perf_counter() - start
        )
        registry.gauge("bdd.nodes.peak").set(engine.peak_nodes)
        stat = ChunkStat.from_metrics(
            registry, index=index, worker_pid=os.getpid()
        )
    return records, functions.is_exact, stat


#: Engine-registry dispatch for chunk execution: every campaign chunk —
#: serial or pool worker — routes through this table by engine key.
#: ``"sampled"`` is the statistical estimator selected by
#: ``Scale.mode``/``--mode sampled``/``$REPRO_MODE``.
CHUNK_BODIES: dict[str, Callable[..., tuple]] = {
    "dp": _dp_chunk_body,
    "bitparallel": _bitparallel_chunk_body,
    "sampled": _sampled_chunk_body,
}


def run_chunk_body(
    circuit: Circuit,
    name: str,
    scale: Scale,
    faults: Sequence[Fault],
    bridging: bool,
    index: int,
    engine: str = "dp",
) -> tuple[tuple[FaultResult, ...], bool, ChunkStat]:
    """Analyze one shard and report (records, exactness, stat).

    The single entry point behind the serial path and every pool
    worker: looks the engine key up in :data:`CHUNK_BODIES` and runs
    that body under a ``campaign.chunk`` span. ``"dp"`` builds (or
    cache-hits) the circuit's functions and runs the per-fault OBDD
    loop; ``"bitparallel"`` swaps it for one vectorized batch sweep;
    ``"sampled"`` runs the sequential Monte-Carlo estimator.
    """
    try:
        body = CHUNK_BODIES[engine]
    except KeyError:
        raise KeyError(
            f"unknown chunk engine {engine!r}; "
            f"known: {', '.join(CHUNK_BODIES)}"
        ) from None
    return body(circuit, name, scale, faults, bridging, index)


def _run(
    circuit: Circuit,
    name: str,
    scale: Scale,
    faults: Sequence[Fault],
    bridging: bool,
    engine: str = "dp",
) -> CampaignResult:
    records, exact, stat = run_chunk_body(
        circuit, name, scale, faults, bridging, index=0, engine=engine
    )
    return CampaignResult(
        circuit=circuit,
        results=records,
        exact=exact,
        chunk_stats=(stat,),
    )
