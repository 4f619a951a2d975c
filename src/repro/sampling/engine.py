"""The sampled campaign engine: Monte-Carlo estimation with CIs.

Where the exact engines compute each fault's detectability as a closed
rational, this engine *estimates* it: seeded random pattern rounds on
the bit-parallel kernel, a Wilson score interval per fault, and a
sequential stopping rule that keeps spending the pattern budget on a
fault only until its interval half-width drops to the target
(``Scale.ci_width`` / ``--ci-width`` / ``$REPRO_CI_WIDTH``). Easy
faults (detectability near 0 or 1) resolve in the first round; the
budget concentrates on the genuinely uncertain middle.

Determinism and shard invariance
--------------------------------
Each round draws its pattern words from a substream keyed by
``(master seed, circuit name, round index)`` — *never* by shard or
worker — so every shard that reaches round *r* simulates the identical
vectors. A fault's ``(detections, trials)`` tally therefore depends
only on its own resolution trajectory, which makes the merged campaign
bit-identical under any shard count, chunk size, or completion order
(pinned by ``tests/test_sampled_campaigns.py``).

The engine reports ``exact=False`` unconditionally: even on circuits
small enough to exhaust, a sampled run is an estimate, and the verify
layer's exact-only oracles must skip it.
"""

from __future__ import annotations

import dataclasses
import os
import time
from dataclasses import dataclass
from fractions import Fraction
from typing import Sequence

from repro import obs
from repro.circuit.netlist import Circuit
from repro.core.metrics import Fault
from repro.sampling.substreams import substream_seed
from repro.sampling.wilson import WilsonInterval, wilson_interval
from repro.simulation import packing
from repro.simulation.bitparallel import BitParallelSimulator

#: Default sequential-sampling policy, overridable per Scale.
DEFAULT_CI_WIDTH = 0.05
DEFAULT_CONFIDENCE = 0.95
DEFAULT_PATTERN_BUDGET = 4096
DEFAULT_INITIAL_PATTERNS = 256


@dataclass(frozen=True)
class SampledSettings:
    """The sequential-sampling policy of one campaign."""

    seed: int = 0
    #: target CI *half*-width at which a fault counts as resolved
    ci_width: float = DEFAULT_CI_WIDTH
    confidence: float = DEFAULT_CONFIDENCE
    #: hard per-fault pattern ceiling (total across all rounds)
    pattern_budget: int = DEFAULT_PATTERN_BUDGET
    #: first-round pattern count; later rounds double the cumulative
    initial_patterns: int = DEFAULT_INITIAL_PATTERNS

    @classmethod
    def from_scale(cls, scale) -> "SampledSettings":
        """The policy a :class:`~repro.experiments.config.Scale` implies."""
        return cls(
            seed=scale.effective_seed(),
            ci_width=scale.effective_ci_width(),
            pattern_budget=scale.effective_pattern_budget(),
        )

    def round_sizes(self) -> list[int]:
        """Per-round pattern counts: cumulative doubling up to budget.

        With the defaults the cumulative trial counts run 256, 512,
        1024, 2048, 4096 — so an unresolved fault's final tally is
        always exactly the budget, which the stopping-rule oracle
        checks.
        """
        if self.pattern_budget < 1:
            raise ValueError("pattern_budget must be positive")
        if self.initial_patterns < 1:
            raise ValueError("initial_patterns must be positive")
        sizes: list[int] = []
        cumulative = 0
        target = min(self.initial_patterns, self.pattern_budget)
        while cumulative < self.pattern_budget:
            sizes.append(target - cumulative)
            cumulative = target
            target = min(2 * target, self.pattern_budget)
        return sizes


@dataclass
class _Tally:
    """One fault's running counts across sampling rounds."""

    detections: int = 0
    excitations: int = 0
    trials: int = 0
    observable_pos: frozenset[str] = frozenset()

    def interval(self, confidence: float) -> WilsonInterval:
        return wilson_interval(self.detections, self.trials, confidence)


class SampledCampaignEngine:
    """Sequential Monte-Carlo detectability estimation over one chunk.

    ``run`` drives rounds of seeded patterns through the bit-parallel
    kernel, retiring each fault as soon as its Wilson interval meets
    the target half-width, and reduces every fault to a campaign
    :class:`~repro.experiments.campaigns.FaultResult` carrying the
    interval and the patterns spent.
    """

    def __init__(
        self,
        circuit: Circuit,
        circuit_name: str,
        settings: SampledSettings,
    ) -> None:
        self.circuit = circuit
        self.circuit_name = circuit_name
        self.settings = settings
        self.rounds_run = 0
        self.words_simulated = 0
        self.batches_run = 0
        self.batch_size = 0

    # -- seams (overridden by seeded defects in repro.verify) ----------
    def _pattern_seed(self, round_index: int) -> int:
        """Round seed: logical coordinates only, never shard identity."""
        return substream_seed(
            self.settings.seed, "patterns", self.circuit_name, round_index
        )

    def _spent(self, trials: int) -> int:
        """Patterns reported as spent for a fault with ``trials`` trials.

        The honest accounting is the identity; the seeded-defect
        self-check overrides this to prove the stopping-rule oracle
        catches budget misaccounting.
        """
        return trials

    # -- the sequential loop -------------------------------------------
    def _simulator(self, round_index: int, size: int) -> BitParallelSimulator:
        words = packing.random_input_words(
            self.circuit.inputs, size, seed=self._pattern_seed(round_index)
        )
        return BitParallelSimulator(
            self.circuit, input_words=words, num_vectors=size
        )

    def run(self, faults: Sequence[Fault], meter=obs.NULL_METER):
        """Estimate every fault; returns campaign ``FaultResult`` records.

        ``meter`` ticks once per fault as it resolves (or exhausts the
        budget), so live progress reflects actual resolution.
        """
        from repro.experiments.campaigns import FaultResult

        settings = self.settings
        tallies = [_Tally() for _ in faults]
        active = list(range(len(faults)))
        for round_index, size in enumerate(settings.round_sizes()):
            if not active:
                break
            sim = self._simulator(round_index, size)
            batch = [faults[i] for i in active]
            outcomes = sim.simulate(batch)
            self.rounds_run += 1
            self.words_simulated += sim.words_simulated
            self.batches_run += sim.batches_run
            self.batch_size = max(self.batch_size, sim.batch_size)
            still_active: list[int] = []
            for i, outcome in zip(active, outcomes):
                tally = tallies[i]
                tally.detections += outcome.detection_count
                excitation = sim.upper_bound(faults[i]) * size
                tally.excitations += int(excitation)
                tally.trials += size
                tally.observable_pos = (
                    tally.observable_pos | outcome.observable_pos
                )
                interval = tally.interval(settings.confidence)
                if interval.half_width <= settings.ci_width:
                    meter.update(1)
                else:
                    still_active.append(i)
            active = still_active
        for _ in active:  # budget exhausted, still unresolved
            meter.update(1)
        records = []
        for fault, tally in zip(faults, tallies):
            interval = tally.interval(settings.confidence)
            records.append(
                FaultResult(
                    fault=fault,
                    detectability=Fraction(tally.detections, tally.trials),
                    upper_bound=Fraction(tally.excitations, tally.trials),
                    observable_pos=tally.observable_pos,
                    stuck_at_equivalent=None,
                    ci_low=interval.low,
                    ci_high=interval.high,
                    patterns_spent=self._spent(tally.trials),
                )
            )
        return tuple(records)


def sampled_chunk_body(
    circuit: Circuit,
    name: str,
    scale,
    faults: Sequence[Fault],
    bridging: bool,
    index: int,
):
    """One campaign shard in sampled mode (the ``run_chunk_body`` twin).

    Returns ``(records, exact=False, ChunkStat)`` — the same contract
    as the exact chunk bodies, with the sampling telemetry (patterns
    spent, rounds, per-fault CI widths) riding the chunk's metrics
    registry.
    """
    from repro.experiments.campaigns import ChunkStat

    with obs.span(
        "campaign.chunk",
        circuit=name,
        index=index,
        faults=len(faults),
        engine="sampled",
    ):
        start = time.perf_counter()
        settings = SampledSettings.from_scale(scale)
        engine = SampledCampaignEngine(circuit, name, settings)
        meter = obs.meter(
            len(faults),
            label=f"{name} {'bridging' if bridging else 'stuck-at'} "
            f"sampled chunk {index}",
        )
        records = engine.run(faults, meter=meter)
        meter.finish()
        registry = obs.MetricsRegistry()
        registry.counter("campaign.faults").inc(len(faults))
        registry.counter("campaign.seconds").inc(time.perf_counter() - start)
        registry.counter("sim.words_simulated").inc(engine.words_simulated)
        registry.counter("sim.batches").inc(engine.batches_run)
        registry.gauge("sim.batch_size").set(engine.batch_size)
        registry.counter("sampling.patterns_spent").inc(
            sum(r.patterns_spent for r in records)
        )
        registry.counter("sampling.rounds").inc(engine.rounds_run)
        stat = ChunkStat.from_metrics(
            registry, index=index, worker_pid=os.getpid()
        )
        stat = dataclasses.replace(
            stat,
            ci_widths=tuple(r.ci_high - r.ci_low for r in records),
        )
    return records, False, stat
