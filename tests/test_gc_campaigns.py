"""Campaign-level GC acceptance: collections must be invisible.

The tentpole claim of the incremental-GC engine is that memory
management never changes an answer: a campaign run with an aggressively
tiny GC threshold — collecting every few faults — produces
detectabilities bit-identical to an engine that never collects at all
(and to the brute-force truth-table oracle), while keeping the live
node population bounded and *never* falling back to a whole-manager
rebuild. The slow-marked test is the full C432 acceptance criterion.
"""

from __future__ import annotations

import functools
import random

import pytest

from repro.bdd.manager import BDDManager
from repro.benchcircuits import get_circuit
from repro.core import symbolic
from repro.core.engine import DifferencePropagation
from repro.experiments import campaigns, parallel
from repro.experiments.config import get_scale
from repro.faults.stuck_at import collapsed_checkpoint_faults
from repro.simulation.truthtable import TruthTableSimulator

SCALE = get_scale("ci")

#: Forces a collection every few faults even on small circuits.
TINY_GC_LIMIT = 300

#: Large enough that the no-GC reference engine never collects.
NEVER = 10**9


@pytest.fixture(scope="module", autouse=True)
def _fresh_campaign_state():
    campaigns.clear_campaign_caches()
    yield
    campaigns.clear_campaign_caches()


def _detectabilities(engine, faults):
    return [engine.analyze(f).detectability for f in faults]


# ----------------------------------------------------------------------
# Engine-level equivalence
# ----------------------------------------------------------------------
@pytest.mark.parametrize("name", ("c95", "alu181"))
def test_gc_engine_matches_no_gc_engine(name):
    """Tiny-threshold GC runs many sweeps yet changes no detectability."""
    circuit = get_circuit(name)
    faults = collapsed_checkpoint_faults(circuit)
    gc_engine = DifferencePropagation(
        circuit, gc_node_limit=TINY_GC_LIMIT, rebuild_node_limit=NEVER
    )
    ref_engine = DifferencePropagation(
        circuit, gc_node_limit=NEVER, rebuild_node_limit=NEVER
    )
    assert _detectabilities(gc_engine, faults) == _detectabilities(
        ref_engine, faults
    )
    assert gc_engine.gc_runs > 0, "threshold never tripped — test is vacuous"
    assert gc_engine.rebuilds == 0
    assert ref_engine.gc_runs == 0


def test_computed_table_overflow_changes_no_result(monkeypatch):
    """A c432 campaign whose computed table empties over and over (both
    fused difference tables included) matches one that never does."""
    circuit = get_circuit("c432")
    faults = random.Random(0).sample(collapsed_checkpoint_faults(circuit), 40)

    def run():
        engine = DifferencePropagation(circuit)
        analyses = [engine.analyze(f) for f in faults]
        results = [(a.detectability, a.observable_pos) for a in analyses]
        return results, engine.manager_stats()

    roomy, roomy_stats = run()
    monkeypatch.setattr(
        symbolic, "BDDManager", functools.partial(BDDManager, cache_size=2048)
    )
    tiny, tiny_stats = run()
    assert tiny == roomy
    assert roomy_stats.cache_evictions == 0
    evictions = {op.op: op.evictions for op in tiny_stats.op_stats}
    # the bound must trip on both fused tables, or the test is vacuous
    assert evictions["and_diff"] > 0 and evictions["or_diff"] > 0


def test_gc_engine_matches_truth_table_oracle():
    """Differential check: GC'd engine vs brute-force simulation."""
    c95 = get_circuit("c95")
    engine = DifferencePropagation(
        c95, gc_node_limit=TINY_GC_LIMIT, rebuild_node_limit=NEVER
    )
    simulator = TruthTableSimulator(c95)
    for fault in collapsed_checkpoint_faults(c95):
        assert engine.analyze(fault).detectability == (
            simulator.detectability(fault)
        )
    assert engine.gc_runs > 0


def test_gc_bounds_live_nodes_and_allocation():
    """Collections keep both the live population and the slot store small."""
    c95 = get_circuit("c95")
    faults = collapsed_checkpoint_faults(c95)
    gc_engine = DifferencePropagation(
        c95, gc_node_limit=TINY_GC_LIMIT, rebuild_node_limit=NEVER
    )
    ref_engine = DifferencePropagation(
        c95, gc_node_limit=NEVER, rebuild_node_limit=NEVER
    )
    _detectabilities(gc_engine, faults)
    _detectabilities(ref_engine, faults)
    gc_stats = gc_engine.manager_stats()
    ref_stats = ref_engine.manager_stats()
    assert gc_stats.reclaimed_nodes > 0
    # Slot reuse: the collected manager's allocation high-water mark
    # stays well below the monotonically growing reference store.
    assert gc_stats.allocated_nodes < ref_stats.allocated_nodes
    # The adaptive threshold bounds the steady state (it only rises
    # when a sweep finds the store mostly live).
    assert gc_stats.live_nodes <= gc_engine._gc_threshold


def test_fault_analyses_held_across_gc_stay_valid():
    """Caller-retained analyses pin their roots through collections."""
    c95 = get_circuit("c95")
    faults = collapsed_checkpoint_faults(c95)
    engine = DifferencePropagation(
        c95, gc_node_limit=TINY_GC_LIMIT, rebuild_node_limit=NEVER
    )
    held = [engine.analyze(f) for f in faults[:8]]
    snapshots = [a.tests.density() for a in held]
    for fault in faults[8:]:
        engine.analyze(fault)
    assert engine.gc_runs > 0
    assert [a.tests.density() for a in held] == snapshots


# ----------------------------------------------------------------------
# Telemetry surfaces
# ----------------------------------------------------------------------
def test_serial_campaign_reports_gc_telemetry():
    campaigns.clear_campaign_caches()
    result = campaigns.stuck_at_campaign("c95", SCALE)
    assert len(result.chunk_stats) == 1
    stat = result.chunk_stats[0]
    assert stat.live_nodes > 0
    assert stat.cache_misses > 0
    assert 0.0 <= stat.cache_hit_rate <= 1.0
    assert result.live_nodes() == stat.live_nodes
    assert result.gc_runs() == stat.gc_runs
    assert result.rebuilds() == 0
    assert result.cache_hit_rate() == stat.cache_hit_rate


@pytest.mark.parallel
def test_parallel_campaign_reports_gc_telemetry():
    campaigns.clear_campaign_caches()
    circuit = get_circuit("c95")
    faults = collapsed_checkpoint_faults(circuit)
    result = parallel.run_campaign(
        circuit, "c95", SCALE, faults, bridging=False, n_workers=2
    )
    assert len(result.chunk_stats) > 1
    for stat in result.chunk_stats:
        assert stat.live_nodes > 0
        assert 0.0 <= stat.cache_hit_rate <= 1.0
    # Aggregates fold every chunk.
    assert result.live_nodes() == max(
        s.live_nodes for s in result.chunk_stats
    )
    assert result.gc_runs() == sum(s.gc_runs for s in result.chunk_stats)
    assert result.rebuilds() == 0


def test_telemetry_report_lists_cached_campaigns():
    campaigns.clear_campaign_caches()
    assert campaigns.telemetry_report() == [
        "campaign telemetry: no campaigns cached in this process"
    ]
    campaigns.stuck_at_campaign("c95", SCALE)
    lines = campaigns.telemetry_report()
    assert any("c95" in line and "stuck-at" in line for line in lines)


# ----------------------------------------------------------------------
# Full C432 acceptance criterion (slow)
# ----------------------------------------------------------------------
@pytest.mark.slow
def test_c432_campaign_gc_without_rebuilds_is_bit_identical():
    """The PR's acceptance test: a full C432 checkpoint campaign at the
    default campaign thresholds triggers incremental GC, never the
    whole-manager rebuild fallback, keeps the steady-state live node
    count bounded by the (adaptive) threshold, and reproduces the
    never-collected baseline bit for bit."""
    circuit = get_circuit("c432")
    faults = collapsed_checkpoint_faults(circuit)
    gc_engine = DifferencePropagation(
        circuit,
        gc_node_limit=campaigns.CAMPAIGN_GC_LIMIT,
        rebuild_node_limit=campaigns.CAMPAIGN_REBUILD_LIMIT,
    )
    baseline = DifferencePropagation(
        circuit, gc_node_limit=NEVER, rebuild_node_limit=NEVER
    )
    assert _detectabilities(gc_engine, faults) == _detectabilities(
        baseline, faults
    )
    assert gc_engine.gc_runs > 0
    assert gc_engine.rebuilds == 0
    stats = gc_engine.manager_stats()
    assert stats.live_nodes <= gc_engine._gc_threshold
    assert stats.reclaimed_nodes > 0
    assert stats.allocated_nodes < baseline.manager_stats().allocated_nodes
