"""Parallel campaign executor vs. the serial path: exact equivalence.

The parallel executor must be invisible in the results: for any worker
count and any chunk size, the merged ``FaultResult`` tuple is *exactly*
equal — order and values — to the serial campaign over the same fault
list. Also covered: the sharding/merge algebra, the serial-fallback
policy, and the cache-clear lifecycle (a fresh campaign after
``clear_campaign_caches()`` must not reuse stale managers or workers).
"""

from __future__ import annotations

import os

import pytest

from repro.benchcircuits import get_circuit
from repro.circuit.netlist import CircuitError
from repro.experiments import campaigns, parallel
from repro.experiments.campaigns import CampaignResult
from repro.experiments.config import get_scale
from repro.faults.bridging import BridgeKind, enumerate_nfbfs
from repro.faults.lines import Line
from repro.faults.stuck_at import StuckAtFault, collapsed_checkpoint_faults

pytestmark = pytest.mark.parallel

CIRCUITS = ("c17", "fulladder", "c95")
WORKER_COUNTS = (1, 2, 4)
SCALE = get_scale("ci")  # complete fault sets on all three circuits


@pytest.fixture(scope="module", autouse=True)
def _fresh_campaign_state():
    """Isolate this module's campaigns from earlier cached ones."""
    campaigns.clear_campaign_caches()
    yield
    campaigns.clear_campaign_caches()


def _fault_list(name: str, model: str):
    circuit = get_circuit(name)
    if model == "stuck_at":
        return circuit, collapsed_checkpoint_faults(circuit)
    return circuit, list(enumerate_nfbfs(circuit, BridgeKind[model]))


_serial_memo: dict[tuple[str, str], CampaignResult] = {}


def _serial_reference(name: str, model: str) -> CampaignResult:
    """The serial campaign, run once per (circuit, model) in-process."""
    key = (name, model)
    if key not in _serial_memo:
        circuit, faults = _fault_list(name, model)
        _serial_memo[key] = campaigns._run(
            circuit, name, SCALE, faults, bridging=model != "stuck_at"
        )
    return _serial_memo[key]


@pytest.mark.parametrize("n_workers", WORKER_COUNTS)
@pytest.mark.parametrize("model", ("stuck_at", "AND", "OR"))
@pytest.mark.parametrize("name", CIRCUITS)
def test_parallel_equals_serial(name, model, n_workers):
    """Every fault model × worker count reproduces the serial tuple."""
    circuit, faults = _fault_list(name, model)
    serial = _serial_reference(name, model)
    par = parallel.run_campaign(
        circuit,
        name,
        SCALE,
        faults,
        bridging=model != "stuck_at",
        n_workers=n_workers,
    )
    assert par.results == serial.results  # order AND values
    assert par.exact == serial.exact
    assert par == serial  # chunk_stats never participate in equality
    assert sum(s.num_faults for s in par.chunk_stats) == len(faults)


@pytest.mark.parametrize("extra", (0, 1))
@pytest.mark.parametrize("chunk_size_kind", ("one", "all"))
def test_chunk_size_edge_cases(chunk_size_kind, extra):
    """chunk_size ∈ {1, len(faults), len(faults)+1} all merge identically."""
    circuit, faults = _fault_list("c17", "stuck_at")
    chunk_size = 1 if chunk_size_kind == "one" else len(faults) + extra
    if chunk_size_kind == "one" and extra:
        pytest.skip("chunk_size 1+1 duplicates the default sweep")
    serial = _serial_reference("c17", "stuck_at")
    par = parallel.run_campaign(
        circuit,
        "c17",
        SCALE,
        faults,
        bridging=False,
        n_workers=2,
        chunk_size=chunk_size,
    )
    expected_chunks = -(-len(faults) // chunk_size)
    assert len(par.chunk_stats) == expected_chunks
    assert par.results == serial.results


def test_shard_faults_roundtrip():
    circuit, faults = _fault_list("c95", "stuck_at")
    for chunk_size in (1, 3, len(faults), len(faults) + 1):
        chunks = parallel.shard_faults(faults, chunk_size)
        assert [f for chunk in chunks for f in chunk] == list(faults)
        assert all(len(chunk) <= chunk_size for chunk in chunks)
    with pytest.raises(ValueError):
        parallel.shard_faults(faults, 0)


def test_merge_rejects_missing_chunks():
    circuit, faults = _fault_list("c17", "stuck_at")
    par = parallel.run_campaign(
        circuit, "c17", SCALE, faults, bridging=False, n_workers=1, chunk_size=5
    )
    # Re-merge from the chunk stats' shape: drop one chunk and expect a
    # loud failure instead of a silently shorter campaign.
    specs = parallel._specs(
        "c17", SCALE, False, parallel.shard_faults(faults, 5)
    )
    chunk_results = [parallel.run_chunk(spec) for spec in specs]
    merged = parallel.merge_chunk_results(circuit, chunk_results)
    assert merged.results == par.results
    with pytest.raises(ValueError):
        parallel.merge_chunk_results(circuit, chunk_results[1:])


def test_serial_fallback_policy():
    """Tiny circuits and short fault lists never pay process overheads."""
    c17 = get_circuit("c17")
    c432 = get_circuit("c432")
    assert parallel.effective_workers(4, c17, 1000) == 1  # tiny netlist
    assert parallel.effective_workers(4, c432, 10) == 1  # few faults
    assert parallel.effective_workers(4, c432, 1000) == 4
    assert parallel.effective_workers(None, c432, 1000) == 1
    assert parallel.effective_workers(1, c432, 1000) == 1
    # never more workers than faults
    assert parallel.effective_workers(64, c432, 40) == 40


def test_dispatch_runs_tiny_circuit_in_process():
    campaigns.clear_campaign_caches()
    result = campaigns.stuck_at_campaign("c17", SCALE, workers=4)
    assert {s.worker_pid for s in result.chunk_stats} == {os.getpid()}


def test_dispatch_fans_out_on_c95():
    campaigns.clear_campaign_caches()
    result = campaigns.stuck_at_campaign("c95", SCALE, workers=2)
    pids = {s.worker_pid for s in result.chunk_stats}
    assert os.getpid() not in pids, "work must happen in pool workers"
    assert pids <= parallel.pool_pids()
    assert result.results == _serial_reference("c95", "stuck_at").results


def test_campaign_cache_hit_skips_reexecution():
    campaigns.clear_campaign_caches()
    first = campaigns.stuck_at_campaign("c17", SCALE)
    assert campaigns.stuck_at_campaign("c17", SCALE) is first


def test_clear_campaign_caches_drops_serial_managers():
    """A fresh campaign after clearing must rebuild its functions."""
    campaigns.clear_campaign_caches()
    before = campaigns.circuit_functions("c17", SCALE)
    first = campaigns.stuck_at_campaign("c17", SCALE)
    campaigns.clear_campaign_caches()
    assert not campaigns._functions_cache
    assert not campaigns.cached_campaigns()
    after = campaigns.circuit_functions("c17", SCALE)
    assert after is not before, "stale CircuitFunctions survived the clear"
    second = campaigns.stuck_at_campaign("c17", SCALE)
    assert second is not first
    assert second == first  # same values, freshly computed


def test_clear_campaign_caches_retires_worker_pool():
    """Clearing must also kill pool workers (their caches are invisible)."""
    circuit, faults = _fault_list("c95", "stuck_at")
    parallel.run_campaign(
        circuit, "c95", SCALE, faults, bridging=False, n_workers=2
    )
    old_pids = parallel.pool_pids()
    assert parallel._pool is not None and old_pids
    campaigns.clear_campaign_caches()
    assert parallel._pool is None
    assert not parallel.pool_pids()
    # The next parallel campaign gets brand-new workers — and with them
    # brand-new managers — yet identical results.
    again = parallel.run_campaign(
        circuit, "c95", SCALE, faults, bridging=False, n_workers=2
    )
    new_pids = {s.worker_pid for s in again.chunk_stats}
    assert new_pids.isdisjoint(old_pids), "stale pool worker reused"
    assert again.results == _serial_reference("c95", "stuck_at").results


def test_failed_chunk_retires_pool_without_leaking_workers():
    """Regression: a chunk that raises mid-campaign used to leave the
    cached pool alive with the remaining chunks still queued. The
    driver must surface the worker's exception, cancel the queue, and
    retire every worker so the next campaign starts clean."""
    campaigns.clear_campaign_caches()
    circuit, faults = _fault_list("c95", "stuck_at")
    poisoned = list(faults)
    # Picklable but unanalyzable: the net does not exist in the circuit,
    # so the worker holding this chunk raises CircuitError.
    poisoned[len(poisoned) // 2] = StuckAtFault(Line("no_such_net"), True)
    parallel.run_campaign(  # warm the pool first
        circuit, "c95", SCALE, faults, bridging=False, n_workers=2
    )
    old_pids = parallel.pool_pids()
    assert old_pids
    with pytest.raises(CircuitError, match="no_such_net"):
        parallel.run_campaign(
            circuit, "c95", SCALE, poisoned, bridging=False, n_workers=2
        )
    assert parallel._pool is None
    assert not parallel.pool_pids()
    for pid in old_pids:  # shutdown(wait=True) reaped every worker
        with pytest.raises(ProcessLookupError):
            os.kill(pid, 0)
    # A follow-up campaign rebuilds the pool and is still correct.
    again = parallel.run_campaign(
        circuit, "c95", SCALE, faults, bridging=False, n_workers=2
    )
    assert {s.worker_pid for s in again.chunk_stats}.isdisjoint(old_pids)
    assert again.results == _serial_reference("c95", "stuck_at").results


def test_serial_and_parallel_metric_totals_agree():
    """The metrics registry must aggregate identically however the
    campaign was scheduled: fault counts, result-derived counters and
    per-chunk histogram coverage are pure functions of the fault list.
    (Cache hit/miss totals are *not* compared — each pool worker owns a
    private manager, so those depend on chunk placement by design.)"""
    from repro import obs

    campaigns.clear_campaign_caches()
    circuit, faults = _fault_list("c95", "stuck_at")
    serial = campaigns._run(circuit, "c95", SCALE, faults, bridging=False)
    par = parallel.run_campaign(
        circuit, "c95", SCALE, faults, bridging=False, n_workers=2
    )
    sm, pm = serial.metrics(), par.metrics()
    for name in ("campaign.faults", "campaign.results", "campaign.detectable"):
        assert sm.counter_value(name) == pm.counter_value(name) == len(faults)
    # Histograms cover every chunk on both paths.
    assert sm.histogram("campaign.chunk_seconds").count == len(
        serial.chunk_stats
    )
    assert pm.histogram("campaign.chunk_seconds").count == len(par.chunk_stats)
    # ChunkStat stays a faithful round-trip view on both paths.
    for result in (serial, par):
        for stat in result.chunk_stats:
            rebuilt = campaigns.ChunkStat.from_metrics(
                stat.to_metrics(), index=stat.index, worker_pid=stat.worker_pid
            )
            assert rebuilt == stat
    # And merging the per-chunk snapshots is order-invariant, so worker
    # completion order can never change the aggregate.
    snapshots = [s.to_metrics().snapshot() for s in par.chunk_stats]
    forward = obs.MetricsRegistry.merged(snapshots).snapshot()
    backward = obs.MetricsRegistry.merged(reversed(snapshots)).snapshot()
    assert forward == backward


@pytest.mark.parametrize("n_workers", (1, 2))
def test_traced_campaign_merges_worker_spans_in_index_order(n_workers):
    """Chunk spans captured in pool workers must come home and land in
    the driver's trace in shard-index order, under the campaign span."""
    from repro import obs

    campaigns.clear_campaign_caches()  # fresh pool → workers see tracer
    circuit, faults = _fault_list("c95", "stuck_at")
    prev = obs.get_tracer()
    try:
        tracer = obs.Tracer()
        obs.set_tracer(tracer)
        with obs.span("campaign.run", circuit="c95") as root:
            par = parallel.run_campaign(
                circuit,
                "c95",
                SCALE,
                faults,
                bridging=False,
                n_workers=n_workers,
            )
    finally:
        obs.set_tracer(prev)
        campaigns.clear_campaign_caches()

    chunk_events = [
        e for e in tracer.events if e["name"] == "campaign.chunk"
    ]
    assert [e["attrs"]["index"] for e in chunk_events] == list(
        range(len(par.chunk_stats))
    )
    assert all(e["parent"] == root.id for e in chunk_events)
    analyses = [
        e for e in tracer.events if e["name"] == "dp.compute_test_set"
    ]
    assert len(analyses) == len(faults)
    ids = [e["id"] for e in tracer.events]
    assert len(set(ids)) == len(ids), "absorb must remap worker span ids"
    if n_workers > 1:
        assert {e["pid"] for e in chunk_events} != {os.getpid()}
    assert par.results == _serial_reference("c95", "stuck_at").results


def test_pool_resizes_when_worker_count_changes():
    circuit, faults = _fault_list("c95", "stuck_at")
    parallel.run_campaign(
        circuit, "c95", SCALE, faults, bridging=False, n_workers=2
    )
    pool_two = parallel._pool
    parallel.run_campaign(
        circuit, "c95", SCALE, faults, bridging=False, n_workers=4
    )
    assert parallel._pool is not pool_two
    assert parallel._pool_size == 4
