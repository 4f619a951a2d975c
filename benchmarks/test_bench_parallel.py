"""Bench — serial vs. parallel C432 stuck-at campaign.

Measures the steady-state wall-clock of the complete collapsed
checkpoint campaign on C432 (464 faults, the ``ci``-scale full set)
through the serial path and through the 4-worker pool, asserts exact
result equality, and reports the speedup. The ≥2× assertion only
applies on machines with ≥4 cores — on smaller boxes the numbers are
still recorded (process overhead makes parallel *slower* on one core,
which is exactly why the executor's policy falls back to serial for
small work). Measured numbers publish into
``results/BENCH_parallel.json`` via ``BENCH_EXTRA`` (tracked by the
perf-trajectory sentinel); ``bench_parallel.txt`` stays the human
rendering.
"""

from __future__ import annotations

import os
import time

import pytest

from repro.benchcircuits import get_circuit
from repro.experiments import campaigns, parallel
from repro.faults.stuck_at import collapsed_checkpoint_faults

N_WORKERS = 4

#: Measured fields published into results/BENCH_parallel.json by the
#: shared conftest artifact fixture (filled at test time).
BENCH_EXTRA: dict = {}


@pytest.fixture(autouse=True)
def _isolated_campaign_state():
    campaigns.clear_campaign_caches()
    yield
    campaigns.clear_campaign_caches()


@pytest.mark.benchmark(group="parallel-campaigns")
def test_parallel_speedup_c432(benchmark, scale, results_dir):
    circuit = get_circuit("c432")
    faults = collapsed_checkpoint_faults(circuit)

    # Steady state for both paths: the serial path reuses the shared
    # function cache, the parallel path reuses warm pool workers — the
    # same amortization every multi-figure experiment run enjoys.
    campaigns._run(circuit, "c432", scale, faults, bridging=False)
    t0 = time.perf_counter()
    serial = campaigns._run(circuit, "c432", scale, faults, bridging=False)
    t_serial = time.perf_counter() - t0

    def parallel_run():
        return parallel.run_campaign(
            circuit,
            "c432",
            scale,
            faults,
            bridging=False,
            n_workers=N_WORKERS,
        )

    parallel_run()  # warm the pool + worker-side function caches
    t0 = time.perf_counter()
    result = benchmark.pedantic(parallel_run, rounds=3, iterations=1)
    wall = time.perf_counter() - t0
    # Under --benchmark-disable (the CI smoke) pedantic runs the
    # function once and records no stats; fall back to our own timing.
    t_parallel = benchmark.stats["min"] if benchmark.stats else wall

    assert result.results == serial.results, "parallel path altered results"
    assert result == serial

    speedup = t_serial / t_parallel if t_parallel else float("inf")
    cores = os.cpu_count() or 1
    BENCH_EXTRA.update(
        faults=len(faults),
        workers=N_WORKERS,
        cores=cores,
        serial_seconds=t_serial,
        parallel_seconds=t_parallel,
        parallel_speedup=speedup,
        chunks=len(result.chunk_stats),
        serial_peak_nodes=serial.peak_nodes(),
        parallel_peak_nodes=result.peak_nodes(),
    )
    lines = [
        f"c432 stuck-at campaign, {len(faults)} faults, "
        f"{N_WORKERS} workers, {cores} cores",
        f"serial   {t_serial:8.3f} s",
        f"parallel {t_parallel:8.3f} s  ({len(result.chunk_stats)} chunks)",
        f"speedup  {speedup:8.2f}x",
        f"peak nodes: serial {serial.peak_nodes()}, "
        f"parallel(max worker) {result.peak_nodes()}",
    ]
    rendering = "\n".join(lines)
    (results_dir / "bench_parallel.txt").write_text(rendering + "\n")
    print(f"\n{rendering}")

    if cores >= 4:
        assert speedup >= 2.0, (
            f"expected ≥2x on {cores} cores, measured {speedup:.2f}x"
        )


@pytest.mark.benchmark(group="parallel-campaigns")
def test_parallel_bridging_equivalence_c432(benchmark, scale):
    """The sampled C432 bridging campaign through 4 workers, vs. serial."""
    from repro.faults.bridging import BridgeKind, enumerate_nfbfs
    from repro.faults.sampling import sample_bridging_faults

    circuit = get_circuit("c432")
    candidates = list(enumerate_nfbfs(circuit, BridgeKind.AND))
    target = scale.bridging_target("c432")
    if target is not None and target < len(candidates):
        faults = [
            s.fault
            for s in sample_bridging_faults(
                circuit, candidates, target, seed=scale.effective_seed()
            )
        ]
    else:
        faults = candidates

    serial = campaigns._run(circuit, "c432", scale, faults, bridging=True)

    def parallel_run():
        return parallel.run_campaign(
            circuit,
            "c432",
            scale,
            faults,
            bridging=True,
            n_workers=N_WORKERS,
        )

    result = benchmark.pedantic(parallel_run, rounds=1, iterations=1)
    assert result.results == serial.results
    assert result.exact == serial.exact
