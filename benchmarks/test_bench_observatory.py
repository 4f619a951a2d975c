"""Bench — campaign-observatory overhead and cache-serve speedup.

Two promises this PR's subsystems make about the hot path, measured
directly:

1. **The disabled resource sampler is free.** The campaign dispatch
   path calls :func:`repro.obs.resource_sampler` unconditionally; with
   ``$REPRO_RESOURCE`` off that returns the shared
   :data:`~repro.obs.resource.NULL_SAMPLER`, and its whole per-campaign
   cost is one ``start()``/``stop()`` no-op pair plus the enabled-check.
   Measured as disabled round-trips against the full collapsed C432
   stuck-at campaign wall time; the ratio must stay under the same 3 %
   ceiling the tracing/progress layers are held to (in practice it is
   orders of magnitude below — one campaign performs exactly *one*
   sampler round-trip, not one per fault).
2. **A ledger-served campaign beats recomputation.** The same C432
   campaign is recorded into a throwaway ledger, then fetched back —
   decode included — and the serve must be faster than the compute
   (on real circuits it is ~100x; the gate is deliberately loose so
   CI noise can't flake it).

Measured fields publish into ``results/BENCH_observatory.json`` via
``BENCH_EXTRA``; ``bench_observatory.txt`` stays the human rendering.
"""

from __future__ import annotations

import dataclasses
import time

import pytest

from repro import knobs, obs
from repro.benchcircuits import get_circuit
from repro.core.engine import DifferencePropagation
from repro.experiments import campaigns, runcache
from repro.experiments.config import get_scale
from repro.faults.stuck_at import collapsed_checkpoint_faults
from repro.obs import resource

#: Acceptance ceiling for the disabled resource-sampler overhead on the
#: campaign (matches the tracing/progress obs gate).
MAX_DISABLED_OVERHEAD = 0.03

#: Measured fields published into results/BENCH_observatory.json by the
#: shared conftest artifact fixture (filled at test time).
BENCH_EXTRA: dict = {}


@pytest.fixture(autouse=True)
def _isolated_campaign_state():
    campaigns.clear_campaign_caches()
    yield
    campaigns.clear_campaign_caches()


@pytest.mark.benchmark(group="observatory")
def test_disabled_sampler_overhead_c432(benchmark, results_dir):
    if resource.resource_enabled():
        pytest.skip(
            "overhead bench needs resource sampling disabled "
            "(REPRO_RESOURCE)"
        )

    circuit = get_circuit("c432")
    faults = collapsed_checkpoint_faults(circuit)

    def run():
        engine = DifferencePropagation(
            circuit, gc_node_limit=campaigns.CAMPAIGN_GC_LIMIT
        )
        t0 = time.perf_counter()
        detectabilities = [engine.analyze(f).detectability for f in faults]
        return detectabilities, time.perf_counter() - t0

    detectabilities, t_campaign = benchmark.pedantic(
        run, rounds=1, iterations=1
    )
    assert all(0 <= d <= 1 for d in detectabilities)

    # Structural zero-cost guarantee: the disabled path hands back the
    # shared null singleton and its stop() returns the shared empty
    # series — no thread, no samples, no allocation.
    sampler = obs.resource_sampler()
    assert sampler is resource.NULL_SAMPLER
    assert sampler.start().stop() is resource.EMPTY_SERIES

    # One campaign dispatch performs exactly one disabled round-trip:
    # resource_sampler() + start() + stop(). Time many and scale.
    loops = 100_000
    t0 = time.perf_counter()
    for _ in range(loops):
        s = obs.resource_sampler()
        s.start()
        s.stop()
    t_per_roundtrip = (time.perf_counter() - t0) / loops

    overhead = t_per_roundtrip / t_campaign
    assert overhead < MAX_DISABLED_OVERHEAD, (
        f"disabled resource sampling costs {100 * overhead:.5f} % of the "
        f"c432 campaign ({1e9 * t_per_roundtrip:.0f} ns round-trip vs "
        f"{t_campaign:.3f} s)"
    )

    BENCH_EXTRA.update(
        faults=len(faults),
        campaign_seconds=t_campaign,
        disabled_roundtrip_ns=1e9 * t_per_roundtrip,
        disabled_overhead=overhead,
        overhead_ceiling=MAX_DISABLED_OVERHEAD,
    )
    lines = [
        f"c432 stuck-at campaign, {len(faults)} faults",
        f"campaign wall (sampler off)      {t_campaign:8.3f} s",
        f"disabled sampler round-trip      {1e9 * t_per_roundtrip:8.0f} ns",
        f"disabled sampler overhead        {100 * overhead:8.5f} %  "
        f"(ceiling {100 * MAX_DISABLED_OVERHEAD:.0f} %)",
    ]
    rendering = "\n".join(lines)
    (results_dir / "bench_observatory.txt").write_text(rendering + "\n")
    print(f"\n{rendering}")


@pytest.mark.benchmark(group="observatory")
def test_ledger_serve_beats_recompute_c432(
    benchmark, results_dir, tmp_path, monkeypatch
):
    monkeypatch.setenv(knobs.CACHE.env, str(tmp_path / "ledger"))
    runcache._LEDGERS.clear()
    scale = dataclasses.replace(get_scale("ci"), cache=True)

    def compute():
        campaigns.clear_campaign_caches()
        t0 = time.perf_counter()
        result = campaigns.stuck_at_campaign("c432", scale)
        return result, time.perf_counter() - t0

    computed, t_compute = benchmark.pedantic(compute, rounds=1, iterations=1)
    assert computed.from_cache is False

    campaigns.clear_campaign_caches()
    t0 = time.perf_counter()
    served = campaigns.stuck_at_campaign("c432", scale)
    t_serve = time.perf_counter() - t0

    assert served.from_cache is True
    assert served == computed
    assert t_serve < t_compute, (
        f"ledger serve ({t_serve:.3f} s) is not faster than recompute "
        f"({t_compute:.3f} s)"
    )

    speedup = t_compute / t_serve if t_serve > 0 else float("inf")
    BENCH_EXTRA.update(
        serve_seconds=t_serve,
        compute_seconds=t_compute,
        serve_speedup=speedup,
    )
    runcache._LEDGERS.clear()
    lines = [
        f"c432 stuck-at campaign via ledger ({len(served.results)} faults)",
        f"compute + record                 {t_compute:8.3f} s",
        f"serve from ledger                {t_serve:8.3f} s",
        f"serve speedup                    {speedup:8.1f} x",
    ]
    rendering = "\n".join(lines)
    with open(results_dir / "bench_observatory.txt", "a") as fh:
        fh.write(rendering + "\n")
    print(f"\n{rendering}")
