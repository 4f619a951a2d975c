"""Bench — sampled-mode campaign throughput and budget concentration.

Times the stratified, sequentially-stopped stuck-at campaign on C432
(the full 464-fault collapsed checkpoint set) and on the committed
external ``mult16.bench`` workload (32 inputs — past every built-in),
and records the statistical mode's two performance claims:

* **throughput** — the bit-parallel kernel under the sequential
  sampler sweeps hundreds of thousands of fault-patterns per second;
* **concentration** — the stopping rule retires easy faults in the
  first round, so the total patterns spent stay far below the
  ``faults x budget`` worst case.

Measured numbers publish into ``results/BENCH_sampling.json`` via
``BENCH_EXTRA`` (tracked by the perf-trajectory sentinel);
``bench_sampling.txt`` stays the human rendering.
"""

from __future__ import annotations

import dataclasses
import time
from pathlib import Path

import pytest

pytest.importorskip("numpy")

from repro.benchcircuits import get_circuit
from repro.experiments import campaigns
from repro.experiments.campaigns import stuck_at_campaign

MULT16 = Path(__file__).resolve().parent.parent / "tests" / "bench" / "mult16.bench"

#: Measured fields published into results/BENCH_sampling.json by the
#: shared conftest artifact fixture (filled at test time).
BENCH_EXTRA: dict = {}


@pytest.fixture(autouse=True)
def _isolated_campaign_state():
    campaigns.clear_campaign_caches()
    yield
    campaigns.clear_campaign_caches()


@pytest.mark.benchmark(group="sampled-campaigns")
def test_sampled_campaign_c432(benchmark, scale, results_dir):
    circuit = get_circuit("c432")

    def sampled_run():
        campaigns.clear_campaign_caches()
        return stuck_at_campaign("c432", scale, mode="sampled")

    sampled_run()  # warm: fault enumeration + numpy packing paths
    t0 = time.perf_counter()
    result = benchmark.pedantic(sampled_run, rounds=3, iterations=1)
    wall = time.perf_counter() - t0
    seconds = benchmark.stats["min"] if benchmark.stats else wall

    faults = len(result.results)
    spent = result.patterns_spent()
    budget = scale.effective_pattern_budget()
    throughput = spent / seconds if seconds else float("inf")
    resolved_first_round = sum(
        1
        for r in result.results
        if r.patterns_spent == min(256, budget)
    )
    widths = result.ci_width_summary()

    assert result.exact is False
    assert result.strata, "stratification plan missing"
    # Budget concentration: the sequential rule must spend well under
    # the every-fault-exhausts-the-budget worst case.
    assert spent < 0.5 * faults * budget, (
        f"stopping rule spent {spent} of {faults * budget} worst-case"
    )
    assert resolved_first_round >= faults // 2, (
        "most C432 checkpoint faults are easy; round 1 should retire them"
    )

    BENCH_EXTRA.update(
        circuit=circuit.name,
        faults=faults,
        sampled_seconds=seconds,
        patterns_spent=spent,
        pattern_budget=budget,
        patterns_per_second=throughput,
        budget_fraction_spent=spent / (faults * budget),
        resolved_first_round=resolved_first_round,
        ci_width_p95=widths.get("p95") or 0.0,
    )
    lines = [
        f"c432 sampled stuck-at campaign, {faults} faults, "
        f"budget {budget}/fault",
        f"wall        {seconds:10.3f} s",
        f"patterns    {spent:10d} "
        f"({100 * spent / (faults * budget):.1f}% of worst case)",
        f"throughput  {throughput:10.0f} patterns/s",
        f"round-1 retirements {resolved_first_round}/{faults}",
        f"ci width p95 {widths.get('p95') or 0.0:.4f}",
    ]
    rendering = "\n".join(lines)
    (results_dir / "bench_sampling.txt").write_text(rendering + "\n")
    print(f"\n{rendering}")


@pytest.mark.benchmark(group="sampled-campaigns")
def test_sampled_external_bench_mult16(benchmark, scale):
    """The external-roster seam at speed: a 1440-gate multiplier the
    exact engines never see completes its sampled campaign in seconds,
    with the OBDD path left cold."""
    from repro.sampling.roster import resolve_roster

    (entry,) = resolve_roster([str(MULT16)])
    workload = dataclasses.replace(scale, stuck_at_samples={entry: 48})

    def sampled_run():
        campaigns.clear_campaign_caches()
        return stuck_at_campaign(entry, workload, mode="sampled")

    result = benchmark.pedantic(sampled_run, rounds=1, iterations=1)
    assert campaigns._functions_cache == {}, "exact OBDD path was touched"
    assert len(result.results) == 48
    assert result.patterns_spent() > 0
    BENCH_EXTRA.update(
        mult16_faults=len(result.results),
        mult16_patterns_spent=result.patterns_spent(),
        mult16_seconds=result.total_seconds(),
    )
