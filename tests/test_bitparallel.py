"""Bit-parallel kernel: engine routing, campaign parity, metrics.

The packing/batching property suite lives in
``tests/test_bitparallel_packing.py``; the engine's bit-exactness
against the committed truth is in ``tests/test_golden_detectability.py``.
This module covers the wiring *around* the kernel: the
``Scale.engine`` / ``$REPRO_ENGINE`` routing, campaign-cache keying,
dp-vs-bitparallel campaign parity on an exhaustive circuit, the
sampled Monte-Carlo path beyond the exhaustive frontier, and the
words-simulated / batch telemetry the obs layer exports.
"""

from __future__ import annotations

import pytest

pytest.importorskip("numpy")

from repro.benchcircuits import get_circuit  # noqa: E402
from repro.experiments import campaigns  # noqa: E402
from repro import knobs  # noqa: E402
from repro.experiments.config import CAMPAIGN_ENGINES, get_scale  # noqa: E402
from repro.faults.bridging import BridgeKind  # noqa: E402


@pytest.fixture(autouse=True)
def _fresh_caches():
    campaigns.clear_campaign_caches()
    yield
    campaigns.clear_campaign_caches()


SCALE = get_scale("ci")


# ----------------------------------------------------------------------
# Engine routing
# ----------------------------------------------------------------------
def test_campaign_engines_roster():
    assert CAMPAIGN_ENGINES == ("dp", "bitparallel")


def test_env_engine_defaults_to_dp(monkeypatch):
    monkeypatch.delenv("REPRO_ENGINE", raising=False)
    assert knobs.ENGINE.read() == "dp"
    monkeypatch.setenv("REPRO_ENGINE", "  ")
    assert knobs.ENGINE.read() == "dp"


def test_env_engine_reads_environment(monkeypatch):
    monkeypatch.setenv("REPRO_ENGINE", "bitparallel")
    assert knobs.ENGINE.read() == "bitparallel"


def test_env_engine_rejects_unknown(monkeypatch):
    monkeypatch.setenv("REPRO_ENGINE", "quantum")
    with pytest.raises(KeyError, match="REPRO_ENGINE"):
        knobs.ENGINE.read()


def test_scale_engine_field_wins_over_environment(monkeypatch):
    import dataclasses

    monkeypatch.setenv("REPRO_ENGINE", "bitparallel")
    assert SCALE.effective_engine() == "bitparallel"
    pinned = dataclasses.replace(SCALE, engine="dp")
    assert pinned.effective_engine() == "dp"


def test_campaign_rejects_unknown_engine():
    with pytest.raises(KeyError):
        campaigns.stuck_at_campaign("c17", SCALE, engine="quantum")


def test_experiments_cli_accepts_engine_flag(capsys):
    from repro.experiments.cli import main

    assert main(["--engine", "bitparallel", "--list"]) == 0
    assert "fig" in capsys.readouterr().out


def test_verify_cli_rejects_unknown_env_engine(monkeypatch):
    from repro.verify.__main__ import main

    monkeypatch.setenv("REPRO_ENGINE", "quantum")
    with pytest.raises(SystemExit):
        main(["--circuits", "c17"])


# ----------------------------------------------------------------------
# Campaign parity and caching
# ----------------------------------------------------------------------
def test_campaign_cache_keys_engines_separately(monkeypatch):
    monkeypatch.delenv("REPRO_ENGINE", raising=False)
    dp = campaigns.stuck_at_campaign("c17", SCALE, engine="dp")
    bp = campaigns.stuck_at_campaign("c17", SCALE, engine="bitparallel")
    assert dp is not bp
    assert dp.chunk_stats[0].words_simulated == 0
    assert bp.chunk_stats[0].words_simulated > 0
    # cache hit returns the same object per engine
    assert campaigns.stuck_at_campaign("c17", SCALE, engine="dp") is dp
    assert (
        campaigns.stuck_at_campaign("c17", SCALE, engine="bitparallel")
        is bp
    )


@pytest.mark.parametrize("kind", [None, BridgeKind.AND])
def test_bitparallel_campaign_matches_dp_exactly(kind):
    """Inside the exhaustive frontier the kernel is a drop-in: every
    scalar record — detectability, bound, PO set — is identical."""
    if kind is None:
        dp = campaigns.stuck_at_campaign("c95", SCALE, engine="dp")
        bp = campaigns.stuck_at_campaign(
            "c95", SCALE, engine="bitparallel"
        )
    else:
        dp = campaigns.bridging_campaign("c95", kind, SCALE, engine="dp")
        bp = campaigns.bridging_campaign(
            "c95", kind, SCALE, engine="bitparallel"
        )
    assert bp.exact and dp.exact
    assert len(bp.results) == len(dp.results)
    for ours, ref in zip(bp.results, dp.results):
        assert ours.fault == ref.fault
        assert ours.detectability == ref.detectability
        assert ours.upper_bound == ref.upper_bound
        assert ours.observable_pos == ref.observable_pos


def test_sampled_campaign_beyond_exhaustive_frontier():
    """c432 (36 inputs) runs the Monte-Carlo path: inexact, every
    fault covered, detectabilities normalized over the sample size."""
    result = campaigns.stuck_at_campaign("c432", SCALE, engine="bitparallel")
    circuit = get_circuit("c432")
    assert circuit.num_inputs > campaigns.BITPARALLEL_EXHAUSTIVE_LIMIT
    assert not result.exact
    assert len(result.results) > 400
    for record in result.results:
        assert (
            record.detectability.denominator
            <= campaigns.BITPARALLEL_SAMPLE_VECTORS
        )
        assert 0 <= record.detectability <= 1
        assert record.stuck_at_equivalent is None


def test_bitparallel_campaign_exports_kernel_telemetry():
    result = campaigns.stuck_at_campaign("c95", SCALE, engine="bitparallel")
    stats = result.chunk_stats
    assert stats
    total_words = sum(stat.words_simulated for stat in stats)
    total_batches = sum(stat.batches for stat in stats)
    assert total_words > 0
    assert total_batches >= 1
    for stat in stats:
        assert stat.batch_size > 0
        registry = stat.to_metrics()
        assert (
            registry.counter_value("sim.words_simulated")
            == stat.words_simulated
        )
        assert registry.counter_value("sim.batches") == stat.batches
        assert registry.gauge_value("sim.batch_size") == stat.batch_size


def test_dp_campaign_reports_no_kernel_telemetry():
    result = campaigns.stuck_at_campaign("c95", SCALE, engine="dp")
    for stat in result.chunk_stats:
        assert stat.words_simulated == 0
        assert stat.batches == 0


def test_telemetry_report_names_the_engine():
    campaigns.stuck_at_campaign("c95", SCALE, engine="bitparallel")
    lines = campaigns.telemetry_report()
    assert any("bitparallel" in line for line in lines)
