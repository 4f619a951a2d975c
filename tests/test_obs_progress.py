"""Tests for campaign progress heartbeats.

The meter's contract: disabled (the default) returns the shared
stateless :data:`NULL_METER`; enabled, per-fault ticks are throttled
to one heartbeat per interval while chunk completions always emit;
heartbeats carry done/total, percentage, throughput, and ETA; and the
campaign paths feed it without changing any result.
"""

from __future__ import annotations

import logging

import pytest

from repro import knobs, obs
from repro.obs import progress as progress_mod


class FakeClock:
    """Deterministic monotonic clock; advance by hand."""

    def __init__(self) -> None:
        self.now = 100.0

    def __call__(self) -> float:
        return self.now


@pytest.fixture
def enabled_progress():
    was = progress_mod.progress_enabled()
    progress_mod.enable_progress()
    yield
    if not was:
        progress_mod.disable_progress()


class _ListHandler(logging.Handler):
    def __init__(self) -> None:
        super().__init__()
        self.records: list[logging.LogRecord] = []

    def emit(self, record: logging.LogRecord) -> None:
        self.records.append(record)


@pytest.fixture
def heartbeats():
    """Capture ``repro.progress`` records directly — the ``repro`` root
    logger stops propagation, so caplog alone would miss them."""
    handler = _ListHandler()
    logger = logging.getLogger("repro.progress")
    prev_level = logger.level
    logger.addHandler(handler)
    logger.setLevel(logging.INFO)
    try:
        yield lambda: [r.getMessage() for r in handler.records]
    finally:
        logger.removeHandler(handler)
        logger.setLevel(prev_level)


# ----------------------------------------------------------------------
# Disabled path
# ----------------------------------------------------------------------
def test_disabled_meter_is_the_shared_null_singleton(heartbeats):
    was = progress_mod.progress_enabled()
    progress_mod.disable_progress()
    try:
        first = obs.meter(100, label="c432 stuck-at")
        second = obs.meter(7)
        assert first is obs.NULL_METER and second is obs.NULL_METER
        assert not first.enabled
        first.update(10)
        first.chunk_done(index=0, faults=10, seconds=0.5)
        first.finish()
        assert heartbeats() == []
    finally:
        if was:
            progress_mod.enable_progress()


def test_null_meter_is_stateless():
    assert not hasattr(obs.NULL_METER, "__dict__")
    obs.NULL_METER.update(5)
    assert not hasattr(obs.NULL_METER, "done")


@pytest.mark.parametrize(
    ("value", "expect"),
    [("", False), ("0", False), ("off", False), ("no", False),
     ("1", True), ("true", True), ("yes", True)],
)
def test_env_enabled_parsing(value, expect):
    assert knobs.PROGRESS.read({"REPRO_PROGRESS": value}) is expect
    assert knobs.PROGRESS.read({}) is False


def test_enable_disable_roundtrip():
    was = progress_mod.progress_enabled()
    try:
        progress_mod.enable_progress()
        assert progress_mod.progress_enabled()
        assert isinstance(obs.meter(10), progress_mod.ProgressMeter)
        progress_mod.disable_progress()
        assert not progress_mod.progress_enabled()
        assert obs.meter(10) is obs.NULL_METER
    finally:
        (progress_mod.enable_progress if was
         else progress_mod.disable_progress)()


# ----------------------------------------------------------------------
# Heartbeat content & throttling
# ----------------------------------------------------------------------
def test_heartbeat_reports_progress_rate_and_eta(heartbeats):
    clock = FakeClock()
    meter = progress_mod.ProgressMeter(
        200, label="c432 stuck-at", clock=clock
    )
    clock.now += 2.0
    meter.update(100)  # 100 faults in 2 s → 50 f/s, 100 left → eta 2 s
    (message,) = heartbeats()
    assert message == (
        "c432 stuck-at: 100/200 faults (50.0%), 50.0 faults/s, eta 2.0s"
    )


def test_per_fault_ticks_are_throttled_to_the_interval(heartbeats):
    clock = FakeClock()
    meter = progress_mod.ProgressMeter(
        1000, label="run", min_interval=1.0, clock=clock
    )
    for _ in range(100):
        clock.now += 0.001  # 100 ticks in 0.1 s — far below the interval
        meter.update(1)
    assert len(heartbeats()) <= 1  # at most the first tick emitted
    clock.now += 1.0
    meter.update(1)
    assert heartbeats()[-1].startswith("run: ")
    # Counting is exact even when emission is throttled.
    assert meter.done == 101


def test_chunk_done_always_emits_with_chunk_rate(heartbeats):
    clock = FakeClock()
    meter = progress_mod.ProgressMeter(
        128, label="c432 stuck-at x2 workers", clock=clock
    )
    clock.now += 0.1
    meter.chunk_done(index=3, faults=16, seconds=0.25)
    clock.now += 0.1
    meter.chunk_done(index=0, faults=16, seconds=0.5)
    messages = heartbeats()
    assert len(messages) == 2  # no throttle on chunk completions
    assert "[chunk 3: 16 faults @ 64.0 f/s]" in messages[0]
    assert "32/128 faults (25.0%)" in messages[1]
    assert "[chunk 0: 16 faults @ 32.0 f/s]" in messages[1]


def test_zero_second_chunk_omits_the_rate(heartbeats):
    """Regression: an instantaneous chunk (cached results, coarse clock)
    used to divide by zero computing the chunk throughput."""
    clock = FakeClock()
    meter = progress_mod.ProgressMeter(32, label="fast", clock=clock)
    clock.now += 0.1
    meter.chunk_done(index=0, faults=16, seconds=0.0)
    meter.chunk_done(index=1, faults=16, seconds=-0.5)  # clock went back
    messages = heartbeats()
    assert len(messages) == 2
    assert "[chunk 0: 16 faults]" in messages[0]  # no "@ ... f/s"
    assert "f/s" not in messages[0].split("[", 1)[1]
    assert "[chunk 1: 16 faults]" in messages[1]
    assert meter.done == 32


def test_finish_forces_a_final_heartbeat(heartbeats):
    clock = FakeClock()
    meter = progress_mod.ProgressMeter(10, label="done", clock=clock)
    clock.now += 0.01
    meter.update(10)
    clock.now += 0.01
    meter.finish()
    assert "done: 10/10 faults (100.0%)" in heartbeats()[-1]


def test_zero_total_meter_reports_counts_only(heartbeats):
    clock = FakeClock()
    meter = progress_mod.ProgressMeter(0, label="stream", clock=clock)
    clock.now += 1.0
    meter.update(5)
    (message,) = heartbeats()
    assert message == "stream: 5 faults, 5.0 faults/s"
    assert "eta" not in message


# ----------------------------------------------------------------------
# Campaign integration: heartbeats flow, results unchanged
# ----------------------------------------------------------------------
def test_serial_campaign_heartbeats_and_results_unchanged(
    enabled_progress, heartbeats
):
    from repro.benchcircuits import get_circuit
    from repro.experiments import campaigns
    from repro.experiments.config import get_scale
    from repro.faults.stuck_at import collapsed_checkpoint_faults

    circuit = get_circuit("c17")
    faults = collapsed_checkpoint_faults(circuit)
    scale = get_scale("ci")
    campaigns.clear_campaign_caches()
    try:
        with_progress = campaigns._run(
            circuit, "c17", scale, faults, bridging=False
        )
        messages = heartbeats()
        assert messages, "enabled progress produced no heartbeats"
        assert any(
            f"{len(faults)}/{len(faults)} faults (100.0%)" in m
            for m in messages
        )
        progress_mod.disable_progress()
        campaigns.clear_campaign_caches()
        silent = campaigns._run(circuit, "c17", scale, faults, bridging=False)
    finally:
        campaigns.clear_campaign_caches()
    assert with_progress.results == silent.results
