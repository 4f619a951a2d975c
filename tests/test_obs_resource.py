"""Resource sampler: probes, series round trip, and the null path."""

from __future__ import annotations

import pytest

from repro import knobs
from repro.obs import resource


@pytest.fixture
def fake_clock():
    class Clock:
        now = 100.0

        def __call__(self) -> float:
            return self.now

    return Clock()


@pytest.fixture
def probe(request):
    calls = {"n": 0}

    def _probe():
        calls["n"] += 1
        return {"widgets": 10 * calls["n"]}

    resource.register_probe("testprobe", _probe)
    request.addfinalizer(lambda: resource.unregister_probe("testprobe"))
    return calls


def test_sample_contains_rss_and_probe_fields(fake_clock, probe):
    sampler = resource.ResourceSampler(clock=fake_clock)
    sample = sampler.sample_once()
    assert sample["t"] == 0.0
    assert sample["rss_bytes"] > 0
    assert sample["testprobe.widgets"] == 10


def test_series_round_trip_through_summary(fake_clock, probe):
    sampler = resource.ResourceSampler(interval=0.5, clock=fake_clock)
    for dt in (0.0, 0.5, 1.0):
        fake_clock.now = 100.0 + dt
        sampler.sample_once()
    fake_clock.now = 101.5
    series = resource.ResourceSeries(
        interval=0.5, samples=tuple(sampler._samples)
    )
    # other probes (e.g. the bdd one) may be registered process-wide;
    # only this test's fields need pinning
    assert {"rss_bytes", "testprobe.widgets"} <= set(series.fields())
    assert series.peak("testprobe.widgets") == 30
    assert series.series("testprobe.widgets") == [
        (0.0, 10),
        (0.5, 20),
        (1.0, 30),
    ]
    summary = series.summary()
    assert summary["schema"] == "repro.resource-series/1"
    assert summary["num_samples"] == 3
    assert summary["duration_seconds"] == 1.0
    assert summary["peaks"]["testprobe.widgets"] == 30
    rebuilt = resource.ResourceSeries.from_summary(summary)
    assert rebuilt.samples == series.samples
    assert rebuilt.interval == 0.5


def test_raising_probe_skips_only_its_fields(fake_clock):
    def bad():
        raise RuntimeError("probe exploded")

    resource.register_probe("bad", bad)
    try:
        sample = resource.ResourceSampler(clock=fake_clock).sample_once()
        assert "rss_bytes" in sample  # the run survives
        assert not any(k.startswith("bad.") for k in sample)
    finally:
        resource.unregister_probe("bad")


def test_bdd_probe_reports_manager_footprint():
    import repro.bdd.manager as manager_mod

    assert "bdd" in resource.probe_names()
    manager = manager_mod.BDDManager(["a", "b"])
    a, b = manager.var("a"), manager.var("b")
    manager.apply_and(a, b)
    fields = resource._PROBES["bdd"]()
    assert fields["live_nodes"] >= 2
    assert fields["allocated_nodes"] >= fields["live_nodes"] >= 0


def test_thread_lifecycle_collects_anchor_and_endpoint():
    sampler = resource.ResourceSampler(interval=0.005)
    sampler.start()
    series = sampler.stop()
    # t=0 anchor + closing sample, regardless of thread timing
    assert len(series.samples) >= 2
    assert series.samples[0]["t"] == pytest.approx(0.0, abs=0.05)
    assert bool(series)
    # stop is idempotent and start can rerun
    sampler.start()
    assert sampler.stop()


def test_null_sampler_is_shared_and_inert():
    assert resource.NULL_SAMPLER.start() is resource.NULL_SAMPLER
    assert resource.NULL_SAMPLER.stop() is resource.EMPTY_SERIES
    assert not resource.EMPTY_SERIES
    assert resource.EMPTY_SERIES.fields() == []
    with resource.NULL_SAMPLER as sampler:
        sampler.sample_once()


def test_module_switch(monkeypatch):
    monkeypatch.setattr(resource, "_enabled", False)
    assert resource.resource_sampler() is resource.NULL_SAMPLER
    resource.enable_resource()
    try:
        sampler = resource.resource_sampler(interval=0.5)
        assert isinstance(sampler, resource.ResourceSampler)
        assert sampler.interval == 0.5
    finally:
        resource.disable_resource()
    assert resource.resource_sampler() is resource.NULL_SAMPLER


@pytest.mark.parametrize(
    "raw,enabled",
    [("", False), ("0", False), ("off", False), ("1", True), ("0.25", True)],
)
def test_env_enabled(raw, enabled):
    assert knobs.RESOURCE.read({"REPRO_RESOURCE": raw}) is enabled


def test_env_interval():
    assert resource.sample_interval("0.25") == 0.25
    assert resource.sample_interval("1") == 1.0
    assert resource.sample_interval("yes") == resource.DEFAULT_INTERVAL
    # the busy-loop guard
    assert resource.sample_interval("0.0000001") == resource.MIN_INTERVAL


def test_campaign_attaches_series_when_enabled(monkeypatch):
    from repro.experiments.campaigns import (
        clear_campaign_caches,
        stuck_at_campaign,
    )
    from repro.experiments.config import get_scale

    monkeypatch.setattr(resource, "_enabled", True)
    clear_campaign_caches()
    try:
        result = stuck_at_campaign("c17", get_scale("ci"))
    finally:
        clear_campaign_caches()
    assert result.resources
    assert "rss_bytes" in result.resources.fields()
    assert result.resources.peak("rss_bytes") > 0
