"""Acceptance tests for the content-addressed campaign run-cache.

The contract under test (the PR's headline acceptance criterion): a
re-run of a full c432 stuck-at campaign with the cache on is **served
from the ledger with zero fault simulations** — every ``sim.*`` and
``bdd.*`` counter flat at zero, ``campaign.cache_hit`` pinned to 1 —
and the served detectabilities are *equal* (exact Fractions, so
byte-identical rendered figures), not merely close.
"""

from __future__ import annotations

import dataclasses

import pytest

from repro.experiments import runcache
from repro.experiments.campaigns import (
    bridging_campaign,
    clear_campaign_caches,
    stuck_at_campaign,
)
from repro.experiments.config import get_scale
from repro.faults.bridging import BridgeKind
from repro import knobs
from repro.obs import store


@pytest.fixture
def cached_scale(tmp_path, monkeypatch):
    """A ci-scale with the ledger rooted in this test's tmp dir."""
    monkeypatch.setenv(knobs.CACHE.env, str(tmp_path / "ledger"))
    runcache._LEDGERS.clear()
    clear_campaign_caches()
    yield dataclasses.replace(get_scale("ci"), cache=True)
    clear_campaign_caches()
    runcache._LEDGERS.clear()


def _work_counters(result) -> dict[str, float]:
    """Every simulation/BDD work counter of a campaign's metrics."""
    counters = result.metrics().snapshot()["counters"]
    return {
        name: value
        for name, value in counters.items()
        if name.startswith(("sim.", "bdd."))
    }


# ----------------------------------------------------------------------
# The acceptance criterion: c432 full stuck-at served with zero work
# ----------------------------------------------------------------------
@pytest.mark.parametrize("engine", ["bitparallel", "dp"])
def test_c432_second_run_is_served_with_zero_simulation(
    cached_scale, engine
):
    scale = dataclasses.replace(cached_scale, engine=engine)
    computed = stuck_at_campaign("c432", scale)
    assert computed.from_cache is False
    assert computed.results, "campaign computed nothing"
    assert sum(_work_counters(computed).values()) > 0, (
        "computed run recorded no simulation work — counter wiring broke"
    )
    assert computed.metrics().counter_value("campaign.cache_hit") == 0

    clear_campaign_caches()  # drop the in-memory layer; ledger remains
    served = stuck_at_campaign("c432", scale)

    assert served.from_cache is True
    metrics = served.metrics()
    assert metrics.counter_value("campaign.cache_hit") == 1
    flat = _work_counters(served)
    assert all(value == 0 for value in flat.values()), (
        f"served run did simulation work: "
        f"{ {k: v for k, v in flat.items() if v} }"
    )
    assert served.total_seconds() == 0.0
    assert served.chunk_stats == ()

    # equal — exact Fractions, identical fault order, identical strata
    assert served == computed
    assert served.detectabilities() == computed.detectabilities()
    assert [r.fault for r in served.results] == [
        r.fault for r in computed.results
    ]


def test_bridging_campaign_round_trips_through_ledger(cached_scale):
    computed = bridging_campaign("c95", BridgeKind.AND, cached_scale)
    clear_campaign_caches()
    served = bridging_campaign("c95", BridgeKind.AND, cached_scale)
    assert served.from_cache and served == computed
    assert served.metrics().counter_value("campaign.cache_hit") == 1


def test_cache_stats_count_the_round_trip(cached_scale):
    stuck_at_campaign("c17", cached_scale)
    clear_campaign_caches()
    stuck_at_campaign("c17", cached_scale)
    stats = runcache.cache_stats()
    assert stats["puts"] >= 1 and stats["hits"] >= 1
    assert stats["corrupt"] == 0


# ----------------------------------------------------------------------
# The ledger never serves wrong data
# ----------------------------------------------------------------------
def test_corrupted_ledger_object_forces_recompute(cached_scale):
    computed = stuck_at_campaign("c17", cached_scale)
    clear_campaign_caches()

    ledger = runcache.ledger()
    [key] = ledger.keys()
    path = ledger.object_path(key)
    path.write_text(path.read_text().replace('"exact": true', '"exact": false'))

    recomputed = stuck_at_campaign("c17", cached_scale)
    assert recomputed.from_cache is False  # tamper detected → recompute
    assert recomputed == computed


def test_decode_garbage_body_forces_recompute(cached_scale):
    stuck_at_campaign("c17", cached_scale)
    clear_campaign_caches()

    ledger = runcache.ledger()
    [key] = ledger.keys()
    # valid object, valid hash, but a body the codec rejects
    ledger.put(key, {"schema": "not-a-campaign/1"})
    recomputed = stuck_at_campaign("c17", cached_scale)
    assert recomputed.from_cache is False
    assert recomputed.results


# ----------------------------------------------------------------------
# Projection semantics
# ----------------------------------------------------------------------
def test_projection_excludes_result_neutral_knobs(cached_scale):
    base = runcache.stuck_at_projection("c432", cached_scale, "dp")
    reworked = dataclasses.replace(cached_scale, workers=8, reorder=True)
    assert runcache.stuck_at_projection("c432", reworked, "dp") == base


def test_projection_includes_result_shaping_knobs(cached_scale):
    base = store.run_key(
        runcache.stuck_at_projection("c432", cached_scale, "dp")
    )
    for variant in (
        dataclasses.replace(cached_scale, seed=99),
        dataclasses.replace(
            cached_scale, stuck_at_samples={"c432": 3}
        ),
    ):
        key = store.run_key(
            runcache.stuck_at_projection("c432", variant, "dp")
        )
        assert key != base
    assert (
        store.run_key(
            runcache.stuck_at_projection("c432", cached_scale, "bitparallel")
        )
        != base
    )


def test_round_trip_equal_debug_helper(cached_scale):
    result = stuck_at_campaign("c17", cached_scale)
    assert runcache.round_trip_equal("c17", result)


# ----------------------------------------------------------------------
# The columnar codec, through the stored bytes
# ----------------------------------------------------------------------
def _through_ledger(tmp_path, name, result):
    """Encode, store, re-read and decode; returns (decoded, stored body)."""
    ledger = store.RunLedger(tmp_path / "codec")
    key = store.run_key({"codec": name, "n": len(result.results)})
    ledger.put(key, runcache.encode_result(name, result))
    body = ledger.get(key)
    assert body is not None
    return runcache.decode_result(body), body


def _assert_served_equal(decoded, computed):
    assert decoded.from_cache is True
    assert decoded == computed
    assert decoded.results == computed.results
    assert decoded.strata == computed.strata
    assert decoded.circuit.name == computed.circuit.name


def test_codec_round_trips_exact_stuck_at(tmp_path):
    scale = dataclasses.replace(get_scale("ci"), cache=False)
    computed = stuck_at_campaign("c17", scale)
    decoded, body = _through_ledger(tmp_path, "c17", computed)
    _assert_served_equal(decoded, computed)
    assert computed.exact and body["exact"] is True
    assert body["faults"]["model"] == "stuck-at"
    assert len(body["faults"]["net"]) == len(computed.results)
    for column in runcache.OPTIONAL_COLUMNS:
        assert body[column] is None, column  # exact: no optional field set


def test_codec_round_trips_bridging_with_stuck_at_equivalence(tmp_path):
    scale = dataclasses.replace(get_scale("ci"), cache=False, engine="dp")
    computed = bridging_campaign("c17", BridgeKind.OR, scale)
    assert all(r.stuck_at_equivalent is not None for r in computed.results)
    decoded, body = _through_ledger(tmp_path, "c17", computed)
    _assert_served_equal(decoded, computed)
    assert body["faults"]["model"] == "bridging"
    assert body["faults"]["kind"] == "OR"
    assert body["stuck_at_equivalent"] == [
        r.stuck_at_equivalent for r in computed.results
    ]


def test_codec_round_trips_sampled_ci_columns_and_strata(tmp_path):
    scale = dataclasses.replace(get_scale("ci"), cache=False)
    computed = stuck_at_campaign("c17", scale, mode="sampled")
    assert computed.strata and not computed.exact
    decoded, body = _through_ledger(tmp_path, "c17", computed)
    _assert_served_equal(decoded, computed)
    for column in ("ci_low", "ci_high", "patterns_spent", "stratum"):
        assert body[column] == [getattr(r, column) for r in computed.results]
    assert body["stuck_at_equivalent"] is None


def test_codec_round_trips_empty_campaign(tmp_path):
    from repro.benchcircuits import get_circuit
    from repro.experiments.campaigns import CampaignResult

    computed = CampaignResult(
        circuit=get_circuit("c17"), results=(), exact=True
    )
    decoded, body = _through_ledger(tmp_path, "c17", computed)
    _assert_served_equal(decoded, computed)
    assert decoded.results == ()


def test_record_skips_unsupported_fault_type_with_warning(
    cached_scale, monkeypatch
):
    computed = stuck_at_campaign("c17", dataclasses.replace(cached_scale, cache=False))
    odd = dataclasses.replace(
        computed,
        results=(dataclasses.replace(computed.results[0], fault=object()),),
    )
    warnings = []
    monkeypatch.setattr(
        runcache.log, "warning", lambda msg, *args: warnings.append(msg % args)
    )
    projection = runcache.stuck_at_projection("c17", cached_scale, "dp")
    assert runcache.record(projection, odd) is None
    assert len(warnings) == 1
    assert "could not record" in warnings[0] and "TypeError" in warnings[0]
    assert runcache.ledger().keys() == []


# ----------------------------------------------------------------------
# Switches
# ----------------------------------------------------------------------
def test_cache_off_touches_no_ledger(tmp_path, monkeypatch):
    monkeypatch.setenv(knobs.CACHE.env, str(tmp_path / "ledger"))
    runcache._LEDGERS.clear()
    clear_campaign_caches()
    scale = dataclasses.replace(get_scale("ci"), cache=False)
    result = stuck_at_campaign("c17", scale)
    assert result.from_cache is False
    assert not (tmp_path / "ledger").exists()
    clear_campaign_caches()


def test_scale_cache_flag_overrides_env(monkeypatch):
    monkeypatch.delenv(knobs.CACHE.env, raising=False)
    assert runcache.cache_enabled(
        dataclasses.replace(get_scale("ci"), cache=True)
    )
    monkeypatch.setenv(knobs.CACHE.env, "1")
    assert not runcache.cache_enabled(
        dataclasses.replace(get_scale("ci"), cache=False)
    )
