"""Run manifests, bench artifacts, and the structured-logging setup."""

from __future__ import annotations

import json
import logging

import pytest

from repro import obs
from repro.obs import bench, manifest
from repro.obs.logging import configure_logging, get_logger


# ----------------------------------------------------------------------
# RunManifest
# ----------------------------------------------------------------------
class _ScaleLike:
    name = "smoke"
    seed = 7
    circuits = ("c17", "c95")


def test_collect_duck_types_the_scale():
    m = obs.RunManifest.collect(scale=_ScaleLike(), workers=4, wall_seconds=1.5)
    assert m.schema == manifest.SCHEMA
    assert m.scale == "smoke"
    assert m.seed == 7
    assert m.workers == 4
    assert m.circuits == ("c17", "c95")
    assert m.wall_seconds == 1.5
    assert m.python and m.platform and m.pid > 0


def test_collect_seed_falls_back_to_env(monkeypatch):
    monkeypatch.setenv("REPRO_SEED", "11")
    m = obs.RunManifest.collect()
    assert m.seed == 11
    assert m.env["REPRO_SEED"] == "11"
    monkeypatch.setenv("REPRO_SEED", "junk")
    assert obs.RunManifest.collect().seed == 0


def test_manifest_records_observability_env(monkeypatch):
    monkeypatch.setenv("REPRO_TRACE", "1")
    monkeypatch.setenv("REPRO_LOG", "debug")
    env = obs.RunManifest.collect().env
    assert env["REPRO_TRACE"] == "1"
    assert env["REPRO_LOG"] == "debug"


def test_manifest_write_roundtrip(tmp_path):
    m = obs.RunManifest.collect(scale=_ScaleLike(), command=("pytest",))
    path = m.write(tmp_path / "sub" / "manifest.json")
    loaded = json.loads(path.read_text())
    assert loaded["schema"] == manifest.SCHEMA
    assert loaded["scale"] == "smoke"
    assert loaded["command"] == ["pytest"]
    assert loaded == m.to_dict()


def test_git_sha_matches_head_in_this_checkout():
    sha = manifest.git_sha()
    if sha is None:
        pytest.skip("not running inside a git checkout")
    assert len(sha) == 40 and all(c in "0123456789abcdef" for c in sha)
    assert obs.RunManifest.collect().git_sha == sha


# ----------------------------------------------------------------------
# Bench artifacts
# ----------------------------------------------------------------------
def test_bench_artifact_roundtrip(tmp_path):
    from fractions import Fraction

    payload = {"wall_seconds": 1.25, "hit_rate": Fraction(3, 4)}
    path = obs.write_bench_artifact(tmp_path, "gc", payload)
    assert path == tmp_path / "BENCH_gc.json"
    doc = obs.read_bench_artifact(path)
    assert doc["name"] == "gc"
    assert doc["payload"] == {"wall_seconds": 1.25, "hit_rate": "3/4"}
    assert doc["manifest"]["schema"] == manifest.SCHEMA


def test_read_bench_artifact_rejects_malformed(tmp_path):
    bad = tmp_path / "BENCH_bad.json"
    bad.write_text(json.dumps({"schema": "something-else"}))
    with pytest.raises(ValueError, match="unexpected schema"):
        obs.read_bench_artifact(bad)
    truncated = tmp_path / "BENCH_trunc.json"
    truncated.write_text(json.dumps({"schema": bench.SCHEMA, "name": "x"}))
    with pytest.raises(ValueError, match="missing"):
        obs.read_bench_artifact(truncated)


# ----------------------------------------------------------------------
# Structured logging
# ----------------------------------------------------------------------
def test_env_level_parsing(monkeypatch):
    root = logging.getLogger("repro")
    before = root.level
    try:
        monkeypatch.delenv("REPRO_LOG", raising=False)
        assert configure_logging().level == logging.INFO
        for raw, level in (
            ("debug", logging.DEBUG),
            ("WARNING", logging.WARNING),
            ("nonsense", logging.INFO),
        ):
            monkeypatch.setenv("REPRO_LOG", raw)
            assert configure_logging().level == level
    finally:
        root.setLevel(before)


def test_configure_logging_is_idempotent():
    root = configure_logging(level="info")
    handlers = list(root.handlers)
    assert configure_logging(level="info") is root
    assert root.handlers == handlers  # no handler duplication
    assert root.name == "repro"
    assert not root.propagate


def test_loggers_live_under_the_repro_hierarchy(capsys):
    configure_logging(level="debug")
    log = get_logger("experiments")
    assert log.name == "repro.experiments"
    assert get_logger("repro.experiments") is log
    log.debug("campaign %s started", "c17")
    err = capsys.readouterr().err
    assert "repro.experiments" in err and "campaign c17 started" in err
    configure_logging(level="warning")
    log.info("suppressed")
    assert "suppressed" not in capsys.readouterr().err


# ----------------------------------------------------------------------
# Engine & numpy provenance (the perf-trajectory comparability key)
# ----------------------------------------------------------------------
def test_manifest_records_numpy_version():
    m = obs.RunManifest.collect()
    recorded = manifest.numpy_version()
    assert m.numpy == recorded
    if recorded is not None:
        import numpy

        assert recorded == numpy.__version__
    assert "numpy" in m.to_dict()


def test_manifest_engine_explicit_argument_wins(monkeypatch):
    monkeypatch.setenv("REPRO_ENGINE", "dp")
    m = obs.RunManifest.collect(engine="bitparallel")
    assert m.engine == "bitparallel"


def test_manifest_engine_resolves_through_the_scale(monkeypatch):
    from repro.experiments.config import get_scale

    monkeypatch.delenv("REPRO_ENGINE", raising=False)
    scale = get_scale("ci")
    m = obs.RunManifest.collect(scale=scale)
    assert m.engine == scale.effective_engine()
    monkeypatch.setenv("REPRO_ENGINE", "bitparallel")
    assert obs.RunManifest.collect(scale=scale).engine == "bitparallel"


def test_manifest_engine_falls_back_to_env(monkeypatch):
    monkeypatch.setenv("REPRO_ENGINE", "bitparallel")
    assert obs.RunManifest.collect().engine == "bitparallel"
    assert obs.RunManifest.collect().env["REPRO_ENGINE"] == "bitparallel"
    monkeypatch.delenv("REPRO_ENGINE", raising=False)
    assert obs.RunManifest.collect().engine is None


def test_manifest_progress_env_is_recorded(monkeypatch):
    monkeypatch.setenv("REPRO_PROGRESS", "1")
    assert obs.RunManifest.collect().env["REPRO_PROGRESS"] == "1"
