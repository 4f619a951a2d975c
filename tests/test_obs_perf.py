"""Tests for the bench-trajectory regression sentinel.

The sentinel's contract: trajectories are append-only JSONL keyed by
the manifest's (scale, engine, seed); the baseline is the median of
the comparable window with a MAD-widened relative tolerance; a ≥20 %
slowdown on a time-like metric fails the check while ≤tolerance jitter
passes; benches without comparable history seed quietly instead of
failing; and the markdown dashboard renders every stored bench.
"""

from __future__ import annotations

import json

import pytest

from repro.obs import __main__ as obs_cli
from repro.obs import perf
from repro.obs.bench import write_bench_artifact
from repro.obs.manifest import RunManifest


def _entry(
    bench: str = "bitparallel",
    seconds: float = 1.0,
    speedup: float = 4.0,
    key: dict | None = None,
) -> dict:
    return {
        "schema": perf.SCHEMA,
        "bench": bench,
        "recorded_utc": "2026-08-08T00:00:00Z",
        "metrics": {
            "batch_seconds": seconds,
            "kernel_speedup": speedup,
            "faults": 464.0,
        },
        "key": key or {"scale": "ci", "engine": "dp", "seed": 0},
        "provenance": {
            "git_sha": "deadbeef",
            "python": "3.12",
            "numpy": "2.4.6",
            "hostname": "ci",
        },
    }


# ----------------------------------------------------------------------
# Direction inference & entry projection
# ----------------------------------------------------------------------
@pytest.mark.parametrize(
    ("metric", "direction"),
    [
        ("serial_seconds", "down"),
        ("campaign_wall_seconds", "down"),
        ("parallel_speedup", "up"),
        ("kernel_throughput", "up"),
        ("faults_per_second", "up"),
        ("faults", None),
        ("peak_live_nodes", None),
    ],
)
def test_gated_direction(metric, direction):
    assert perf.gated_direction(metric) == direction


def test_entry_from_artifact_projects_numeric_payload():
    document = {
        "schema": "repro.bench/1",
        "name": "gc",
        "payload": {
            "gc_seconds": 2.5,
            "gc_sweeps": 7,
            "exact": True,  # bools are not metrics
            "note": "prose",  # strings are not metrics
            "metrics": {"nested": 1},  # nested snapshots stay behind
        },
        "manifest": {
            "scale": "ci",
            "engine": "dp",
            "seed": 0,
            "git_sha": "abc123",
            "python": "3.12.1",
            "numpy": "2.4.6",
            "hostname": "box",
            "created_utc": "2026-08-08T12:00:00Z",
        },
    }
    entry = perf.entry_from_artifact(document)
    assert entry["bench"] == "gc"
    assert entry["metrics"] == {"gc_seconds": 2.5, "gc_sweeps": 7.0}
    assert entry["key"] == {"scale": "ci", "engine": "dp", "seed": 0}
    assert entry["provenance"]["git_sha"] == "abc123"
    assert entry["recorded_utc"] == "2026-08-08T12:00:00Z"


def test_trajectory_append_and_load_roundtrip(tmp_path):
    history = tmp_path / "history"
    first = _entry(seconds=1.0)
    second = _entry(seconds=1.1)
    path = perf.append_entry(history, first)
    assert perf.append_entry(history, second) == path
    assert path == perf.trajectory_path(history, "bitparallel")
    # Append-only: two JSONL lines, in insertion order.
    assert len(path.read_text().splitlines()) == 2
    assert perf.load_trajectory(path) == [first, second]
    assert perf.load_trajectory(history / "missing.jsonl") == []


def test_comparable_keys_partition_history():
    ci = _entry(key={"scale": "ci", "engine": "dp", "seed": 0})
    paper = _entry(key={"scale": "paper", "engine": "dp", "seed": 0})
    bitp = _entry(key={"scale": "ci", "engine": "bitparallel", "seed": 0})
    assert perf.comparable(ci, ci)
    assert not perf.comparable(ci, paper)
    assert not perf.comparable(ci, bitp)


# ----------------------------------------------------------------------
# Robust thresholds
# ----------------------------------------------------------------------
def test_robust_baseline_ignores_one_outlier():
    values = [1.0, 1.02, 0.98, 1.01, 50.0]
    median, scaled_mad = perf.robust_baseline(values)
    assert median == pytest.approx(1.0, abs=0.02)
    assert scaled_mad < 0.1  # the outlier widened nothing catastrophic


def test_tolerance_has_a_relative_floor():
    assert perf.tolerance(1.0, 0.0) == perf.REL_FLOOR
    assert perf.tolerance(0.0, 0.0) == perf.REL_FLOOR
    # Noisy history widens the band beyond the floor: 3·MAD/median.
    assert perf.tolerance(1.0, 0.1) == pytest.approx(0.3)


def test_zero_median_tolerance_never_divides():
    """Regression: a baseline window of all zeros used to reach
    ``MAD_K * scaled_mad / 0`` — any nonzero MAD raised
    ZeroDivisionError inside the gate."""
    assert perf.tolerance(0.0, 0.5) == perf.REL_FLOOR


def test_all_zero_baseline_never_gates():
    """Regression: a degenerate all-zero history (e.g. a timing-disabled
    run recorded 0.0 seconds) must not flag the first real measurement
    as an infinite regression — the fresh value seeds the trajectory."""
    history = [_entry(seconds=0.0) for _ in range(8)]
    findings = perf.check_entry(_entry(seconds=1.25), history)
    by_metric = {f.metric: f for f in findings}
    zeroed = by_metric["batch_seconds"]
    assert zeroed.baseline == 0.0
    assert not zeroed.regressed
    assert "ok" in zeroed.render()


# ----------------------------------------------------------------------
# check_entry: the regression gate itself
# ----------------------------------------------------------------------
def _history(n: int = 8, seconds: float = 1.0) -> list[dict]:
    # Tiny deterministic jitter (±2 %) around the nominal value.
    return [
        _entry(seconds=seconds * (1 + 0.02 * (-1) ** i), speedup=4.0)
        for i in range(n)
    ]


def test_injected_20pct_slowdown_is_flagged():
    findings = perf.check_entry(_entry(seconds=1.25), _history())
    by_metric = {f.metric: f for f in findings}
    slow = by_metric["batch_seconds"]
    assert slow.direction == "down"
    assert slow.delta == pytest.approx(0.25, abs=0.03)
    assert slow.regressed
    assert "REGRESSION" in slow.render()
    # The ungated count metric produced no finding at all.
    assert "faults" not in by_metric


def test_within_tolerance_jitter_is_not_flagged():
    findings = perf.check_entry(_entry(seconds=1.05), _history())
    assert findings  # it was gated...
    assert not any(f.regressed for f in findings)  # ...and passed


def test_speedup_regression_direction_is_downward():
    ok = perf.check_entry(_entry(speedup=3.8), _history())
    assert not any(f.regressed for f in ok)
    findings = perf.check_entry(_entry(speedup=2.0), _history())
    drop = {f.metric: f for f in findings}["kernel_speedup"]
    assert drop.direction == "up" and drop.regressed


def test_noisy_history_widens_the_band():
    # ±20 % historical scatter: a 25 % excursion is indistinguishable
    # from that noise, so the MAD term must absorb it.
    noisy = [
        _entry(seconds=1.0 * (1 + 0.20 * (-1) ** i)) for i in range(10)
    ]
    findings = perf.check_entry(_entry(seconds=1.25), noisy)
    slow = {f.metric: f for f in findings}["batch_seconds"]
    assert slow.tolerance > perf.REL_FLOOR
    assert not slow.regressed


def test_incomparable_history_is_ignored():
    history = [
        _entry(seconds=1.0, key={"scale": "paper", "engine": "dp", "seed": 0})
    ]
    assert perf.check_entry(_entry(seconds=9.9), history) == []


def test_baseline_window_uses_newest_entries():
    old = [_entry(seconds=10.0) for _ in range(5)]
    recent = [_entry(seconds=1.0) for _ in range(perf.BASELINE_WINDOW)]
    findings = perf.check_entry(_entry(seconds=1.0), old + recent)
    base = {f.metric: f for f in findings}["batch_seconds"]
    assert base.baseline == pytest.approx(1.0)
    assert base.samples == perf.BASELINE_WINDOW


# ----------------------------------------------------------------------
# Directory-level record / check / report (the CLI surface)
# ----------------------------------------------------------------------
def _write_artifact(results_dir, seconds: float) -> None:
    manifest = RunManifest.collect(engine="dp")
    write_bench_artifact(
        results_dir,
        "kernel",
        {"batch_seconds": seconds, "faults": 464},
        manifest=manifest,
    )


def test_record_then_check_passes_then_fails_on_regression(tmp_path):
    results = tmp_path / "results"
    history = tmp_path / "history"

    # Seed the trajectory from three fresh recordings.
    for seconds in (1.00, 1.02, 0.99):
        _write_artifact(results, seconds)
        paths = perf.record(results, history)
        assert paths == [perf.trajectory_path(history, "kernel")]

    # Fresh run at baseline speed: green.
    _write_artifact(results, 1.01)
    findings, notes = perf.check(results, history)
    assert notes == []
    assert findings and not any(f.regressed for f in findings)
    assert obs_cli.main(
        ["perf", "check", "--results", str(results), "--history", str(history)]
    ) == 0

    # Inject a 30 % slowdown: the check (and the CLI) must fail.
    _write_artifact(results, 1.30)
    findings, _ = perf.check(results, history)
    assert any(f.regressed for f in findings)
    assert obs_cli.main(
        ["perf", "check", "--results", str(results), "--history", str(history)]
    ) == 1


def test_recording_the_same_artifacts_twice_keeps_one_entry(tmp_path):
    results = tmp_path / "results"
    history = tmp_path / "history"
    _write_artifact(results, 1.0)
    perf.record(results, history)
    [path] = perf.record(results, history)
    assert len(perf.load_trajectory(path)) == 1
    _write_artifact(results, 1.1)  # a fresh run still appends
    perf.record(results, history)
    assert len(perf.load_trajectory(path)) == 2


def test_check_with_no_baseline_notes_instead_of_failing(tmp_path):
    results = tmp_path / "results"
    _write_artifact(results, 1.0)
    findings, notes = perf.check(results, tmp_path / "history")
    assert findings == []
    assert any("no comparable baseline" in note for note in notes)
    # A brand-new bench must be able to seed its own trajectory.
    assert obs_cli.main(
        ["perf", "check", "--results", str(results),
         "--history", str(tmp_path / "history")]
    ) == 0


def test_check_with_no_artifacts_notes(tmp_path):
    findings, notes = perf.check(tmp_path / "empty")
    assert findings == []
    assert any("no BENCH_" in note for note in notes)


def test_report_renders_markdown_dashboard(tmp_path):
    history = tmp_path / "history"
    for seconds in (1.0, 1.02, 0.98, 1.25):
        perf.append_entry(history, _entry(seconds=seconds))
    text = perf.report(history)
    assert text.startswith("# Benchmark trajectory")
    assert "## bitparallel" in text
    assert "| `batch_seconds` |" in text
    assert "lower-better" in text and "higher-better" in text
    assert "4 runs recorded" in text
    # The latest (1.25 s) run sits ~25 % above the 1.0 s baseline.
    assert "+25.0%" in text


def test_report_on_empty_store(tmp_path):
    text = perf.report(tmp_path / "nohistory")
    assert "_no trajectories under" in text


def test_recorded_entries_are_valid_json_lines(tmp_path):
    history = tmp_path / "history"
    perf.append_entry(history, _entry())
    line = perf.trajectory_path(history, "bitparallel").read_text().strip()
    parsed = json.loads(line)
    assert parsed["schema"] == perf.SCHEMA
    assert parsed["key"] == {"scale": "ci", "engine": "dp", "seed": 0}
