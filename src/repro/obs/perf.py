"""Bench-trajectory regression sentinel over ``BENCH_*.json`` artifacts.

The benchmark suite emits machine-readable artifacts but nothing
*tracked* them over time — a kernel regression would land silently.
This module keeps an **append-only trajectory store**,
``results/history/<bench>.jsonl``: one JSON entry per recorded
benchmark run, carrying the gated numeric metrics plus the manifest
key that decides comparability (scale, engine, seed — and, as
provenance, git SHA, python, numpy, hostname).

Three operations (all under ``python -m repro.obs perf``):

* ``record`` — append one trajectory entry per fresh artifact;
* ``check`` — compare fresh artifacts against the recorded baseline
  and exit nonzero on regression. The baseline is **robust**: the
  median of the comparable history window, with a relative tolerance
  of ``max(REL_FLOOR, MAD_K · MAD/median)`` (MAD scaled by 1.4826 to
  estimate σ), so a single noisy historical run widens the band
  instead of poisoning the midpoint;
* ``report`` — render the whole store as a markdown trajectory
  dashboard (per-bench latest values, deltas vs. baseline, run count).

Metric direction is inferred from the name: ``*seconds*`` metrics
regress *upward*, ``*speedup*``/``*throughput*``/``*_per_second``
metrics regress *downward*; anything else is recorded but never
gated.
"""

from __future__ import annotations

import json
import statistics
from dataclasses import dataclass
from pathlib import Path
from typing import Any, Iterable, Mapping

from repro.obs.bench import read_bench_artifact

SCHEMA = "repro.perf-entry/1"

#: Relative tolerance floor: deltas inside ±10 % are always jitter.
REL_FLOOR = 0.10

#: MAD multiplier (on the σ-scaled MAD) for the adaptive band.
MAD_K = 3.0

#: Newest comparable history entries the baseline median is taken over.
BASELINE_WINDOW = 20

#: Manifest fields that must match for two runs to be comparable.
COMPARABLE_FIELDS = ("scale", "engine", "seed")


def default_history_dir(results_dir: Path | str) -> Path:
    return Path(results_dir) / "history"


def trajectory_path(history_dir: Path | str, bench: str) -> Path:
    return Path(history_dir) / f"{bench}.jsonl"


# ----------------------------------------------------------------------
# Entries
# ----------------------------------------------------------------------
def gated_direction(metric: str) -> str | None:
    """``"down"`` (lower is better), ``"up"``, or ``None`` (ungated)."""
    lowered = metric.lower()
    if "seconds" in lowered:
        return "down"
    if (
        "speedup" in lowered
        or "throughput" in lowered
        or lowered.endswith("_per_second")
    ):
        return "up"
    return None


def entry_from_artifact(document: Mapping[str, Any]) -> dict[str, Any]:
    """Project one ``BENCH_*.json`` document onto a trajectory entry.

    Every numeric top-level payload field travels (nested metric
    snapshots stay in the artifact — the trajectory tracks headline
    numbers, not the full registry).
    """
    payload = document.get("payload", {})
    manifest = document.get("manifest", {})
    metrics = {
        name: float(value)
        for name, value in sorted(payload.items())
        if isinstance(value, (int, float)) and not isinstance(value, bool)
    }
    return {
        "schema": SCHEMA,
        "bench": document["name"],
        "recorded_utc": manifest.get("created_utc"),
        "metrics": metrics,
        "key": {name: manifest.get(name) for name in COMPARABLE_FIELDS},
        "provenance": {
            "git_sha": manifest.get("git_sha"),
            "python": manifest.get("python"),
            "numpy": manifest.get("numpy"),
            "hostname": manifest.get("hostname"),
        },
    }


def append_entry(history_dir: Path | str, entry: Mapping[str, Any]) -> Path:
    """Append one entry to the bench's trajectory (append-only).

    Idempotent: an entry equal to one already recorded is skipped, so
    recording the same artifacts twice leaves one entry each.
    """
    path = trajectory_path(history_dir, entry["bench"])
    line = json.dumps(entry, sort_keys=True)
    if json.loads(line) in load_trajectory(path):
        return path
    path.parent.mkdir(parents=True, exist_ok=True)
    with open(path, "a", encoding="utf-8") as fh:
        fh.write(line + "\n")
    return path


def load_trajectory(path: Path | str) -> list[dict]:
    """Read one trajectory file (missing file → empty history)."""
    path = Path(path)
    if not path.exists():
        return []
    entries = []
    for line in path.read_text(encoding="utf-8").splitlines():
        line = line.strip()
        if line:
            entries.append(json.loads(line))
    return entries


def comparable(entry: Mapping[str, Any], other: Mapping[str, Any]) -> bool:
    return entry.get("key") == other.get("key")


# ----------------------------------------------------------------------
# Robust thresholds
# ----------------------------------------------------------------------
def robust_baseline(values: list[float]) -> tuple[float, float]:
    """(median, σ-scaled MAD) of the history window."""
    median = statistics.median(values)
    mad = statistics.median(abs(v - median) for v in values)
    return median, 1.4826 * mad


def tolerance(median: float, scaled_mad: float) -> float:
    """Relative tolerance band around the baseline median.

    A zero median makes a *relative* band meaningless (any nonzero MAD
    would divide by zero); return the floor and let
    :attr:`Finding.regressed` refuse to gate against it.
    """
    if median == 0:
        return REL_FLOOR
    return max(REL_FLOOR, MAD_K * scaled_mad / abs(median))


@dataclass(frozen=True)
class Finding:
    """One (bench, metric) comparison against its baseline."""

    bench: str
    metric: str
    direction: str  # "down" | "up"
    fresh: float
    baseline: float
    samples: int
    tolerance: float  # relative band

    @property
    def delta(self) -> float:
        """Signed relative change vs. the baseline median."""
        if self.baseline == 0:
            return 0.0
        return (self.fresh - self.baseline) / abs(self.baseline)

    @property
    def regressed(self) -> bool:
        # A zero baseline median means the metric was degenerate across
        # the whole comparable window (e.g. recorded as 0.0 by a
        # timing-disabled run): there is no meaningful midpoint to gate
        # against, so never flag — the fresh value just seeds a usable
        # trajectory. This also keeps `delta` (which reports 0.0 for a
        # zero baseline) from silently masking a would-be verdict.
        if self.baseline == 0:
            return False
        if self.direction == "down":  # lower is better; growth regresses
            return self.delta > self.tolerance
        return self.delta < -self.tolerance

    def render(self) -> str:
        verdict = "REGRESSION" if self.regressed else "ok"
        return (
            f"{self.bench}/{self.metric}: {self.fresh:.4g} vs baseline "
            f"{self.baseline:.4g} (n={self.samples}), delta "
            f"{100 * self.delta:+.1f}% tolerance ±{100 * self.tolerance:.0f}% "
            f"→ {verdict}"
        )


def check_entry(
    fresh: Mapping[str, Any], history: Iterable[Mapping[str, Any]]
) -> list[Finding]:
    """Compare one fresh entry against its comparable history window."""
    window = [e for e in history if comparable(fresh, e)][-BASELINE_WINDOW:]
    findings: list[Finding] = []
    for metric, value in fresh["metrics"].items():
        direction = gated_direction(metric)
        if direction is None:
            continue
        values = [
            e["metrics"][metric] for e in window if metric in e["metrics"]
        ]
        if not values:
            continue
        median, scaled_mad = robust_baseline(values)
        findings.append(
            Finding(
                bench=fresh["bench"],
                metric=metric,
                direction=direction,
                fresh=value,
                baseline=median,
                samples=len(values),
                tolerance=tolerance(median, scaled_mad),
            )
        )
    return findings


# ----------------------------------------------------------------------
# Directory-level operations (the CLI surface)
# ----------------------------------------------------------------------
def _fresh_entries(results_dir: Path | str) -> list[dict]:
    return [
        entry_from_artifact(read_bench_artifact(path))
        for path in sorted(Path(results_dir).glob("BENCH_*.json"))
    ]


def record(
    results_dir: Path | str, history_dir: Path | str | None = None
) -> list[Path]:
    """Append every fresh artifact to its trajectory; returns the paths."""
    history_dir = history_dir or default_history_dir(results_dir)
    return [
        append_entry(history_dir, entry)
        for entry in _fresh_entries(results_dir)
    ]


def check(
    results_dir: Path | str, history_dir: Path | str | None = None
) -> tuple[list[Finding], list[str]]:
    """Check every fresh artifact; returns (findings, notes).

    Benches with no comparable history produce a note, not a failure —
    a new benchmark must be able to seed its own trajectory.
    """
    history_dir = history_dir or default_history_dir(results_dir)
    findings: list[Finding] = []
    notes: list[str] = []
    fresh = _fresh_entries(results_dir)
    if not fresh:
        notes.append(f"no BENCH_*.json artifacts under {results_dir}")
    for entry in fresh:
        history = load_trajectory(trajectory_path(history_dir, entry["bench"]))
        per_bench = check_entry(entry, history)
        if not per_bench:
            notes.append(
                f"{entry['bench']}: no comparable baseline in "
                f"{trajectory_path(history_dir, entry['bench'])} — skipped"
            )
        findings.extend(per_bench)
    return findings, notes


def report(history_dir: Path | str) -> str:
    """Markdown trajectory dashboard over every stored bench."""
    history_dir = Path(history_dir)
    lines = [
        "# Benchmark trajectory",
        "",
        "Baseline = median of the newest comparable window "
        f"(≤{BASELINE_WINDOW} runs); band = "
        f"max({100 * REL_FLOOR:.0f}%, {MAD_K:.0f}·MAD/median). "
        "Time-like metrics regress upward, speedup-like downward.",
    ]
    paths = sorted(history_dir.glob("*.jsonl"))
    if not paths:
        lines += ["", f"_no trajectories under {history_dir}_"]
        return "\n".join(lines)
    for path in paths:
        entries = load_trajectory(path)
        if not entries:
            continue
        latest = entries[-1]
        window = [e for e in entries[:-1] if comparable(latest, e)]
        lines += [
            "",
            f"## {latest['bench']}",
            "",
            f"{len(entries)} runs recorded; latest "
            f"{latest.get('recorded_utc') or 'n/a'} @ "
            f"`{(latest['provenance'].get('git_sha') or 'n/a')[:12]}` "
            f"(key: {json.dumps(latest['key'], sort_keys=True)})",
            "",
            "| metric | latest | baseline | delta | gate |",
            "|---|---:|---:|---:|---|",
        ]
        for metric, value in sorted(latest["metrics"].items()):
            direction = gated_direction(metric)
            values = [
                e["metrics"][metric] for e in window if metric in e["metrics"]
            ][-BASELINE_WINDOW:]
            if values:
                median, scaled_mad = robust_baseline(values)
                delta = (
                    (value - median) / abs(median) if median else 0.0
                )
                delta_cell = f"{100 * delta:+.1f}%"
                base_cell = f"{median:.4g}"
            else:
                base_cell, delta_cell = "—", "—"
            gate = {"down": "lower-better", "up": "higher-better"}.get(
                direction, "info"
            )
            lines.append(
                f"| `{metric}` | {value:.4g} | {base_cell} | "
                f"{delta_cell} | {gate} |"
            )
    return "\n".join(lines)
