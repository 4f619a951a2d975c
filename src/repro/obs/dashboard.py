"""Cross-run HTML dashboard over the ``results/`` tree.

``python -m repro.obs dashboard`` (or ``make dashboard``) aggregates
everything the observability layer has persisted — the run-ledger
index, the ``results/history/*.jsonl`` perf trajectories, committed
``BENCH_*.json`` artifacts, span-trace hotspots, and resource
time-series — into **one static, self-contained HTML file**: inline
CSS, inline SVG charts, one small inline script for hover tooltips, no
external assets, so the file renders from a CI artifact download or a
``file://`` open with no server.

Rendering rules (deliberate, not incidental):

* every chart is a **single-series line** in the first categorical
  slot (blue) — magnitude/trend over run index or time needs no
  legend, and a one-hue chart is readable under every color-vision
  deficiency;
* marks follow the house spec: 2px round-capped lines, ≥8px end
  markers with a 2px surface ring, hairline solid gridlines, axis
  text in muted ink — data is the only loud thing on the page;
* every chart is paired with (or is derivable from) a **table view**
  of the same numbers, so nothing is color-gated;
* light and dark palettes are both explicit steps of the same
  validated ramp, switched by ``prefers-color-scheme``.

The collection half (:func:`collect`) is pure data-in/data-out and
unit-testable without touching HTML.
"""

from __future__ import annotations

import html
import json
import math
import time
from pathlib import Path
from typing import Any, Mapping, Sequence

from repro import knobs
from repro.obs import perf as perf_mod
from repro.obs import profile as profile_mod
from repro.obs import store as store_mod
from repro.obs.bench import read_bench_artifact
from repro.obs.logging import get_logger
from repro.obs.resource import ResourceSeries

log = get_logger("repro.obs.dashboard")

DEFAULT_OUT = Path("results") / "dashboard.html"

#: Cap on trace hotspot rows per trace file.
HOTSPOT_TOP = 12


# ----------------------------------------------------------------------
# Collection (pure; no HTML)
# ----------------------------------------------------------------------
def collect(results_dir: Path | str = "results") -> dict[str, Any]:
    """Aggregate every persisted observability surface under one dict."""
    results_dir = Path(results_dir)
    return {
        "generated_utc": time.strftime("%Y-%m-%dT%H:%M:%SZ", time.gmtime()),
        "results_dir": str(results_dir),
        "ledger": _collect_ledger(results_dir),
        "trajectories": _collect_trajectories(results_dir),
        "benches": _collect_benches(results_dir),
        "hotspots": _collect_hotspots(results_dir),
        "resources": _collect_resources(results_dir),
    }


def _collect_ledger(results_dir: Path) -> list[dict[str, Any]]:
    entries: list[dict[str, Any]] = []
    for root in store_mod.iter_ledger_roots(results_dir):
        ledger = store_mod.RunLedger(root)
        status = dict(ledger.verify())
        for entry in ledger.entries():
            row = dict(entry)
            row["status"] = status.get(entry["key"], "missing")
            entries.append(row)
    return entries


def _collect_trajectories(results_dir: Path) -> dict[str, list[dict]]:
    history_dir = perf_mod.default_history_dir(results_dir)
    trajectories: dict[str, list[dict]] = {}
    for path in sorted(history_dir.glob("*.jsonl")):
        entries = [
            entry
            for entry in perf_mod.load_trajectory(path)
            if entry.get("schema") == perf_mod.SCHEMA
        ]
        if entries:
            trajectories[path.stem] = entries
    return trajectories


def _collect_benches(results_dir: Path) -> list[dict[str, Any]]:
    benches: list[dict[str, Any]] = []
    for path in sorted(results_dir.glob("BENCH_*.json")):
        try:
            document = read_bench_artifact(path)
        except (ValueError, OSError) as exc:
            log.warning("skipping %s: %r", path, exc)
            continue
        manifest = document.get("manifest", {})
        payload = document.get("payload", {})
        metrics = {
            name: float(value)
            for name, value in sorted(payload.items())
            if isinstance(value, (int, float)) and not isinstance(value, bool)
        }
        benches.append(
            {
                "name": document.get("name", path.stem),
                "created_utc": manifest.get("created_utc"),
                "scale": manifest.get("scale"),
                "engine": manifest.get("engine"),
                "seed": manifest.get("seed"),
                "git_sha": manifest.get("git_sha"),
                "metrics": metrics,
            }
        )
    return benches


def _collect_hotspots(results_dir: Path) -> list[dict[str, Any]]:
    tables: list[dict[str, Any]] = []
    for path in sorted(results_dir.glob("trace*.jsonl")):
        try:
            events = profile_mod.load_trace(path)
            if not events:
                continue
            stats = profile_mod.aggregate(events)
        except (OSError, ValueError, KeyError, TypeError) as exc:
            log.warning("skipping %s: %r", path, exc)
            continue
        tables.append(
            {
                "trace": path.name,
                "spans": len(events),
                "lines": profile_mod.hotspot_table(stats, top=HOTSPOT_TOP),
            }
        )
    return tables


def _collect_resources(results_dir: Path) -> list[dict[str, Any]]:
    """Resource series out of experiment-result manifests.

    Any ``results/*.json`` whose manifest carries a
    ``repro.resource-series/1`` summary contributes one labeled series.
    """
    found: list[dict[str, Any]] = []
    for path in sorted(results_dir.glob("*.json")):
        if path.name.startswith("BENCH_"):
            continue
        try:
            document = json.loads(path.read_text(encoding="utf-8"))
        except (OSError, ValueError):
            continue
        if not isinstance(document, Mapping):
            continue
        manifest = document.get("manifest", document)
        summary = (
            manifest.get("resources")
            if isinstance(manifest, Mapping)
            else None
        )
        if (
            isinstance(summary, Mapping)
            and summary.get("schema") == "repro.resource-series/1"
            and summary.get("samples")
        ):
            found.append(
                {
                    "label": document.get("experiment", path.stem),
                    "series": ResourceSeries.from_summary(summary),
                }
            )
    return found


# ----------------------------------------------------------------------
# Formatting helpers
# ----------------------------------------------------------------------
def _esc(value: Any) -> str:
    return html.escape("" if value is None else str(value), quote=True)


def _compact(value: float) -> str:
    """Auto-compact figures: 1,284 / 12.9K / 4.2M (specs for tiles)."""
    magnitude = abs(value)
    if magnitude >= 1e9:
        return f"{value / 1e9:.1f}B"
    if magnitude >= 1e6:
        return f"{value / 1e6:.1f}M"
    if magnitude >= 1e4:
        return f"{value / 1e3:.1f}K"
    if magnitude == int(magnitude) and magnitude < 1e4:
        return f"{int(value):,}"
    return f"{value:.4g}"


def _nice_ticks(low: float, high: float, n: int = 4) -> list[float]:
    """Clean y-axis tick values spanning [low, high]."""
    if high <= low:
        high = low + 1.0
    span = high - low
    raw = span / max(n, 1)
    magnitude = 10 ** math.floor(math.log10(raw))
    for mult in (1, 2, 2.5, 5, 10):
        step = mult * magnitude
        if span / step <= n:
            break
    first = math.floor(low / step) * step
    ticks = []
    tick = first
    while tick <= high + step / 2:
        ticks.append(round(tick, 10))
        tick += step
    return ticks


# ----------------------------------------------------------------------
# SVG line chart (single series, house mark spec)
# ----------------------------------------------------------------------
def _line_chart(
    points: Sequence[tuple[float, float]],
    *,
    x_labels: Sequence[str] | None = None,
    value_unit: str = "",
    width: int = 520,
    height: int = 150,
) -> str:
    """One single-series SVG line chart.

    2px round-capped line, hairline gridlines, an 8px end marker with a
    2px surface ring, and the last value direct-labeled. Hover data
    rides in ``data-pts`` for the shared tooltip script.
    """
    if not points:
        return '<p class="empty">no data</p>'
    pad_l, pad_r, pad_t, pad_b = 46, 64, 10, 20
    plot_w = width - pad_l - pad_r
    plot_h = height - pad_t - pad_b
    xs = [p[0] for p in points]
    ys = [p[1] for p in points]
    x_lo, x_hi = min(xs), max(xs)
    y_lo, y_hi = min(ys), max(ys)
    ticks = _nice_ticks(min(y_lo, 0 if y_lo >= 0 else y_lo), y_hi)
    y_lo = min(y_lo, ticks[0])
    y_hi = max(y_hi, ticks[-1])
    if x_hi == x_lo:
        x_hi = x_lo + 1.0
    if y_hi == y_lo:
        y_hi = y_lo + 1.0

    def px(x: float) -> float:
        return pad_l + plot_w * (x - x_lo) / (x_hi - x_lo)

    def py(y: float) -> float:
        return pad_t + plot_h * (1.0 - (y - y_lo) / (y_hi - y_lo))

    grid = []
    for tick in ticks:
        if not y_lo <= tick <= y_hi:
            continue
        y = py(tick)
        grid.append(
            f'<line class="grid" x1="{pad_l}" y1="{y:.1f}" '
            f'x2="{pad_l + plot_w}" y2="{y:.1f}"/>'
            f'<text class="tick" x="{pad_l - 6}" y="{y + 3.5:.1f}" '
            f'text-anchor="end">{_esc(_compact(tick))}</text>'
        )
    path = " ".join(
        f"{'M' if i == 0 else 'L'}{px(x):.1f},{py(y):.1f}"
        for i, (x, y) in enumerate(points)
    )
    end_x, end_y = px(points[-1][0]), py(points[-1][1])
    end_label = _compact(points[-1][1]) + (f" {value_unit}" if value_unit else "")
    pts_attr = json.dumps(
        [
            [
                round(px(x), 1),
                round(py(y), 1),
                (x_labels[i] if x_labels else _compact(x))
                + " · "
                + _compact(y)
                + (f" {value_unit}" if value_unit else ""),
            ]
            for i, (x, y) in enumerate(points)
        ],
        separators=(",", ":"),
    )
    return (
        f'<svg class="chart" viewBox="0 0 {width} {height}" '
        f'width="{width}" height="{height}" role="img" '
        f"data-pts='{_esc(pts_attr)}'>"
        f"{''.join(grid)}"
        f'<line class="axis" x1="{pad_l}" y1="{pad_t + plot_h}" '
        f'x2="{pad_l + plot_w}" y2="{pad_t + plot_h}"/>'
        f'<path class="series" d="{path}"/>'
        f'<circle class="dot" cx="{end_x:.1f}" cy="{end_y:.1f}" r="4"/>'
        f'<text class="endlabel" x="{end_x + 8:.1f}" y="{end_y + 4:.1f}">'
        f"{_esc(end_label)}</text>"
        f'<circle class="hoverdot" cx="-10" cy="-10" r="4"/>'
        "</svg>"
    )


# ----------------------------------------------------------------------
# HTML sections
# ----------------------------------------------------------------------
def _tile(label: str, value: str) -> str:
    return (
        '<div class="tile">'
        f'<div class="tile-label">{_esc(label)}</div>'
        f'<div class="tile-value">{_esc(value)}</div>'
        "</div>"
    )


def _section_kpis(data: Mapping[str, Any]) -> str:
    trajectories = data["trajectories"]
    runs = sum(len(v) for v in trajectories.values())
    distinct = len({e["key"] for e in data["ledger"]})
    return (
        '<div class="tiles">'
        + _tile("Ledger runs recorded", _compact(len(data["ledger"])))
        + _tile("Distinct run keys", _compact(distinct))
        + _tile("Bench artifacts", _compact(len(data["benches"])))
        + _tile("Trajectory entries", _compact(runs))
        + _tile("Resource series", _compact(len(data["resources"])))
        + "</div>"
    )


def _section_ledger(entries: Sequence[Mapping[str, Any]]) -> str:
    body = ["<h2>Run ledger</h2>"]
    if not entries:
        body.append(
            '<p class="empty">No ledger recorded yet — run a campaign '
            "with <code>--cache</code> / "
            f"<code>{knobs.CACHE.env}=1</code>.</p>"
        )
        return "".join(body)
    rows = []
    for entry in entries:
        meta = entry.get("meta", {})
        model = meta.get("model") or "?"
        if meta.get("bridge_kind"):
            model = f"{model}/{meta['bridge_kind']}"
        rows.append(
            "<tr>"
            f"<td>{_esc(entry.get('created_utc'))}</td>"
            f"<td>{_esc(meta.get('circuit'))}</td>"
            f"<td>{_esc(model)}</td>"
            f"<td>{_esc(meta.get('routing'))}</td>"
            f"<td class='num'>{_esc(meta.get('seed'))}</td>"
            f"<td class='num'>{_esc(meta.get('num_faults'))}</td>"
            f"<td class='num'>{_esc(meta.get('num_detectable'))}</td>"
            f"<td class='num'>{_esc(round(meta.get('seconds') or 0.0, 3))}</td>"
            f"<td>{_esc(entry.get('status'))}</td>"
            f"<td><code>{_esc(entry.get('key', '')[:12])}</code></td>"
            "</tr>"
        )
    body.append(
        "<table><thead><tr><th>recorded</th><th>circuit</th>"
        "<th>model</th><th>routing</th><th class='num'>seed</th>"
        "<th class='num'>faults</th><th class='num'>detectable</th>"
        "<th class='num'>seconds</th><th>integrity</th><th>run key</th>"
        "</tr></thead><tbody>" + "".join(rows) + "</tbody></table>"
    )
    return "".join(body)


def _section_trajectories(trajectories: Mapping[str, list[dict]]) -> str:
    body = ["<h2>Perf trajectories</h2>"]
    if not trajectories:
        body.append(
            '<p class="empty">No trajectory store under '
            "<code>results/history/</code> yet.</p>"
        )
        return "".join(body)
    body.append(
        '<p class="note">One chart per gated metric (time-like regress '
        "upward); dots are recorded runs, oldest → newest. The latest "
        "value is direct-labeled; hover any point for its run.</p>"
    )
    for bench, entries in sorted(trajectories.items()):
        gated = sorted(
            {
                metric
                for entry in entries
                for metric in entry.get("metrics", {})
                if perf_mod.gated_direction(metric)
            }
        )
        charts = []
        for metric in gated:
            points = []
            labels = []
            for i, entry in enumerate(entries):
                if metric in entry.get("metrics", {}):
                    points.append((float(i), entry["metrics"][metric]))
                    sha = (entry.get("provenance") or {}).get("git_sha") or ""
                    labels.append(f"run {i + 1} {sha[:7]}".strip())
            if len(points) < 1:
                continue
            charts.append(
                '<figure><figcaption><code>'
                + _esc(metric)
                + "</code></figcaption>"
                + _line_chart(points, x_labels=labels)
                + "</figure>"
            )
        body.append(
            f"<h3>{_esc(bench)} <span class='muted'>"
            f"({len(entries)} runs)</span></h3>"
        )
        if charts:
            body.append('<div class="charts">' + "".join(charts) + "</div>")
        latest = entries[-1]
        rows = "".join(
            f"<tr><td><code>{_esc(name)}</code></td>"
            f"<td class='num'>{_esc(f'{value:.4g}')}</td></tr>"
            for name, value in sorted(latest.get("metrics", {}).items())
        )
        body.append(
            "<details><summary>latest metrics table</summary>"
            "<table><thead><tr><th>metric</th><th class='num'>latest</th>"
            "</tr></thead><tbody>" + rows + "</tbody></table></details>"
        )
    return "".join(body)


def _section_benches(benches: Sequence[Mapping[str, Any]]) -> str:
    body = ["<h2>Benchmark artifacts</h2>"]
    if not benches:
        body.append('<p class="empty">No BENCH_*.json artifacts.</p>')
        return "".join(body)
    rows = []
    for bench in benches:
        headline = next(
            (
                (name, value)
                for name, value in sorted(bench["metrics"].items())
                if perf_mod.gated_direction(name)
            ),
            None,
        )
        headline_cell = (
            f"<code>{_esc(headline[0])}</code> = {_esc(f'{headline[1]:.4g}')}"
            if headline
            else "—"
        )
        rows.append(
            "<tr>"
            f"<td>{_esc(bench['name'])}</td>"
            f"<td>{_esc(bench.get('created_utc'))}</td>"
            f"<td>{_esc(bench.get('scale'))}</td>"
            f"<td>{_esc(bench.get('engine') or 'dp')}</td>"
            f"<td class='num'>{_esc(bench.get('seed'))}</td>"
            f"<td>{headline_cell}</td>"
            f"<td><code>{_esc((bench.get('git_sha') or '')[:10])}</code></td>"
            "</tr>"
        )
    body.append(
        "<table><thead><tr><th>bench</th><th>recorded</th><th>scale</th>"
        "<th>engine</th><th class='num'>seed</th><th>headline metric</th>"
        "<th>git</th></tr></thead><tbody>" + "".join(rows) + "</tbody></table>"
    )
    return "".join(body)


def _section_hotspots(tables: Sequence[Mapping[str, Any]]) -> str:
    body = ["<h2>Span hotspots</h2>"]
    if not tables:
        body.append(
            '<p class="empty">No span traces under results/ — record one '
            "with <code>--trace</code> or <code>make trace-demo</code>.</p>"
        )
        return "".join(body)
    for table in tables:
        body.append(
            f"<h3>{_esc(table['trace'])} <span class='muted'>"
            f"({table['spans']} spans)</span></h3>"
            "<pre>" + _esc("\n".join(table["lines"])) + "</pre>"
        )
    return "".join(body)


def _section_resources(found: Sequence[Mapping[str, Any]]) -> str:
    body = ["<h2>Resource curves</h2>"]
    if not found:
        body.append(
            '<p class="empty">No resource series recorded — run with '
            "<code>--resource</code> / "
            f"<code>{knobs.RESOURCE.env}=1</code>.</p>"
        )
        return "".join(body)
    body.append(
        '<p class="note">RSS and BDD node curves sampled while each run '
        "executed. Each field is its own chart (scales differ) — never a "
        "second axis.</p>"
    )
    for item in found:
        series: ResourceSeries = item["series"]
        charts = []
        for field in series.fields():
            pairs = series.series(field)
            if len(pairs) < 2:
                continue
            unit = "B" if field.endswith("bytes") else ""
            charts.append(
                "<figure><figcaption><code>"
                + _esc(field)
                + "</code></figcaption>"
                + _line_chart(
                    pairs,
                    x_labels=[f"t={t:.2f}s" for t, _ in pairs],
                    value_unit=unit,
                )
                + "</figure>"
            )
        body.append(
            f"<h3>{_esc(item['label'])} <span class='muted'>"
            f"({len(series.samples)} samples @ {series.interval:g}s)"
            "</span></h3>"
        )
        body.append('<div class="charts">' + "".join(charts) + "</div>")
    return "".join(body)


# ----------------------------------------------------------------------
# Page assembly
# ----------------------------------------------------------------------
_CSS = """
:root { color-scheme: light dark; }
body {
  margin: 0; padding: 24px 32px 48px;
  font-family: system-ui, -apple-system, "Segoe UI", sans-serif;
  background: var(--page); color: var(--ink);
  --page: #f9f9f7; --surface: #fcfcfb; --ink: #0b0b0b;
  --ink-2: #52514e; --muted: #898781; --grid: #e1e0d9;
  --baseline: #c3c2b7; --series: #2a78d6;
  --border: rgba(11,11,11,0.10);
}
@media (prefers-color-scheme: dark) {
  body {
    --page: #0d0d0d; --surface: #1a1a19; --ink: #ffffff;
    --ink-2: #c3c2b7; --muted: #898781; --grid: #2c2c2a;
    --baseline: #383835; --series: #3987e5;
    --border: rgba(255,255,255,0.10);
  }
}
h1 { font-size: 22px; margin: 0 0 2px; }
h2 { font-size: 16px; margin: 36px 0 10px; border-top: 1px solid var(--grid);
     padding-top: 18px; }
h3 { font-size: 13.5px; margin: 18px 0 6px; }
.subtitle, .muted { color: var(--muted); font-weight: 400; }
.subtitle { font-size: 12.5px; margin-bottom: 18px; }
.note, .empty { color: var(--ink-2); font-size: 12.5px; }
.tiles { display: flex; flex-wrap: wrap; gap: 12px; margin-top: 18px; }
.tile { background: var(--surface); border: 1px solid var(--border);
  border-radius: 8px; padding: 12px 16px; min-width: 132px; }
.tile-label { font-size: 11.5px; color: var(--ink-2); }
.tile-value { font-size: 26px; font-weight: 600; margin-top: 2px; }
table { border-collapse: collapse; font-size: 12.5px; margin: 8px 0;
  background: var(--surface); border: 1px solid var(--border);
  border-radius: 6px; }
th, td { padding: 5px 10px; text-align: left;
  border-bottom: 1px solid var(--grid); }
th { color: var(--ink-2); font-weight: 600; }
tbody tr:last-child td { border-bottom: none; }
td.num, th.num { text-align: right; font-variant-numeric: tabular-nums; }
code { font-size: 11.5px; }
pre { background: var(--surface); border: 1px solid var(--border);
  border-radius: 6px; padding: 10px 12px; font-size: 11.5px;
  overflow-x: auto; }
.charts { display: flex; flex-wrap: wrap; gap: 8px 20px; }
figure { margin: 0; background: var(--surface);
  border: 1px solid var(--border); border-radius: 8px;
  padding: 10px 12px 4px; }
figcaption { font-size: 11.5px; color: var(--ink-2); margin-bottom: 2px; }
svg.chart .grid { stroke: var(--grid); stroke-width: 1; }
svg.chart .axis { stroke: var(--baseline); stroke-width: 1; }
svg.chart .tick { fill: var(--muted); font-size: 10px;
  font-variant-numeric: tabular-nums; }
svg.chart .series { fill: none; stroke: var(--series); stroke-width: 2;
  stroke-linecap: round; stroke-linejoin: round; }
svg.chart .dot { fill: var(--series); stroke: var(--surface);
  stroke-width: 2; }
svg.chart .hoverdot { fill: var(--series); stroke: var(--surface);
  stroke-width: 2; opacity: 0; }
svg.chart .endlabel { fill: var(--ink-2); font-size: 11px; }
#tooltip { position: fixed; pointer-events: none; display: none;
  background: var(--ink); color: var(--page); font-size: 11.5px;
  padding: 3px 8px; border-radius: 5px; z-index: 10; white-space: nowrap; }
details summary { font-size: 12px; color: var(--ink-2); cursor: pointer;
  margin-top: 4px; }
"""

_JS = """
(function () {
  var tip = document.createElement('div');
  tip.id = 'tooltip';
  document.body.appendChild(tip);
  document.querySelectorAll('svg.chart').forEach(function (svg) {
    var pts;
    try { pts = JSON.parse(svg.getAttribute('data-pts') || '[]'); }
    catch (e) { return; }
    if (!pts.length) return;
    var hover = svg.querySelector('.hoverdot');
    svg.addEventListener('mousemove', function (ev) {
      var rect = svg.getBoundingClientRect();
      var sx = svg.viewBox.baseVal.width / rect.width;
      var mx = (ev.clientX - rect.left) * sx;
      var best = pts[0], bd = Infinity;
      pts.forEach(function (p) {
        var d = Math.abs(p[0] - mx);
        if (d < bd) { bd = d; best = p; }
      });
      if (hover) {
        hover.setAttribute('cx', best[0]);
        hover.setAttribute('cy', best[1]);
        hover.style.opacity = 1;
      }
      tip.textContent = best[2];
      tip.style.display = 'block';
      tip.style.left = (ev.clientX + 14) + 'px';
      tip.style.top = (ev.clientY - 10) + 'px';
    });
    svg.addEventListener('mouseleave', function () {
      tip.style.display = 'none';
      if (hover) hover.style.opacity = 0;
    });
  });
})();
"""


def render_html(data: Mapping[str, Any]) -> str:
    """The full standalone dashboard page for one :func:`collect` dict."""
    sections = [
        _section_kpis(data),
        _section_ledger(data["ledger"]),
        _section_trajectories(data["trajectories"]),
        _section_resources(data["resources"]),
        _section_benches(data["benches"]),
        _section_hotspots(data["hotspots"]),
    ]
    return (
        "<!DOCTYPE html>\n"
        '<html lang="en"><head><meta charset="utf-8">'
        '<meta name="viewport" content="width=device-width, initial-scale=1">'
        "<title>Campaign observatory</title>"
        f"<style>{_CSS}</style></head><body>"
        "<h1>Campaign observatory</h1>"
        f'<div class="subtitle">generated {_esc(data["generated_utc"])} '
        f"from <code>{_esc(data['results_dir'])}/</code></div>"
        + "".join(sections)
        + f"<script>{_JS}</script></body></html>\n"
    )


def write_dashboard(
    results_dir: Path | str = "results",
    out: Path | str | None = None,
) -> Path:
    """Collect, render and write the dashboard; returns the output path."""
    out = Path(out) if out is not None else Path(results_dir) / "dashboard.html"
    data = collect(results_dir)
    out.parent.mkdir(parents=True, exist_ok=True)
    out.write_text(render_html(data), encoding="utf-8")
    log.info(
        "dashboard: %d ledger rows, %d trajectories, %d benches → %s",
        len(data["ledger"]),
        len(data["trajectories"]),
        len(data["benches"]),
        out,
    )
    return out
