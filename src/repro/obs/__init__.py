"""Unified observability: tracing, metrics, manifests, logging.

The lowest layer of the codebase (it imports nothing from ``repro``
outside itself but the dependency-free :mod:`repro.knobs` table), so
every other layer — the BDD manager, the Difference Propagation
engine, the campaign executors, the CLI — can instrument itself
without cycles:

* :mod:`repro.obs.trace` — span tracer (``with obs.span(...)``),
  JSONL export, cross-process capture/absorb. Disabled by default;
  enable with ``$REPRO_TRACE`` or ``--trace``.
* :mod:`repro.obs.metrics` — counters / gauges / histograms with
  deterministic merge; the source of truth behind ``ChunkStat`` and
  ``telemetry_report()``.
* :mod:`repro.obs.manifest` — :class:`RunManifest` provenance records
  written alongside experiment and benchmark outputs.
* :mod:`repro.obs.logging` — the ``repro.*`` logger hierarchy behind
  ``$REPRO_LOG``.
* :mod:`repro.obs.bench` — ``BENCH_<name>.json`` artifact helpers.
* :mod:`repro.obs.profile` — span-trace profiler: per-name self /
  cumulative time, hotspot table, folded-stack flamegraph export.
* :mod:`repro.obs.perf` — bench-trajectory regression sentinel over
  the append-only ``results/history/<bench>.jsonl`` store.
* :mod:`repro.obs.progress` — live campaign heartbeats behind
  ``$REPRO_PROGRESS``.
* :mod:`repro.obs.store` — the content-addressed run ledger
  (``results/ledger/``) behind ``$REPRO_CACHE``/``--cache``.
* :mod:`repro.obs.resource` — background RSS/BDD-node time-series
  sampler behind ``$REPRO_RESOURCE``.
* :mod:`repro.obs.export` — Prometheus-text / JSONL exporters over
  metrics snapshots and resource series.
* :mod:`repro.obs.dashboard` — self-contained cross-run HTML report
  (``python -m repro.obs dashboard``, ``make dashboard``).

``python -m repro.obs demo`` runs a traced C17 campaign and
pretty-prints the span tree; ``python -m repro.obs tree FILE`` renders
an existing JSONL trace; ``python -m repro.obs profile FILE`` prints
its hotspots (``--flame`` exports a flamegraph); ``python -m repro.obs
perf record|check|report`` drives the trajectory store.
"""

from repro.obs.bench import (
    bench_artifact_path,
    read_bench_artifact,
    write_bench_artifact,
)
from repro.obs.encode import json_safe
from repro.obs.export import (
    jsonl_lines,
    prometheus_lines,
    resource_jsonl_lines,
    resource_prometheus_lines,
)
from repro.obs.logging import configure_logging, get_logger
from repro.obs.manifest import RunManifest, git_sha, numpy_version
from repro.obs.metrics import Counter, Gauge, Histogram, MetricsRegistry
from repro.obs.resource import (
    EMPTY_SERIES,
    NULL_SAMPLER,
    ResourceSampler,
    ResourceSeries,
    disable_resource,
    enable_resource,
    resource_enabled,
    resource_sampler,
)
from repro.obs.store import (
    RunLedger,
    canonical_json,
    run_key,
    source_digest,
)
from repro.obs.progress import (
    NULL_METER,
    ProgressMeter,
    disable_progress,
    enable_progress,
    meter,
    progress_enabled,
)
from repro.obs.trace import (
    NOOP_SPAN,
    NullTracer,
    Span,
    Tracer,
    capture,
    current_location,
    disable_tracing,
    enable_tracing,
    get_tracer,
    render_tree,
    set_tracer,
    span,
    tracing_enabled,
)

__all__ = [
    "EMPTY_SERIES",
    "NOOP_SPAN",
    "NULL_METER",
    "NULL_SAMPLER",
    "Counter",
    "Gauge",
    "Histogram",
    "MetricsRegistry",
    "NullTracer",
    "ProgressMeter",
    "ResourceSampler",
    "ResourceSeries",
    "RunLedger",
    "RunManifest",
    "Span",
    "Tracer",
    "bench_artifact_path",
    "canonical_json",
    "capture",
    "configure_logging",
    "current_location",
    "disable_progress",
    "disable_resource",
    "disable_tracing",
    "enable_progress",
    "enable_resource",
    "enable_tracing",
    "get_logger",
    "get_tracer",
    "git_sha",
    "json_safe",
    "jsonl_lines",
    "meter",
    "numpy_version",
    "progress_enabled",
    "prometheus_lines",
    "read_bench_artifact",
    "render_tree",
    "resource_enabled",
    "resource_jsonl_lines",
    "resource_prometheus_lines",
    "resource_sampler",
    "run_key",
    "set_tracer",
    "source_digest",
    "span",
    "tracing_enabled",
    "write_bench_artifact",
]
