"""Command-line runner for the experiment suite.

Examples::

    repro-experiments                      # all experiments, ci scale
    repro-experiments fig2 fig5            # a subset
    repro-experiments --scale paper --out results/
    repro-experiments --workers 4 fig2     # parallel fault campaigns
    repro-experiments --trace fig2         # span trace + results/trace.jsonl
    python -m repro.experiments fig3       # module form

Observability: every run writes a machine-readable sibling
``<name>.json`` (run manifest + findings + data) next to each
experiment's ``<name>.txt``; with tracing on (``--trace`` or
``$REPRO_TRACE``) the merged span trace lands in ``trace.jsonl``.
Progress goes through the ``repro.experiments`` logger (level from
``$REPRO_LOG``); rendered results still print to stdout.
"""

from __future__ import annotations

import argparse
import dataclasses
import sys
import time
from pathlib import Path

from repro import knobs, obs

log = obs.get_logger("repro.experiments")


#: Knob flags that override a field of the selected scale.
_SCALE_FLAGS = ("workers", "engine", "mode", "ci_width")

#: Switch flags: each is the same as setting its variable, so pool
#: workers inherit it; the obs ones also turn their layer on.
_SWITCH_FLAGS = ("cache", "resource", "reorder", "trace", "progress")


def main(argv: list[str] | None = None) -> int:
    from repro.experiments import ALL_EXPERIMENTS
    from repro.experiments.config import KNOB_FIELDS, SCALES, get_scale

    obs.configure_logging()
    parser = argparse.ArgumentParser(
        prog="repro-experiments",
        description="Regenerate the paper's tables and figures.",
    )
    parser.add_argument(
        "experiments",
        nargs="*",
        metavar="EXPERIMENT",
        help=f"subset to run (default: all of {', '.join(ALL_EXPERIMENTS)})",
    )
    knobs.add_flags(
        parser,
        "scale",
        *_SCALE_FLAGS,
        "cache",
        "resource",
        "reorder",
        scale=sorted(SCALES),
    )
    parser.add_argument(
        "--out",
        type=Path,
        default=None,
        help="directory to write one .txt per experiment",
    )
    parser.add_argument(
        "--markdown",
        type=Path,
        default=None,
        help="also write one combined markdown report of this run",
    )
    parser.add_argument(
        "--stats",
        action="store_true",
        help="print per-campaign GC/cache telemetry (live nodes, "
        "reclaimed nodes, cache hit rates) after the run",
    )
    knobs.add_flags(parser, "trace", "progress")
    parser.add_argument(
        "--trace-out",
        type=Path,
        default=None,
        metavar="FILE",
        help="span-trace destination (default: <artifact dir>/trace.jsonl)",
    )
    parser.add_argument(
        "--list", action="store_true", help="list experiments and exit"
    )
    args = parser.parse_args(argv)

    if args.list:
        for name in ALL_EXPERIMENTS:
            print(name)
        return 0

    names = args.experiments or list(ALL_EXPERIMENTS)
    unknown = [n for n in names if n not in ALL_EXPERIMENTS]
    if unknown:
        parser.error(f"unknown experiments: {', '.join(unknown)}")

    scale = dataclasses.replace(
        get_scale(args.scale), **knobs.given(args, *_SCALE_FLAGS)
    )
    for name in knobs.given(args, *_SWITCH_FLAGS):
        knobs.BY_NAME[name].export()
    if knobs.TRACE.read():
        obs.enable_tracing()
    if knobs.PROGRESS.read():
        obs.enable_progress()
    if knobs.RESOURCE.read():
        obs.enable_resource()
    tracing = obs.tracing_enabled()

    # Machine-readable artifacts (manifest JSONs, the trace) go to the
    # explicit --out directory, falling back to results/ for traced
    # runs so `REPRO_TRACE=1 ... fig2` always leaves evidence behind.
    artifact_dir: Path | None = args.out
    if artifact_dir is None and tracing:
        artifact_dir = Path("results")
    if artifact_dir is not None:
        artifact_dir.mkdir(parents=True, exist_ok=True)

    settings = {name: scale.resolve(name) for name in KNOB_FIELDS}
    log.info(
        "scale: %s  circuits: %s  %s  tracing: %s",
        scale.name,
        ", ".join(scale.circuits),
        "  ".join(f"{name}: {value}" for name, value in settings.items()),
        tracing,
    )
    failures = 0
    report: list[str] = [
        "# Experiment run report",
        "",
        f"scale: `{scale.name}`; circuits: {', '.join(scale.circuits)}",
    ]
    for name in names:
        start = time.time()
        sampler = obs.resource_sampler().start()
        try:
            with obs.span("experiment", experiment=name, scale=scale.name):
                try:
                    result = ALL_EXPERIMENTS[name](scale)
                except Exception as exc:  # surface which experiment broke
                    failures += 1
                    print(
                        f"\n== {name}: FAILED ({exc!r}) ==", file=sys.stderr
                    )
                    log.error("%s failed: %r", name, exc)
                    report.extend(
                        ["", f"## {name}", "", f"**FAILED**: `{exc!r}`"]
                    )
                    continue
        finally:
            resources = sampler.stop()
        elapsed = time.time() - start
        rendered = result.render()
        print(f"\n{rendered}")
        log.info("%s finished in %.1fs", name, elapsed)
        if args.out is not None:
            (args.out / f"{name}.txt").write_text(rendered + "\n")
        if artifact_dir is not None:
            _write_experiment_json(
                artifact_dir, result, scale, args.workers, elapsed, resources
            )
        report.extend(
            [
                "",
                f"## {name}: {result.title}",
                "",
                "```",
                result.text,
                "```",
                "",
                *(f"* {finding}" for finding in result.findings),
                "",
                f"_completed in {elapsed:.1f}s_",
            ]
        )
    if args.stats:
        from repro.experiments.campaigns import telemetry_report

        stats_lines = telemetry_report()
        print("\n" + "\n".join(stats_lines))
        report.extend(["", "## campaign telemetry", "", "```"])
        report.extend(stats_lines)
        report.append("```")

    if args.markdown is not None:
        args.markdown.parent.mkdir(parents=True, exist_ok=True)
        args.markdown.write_text("\n".join(report) + "\n")

    if tracing:
        trace_path = args.trace_out
        if trace_path is None:
            trace_path = (artifact_dir or Path("results")) / "trace.jsonl"
        trace_path.parent.mkdir(parents=True, exist_ok=True)
        count = obs.get_tracer().export_jsonl(trace_path)
        log.info("%d spans written to %s", count, trace_path)

    from repro.experiments.parallel import shutdown_pool

    shutdown_pool()  # reap campaign workers before exiting
    return 1 if failures else 0


def _write_experiment_json(
    artifact_dir: Path, result, scale, workers, elapsed: float, resources=None
) -> Path:
    """The machine-readable sibling of one experiment's ``.txt``."""
    import json

    from repro.experiments import runcache

    manifest = obs.RunManifest.collect(
        scale=scale,
        workers=workers,
        wall_seconds=elapsed,
        resources=resources.summary() if resources else None,
    )
    document = {
        "schema": "repro.experiment-result/1",
        "experiment": result.exp_id,
        "title": result.title,
        "findings": list(result.findings),
        "wall_seconds": elapsed,
        "data": obs.json_safe(result.data),
        "manifest": manifest.to_dict(),
    }
    if runcache.cache_enabled(scale):
        document["campaign_cache"] = runcache.cache_stats()
    path = artifact_dir / f"{result.exp_id}.json"
    path.write_text(
        json.dumps(document, indent=2, sort_keys=True) + "\n",
        encoding="utf-8",
    )
    return path


if __name__ == "__main__":
    raise SystemExit(main())
