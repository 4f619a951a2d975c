"""``python -m repro.sampling`` — run sampled campaigns end to end.

The one-command surface for the statistical mode: point it at any mix
of built-in benchmark names and external ISCAS-85 ``.bench`` netlists
and it runs a stratified, sequentially-stopped stuck-at campaign per
entry, then writes one machine-readable artifact each — run manifest,
merged metrics (including the per-fault ``sampling.ci_width``
histogram), the stratification plan, and every per-fault record with
its confidence interval and patterns spent.

Examples::

    python -m repro.sampling c432
    python -m repro.sampling tests/bench/mult16.bench --ci-width 0.1
    python -m repro.sampling c499 c1908 --faults 64 --out results/sampled

The exact OBDD path is never touched: routing goes through the
``"sampled"`` chunk body, whose only simulator is the bit-parallel
kernel. ``tests/test_sampled_campaigns.py`` pins that property.
"""

from __future__ import annotations

import argparse
import dataclasses
import json
import sys
import time
from pathlib import Path

from repro import knobs, obs

SCHEMA = "repro.sampled-campaign/1"

log = obs.get_logger("repro.sampling")


def _record_to_dict(record) -> dict:
    """One campaign ``FaultResult`` as a JSON-safe sampled record."""
    return {
        "fault": str(record.fault),
        "stratum": record.stratum,
        "detectability": str(record.detectability),
        "estimate": float(record.detectability),
        "ci_low": record.ci_low,
        "ci_high": record.ci_high,
        "patterns_spent": record.patterns_spent,
        "upper_bound": str(record.upper_bound),
        "observable_pos": sorted(record.observable_pos),
    }


def campaign_document(entry: str, campaign, scale, elapsed: float) -> dict:
    """The full artifact document for one roster entry's campaign."""
    from repro.sampling.roster import roster_display_name

    manifest = obs.RunManifest.collect(
        scale=scale,
        circuits=(roster_display_name(entry),),
        wall_seconds=elapsed,
    )
    return {
        "schema": SCHEMA,
        "circuit": roster_display_name(entry),
        "source": entry,
        "mode": "sampled",
        "settings": {
            "seed": scale.effective_seed(),
            "ci_width": scale.effective_ci_width(),
            "pattern_budget": scale.effective_pattern_budget(),
        },
        "num_faults": len(campaign.results),
        "patterns_spent": campaign.patterns_spent(),
        "strata": [obs.json_safe(stat) for stat in campaign.strata],
        "metrics": campaign.metrics().snapshot(),
        "faults": [_record_to_dict(r) for r in campaign.results],
        "manifest": manifest.to_dict(),
    }


def main(argv: list[str] | None = None) -> int:
    from repro.experiments.config import SCALES, get_scale
    from repro.sampling.roster import resolve_roster, roster_display_name

    obs.configure_logging()
    parser = argparse.ArgumentParser(
        prog="python -m repro.sampling",
        description="Sampled fault campaigns with confidence intervals "
        "over built-in benchmarks and external .bench netlists.",
    )
    parser.add_argument(
        "circuits",
        nargs="+",
        metavar="CIRCUIT",
        help="built-in benchmark names and/or paths to .bench netlists",
    )
    knobs.add_flags(parser, "ci_width", "pattern_budget", "seed")
    parser.add_argument(
        "--faults",
        type=int,
        default=None,
        metavar="N",
        help="stratified stuck-at sample size per circuit "
        "(default: the scale's per-circuit policy, else the full set)",
    )
    knobs.add_flags(parser, "scale", "workers", scale=sorted(SCALES))
    parser.add_argument(
        "--out",
        type=Path,
        default=Path("results"),
        help="artifact directory (default: results/)",
    )
    args = parser.parse_args(argv)

    try:
        roster = resolve_roster(args.circuits)
    except (KeyError, FileNotFoundError) as exc:
        parser.error(str(exc))

    scale = dataclasses.replace(
        get_scale(args.scale),
        mode="sampled",
        **knobs.given(args, "ci_width", "pattern_budget", "seed", "workers"),
    )
    if args.faults is not None:
        if args.faults < 1:
            parser.error(f"--faults {args.faults} must be positive")
        scale = dataclasses.replace(
            scale,
            stuck_at_samples={
                **dict(scale.stuck_at_samples),
                **{entry: args.faults for entry in roster},
            },
        )

    from repro.experiments.campaigns import stuck_at_campaign
    from repro.experiments.parallel import shutdown_pool

    args.out.mkdir(parents=True, exist_ok=True)
    for entry in roster:
        display = roster_display_name(entry)
        start = time.time()
        campaign = stuck_at_campaign(entry, scale)
        elapsed = time.time() - start
        document = campaign_document(entry, campaign, scale, elapsed)
        path = args.out / f"{display}_sampled.json"
        path.write_text(
            json.dumps(document, indent=2, sort_keys=True) + "\n",
            encoding="utf-8",
        )
        widths = campaign.ci_width_summary()
        log.info(
            "%s: %d faults, %d patterns, ci width p95=%.4f -> %s",
            display,
            len(campaign.results),
            campaign.patterns_spent(),
            widths.get("p95") or 0.0,
            path,
        )
        print(
            f"{display}: {len(campaign.results)} faults estimated, "
            f"{campaign.patterns_spent()} patterns spent, "
            f"artifact {path}"
        )
    shutdown_pool()
    return 0


if __name__ == "__main__":
    sys.exit(main())
