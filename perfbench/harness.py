"""Run one workload in this process and print its measurements as JSON.

``run.py`` starts this once per workload, from the repo root, with
``src`` on ``PYTHONPATH`` and every ``$REPRO_*`` variable removed::

    python perfbench/harness.py --workload dp-c432 --seconds 28

A round is: clear every cache, *setup* (load the netlists, build the
good functions), the *cold* pass (timed: ``wall_s``), *record* into a
fresh run ledger, then *warm* passes, each after clearing every cache
again, served from the ledger (``warm_s``). Rounds repeat until
``--seconds`` is spent; each metric is the median over rounds. With
``--trace 1`` every other round is traced (see ``layers.py``) and the
per-layer metrics are reported instead.

Every round's results are checked against ``expected.json``: a SHA-256
digest of each campaign's canonical records (independent of record
order) and of each suite experiment's rendering.
"""

from __future__ import annotations

import argparse
import contextlib
import gc
import hashlib
import json
import os
import resource
import shutil
import statistics
import sys
import time
import traceback
from dataclasses import dataclass, field
from pathlib import Path
from typing import Any

from layers import TraceRecorder, ledger_bytes
from workloads import WORKLOADS

HERE = Path(__file__).resolve().parent
EXPECTED = HERE / "expected.json"
WORK = HERE / ".work"

#: setup_s is a median over at least this many cold set-ups.
SETUP_SAMPLES = 5

#: A round repeats its warm pass until the passes add up to this many
#: seconds (or the cap), so sub-millisecond ledger fetches still give a
#: steady median.
WARM_MIN_S = 0.25
WARM_MAX_PASSES = 20


def record_line(record: Any) -> str:
    """One campaign record in canonical text form."""
    observable = ",".join(sorted(record.observable_pos))
    return (
        f"{record.fault!r}|{record.detectability}|{record.upper_bound}|"
        f"{observable}|{record.stuck_at_equivalent}"
    )


def records_digest(records: Any) -> str:
    """SHA-256 over a campaign's canonical records, in sorted order."""
    lines = sorted(record_line(record) for record in records)
    return hashlib.sha256("\n".join(lines).encode("utf-8")).hexdigest()


def text_digest(text: str) -> str:
    return hashlib.sha256(text.encode("utf-8")).hexdigest()


def digests(results: dict[str, Any], renders: dict[str, str]) -> dict:
    """The ``expected.json`` entry one pass's outputs produce."""
    return {
        "campaigns": {
            label: {"faults": len(r.results), "sha256": records_digest(r.results)}
            for label, r in sorted(results.items())
        },
        "renders": {exp: text_digest(text) for exp, text in sorted(renders.items())},
    }


def clear_caches() -> None:
    """Drop every memo, function table and loaded netlist."""
    from repro.benchcircuits import registry
    from repro.experiments import clear_campaign_caches

    clear_campaign_caches()
    # the netlist cache has no public clear; without it setup_s would
    # time cache hits after the first round
    registry._CACHE.clear()
    gc.collect()


def _no_wrap(_name: str, fn: Any) -> Any:
    return fn


@dataclass
class Round:
    walls: dict[str, float] = field(default_factory=dict)
    cold: dict[str, Any] = field(default_factory=dict)
    warm: dict[str, Any] = field(default_factory=dict)
    cold_renders: dict[str, str] = field(default_factory=dict)
    warm_renders: dict[str, str] = field(default_factory=dict)
    warm_passes: list[float] = field(default_factory=list)
    traced: bool = False

    @property
    def faults(self) -> int:
        """Faults the cold pass analysed (served campaigns excluded)."""
        return sum(len(r.results) for r in self.cold.values() if not r.from_cache)

    @property
    def total(self) -> float:
        return sum(self.walls.values())


def run_round(
    workload: Any, ledger: Path, recorder: TraceRecorder | None
) -> Round:
    """One round; ``recorder`` traces it when given."""
    segment = contextlib.nullcontext if recorder is None else recorder.segment
    wrap = _no_wrap if recorder is None else recorder.experiment

    def timed(fn, *args) -> tuple[Any, float]:
        with segment():
            start = time.perf_counter()
            out = fn(*args)
            seconds = time.perf_counter() - start
        return out, seconds

    os.environ["REPRO_CACHE"] = str(ledger)
    result = Round(traced=recorder is not None)
    clear_caches()
    _, result.walls["setup"] = timed(workload.setup)
    live_nodes = workload.live_nodes()
    cold, result.walls["cold"] = timed(workload.cold, wrap)
    result.cold = workload.campaign_results(cold)
    result.cold_renders = workload.renders(cold)
    _, result.walls["record"] = timed(workload.record, cold)
    store_bytes = ledger_bytes(ledger)
    while True:
        clear_caches()
        warm, seconds = timed(workload.warm, wrap)
        result.warm_passes.append(seconds)
        if (
            recorder is not None  # one pass, so per-round counts repeat
            or sum(result.warm_passes) >= WARM_MIN_S
            or len(result.warm_passes) >= WARM_MAX_PASSES
        ):
            break
    result.walls["warm"] = sum(result.warm_passes)
    result.warm = workload.campaign_results(warm)
    result.warm_renders = workload.renders(warm)
    shutil.rmtree(ledger, ignore_errors=True)
    if recorder is not None:
        recorder.rounds += 1
        recorder.traced_wall += result.total
        recorder.live_nodes += live_nodes
        recorder.store_bytes += store_bytes
        recorder.computed.extend(
            r for r in result.cold.values() if not r.from_cache
        )
    return result


def check(rnd: Round, expected: dict) -> tuple[int, int, list[str]]:
    """(attempted, failed, problems) for one round against the digests.

    Attempted counts every fault record checked (cold and warm) plus
    one per rendered experiment; failed counts the records of every
    campaign whose digest or size mismatches, and every mismatching
    rendering.
    """
    attempted = failed = 0
    problems: list[str] = []
    campaigns = expected["campaigns"]
    for phase, results in (("cold", rnd.cold), ("warm", rnd.warm)):
        if set(results) != set(campaigns):
            problems.append(f"{phase}: campaigns {sorted(results)} != expected")
        for label, result in results.items():
            want = campaigns.get(label, {"faults": len(result.results), "sha256": ""})
            attempted += want["faults"]
            if (
                len(result.results) != want["faults"]
                or records_digest(result.results) != want["sha256"]
            ):
                failed += want["faults"]
                problems.append(f"{phase}: {label} records differ from expected")
    renders = expected["renders"]
    for phase, texts in (("cold", rnd.cold_renders), ("warm", rnd.warm_renders)):
        for exp, text in texts.items():
            attempted += 1
            if text_digest(text) != renders.get(exp):
                failed += 1
                problems.append(f"{phase}: {exp} rendering differs from expected")
    if rnd.warm_renders != rnd.cold_renders:
        problems.append("warm renderings are not byte-identical to cold ones")
    return attempted, failed, problems


def _median(values: list[float]) -> float:
    return statistics.median(values) if values else 0.0


def measure(args: argparse.Namespace) -> dict:
    """Run rounds for ``args.seconds`` and reduce them to metrics."""
    from repro.obs.store import git_sha_cached

    workload = WORKLOADS[args.workload](args.sample_seed, args.size)
    key = f"{args.size}/{args.sample_seed}"
    pinned = json.loads(EXPECTED.read_text()) if EXPECTED.exists() else {}
    expected = pinned.get(args.workload, {}).get(key)
    git_sha_cached()  # once per process; keep the subprocess out of round one
    recorder = TraceRecorder() if args.trace else None
    if recorder is not None:
        recorder.pattern_budget = workload.scale.effective_pattern_budget()
    work = WORK / str(os.getpid())
    rounds: list[Round] = []
    peak_rss_mb = 0.0
    attempted = failed = 0
    problems: list[str] = []
    if expected is None and not args.emit_digests:
        problems.append(f"expected.json has no {args.workload} {key} entry")
    start = time.perf_counter()
    try:
        while True:
            traced = recorder is not None and len(rounds) % 2 == 1
            ledger = work / f"ledger-{len(rounds)}"
            try:
                rnd = run_round(workload, ledger, recorder if traced else None)
            except Exception:
                problems.append(traceback.format_exc())
                total = sum(
                    c["faults"] for c in (expected or {}).get("campaigns", {}).values()
                )
                attempted += max(total, 1)
                failed += max(total, 1)
                break
            rounds.append(rnd)
            if len(rounds) == 1:
                # later rounds repeat the work in a process whose heap
                # already grew, and how many run depends on speed
                peak_rss_mb = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024
            if expected is not None and not args.emit_digests:
                a, f, p = check(rnd, expected)
                attempted, failed = attempted + a, failed + f
                problems.extend(p)
            elapsed = time.perf_counter() - start
            if recorder is not None and len(rounds) < 2:
                continue
            if args.emit_digests or elapsed + rnd.total > args.seconds:
                break
        untraced = [r for r in rounds if not r.traced]
        setups = [r.walls["setup"] for r in untraced]
        while recorder is None and rounds and len(setups) < SETUP_SAMPLES:
            clear_caches()
            begin = time.perf_counter()
            workload.setup()
            setups.append(time.perf_counter() - begin)
    finally:
        shutil.rmtree(work, ignore_errors=True)

    report: dict[str, Any] = {
        "workload": args.workload,
        "size": args.size,
        "sample_seed": args.sample_seed,
        "rounds": len(untraced),
        "traced_rounds": len(rounds) - len(untraced),
        "faults_per_round": untraced[0].faults if untraced else 0,
        "cold_walls": [r.walls["cold"] for r in rounds],
        "correct": not problems and failed == 0 and bool(rounds),
        "attempted": attempted,
        "failed": failed,
        "problems": problems,
    }
    if args.emit_digests:
        if rounds:
            first = rounds[0]
            report["digests"] = digests(first.cold, first.cold_renders)
            if digests(first.warm, first.warm_renders) != report["digests"]:
                report["correct"] = False
                problems.append("warm pass differs from cold pass")
        return report
    cold = [r.walls["cold"] for r in untraced]
    report["e2e"] = {
        "wall_s": _median(cold),
        "faults_per_s": _median([r.faults / r.walls["cold"] for r in untraced]),
        "setup_s": _median(setups),
        "peak_rss_mb": peak_rss_mb,
        "warm_s": _median([s for r in untraced for s in r.warm_passes]),
    }
    if recorder is not None:
        traced_cold = [r.walls["cold"] for r in rounds if r.traced]
        overhead = _median(traced_cold) / _median(cold) - 1 if cold else 0.0
        layers = recorder.metrics(overhead)
        report["layers"] = layers
        report["layer_table"] = recorder.table(layers)
    return report


def parse_args(argv: list[str] | None = None) -> argparse.Namespace:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True, choices=sorted(WORKLOADS))
    parser.add_argument("--sample-seed", type=int, default=0)
    parser.add_argument("--seconds", type=float, default=0.0)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--size", choices=("full", "smoke"), default="full")
    parser.add_argument("--emit-digests", action="store_true")
    return parser.parse_args(argv)


def main(argv: list[str] | None = None) -> int:
    report = measure(parse_args(argv))
    print(json.dumps(report, sort_keys=True))
    return 0


if __name__ == "__main__":
    sys.exit(main())
