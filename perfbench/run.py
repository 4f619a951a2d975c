"""The repository benchmark: four workloads, end-to-end and per-layer.

Run from the repo root (no install, no build)::

    python perfbench/run.py                          # every workload
    python perfbench/run.py --workload dp-c432 --seed 3
    python perfbench/run.py --workload dp-c432 --trace 1   # per-layer
    python perfbench/run.py --sets 2                 # repeatability
    python perfbench/run.py --smoke                  # tiny sizes, seconds
    python perfbench/run.py --update-expected        # regenerate digests

Each workload runs in a fresh Python process (``harness.py``), one at
a time, from the repo root with ``src`` on ``PYTHONPATH`` and every
``$REPRO_*`` variable removed. The last line of standard output is one
JSON object: ``correct``, ``attempted``, ``failed`` and ``metrics``
(the end-to-end metrics, or with ``--trace 1`` the per-layer ones).
The exit code is non-zero when any result differs from
``expected.json``. See README.md for what each workload and metric
measures.
"""

from __future__ import annotations

import argparse
import json
import os
import statistics
import subprocess
import sys
from pathlib import Path

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
SPEC = json.loads((ROOT / "BENCHMARK.json").read_text())
WORKLOADS = [w["name"] for w in SPEC["workloads"]]
EXPECTED = HERE / "expected.json"

#: A workload process that has not finished by then is killed.
CHILD_TIMEOUT_S = 170

#: (size, sample seed) pairs ``--update-expected`` regenerates.
DIGEST_KEYS = (("full", 0), ("full", 1), ("smoke", 0))


class BenchError(RuntimeError):
    """A workload process failed to produce a report."""


def child_env(seed: int) -> dict[str, str]:
    """The parent environment minus ``$REPRO_*``, with ``src`` importable.

    ``seed`` salts the workload process's string hashing, which reorders
    every set and dict of net names the program iterates: the results
    must not change (the digests check it), and the cost barely does.
    """
    env = {k: v for k, v in os.environ.items() if not k.startswith("REPRO_")}
    env["PYTHONPATH"] = str(ROOT / "src")
    env["PYTHONHASHSEED"] = str(seed % 2**32)
    # the run ledger asks git for the code version; outside a checkout,
    # git must not go looking above the repo root
    env["GIT_CEILING_DIRECTORIES"] = str(ROOT.parent)
    return env


def run_workload(workload: str, args: argparse.Namespace, seed: int,
                 emit: bool = False, size: str | None = None,
                 sample_seed: int | None = None) -> dict:
    """Run one workload in a fresh process and return its report."""
    cmd = [
        sys.executable, str(HERE / "harness.py"),
        "--workload", workload,
        "--seconds", str(args.seconds),
        "--trace", str(args.trace),
        "--size", size or args.size,
        "--sample-seed", str(args.sample_seed if sample_seed is None else sample_seed),
    ]
    if emit:
        cmd.append("--emit-digests")
    try:
        proc = subprocess.run(
            cmd, cwd=ROOT, env=child_env(seed), stdout=subprocess.PIPE, text=True,
            timeout=CHILD_TIMEOUT_S,
        )
    except subprocess.TimeoutExpired:
        raise BenchError(f"{workload}: no report within {CHILD_TIMEOUT_S} s") from None
    lines = proc.stdout.strip().splitlines()
    if proc.returncode != 0 or not lines:
        raise BenchError(f"{workload}: workload process exited {proc.returncode}")
    return {**json.loads(lines[-1]), "seed": seed}


def print_report(report: dict, trace: int) -> None:
    failed_frac = report["failed"] / report["attempted"] if report["attempted"] else 1.0
    print(
        f"== {report['workload']} ({report['size']}): seed {report['seed']}, "
        f"sample seed {report['sample_seed']}, {report['rounds']} untraced + "
        f"{report['traced_rounds']} traced round(s), "
        f"{report['faults_per_round']} faults per round"
    )
    if trace:
        print("\n".join(report["layer_table"]))
    else:
        for spec in SPEC["end_to_end"]:
            print(
                f"  {spec['name']:<14} {report['e2e'][spec['name']]:>12.6g} "
                f"{spec['unit']:<4} {spec['better']} is better, "
                f"bound {spec['bound']:.0%}"
            )
    print(
        f"  failed_frac    {failed_frac:>12.6g}      "
        f"({report['failed']} of {report['attempted']} checked)"
    )
    for problem in report["problems"]:
        print(f"  PROBLEM: {problem}")


def result_line(reports: list[dict], trace: int) -> dict:
    """The final JSON object; metrics are prefixed by workload when
    more than one workload ran."""
    metrics = {}
    for report in reports:
        values = report["layers"] if trace else report["e2e"]
        prefix = f"{report['workload']}." if len(reports) > 1 else ""
        for spec in SPEC["per_layer"] if trace else SPEC["end_to_end"]:
            metrics[prefix + spec["name"]] = {
                "value": values[spec["name"]], "unit": spec["unit"],
            }
    return {
        "correct": all(r["correct"] for r in reports),
        "attempted": sum(r["attempted"] for r in reports),
        "failed": sum(r["failed"] for r in reports),
        "metrics": metrics,
    }


def spread(values: list[float]) -> float:
    """Interquartile range over the median (range for fewer than 4)."""
    middle = statistics.median(values)
    if not middle:
        return 0.0
    if len(values) < 4:
        return (max(values) - min(values)) / abs(middle)
    q1, _, q3 = statistics.quantiles(values, n=4)
    return (q3 - q1) / abs(middle)


def run_sets(workloads: list[str], args: argparse.Namespace) -> tuple[int, list]:
    """``--sets K``: the whole benchmark K times, seed + i for set i."""
    reports = [
        [run_workload(w, args, args.seed + i) for w in workloads]
        for i in range(args.sets)
    ]
    status = 0
    print(f"{'workload':<13} {'metric':<12} {'spread':>7} {'bound':>6}  "
          f"{'max/min-1':>9}  per-set values")
    for index, workload in enumerate(workloads):
        for spec in SPEC["end_to_end"]:
            values = [sets[index]["e2e"][spec["name"]] for sets in reports]
            low, high = min(values), max(values)
            apart = (high - low) / low if low else 0.0
            agree = apart <= spec["bound"]
            status |= 0 if agree else 1
            print(
                f"{workload:<13} {spec['name']:<12} {spread(values):>6.1%} "
                f"{spec['bound']:>5.0%}  {apart:>8.1%}{'' if agree else '!'}  "
                + " ".join(f"{v:.5g}" for v in values)
            )
    if not all(r["correct"] for sets in reports for r in sets):
        status = 1
    return status, reports


def update_expected(workloads: list[str], args: argparse.Namespace) -> int:
    """Regenerate ``expected.json`` entries for ``workloads``."""
    expected = json.loads(EXPECTED.read_text()) if EXPECTED.exists() else {}
    for workload in workloads:
        for size, sample_seed in DIGEST_KEYS:
            report = run_workload(workload, args, args.seed, emit=True,
                                  size=size, sample_seed=sample_seed)
            if not report["correct"]:
                print(f"{workload} {size}/{sample_seed}: {report['problems']}",
                      file=sys.stderr)
                return 1
            expected.setdefault(workload, {})[f"{size}/{sample_seed}"] = report["digests"]
            print(f"{workload} {size}/{sample_seed}: "
                  f"{len(report['digests']['campaigns'])} campaigns, "
                  f"{len(report['digests']['renders'])} renderings")
    EXPECTED.write_text(json.dumps(expected, indent=1, sort_keys=True) + "\n")
    return 0


def parse_args(argv: list[str] | None) -> argparse.Namespace:
    parser = argparse.ArgumentParser(
        description="Run the repository benchmark (see perfbench/README.md)."
    )
    parser.add_argument("--workload", choices=WORKLOADS,
                        help="one workload (default: all, one after another)")
    parser.add_argument("--seed", type=int, default=0,
                        help="hash seed of the workload process (default 0)")
    parser.add_argument("--seconds", type=float,
                        help="measuring time per workload (default: "
                             "BENCHMARK.json run_seconds; 0 with --smoke)")
    parser.add_argument("--trace", type=int, nargs="?", const=1, default=0,
                        choices=(0, 1), help="report the per-layer metrics")
    parser.add_argument("--sample-seed", type=int, default=0, choices=(0, 1),
                        help="seed of the fault samples (digests pin 0 and 1)")
    parser.add_argument("--sets", type=int,
                        help="run everything K times and compare the sets")
    parser.add_argument("--smoke", action="store_true",
                        help="tiny sizes, one round: a quick gate check")
    parser.add_argument("--out", type=Path, help="also write the reports as JSON")
    parser.add_argument("--update-expected", action="store_true",
                        help="regenerate expected.json for the chosen workloads")
    args = parser.parse_args(argv)
    args.size = "smoke" if args.smoke else "full"
    if args.seconds is None:
        args.seconds = 0 if args.smoke else SPEC["run_seconds"]
    return args


def main(argv: list[str] | None = None) -> int:
    args = parse_args(argv)
    if not (ROOT / "src" / "repro" / "__init__.py").is_file():
        print(f"perfbench: no program to measure under {ROOT / 'src'}",
              file=sys.stderr)
        return 2
    workloads = [args.workload] if args.workload else WORKLOADS
    try:
        if args.update_expected:
            return update_expected(workloads, args)
        if args.sets:
            status, sets = run_sets(workloads, args)
            if args.out:
                args.out.write_text(json.dumps(sets, indent=1, sort_keys=True))
            return status
        reports = [run_workload(w, args, args.seed) for w in workloads]
    except BenchError as exc:
        print(f"perfbench: {exc}", file=sys.stderr)
        return 1
    for report in reports:
        print_report(report, args.trace)
    line = result_line(reports, args.trace)
    if args.out:
        args.out.write_text(json.dumps({"reports": reports, "result": line},
                                       indent=1, sort_keys=True))
    print(json.dumps(line, sort_keys=True))
    return 0 if line["correct"] else 1


if __name__ == "__main__":
    sys.exit(main())
