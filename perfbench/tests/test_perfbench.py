"""Harness tests for the benchmark (not part of the tier-1 suite)::

    python -m pytest perfbench/tests
"""

from __future__ import annotations

import json
import random
import re
import shutil
import subprocess
import sys
import time
from fractions import Fraction
from pathlib import Path

import pytest

HERE = Path(__file__).resolve().parents[1]
ROOT = HERE.parent
for path in (ROOT / "src", HERE):
    if str(path) not in sys.path:
        sys.path.insert(0, str(path))

import harness  # noqa: E402
import layers  # noqa: E402

SPEC = json.loads((ROOT / "BENCHMARK.json").read_text())
NAME = re.compile(r"^[A-Za-z0-9_.-]+$")


def test_metric_names_are_well_formed():
    names = [m["name"] for m in SPEC["end_to_end"] + SPEC["per_layer"]]
    names += [w["name"] for w in SPEC["workloads"]]
    assert all(NAME.match(name) and len(name) <= 64 for name in names)
    assert len(names) == len(set(names))


def test_declared_per_layer_metrics_match_the_layer_table():
    declared = [(m["name"], m["unit"], m["better"]) for m in SPEC["per_layer"]]
    assert declared == [(m.name, m.unit, m.better) for m in layers.METRICS]


def test_empty_recorder_still_reports_every_per_layer_metric():
    values = layers.TraceRecorder().metrics(overhead=0.0)
    assert list(values) == [m["name"] for m in SPEC["per_layer"]]


def _bindings() -> dict:
    """Every attribute of every repro module and shimmed class, by id."""
    seen = {}
    for module in list(sys.modules.values()):
        if getattr(module, "__name__", "").startswith("repro"):
            for name, value in vars(module).items():
                seen[(module.__name__, name)] = id(value)
    for _bucket, target in layers.SHIMS:
        owner, attr, original = layers._resolve(target)
        seen[(repr(owner), attr)] = id(original)
    return seen


def test_shims_restore_every_patched_attribute_after_an_exception():
    from repro.benchcircuits import get_circuit
    from repro.core.engine import DifferencePropagation
    from repro.faults.stuck_at import collapsed_checkpoint_faults

    _bindings()  # imports every shimmed module first
    before = _bindings()
    clock = layers.LayerClock()
    with pytest.raises(RuntimeError):
        with layers.installed(clock):
            assert _bindings() != before
            engine = DifferencePropagation(get_circuit("c17"))
            engine.analyze(collapsed_checkpoint_faults(engine.circuit)[0])
            raise RuntimeError("boom")
    assert _bindings() == before
    assert clock.self_s["core.engine.analyze_s"] > 0


def test_nested_shims_split_self_time():
    clock = layers.LayerClock()
    inner = clock.timed("inner", lambda: time.sleep(0.02))

    def outer_body():
        inner()
        time.sleep(0.01)

    clock.timed("outer", outer_body)()
    assert clock.cum_s["outer"] >= clock.cum_s["inner"] >= 0.02
    assert clock.self_s["outer"] == pytest.approx(
        clock.cum_s["outer"] - clock.cum_s["inner"]
    )


def test_record_digest_does_not_depend_on_record_order():
    from repro.experiments.campaigns import FaultResult
    from repro.faults.lines import Line
    from repro.faults.stuck_at import StuckAtFault

    records = [
        FaultResult(
            fault=StuckAtFault(Line(f"n{i}"), bool(i % 2)),
            detectability=Fraction(i, 64),
            upper_bound=Fraction(i + 1, 64),
            observable_pos=frozenset({"z", "y"} if i % 3 else {"y"}),
        )
        for i in range(20)
    ]
    shuffled = random.Random(7).sample(records, len(records))
    assert harness.records_digest(records) == harness.records_digest(shuffled)
    changed = records[:-1] + [
        FaultResult(
            fault=records[-1].fault,
            detectability=Fraction(0),
            upper_bound=records[-1].upper_bound,
            observable_pos=records[-1].observable_pos,
        )
    ]
    assert harness.records_digest(changed) != harness.records_digest(records)


def _run(*args: str, timeout: float) -> tuple[float, subprocess.CompletedProcess]:
    start = time.perf_counter()
    proc = subprocess.run(
        [sys.executable, str(HERE / "run.py"), *args],
        cwd=ROOT, capture_output=True, text=True, timeout=timeout,
    )
    return time.perf_counter() - start, proc


def test_smoke_run_is_fast_passes_the_gate_and_reports_every_metric():
    elapsed, proc = _run("--smoke", timeout=60)
    assert proc.returncode == 0, proc.stdout + proc.stderr
    assert elapsed < 15
    result = json.loads(proc.stdout.strip().splitlines()[-1])
    assert set(result) == {"correct", "attempted", "failed", "metrics"}
    assert result["correct"] and result["failed"] == 0 and result["attempted"] > 0
    expected = {
        f"{w['name']}.{m['name']}" for w in SPEC["workloads"] for m in SPEC["end_to_end"]
    }
    assert set(result["metrics"]) == expected


def test_traced_smoke_run_reports_every_per_layer_metric():
    _, proc = _run("--smoke", "--workload", "dp-c432", "--trace", "1", timeout=60)
    assert proc.returncode == 0, proc.stdout + proc.stderr
    result = json.loads(proc.stdout.strip().splitlines()[-1])
    assert result["correct"]
    assert list(result["metrics"]) == sorted(m["name"] for m in SPEC["per_layer"])
    assert result["metrics"]["bench.unattributed_frac"]["value"] <= 0.10
    assert result["metrics"]["core.engine.analyze_calls"]["value"] > 0


def test_benchmark_refuses_to_run_without_the_program(tmp_path):
    shutil.copytree(
        HERE, tmp_path / "perfbench",
        ignore=shutil.ignore_patterns("__pycache__", ".work"),
    )
    (tmp_path / "BENCHMARK.json").write_text((ROOT / "BENCHMARK.json").read_text())
    proc = subprocess.run(
        [sys.executable, "perfbench/run.py", "--workload", "dp-c432"],
        cwd=tmp_path, capture_output=True, text=True, timeout=60,
    )
    assert proc.returncode != 0
    assert proc.stdout == ""
