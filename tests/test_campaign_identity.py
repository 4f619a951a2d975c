"""One campaign identity: the knob table, the run key and the memo.

A campaign is identified by the run key of its projection (circuit,
model, routing, per-circuit scale fields, every result-affecting knob
of :mod:`repro.knobs`, and the source digest of the code). These tests
pin that the in-process memo keys on exactly that identity — not on
the scale's name — and that every ``REPRO_*`` variable is declared in
the knob table and nowhere else.
"""

from __future__ import annotations

import ast
import dataclasses
import json
import os
import re
import shutil
import subprocess
import sys
from pathlib import Path

import pytest

from repro import knobs
from repro.experiments import campaigns, runcache
from repro.experiments.campaigns import (
    bridging_campaign,
    clear_campaign_caches,
    stuck_at_campaign,
)
from repro.experiments.config import get_scale
from repro.faults.bridging import BridgeKind

ROOT = Path(__file__).resolve().parent.parent
SRC = ROOT / "src" / "repro"


@pytest.fixture(autouse=True)
def _fresh_caches():
    clear_campaign_caches()
    yield
    clear_campaign_caches()


def _faults(campaign) -> list:
    return [record.fault for record in campaign.results]


# ----------------------------------------------------------------------
# The memo keys on the campaign's identity, not the scale's name
# ----------------------------------------------------------------------
def test_seed_replaced_scale_draws_a_different_sample():
    smoke = get_scale("smoke")
    zero = bridging_campaign(
        "alu181", BridgeKind.AND, dataclasses.replace(smoke, seed=0),
        engine="bitparallel",
    )
    one = bridging_campaign(
        "alu181", BridgeKind.AND, dataclasses.replace(smoke, seed=1),
        engine="bitparallel",
    )
    assert one is not zero
    assert _faults(one) != _faults(zero)


@pytest.mark.parametrize("field", ["ci_width", "pattern_budget"])
def test_sampled_precision_knobs_recompute(field):
    pytest.importorskip("numpy")
    base = dataclasses.replace(get_scale("ci"), mode="sampled")
    value = {"ci_width": 0.2, "pattern_budget": 300}[field]
    first = stuck_at_campaign("c17", base)
    changed = stuck_at_campaign(
        "c17", dataclasses.replace(base, **{field: value})
    )
    assert changed is not first
    assert changed.chunk_stats, "served instead of computed"
    assert stuck_at_campaign("c17", base) is first


def test_kernel_simulators_are_per_seed():
    pytest.importorskip("numpy")
    ci = get_scale("ci")
    simulator = campaigns._bitparallel_simulator
    zero = simulator("c432", dataclasses.replace(ci, seed=0))
    one = simulator("c432", dataclasses.replace(ci, seed=1))
    assert one is not zero
    assert any(
        (one._input_words[net] != zero._input_words[net]).any()
        for net in one.circuit.inputs
    )


def test_telemetry_report_lists_every_memoised_campaign():
    stuck_at_campaign("c17", get_scale("smoke"))
    bridging_campaign("c17", BridgeKind.OR, get_scale("smoke"))
    lines = campaigns.telemetry_report()
    assert any("stuck-at" in line and "c17" in line for line in lines)
    assert any("bridge/OR" in line for line in lines)


# ----------------------------------------------------------------------
# REPRO_SEED resolves like every other knob
# ----------------------------------------------------------------------
def test_repro_seed_reaches_the_manifest_and_the_sample(tmp_path, monkeypatch):
    from repro.experiments.cli import main

    monkeypatch.setenv("REPRO_SEED", "1")
    assert main(["table1", "--scale", "smoke", "--out", str(tmp_path)]) == 0
    manifest = json.loads((tmp_path / "table1.json").read_text())["manifest"]
    assert manifest["seed"] == 1
    assert manifest["env"]["REPRO_SEED"] == "1"

    scale = get_scale("smoke")
    assert scale.effective_seed() == 1
    one = stuck_at_campaign("c432", scale, engine="bitparallel")
    zero = stuck_at_campaign(
        "c432", dataclasses.replace(scale, seed=0), engine="bitparallel"
    )
    assert _faults(one) != _faults(zero)


def test_cli_run_logs_without_logging_errors(tmp_path, capsys):
    from repro.experiments.cli import main

    assert main(["table1", "--scale", "smoke", "--out", str(tmp_path)]) == 0
    err = capsys.readouterr().err
    assert "Logging error" not in err
    assert "seed: " in err and "engine: " in err


# ----------------------------------------------------------------------
# The code identity is the source, not git
# ----------------------------------------------------------------------
_RUN_KEY = (
    "from repro.experiments import config, runcache\n"
    "from repro.obs import store\n"
    "scale = config.Scale(name='x', seed=0)\n"
    "print(store.run_key(runcache.stuck_at_projection('c17', scale, 'dp')))\n"
)


def _run_key_of(src: Path) -> str:
    env = {k: v for k, v in os.environ.items() if not k.startswith("REPRO_")}
    env |= {"PYTHONPATH": str(src), "PATH": "", "GIT_CEILING_DIRECTORIES": "/"}
    proc = subprocess.run(
        [sys.executable, "-c", _RUN_KEY],
        cwd=src, env=env, capture_output=True, text=True, timeout=120,
    )
    assert proc.returncode == 0, proc.stderr
    return proc.stdout.strip()


def test_editing_a_source_file_changes_the_run_key(tmp_path):
    src = tmp_path / "src"
    ignore = shutil.ignore_patterns("__pycache__")
    shutil.copytree(SRC, src / "repro", ignore=ignore)
    before = _run_key_of(src)
    assert _run_key_of(src) == before
    edited = src / "repro" / "faults" / "lines.py"
    with open(edited, "a", encoding="utf-8") as fh:
        fh.write("# an uncommitted edit\n")
    assert _run_key_of(src) != before


# ----------------------------------------------------------------------
# Table invariants
# ----------------------------------------------------------------------
def test_projection_holds_exactly_the_result_affecting_knobs():
    projection = runcache.stuck_at_projection("c17", get_scale("ci"), "dp")
    for knob in knobs.KNOBS:
        assert (knob.name in projection) is knob.affects_results, knob.name


def test_readme_env_table_lists_the_knob_table():
    readme = (ROOT / "README.md").read_text(encoding="utf-8")
    rows = re.findall(r"^\| `(REPRO_[A-Z_]+)`", readme, re.MULTILINE)
    assert len(rows) == len(set(rows))
    documented = set(rows)
    assert documented == {knob.env for knob in knobs.KNOBS}


def _docstring_nodes(tree: ast.AST) -> set[int]:
    nodes = set()
    for node in ast.walk(tree):
        if isinstance(
            node,
            (ast.Module, ast.ClassDef, ast.FunctionDef, ast.AsyncFunctionDef),
        ) and node.body:
            first = node.body[0]
            if isinstance(first, ast.Expr) and isinstance(
                first.value, ast.Constant
            ):
                nodes.add(id(first.value))
    return nodes


def test_no_repro_variable_is_spelled_outside_the_knob_table():
    offenders = []
    for path in sorted(SRC.rglob("*.py")):
        if path.name == "knobs.py" and path.parent == SRC:
            continue
        tree = ast.parse(path.read_text(encoding="utf-8"))
        docstrings = _docstring_nodes(tree)
        for node in ast.walk(tree):
            if (
                isinstance(node, ast.Constant)
                and isinstance(node.value, str)
                and id(node) not in docstrings
                and re.search(r"REPRO_[A-Z]", node.value)
            ):
                offenders.append(f"{path.relative_to(SRC)}:{node.lineno}")
    assert offenders == []


def test_every_knob_flag_parses_like_its_variable():
    import argparse

    parser = argparse.ArgumentParser()
    knobs.add_flags(parser, *(k.name for k in knobs.KNOBS if k.flag))
    with pytest.raises(SystemExit):
        parser.parse_args(["--ci-width", "0.9"])
    with pytest.raises(SystemExit):
        parser.parse_args(["--budget", "0"])
    args = parser.parse_args(
        ["--ci-width", "0.1", "--engine", "bitparallel", "--cache"]
    )
    assert knobs.given(args, "ci_width", "engine", "cache", "seed") == {
        "ci_width": 0.1,
        "engine": "bitparallel",
        "cache": True,
    }
    with pytest.raises(ValueError, match="REPRO_CI_WIDTH"):
        knobs.CI_WIDTH.read({"REPRO_CI_WIDTH": "0.9"})
