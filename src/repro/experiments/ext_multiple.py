"""Extension — multiple-fault coverage of single-stuck test sets.

The paper's reference [2] (Hughes & McCluskey, ITC 1986) asked how well
test sets generated for *single* stuck-at faults cover *multiple*
stuck-at faults. With Difference Propagation the question has an exact
answer: build a compact 100%-coverage single-fault test set, then
evaluate each sampled double fault's complete test set at those
vectors. The expected shape: coverage is high but not perfect —
component masking can hide a double fault from every single-fault test.
"""

from __future__ import annotations

import random

from repro.analysis.report import render_table
from repro.core.coverage import compact_test_set
from repro.core.engine import DifferencePropagation
from repro.experiments.base import ExperimentResult
from repro.experiments.campaigns import circuit_functions
from repro.experiments.config import Scale, get_scale
from repro.faults.multiple import MultipleStuckAtFault
from repro.faults.stuck_at import collapsed_checkpoint_faults

CIRCUITS = ("c17", "fulladder", "c95", "alu181")
SAMPLE_PAIRS = 300


def run_ext_multiple(
    scale: Scale | None = None, sample_pairs: int = SAMPLE_PAIRS
) -> ExperimentResult:
    scale = scale or get_scale()
    rows = []
    coverages: dict[str, float] = {}
    for name in CIRCUITS:
        functions = circuit_functions(name, scale)
        engine = DifferencePropagation(functions.circuit, functions=functions)
        singles = collapsed_checkpoint_faults(functions.circuit)
        compaction = compact_test_set(engine, singles)

        rng = random.Random(scale.effective_seed())
        pairs: list[MultipleStuckAtFault] = []
        attempts = 0
        while len(pairs) < sample_pairs and attempts < sample_pairs * 20:
            attempts += 1
            first, second = rng.sample(singles, 2)
            if first.line == second.line:
                continue
            pairs.append(MultipleStuckAtFault.of(first, second))

        detected = 0
        detectable = 0
        for pair in pairs:
            analysis = engine.analyze(pair)
            if not analysis.is_detectable:
                continue
            detectable += 1
            if any(analysis.tests.evaluate(t) for t in compaction.tests):
                detected += 1
        fraction = detected / detectable if detectable else 1.0
        coverages[name] = fraction
        rows.append(
            (
                name,
                compaction.num_tests,
                len(pairs),
                detectable,
                detected,
                fraction,
            )
        )
    text = render_table(
        (
            "circuit",
            "single-SA tests",
            "double faults",
            "detectable",
            "covered",
            "coverage",
        ),
        rows,
    )
    mean = sum(coverages.values()) / len(coverages)
    return ExperimentResult(
        exp_id="ext_multiple",
        title="Double stuck-at coverage of single-stuck test sets (ref. [2])",
        text=text,
        data={"coverages": coverages},
        findings=(
            f"single-fault test sets cover {mean:.1%} of detectable "
            "double faults on average — high, but masking leaves gaps",
        ),
    )
