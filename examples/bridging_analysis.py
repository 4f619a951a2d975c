#!/usr/bin/env python3
"""Bridging-fault study of the C95 adder — the paper's §4.2 workflow.

Enumerates every potentially detectable non-feedback bridging fault
(both wired-AND and wired-OR), computes exact detectabilities with
Difference Propagation, reports how many bridges secretly behave as
double stuck-at faults, and contrasts the AND/OR profiles — ending
with the distance-weighted sampling used for the big circuits.

Run:  python examples/bridging_analysis.py
"""

from repro.analysis import proportion_histogram, render_histogram
from repro.benchcircuits import get_circuit
from repro.core import DifferencePropagation, is_stuck_at_equivalent
from repro.faults import BridgeKind, enumerate_nfbfs
from repro.faults.sampling import sample_bridging_faults


def main() -> None:
    circuit = get_circuit("c95")
    print(circuit)
    engine = DifferencePropagation(circuit)

    for kind in (BridgeKind.AND, BridgeKind.OR):
        faults = list(enumerate_nfbfs(circuit, kind))
        detectabilities = []
        stuck_like = 0
        undetectable = 0
        for fault in faults:
            analysis = engine.analyze(fault)
            detectabilities.append(float(analysis.detectability))
            if is_stuck_at_equivalent(engine.functions, fault):
                stuck_like += 1
            if not analysis.is_detectable:
                undetectable += 1

        mean = sum(detectabilities) / len(detectabilities)
        print(f"\n{kind.value} bridges: {len(faults)} potentially detectable NFBFs")
        print(f"  mean detectability:        {mean:.4f}")
        print(f"  functionally undetectable: {undetectable}")
        print(f"  double stuck-at in disguise: {stuck_like} "
              f"({100.0 * stuck_like / len(faults):.1f}%)")
        print()
        print(render_histogram(
            proportion_histogram(detectabilities, bins=10),
            width=30,
            title=f"  {kind.value}-bridge detectability profile",
        ))

    # Distance-weighted sampling (what the paper does for C432+).
    candidates = enumerate_nfbfs(circuit, BridgeKind.AND)
    sample = sample_bridging_faults(circuit, candidates, 50, seed=0)
    mean_distance = sum(s.distance for s in sample) / len(sample)
    print(f"\nsampled {len(sample)} of {len(candidates)} AND bridges "
          f"by pseudo-layout distance; mean normalized distance "
          f"{mean_distance:.3f} (short wires dominate, as they should)")


if __name__ == "__main__":
    main()
