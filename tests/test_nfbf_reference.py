"""Index-column NFBF enumeration and sampling against the pair-loop oracles.

:func:`reference_enumerate_nfbfs` and :func:`reference_sample` are the
per-pair enumeration loop and the fault-list sampler that
:func:`~repro.faults.bridging.enumerate_nfbfs` and
:func:`~repro.faults.sampling.sample_bridging_faults` replaced, kept
verbatim. The bulk screens and the index-column keys must reproduce
them exactly: the same faults, distances and order, for every seed and
θ, so every recorded digest and golden stays byte-identical.
"""

from __future__ import annotations

import math
import random
from typing import Iterator, Sequence

import pytest
from hypothesis import given, settings

from repro.benchcircuits import get_circuit
from repro.circuit.layout import cached_coordinates, wire_distance
from repro.circuit.netlist import Circuit
from repro.faults.bridging import (
    _ABSORBING,
    BridgeKind,
    BridgingFault,
    NfbfCandidates,
    enumerate_nfbfs,
    is_trivially_undetectable,
)
from repro.faults.sampling import SampledFault, sample_bridging_faults

from tests.strategies import circuits


# ----------------------------------------------------------------------
# Oracles: the pair-loop implementation, verbatim
# ----------------------------------------------------------------------
def reference_enumerate_nfbfs(
    circuit: Circuit,
    kind: BridgeKind,
    include_outputs: bool = True,
) -> Iterator[BridgingFault]:
    nets = [
        net
        for net in circuit.nets
        if include_outputs or not circuit.is_output(net)
    ]
    index = {net: i for i, net in enumerate(circuit.nets)}
    reach = _reachability_masks(circuit, index)
    # Precompute which nets could possibly absorb a bridge: every sink
    # is an absorbing-type gate. Only pairs where both wires qualify
    # need the (more expensive) common-sink check.
    absorbing = _ABSORBING[kind]
    could_absorb = {
        net: bool(circuit.fanouts(net))
        and all(
            circuit.gate(sink).gate_type in absorbing
            for sink, _pin in circuit.fanouts(net)
        )
        for net in nets
    }
    for pos_a in range(len(nets)):
        net_a = nets[pos_a]
        bit_a = 1 << index[net_a]
        mask_a = reach[net_a]
        absorb_a = could_absorb[net_a]
        for pos_b in range(pos_a + 1, len(nets)):
            net_b = nets[pos_b]
            if mask_a & (1 << index[net_b]) or reach[net_b] & bit_a:
                continue  # feedback bridge
            if (
                absorb_a
                and could_absorb[net_b]
                and is_trivially_undetectable(circuit, net_a, net_b, kind)
            ):
                continue
            yield BridgingFault(net_a, net_b, kind)


def _reachability_masks(circuit: Circuit, index: dict[str, int]) -> dict[str, int]:
    """Transitive-fanout bitmask per net (bit i = net with index i)."""
    reach: dict[str, int] = {}
    order = list(circuit.nets)
    for net in reversed(order):
        mask = 0
        for sink, _pin in circuit.fanouts(net):
            mask |= (1 << index[sink]) | reach[sink]
        reach[net] = mask
    return reach


def reference_distances(
    circuit: Circuit, candidates: Sequence[BridgingFault]
) -> list[float]:
    coords = cached_coordinates(circuit)
    raw = [wire_distance(coords, f.net_a, f.net_b) for f in candidates]
    largest = max(raw, default=0.0)
    if largest == 0.0:
        return [0.0] * len(raw)
    return [d / largest for d in raw]


def reference_sample(
    circuit: Circuit,
    candidates: Sequence[BridgingFault],
    target_size: int,
    seed: int = 0,
    theta: float = 0.25,
) -> list[SampledFault]:
    distances = reference_distances(circuit, candidates)
    if len(candidates) <= target_size:
        return [SampledFault(f, z) for f, z in zip(candidates, distances)]
    rng = random.Random(seed)
    keyed = []
    for fault, z in zip(candidates, distances):
        weight = math.exp(-z / theta)
        u = rng.random()
        # key = u ** (1/weight); compare by log to dodge underflow
        if weight > 0.0 and u > 0.0:
            key = math.log(u) / weight
        else:
            key = float("-inf")
        keyed.append((key, fault, z))
    keyed.sort(key=lambda item: item[0], reverse=True)
    top = keyed[:target_size]
    return [SampledFault(fault, z) for _key, fault, z in top]


# ----------------------------------------------------------------------
# Equality over the registry
# ----------------------------------------------------------------------
FAST = ("c17", "fulladder", "c95", "alu181", "c432", "c499")
SLOW = ("c1355", "c1908")
SEEDS = (0, 1, 7)
THETAS = (1e-9, 0.25, 1e9)  # 1e-9: every weight underflows, ties decide
FULL_GRID = [(seed, theta) for seed in SEEDS for theta in THETAS]
# the fast tier's grid: each seed and each θ once
DIAGONAL = list(zip(SEEDS, THETAS))


def _check_circuit(name: str, grid: list[tuple[int, float]]) -> None:
    circuit = get_circuit(name)
    for kind in BridgeKind:
        for include_outputs in (True, False):
            candidates = enumerate_nfbfs(circuit, kind, include_outputs)
            assert isinstance(candidates, NfbfCandidates)
            reference = list(
                reference_enumerate_nfbfs(circuit, kind, include_outputs)
            )
            assert list(candidates) == reference
            assert len(candidates) == len(reference)
            if not reference:
                continue
            assert candidates[-1] == reference[-1]
            target = max(1, len(reference) // 50)
            for seed, theta in grid if include_outputs else grid[:1]:
                expected = reference_sample(circuit, reference, target, seed, theta)
                drawn = sample_bridging_faults(circuit, candidates, target, seed, theta)
                assert drawn == expected, (name, kind, include_outputs, seed, theta)
            # a plain fault list draws exactly what the index columns draw
            assert sample_bridging_faults(
                circuit, reference, target, seed, theta
            ) == expected
            # the everything-fits branch returns all rows with distances
            size = len(reference)
            assert sample_bridging_faults(circuit, candidates, size) == (
                reference_sample(circuit, reference, size)
            )


@pytest.mark.parametrize("name", FAST)
def test_matches_pair_loop(name):
    _check_circuit(name, DIAGONAL)


@pytest.mark.slow
@pytest.mark.parametrize("name", FAST + SLOW)
def test_matches_pair_loop_full_grid(name):
    _check_circuit(name, FULL_GRID)


@settings(max_examples=40, deadline=None)
@given(circuits())
def test_matches_pair_loop_on_random_circuits(circuit):
    for kind in BridgeKind:
        for include_outputs in (True, False):
            candidates = enumerate_nfbfs(circuit, kind, include_outputs)
            reference = list(
                reference_enumerate_nfbfs(circuit, kind, include_outputs)
            )
            assert list(candidates) == reference
            for theta in THETAS:
                assert sample_bridging_faults(
                    circuit, candidates, 3, seed=1, theta=theta
                ) == reference_sample(circuit, reference, 3, seed=1, theta=theta)


def test_sequence_protocol():
    circuit = get_circuit("c17")
    candidates = enumerate_nfbfs(circuit, BridgeKind.AND)
    faults = list(candidates)
    assert candidates[1:4] == faults[1:4]
    assert candidates[-1] == faults[-1]
    assert faults[2] in candidates
    assert candidates.index(faults[2]) == 2
    with pytest.raises(IndexError):
        candidates[len(faults)]
