"""Stratified fault sampling for statistical campaigns.

Uniform fault sampling under-represents exactly the faults a sampled
campaign most needs to see: high-fanout stems dominate the detectable
mass but are few, bridge dominances behave differently from stuck
lines, and branch faults outnumber everything else. The sampler here
partitions the candidate set into strata keyed by fault class ×
fanout topology, allocates the target proportionally (largest
remainder, so the per-stratum counts sum exactly to the target), and
draws inside each stratum with a seed derived from the stratum's
*name* (:mod:`repro.sampling.substreams`), so the sample is invariant
to enumeration details of the other strata.

Strata:

* ``stuck-stem/fo<bucket>`` — stem stuck-at faults, bucketed by the
  faulted net's fanout count (``1``, ``2-3``, ``4+``);
* ``stuck-branch/fo<bucket>`` — fanout-branch stuck-at faults, same
  buckets on the stem they branch from;
* ``bridge-and`` / ``bridge-or`` — NFBFs by dominance. Bridges are
  drawn with the paper's distance-weighted Efraimidis–Spirakis scheme
  (:func:`repro.faults.sampling.sample_bridging_faults`) *within* the
  stratum, preserving the physical-likelihood bias inside the
  topological stratification.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Mapping, Sequence

from repro.circuit.netlist import Circuit
from repro.core.metrics import Fault
from repro.faults.bridging import BridgingFault, NfbfCandidates
from repro.faults.stuck_at import StuckAtFault
from repro.sampling.substreams import substream_seed


def fanout_bucket(count: int) -> str:
    """Coarse fanout-topology bucket: ``1``, ``2-3`` or ``4+``."""
    if count <= 1:
        return "1"
    if count <= 3:
        return "2-3"
    return "4+"


def stratum_key(circuit: Circuit, fault: Fault) -> str:
    """The stratum a fault belongs to (stable, human-readable)."""
    if isinstance(fault, StuckAtFault):
        bucket = fanout_bucket(circuit.fanout_count(fault.line.net))
        kind = "stuck-stem" if fault.line.sink is None else "stuck-branch"
        return f"{kind}/fo{bucket}"
    if isinstance(fault, BridgingFault):
        return f"bridge-{fault.kind.value.lower()}"
    raise TypeError(f"unsupported fault type: {type(fault).__name__}")


@dataclass(frozen=True)
class StratumStat:
    """One stratum's population, allocation and realized sample size."""

    name: str
    population: int
    allocated: int
    sampled: int


@dataclass(frozen=True)
class StratifiedSample:
    """A stratified draw: the faults, their labels, and the plan."""

    #: sampled faults, in the candidate enumeration order
    faults: tuple[Fault, ...]
    #: stratum label per sampled fault, aligned with ``faults``
    labels: tuple[str, ...]
    #: per-stratum plan (population/allocated/sampled), name-sorted
    plan: tuple[StratumStat, ...]


def allocate_proportional(
    populations: Mapping[str, int], target: int
) -> dict[str, int]:
    """Largest-remainder proportional allocation of ``target`` draws.

    Every allocation is capped by its stratum's population, freed
    capacity spills to the strata with the largest fractional
    remainders (name-ordered tie-break), and the result sums exactly
    to ``min(target, total population)``. A nonempty stratum is never
    allocated zero while the target is at least the stratum count —
    dropping a stratum entirely is precisely the bias the calibration
    oracles exist to catch.
    """
    names = sorted(populations)
    total = sum(populations[name] for name in names)
    target = min(target, total)
    if target <= 0:
        return {name: 0 for name in names}
    quotas = {name: target * populations[name] / total for name in names}
    allocation = {
        name: min(int(quotas[name]), populations[name]) for name in names
    }
    nonempty = [name for name in names if populations[name] > 0]
    if target >= len(nonempty):
        for name in nonempty:
            allocation[name] = max(allocation[name], 1)
    # Largest-remainder fill (or trim, if the floors overshot the
    # target after the minimum-one rule) until the counts sum exactly.
    def remainder(name: str) -> tuple[float, str]:
        return (-(quotas[name] - allocation[name]), name)

    while sum(allocation.values()) < target:
        grow = [
            name
            for name in names
            if allocation[name] < populations[name]
        ]
        chosen = min(grow, key=remainder)
        allocation[chosen] += 1
    while sum(allocation.values()) > target:
        shrink = [
            name
            for name in names
            if allocation[name] > (1 if populations[name] > 0 else 0)
        ]
        chosen = max(shrink, key=remainder)
        allocation[chosen] -= 1
    return allocation


def stratify(
    circuit: Circuit, faults: Sequence[Fault]
) -> dict[str, list[Fault]]:
    """Partition ``faults`` into strata, preserving enumeration order."""
    return {
        name: [faults[row] for row in rows]
        for name, rows in _stratum_rows(circuit, faults).items()
    }


def _stratum_rows(
    circuit: Circuit, faults: Sequence[Fault]
) -> dict[str, Sequence[int]]:
    """The row indices of each stratum, ascending.

    A lazy :class:`NfbfCandidates` holds one dominance kind, so it is a
    single stratum named from its first row, and no other fault is built.
    """
    if isinstance(faults, NfbfCandidates):
        if not faults:
            return {}
        return {stratum_key(circuit, faults[0]): range(len(faults))}
    strata: dict[str, list[int]] = {}
    for row, fault in enumerate(faults):
        strata.setdefault(stratum_key(circuit, fault), []).append(row)
    return strata


def stratified_sample(
    circuit: Circuit,
    faults: Sequence[Fault],
    target: int | None,
    seed: int = 0,
) -> StratifiedSample:
    """Draw a stratified sample of ``target`` faults (``None`` = all).

    The returned fault order is the candidate enumeration order (not
    stratum order), so downstream sharding sees the same topological
    locality a full campaign would. Deterministic in ``(circuit name,
    faults, target, seed)`` and invariant to how the result is later
    sharded or merged. Strata are drawn as row indices, so only the
    sampled faults of a lazy :class:`NfbfCandidates` are ever built.
    """
    import random

    from repro.faults.sampling import normalized_distances, weighted_rows

    strata = _stratum_rows(circuit, faults)
    populations = {name: len(rows) for name, rows in strata.items()}
    if target is None or target >= len(faults):
        allocation = dict(populations)
    else:
        allocation = allocate_proportional(populations, target)
    label_of: dict[int, str] = {}
    plan: list[StratumStat] = []
    for name in sorted(strata):
        rows = strata[name]
        quota = allocation[name]
        stratum_seed = substream_seed(seed, "stratum", circuit.name, name)
        if quota >= len(rows):
            chosen: Sequence[int] = rows
        elif name.startswith("bridge-"):
            # a stratum that is the whole candidate set is read in place
            members = (
                faults
                if len(rows) == len(faults)
                else [faults[row] for row in rows]
            )
            distances = normalized_distances(circuit, members)
            chosen = [
                rows[i]
                for i in weighted_rows(distances, quota, seed=stratum_seed)
            ]
        else:
            chosen = random.Random(stratum_seed).sample(rows, quota)
        label_of.update(dict.fromkeys(chosen, name))
        plan.append(
            StratumStat(
                name=name,
                population=len(rows),
                allocated=quota,
                sampled=len(chosen),
            )
        )
    ordered = sorted(label_of)
    return StratifiedSample(
        faults=tuple(faults[row] for row in ordered),
        labels=tuple(label_of[row] for row in ordered),
        plan=tuple(plan),
    )
