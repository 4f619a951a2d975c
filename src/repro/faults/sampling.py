"""Distance-weighted random sampling of bridging-fault sets (paper §2.2).

For the larger circuits the paper cannot analyze every potentially
detectable NFBF, and no checkpoint-style dominance theory exists for
bridges, so it samples at random — but weighted by physical likelihood:
wires that would be laid out close together are far more likely to
short. Lacking layouts, distances come from the pseudo-layout estimator
(:mod:`repro.circuit.layout`); each candidate's distance is normalized
to the maximum over the candidate set, and a candidate at normalized
distance *z* is kept with probability

.. math:: f(z) = e^{-z / \\theta}

(the exponential density of the paper). Two mechanisms are provided:

* :func:`sample_bridging_faults` — exact-size weighted sampling without
  replacement with weights ``e^{-z/θ}`` (Efraimidis–Spirakis), the
  robust default;
* :func:`solve_theta` — the paper's own calibration: adjust θ so the
  *expected* Bernoulli sample size hits a target ("the value of θ was
  adjusted to facilitate fault sets of reasonable sizes (≈1000
  faults)"). Tied distance vectors, which the pseudo-layout produces on
  very regular circuits, are handled explicitly: an all-tied-at-zero
  vector raises a diagnostic (no θ can calibrate it — hence the
  exact-size default above) and an all-tied-nonzero vector is solved in
  closed form.
"""

from __future__ import annotations

import heapq
import math
import random
from dataclasses import dataclass
from typing import Sequence

from repro.circuit.layout import cached_coordinates, wire_distance
from repro.circuit.netlist import Circuit
from repro.faults.bridging import BridgingFault, NfbfCandidates


@dataclass(frozen=True)
class SampledFault:
    """A sampled bridge together with its normalized pseudo-distance."""

    fault: BridgingFault
    distance: float  # normalized to [0, 1] over the candidate set


def normalized_distances(
    circuit: Circuit, candidates: Sequence[BridgingFault]
) -> list[float]:
    """Pseudo-layout wire distance of each candidate, scaled to [0, 1].

    Coordinates come from the per-circuit memo
    (:func:`~repro.circuit.layout.cached_coordinates`): repeat
    invocations over the same circuit — one per dominance × scale ×
    stratum in a campaign — no longer re-run the estimator. An
    :class:`NfbfCandidates` is read by index, building no fault.
    """
    coords = cached_coordinates(circuit)
    if isinstance(candidates, NfbfCandidates):
        xs = [coords[net][0] for net in candidates.nets]
        ys = [coords[net][1] for net in candidates.nets]
        raw = [
            math.hypot(xs[a] - xs[b], ys[a] - ys[b])
            for a, b in zip(candidates.first, candidates.second)
        ]
    else:
        raw = [wire_distance(coords, f.net_a, f.net_b) for f in candidates]
    largest = max(raw, default=0.0)
    if largest == 0.0:
        return [0.0] * len(raw)
    return [d / largest for d in raw]


def solve_theta(
    distances: Sequence[float], target_size: int, tolerance: float = 0.5
) -> float:
    """θ such that ``sum(exp(-z/θ))`` ≈ ``target_size`` (bisection).

    Raises :class:`ValueError` if the target exceeds the candidate
    count (even θ→∞ keeps every fault with probability 1), or if the
    distance vector is degenerate in a way no θ can calibrate:

    * **all distances tied at 0** — every candidate is kept with
      probability 1 regardless of θ, so the expected size is pinned at
      the candidate count. The pseudo-layout produces exactly this on
      very regular circuits; use :func:`sample_bridging_faults` there.
    * **all distances tied at some z > 0** — solvable in closed form
      (``E[size] = n·e^{-z/θ}``), returned directly without bisection;
      the old search would creep toward the answer or silently return
      an arbitrary huge θ depending on the tie value.
    """
    if target_size <= 0:
        raise ValueError("target_size must be positive")
    if target_size >= len(distances):
        raise ValueError(
            f"target {target_size} ≥ candidate count {len(distances)}; "
            "no sampling needed"
        )
    if max(distances) == min(distances):
        tied = distances[0]
        if tied == 0.0:
            raise ValueError(
                f"all {len(distances)} candidate distances are tied at 0 "
                "(degenerate pseudo-layout): every fault is kept with "
                "probability 1 for any θ, so no θ reaches an expected "
                f"sample of {target_size}. Use sample_bridging_faults() "
                "(exact-size weighted sampling) for such circuits."
            )
        return tied / math.log(len(distances) / target_size)

    def expected(theta: float) -> float:
        return sum(math.exp(-z / theta) for z in distances)

    lo, hi = 1e-6, 1.0
    while expected(hi) < target_size:
        hi *= 2.0
        if hi > 1e9:
            # Mathematically unreachable for a non-degenerate vector
            # (E → n > target as θ → ∞); if float quirks get us here,
            # fail loudly instead of silently mis-sizing the sample.
            raise ValueError(
                f"θ search diverged: expected size {expected(hi):.1f} < "
                f"target {target_size} even at θ={hi:.3g}; the distance "
                "distribution is degenerate — use sample_bridging_faults()."
            )
    for _ in range(200):
        mid = (lo + hi) / 2.0
        # The point that satisfied the tolerance is the answer — the
        # bracket midpoint after the update is a *different* θ that can
        # miss the target by more than the tolerance promises.
        if abs(expected(mid) - target_size) < tolerance:
            return mid
        if expected(mid) < target_size:
            lo = mid
        else:
            hi = mid
        if hi - lo < 1e-12:
            break
    return (lo + hi) / 2.0


def sample_bridging_faults(
    circuit: Circuit,
    candidates: Sequence[BridgingFault],
    target_size: int,
    seed: int = 0,
    theta: float = 0.25,
) -> list[SampledFault]:
    """Distance-weighted sample of exactly ``target_size`` candidates.

    Weighted sampling *without replacement* (Efraimidis–Spirakis: draw
    ``u^(1/w)`` keys and keep the top ``target_size``) with weights
    ``w = e^{-z/θ}``. This realizes the paper's exponential distance
    bias while remaining robust to the pseudo-layout's many exactly-
    tied distances — a Bernoulli scheme with a count-calibrated θ
    degenerates when thousands of candidate pairs share identical
    estimated coordinates (regular circuits produce exactly that).

    Deterministic for a given ``seed``; only drawn rows are read. If the
    candidate set is not larger than the target, all of it is returned.
    """
    distances = normalized_distances(circuit, candidates)
    return [
        SampledFault(candidates[i], distances[i])
        for i in weighted_rows(distances, target_size, seed, theta)
    ]


def weighted_rows(
    distances: Sequence[float],
    target_size: int,
    seed: int = 0,
    theta: float = 0.25,
) -> list[int]:
    """The rows :func:`sample_bridging_faults` draws, best key first.

    Every row, in order, when there are no more than ``target_size``.
    """
    if len(distances) <= target_size:
        return list(range(len(distances)))
    rng = random.Random(seed)
    keys = []
    for z in distances:
        weight = math.exp(-z / theta)
        u = rng.random()
        # key = u ** (1/weight); compare by log to dodge underflow
        keys.append(math.log(u) / weight if weight > 0.0 and u > 0.0 else -math.inf)
    # nlargest is sorted(reverse=True)[:k]: ties keep candidate order
    return heapq.nlargest(target_size, range(len(keys)), key=keys.__getitem__)
