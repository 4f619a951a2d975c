"""Experiment scales.

Exact OBDD analysis of every fault on the big circuits is a batch-job
workload (the paper ran on late-80s workstations for hours); two scales
are provided:

* ``ci`` (default) — full fault sets wherever a circuit analyzes in
  milliseconds per fault, seeded samples on the three big circuits, and
  cut-point decomposition on C1908. The entire experiment suite runs in
  a few minutes and still reproduces every qualitative finding.
* ``paper`` — the paper's fault-set sizes: complete collapsed
  checkpoint sets everywhere, complete NFBF sets through the 74LS181,
  ≈1000-fault distance-weighted NFBF samples on the large circuits, and
  functional decomposition for C499 and larger (exactly the paper's own
  concession on those circuits).

Select with ``REPRO_SCALE=paper`` in the environment or the ``--scale``
CLI flag.

The knob fields of a :class:`Scale` (seed, workers, engine, reorder,
mode, ci_width, pattern_budget, cache) default to ``None``: each then
resolves through :mod:`repro.knobs` — the explicit field, else its
``REPRO_*`` variable, else the knob's default.
"""

from __future__ import annotations

from dataclasses import dataclass, field, fields
from typing import Any, Mapping

from repro import knobs
from repro.knobs import CAMPAIGN_ENGINES, CAMPAIGN_MODES  # noqa: F401


@dataclass(frozen=True)
class Scale:
    """Fault-set sizing and decomposition policy for one run profile."""

    name: str
    #: master seed of the fault samples and random patterns
    seed: int | None = None
    #: circuits covered by the suite-wide figures, in size order
    circuits: tuple[str, ...] = (
        "c17",
        "fulladder",
        "c95",
        "alu181",
        "c432",
        "c499",
        "c1355",
        "c1908",
    )
    #: stuck-at sample size per circuit; absent/None = full collapsed set
    stuck_at_samples: Mapping[str, int | None] = field(default_factory=dict)
    #: per-kind bridging sample target; absent/None = full NFBF set
    bridging_samples: Mapping[str, int | None] = field(default_factory=dict)
    #: cut-point decomposition threshold per circuit; absent = exact
    decompose: Mapping[str, int] = field(default_factory=dict)
    #: OBDD variable-order heuristic per circuit: "declared" (the
    #: paper's choice, default) or "dfs" (fanin DFS — several times
    #: faster on the deep SEC/DED circuit). Ordering never changes any
    #: computed quantity, only runtime.
    orderings: Mapping[str, str] = field(default_factory=dict)
    #: worker processes for campaign execution. Campaigns on tiny
    #: circuits fall back to serial regardless — results are
    #: bit-identical either way (see ``repro.experiments.parallel``).
    workers: int | None = None
    #: campaign engine: ``"dp"`` (exact OBDD Δ-propagation) or
    #: ``"bitparallel"`` (the vectorized kernel — exact on exhaustive
    #: circuits, sampled beyond them)
    engine: str | None = None
    #: dynamic variable reordering (Rudell sifting) in the DP engine:
    #: an initial sift after the good-function build plus growth-
    #: triggered re-sifts at the GC boundary. Never changes any computed
    #: quantity, only memory/runtime.
    reorder: bool | None = None
    #: campaign mode: ``"exact"`` (closed-form detectabilities) or
    #: ``"sampled"`` (stratified Monte-Carlo estimation with Wilson
    #: confidence intervals — see :mod:`repro.sampling`)
    mode: str | None = None
    #: sampled mode's target CI half-width per fault
    ci_width: float | None = None
    #: sampled mode's per-fault pattern budget
    pattern_budget: int | None = None
    #: consult the content-addressed run ledger (``results/ledger/``)
    #: before computing a campaign, and record fresh results into it. A
    #: ledger-served result is equal to the computed one (exact
    #: fractions round trip); only the execution telemetry differs.
    cache: bool | None = None

    def stuck_at_limit(self, circuit: str) -> int | None:
        return self.stuck_at_samples.get(circuit)

    def bridging_target(self, circuit: str) -> int | None:
        return self.bridging_samples.get(circuit)

    def decompose_threshold(self, circuit: str) -> int | None:
        return self.decompose.get(circuit)

    def ordering(self, circuit: str) -> str:
        return self.orderings.get(circuit, "declared")

    def resolve(self, knob: str) -> Any:
        """One knob's value: the explicit field, else its ``REPRO_*``
        variable, else the knob's default (see :mod:`repro.knobs`)."""
        return knobs.BY_NAME[knob].resolve(getattr(self, knob))

    def effective_seed(self) -> int:
        return self.resolve("seed")

    def effective_workers(self) -> int:
        return self.resolve("workers")

    def effective_engine(self) -> str:
        return self.resolve("engine")

    def effective_reorder(self) -> bool:
        return self.resolve("reorder")

    def effective_mode(self) -> str:
        return self.resolve("mode")

    def effective_ci_width(self) -> float:
        return self.resolve("ci_width")

    def effective_pattern_budget(self) -> int:
        return self.resolve("pattern_budget")

    def effective_cache(self) -> bool:
        return self.resolve("cache")


#: The :class:`Scale` fields that are knobs.
KNOB_FIELDS = tuple(
    f.name for f in fields(Scale) if f.name in knobs.BY_NAME
)


SCALES: dict[str, Scale] = {
    "ci": Scale(
        name="ci",
        stuck_at_samples={"c499": 120, "c1355": 260, "c1908": 40},
        bridging_samples={
            "alu181": 400,
            "c432": 250,
            "c499": 100,
            "c1355": 60,
            "c1908": 15,
        },
        orderings={"c1908": "dfs"},
    ),
    "smoke": Scale(
        name="smoke",
        circuits=("c17", "fulladder", "c95", "alu181", "c432"),
        stuck_at_samples={"c432": 120},
        bridging_samples={"alu181": 120, "c432": 80},
    ),
    "paper": Scale(
        name="paper",
        bridging_samples={
            "c432": 1000,
            "c499": 1000,
            "c1355": 1000,
            "c1908": 1000,
        },
        orderings={"c1908": "dfs"},
    ),
}


def get_scale(name: str | None = None) -> Scale:
    """Resolve a scale by name, falling back to ``$REPRO_SCALE`` then ``ci``."""
    if name is None:
        name = knobs.SCALE.read()
    try:
        return SCALES[name]
    except KeyError:
        raise KeyError(
            f"unknown scale {name!r}; known: {', '.join(SCALES)}"
        ) from None
