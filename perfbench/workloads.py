"""What one round of each benchmark workload asks the program to do.

Every workload builds its own :class:`~repro.experiments.config.Scale`
from the ``ci`` scale under a unique name (the in-process campaign
memos key on the scale name) and pins ``workers=1``, the engine, the
mode, reordering off and the ledger policy, so no ``$REPRO_*`` setting
can change what it measures.

The scale's ``seed`` is the *sample seed*: it draws the fault samples
and the kernel's random vectors, and ``expected.json`` pins the results
for sample seeds 0 and 1. Requests run in a fixed order: the order
alone moved wall time and peak RSS by 5-20% (it decides which campaign
grows the shared BDD manager, and which allocation finds the heap warm),
which would drown the benchmark's bounds.
"""

from __future__ import annotations

import dataclasses
from dataclasses import dataclass
from pathlib import Path
from typing import Any, Callable

from repro.benchcircuits import registry
from repro.experiments import ALL_EXPERIMENTS, campaigns, get_scale, runcache
from repro.experiments.config import Scale
from repro.faults.bridging import BridgeKind

#: The sampled engine seeds its patterns from the circuit *name*, so the
#: path stays relative: the workload process runs from the repo root.
MULT16 = "tests/bench/mult16.bench"

MODELS = ("stuck-at", "AND", "OR")

#: Circuits the suite's experiments use whatever the scale's roster.
SUITE_FIXED = ("c17", "fulladder", "c95", "alu181", "c1355")

#: ``wrap(experiment, fn)`` returns ``fn`` as the suite should call it
#: (the traced run wraps it in a timer).
Wrap = Callable[[str, Callable], Callable]


@dataclass(frozen=True)
class Request:
    """One campaign a round asks for."""

    circuit: str
    model: str  # one of MODELS
    engine: str = "dp"
    mode: str = "exact"

    @property
    def routing(self) -> str:
        return "sampled" if self.mode == "sampled" else self.engine

    @property
    def label(self) -> str:
        return f"{Path(self.circuit).stem}/{self.model}/{self.routing}"


def request(req: Request, scale: Scale) -> Any:
    """Run (or fetch) one campaign through the public campaign API."""
    if req.model == "stuck-at":
        return campaigns.stuck_at_campaign(
            req.circuit, scale, workers=1, engine=req.engine, mode=req.mode
        )
    return campaigns.bridging_campaign(
        req.circuit,
        BridgeKind(req.model),
        scale,
        workers=1,
        engine=req.engine,
        mode=req.mode,
    )


def _projection(req: Request, scale: Scale) -> dict:
    if req.model == "stuck-at":
        return runcache.stuck_at_projection(req.circuit, scale, req.routing)
    return runcache.bridging_projection(
        req.circuit, BridgeKind(req.model), scale, req.routing
    )


class CampaignWorkload:
    """Rounds that request a fixed list of campaigns.

    The cold pass runs with the ledger off; the bench then records the
    results (untimed) and the warm pass requests them again with the
    ledger on, after every cache was cleared.
    """

    def __init__(self, scale: Scale, requests: list[Request]):
        self.scale = scale
        self.requests = requests
        self.circuits = tuple(dict.fromkeys(r.circuit for r in requests))
        self.dp_circuits = tuple(
            dict.fromkeys(r.circuit for r in requests if r.routing == "dp")
        )

    def setup(self) -> None:
        """Load every circuit and build every DP-routed good-function
        table; the campaigns then reuse the memoised tables."""
        for name in self.circuits:
            registry.get_circuit(name)
        for name in self.dp_circuits:
            campaigns.circuit_functions(name, self.scale)

    def live_nodes(self) -> int:
        return sum(
            campaigns.circuit_functions(name, self.scale).manager.num_live_nodes
            for name in self.dp_circuits
        )

    def cold(self, wrap: Wrap) -> dict:
        return {r: request(r, self.scale) for r in self.requests}

    def record(self, outputs: dict) -> None:
        for req, result in outputs.items():
            runcache.record(_projection(req, self.scale), result)

    def warm(self, wrap: Wrap) -> dict:
        scale = dataclasses.replace(self.scale, cache=True)
        return {r: request(r, scale) for r in self.requests}

    def campaign_results(self, outputs: dict) -> dict[str, Any]:
        return {req.label: result for req, result in outputs.items()}

    def renders(self, outputs: dict) -> dict[str, str]:
        return {}


class SuiteWorkload(CampaignWorkload):
    """Rounds of the whole experiment suite against a fresh ledger.

    The cold pass records every campaign into the ledger as it computes
    it; the warm pass, after every cache was cleared, is served from it.
    Both passes render every experiment.
    """

    def __init__(self, scale: Scale):
        self.scale = scale
        self.circuits = tuple(dict.fromkeys(scale.circuits + SUITE_FIXED))
        self.dp_circuits = self.circuits
        self.requests = [Request(c, m) for c in self.circuits for m in MODELS]

    def cold(self, wrap: Wrap) -> dict:
        return {
            exp: wrap(exp, fn)(self.scale).render()
            for exp, fn in ALL_EXPERIMENTS.items()
        }

    def record(self, outputs: dict) -> None:
        """Nothing to do: the cold pass recorded as it went."""

    warm = cold

    def campaign_results(self, outputs: dict) -> dict[str, Any]:
        """The campaigns the last pass produced (memo hits, no work)."""
        return {req.label: request(req, self.scale) for req in self.requests}

    def renders(self, outputs: dict) -> dict[str, str]:
        return dict(outputs)


def _scale(name: str, sample_seed: int, **fields: Any) -> Scale:
    pinned = {"workers": 1, "reorder": False, "cache": False} | fields
    return dataclasses.replace(
        get_scale("ci"), name=f"bench-{name}", seed=sample_seed, **pinned
    )


def _dp_c432(sample_seed: int, size: str) -> CampaignWorkload:
    fields: dict[str, Any] = {"circuits": ("c432",), "engine": "dp", "mode": "exact"}
    if size == "smoke":
        fields |= {"stuck_at_samples": {"c432": 40}, "bridging_samples": {"c432": 10}}
    requests = [Request("c432", model) for model in MODELS]
    return CampaignWorkload(_scale("dp-c432", sample_seed, **fields), requests)


def _dp_c1908(sample_seed: int, size: str) -> CampaignWorkload:
    # One c1908 fault costs seconds and over a million BDD nodes; the
    # smoke size swaps in three c499 faults.
    circuit, limit = ("c499", 3) if size == "smoke" else ("c1908", 1)
    scale = _scale(
        "dp-c1908",
        sample_seed,
        circuits=(circuit,),
        stuck_at_samples={circuit: limit},
        engine="dp",
        mode="exact",
    )
    return CampaignWorkload(scale, [Request(circuit, "stuck-at")])


def _kernel_nfbf(sample_seed: int, size: str) -> CampaignWorkload:
    if size == "smoke":
        exact = [("alu181", "stuck-at"), ("c95", "AND")]
        samples = {MULT16: 200}
    else:
        exact = [(c, m) for c in ("alu181", "c95") for m in MODELS]
        exact += [("c499", "stuck-at"), ("c1908", "stuck-at")]
        samples = {}
    requests = [Request(c, m, engine="bitparallel") for c, m in exact]
    requests.append(Request(MULT16, "stuck-at", engine="bitparallel", mode="sampled"))
    scale = _scale(
        "kernel-nfbf",
        sample_seed,
        circuits=tuple(dict.fromkeys(r.circuit for r in requests)),
        stuck_at_samples=samples,
        bridging_samples={},
        engine="bitparallel",
        mode="exact",
    )
    return CampaignWorkload(scale, requests)


def _suite_ledger(sample_seed: int, size: str) -> SuiteWorkload:
    if size == "smoke":
        fields: dict[str, Any] = {
            "circuits": ("c17", "fulladder", "c95"),
            "stuck_at_samples": {"c1355": 1},
            "bridging_samples": {"c95": 20, "alu181": 20, "c1355": 1},
        }
    else:
        fields = {
            "circuits": ("c17", "fulladder", "c95", "alu181", "c432", "c499", "c1355"),
            "stuck_at_samples": {"c432": 40, "c499": 4, "c1355": 1},
            "bridging_samples": {
                "c95": 40, "alu181": 20, "c432": 15, "c499": 2, "c1355": 1,
            },
        }
    return SuiteWorkload(
        _scale("suite-ledger", sample_seed, engine="dp", mode="exact",
               cache=True, **fields)
    )


#: Workload name -> factory(sample_seed, size), size "full" or "smoke".
WORKLOADS: dict[str, Callable[[int, str], Any]] = {
    "dp-c432": _dp_c432,
    "dp-c1908": _dp_c1908,
    "kernel-nfbf": _kernel_nfbf,
    "suite-ledger": _suite_ledger,
}
