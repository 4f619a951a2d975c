"""The Difference Propagation engine.

One engine instance amortizes the circuit's good functions (and the
underlying OBDD manager) across an entire fault campaign:

1. **initialize** — seed the difference function at the fault site(s):
   ``Δf = f ⊕ v`` for a stuck-at line, or the asymmetric disturbance
   pair for a bridge (``Δf_u = f_u·f̄_v`` etc.);
2. **propagate** — grow a frontier from the fault site(s): a gate is
   woken only when one of its input nets gets a nonzero difference, and
   woken gates run in topological order, each computing its output
   difference from the input goods and differences via the Table 1
   identities ("in a manner analogous to selective trace, calculations
   are only performed as long as difference information exists"). Gates
   outside the sites' fanout cone are never visited;
3. **collect** — the union of the primary-output differences is
   "identically the complete test set for the fault".

Long campaigns accumulate dead difference nodes in the shared manager;
between faults the engine reclaims them with threshold-triggered
incremental garbage collection (:meth:`BDDManager.gc
<repro.bdd.manager.BDDManager.gc>`): once the in-use node count
crosses ``gc_node_limit`` the manager mark-sweeps everything
unreachable from the good functions and outstanding ``Function``
handles. Because live node ids never move, every previously returned
analysis stays valid across collections. Only if even the *live*
population exceeds ``rebuild_node_limit`` does the engine fall back to
the legacy whole-manager rebuild (a full good-function reconstruction
in a fresh manager) — with GC enabled that path should never trigger
on the paper's workloads.

When dynamic reordering is enabled (``reorder=True``, or
``$REPRO_REORDER`` with the default ``reorder=None``), the engine
additionally sifts the variable order (:meth:`BDDManager.sift
<repro.bdd.manager.BDDManager.sift>`): once right after the good
functions are built — the build usually dominates the live population,
so a campaign under a bad declared order gains the most there — and
again at the between-fault GC boundary whenever the post-sweep live
count has grown past ``reorder_growth`` × the post-sift baseline.
Sifting shares GC's root contract and id stability, so it slots into
exactly the same safe point.
"""

from __future__ import annotations

from heapq import heapify, heappop, heappush
from typing import Iterable, Iterator, Sequence

from repro import knobs
from repro.bdd.cache import ManagerStats
from repro.bdd.function import Function
from repro.bdd.manager import FALSE
from repro.circuit.netlist import Circuit
from repro.core.difference import gate_output_difference
from repro.obs.trace import span as _span
from repro.core.metrics import Fault, FaultAnalysis
from repro.core.symbolic import CircuitFunctions
from repro.faults.bridging import BridgeKind, BridgingFault
from repro.faults.multiple import MultipleStuckAtFault
from repro.faults.stuck_at import StuckAtFault

#: Default in-use node count that triggers an incremental GC between
#: fault analyses. The threshold adapts upward when a sweep finds the
#: store mostly live (see ``_manage_memory``), so a tight default is
#: safe even for circuits whose good functions alone exceed it.
DEFAULT_GC_NODE_LIMIT = 100_000

#: Default live-node growth factor (vs. the post-sift baseline) that
#: re-triggers sifting at the GC boundary.
DEFAULT_REORDER_GROWTH = 2.0


class DifferencePropagation:
    """Exact (or cut-point-approximate) fault analysis for one circuit."""

    def __init__(
        self,
        circuit: Circuit,
        functions: CircuitFunctions | None = None,
        order: Sequence[str] | None = None,
        decompose_threshold: int | None = None,
        gc_node_limit: int = DEFAULT_GC_NODE_LIMIT,
        rebuild_node_limit: int = 4_000_000,
        reorder: bool | None = None,
        reorder_growth: float = DEFAULT_REORDER_GROWTH,
    ) -> None:
        self.circuit = circuit
        self.functions = functions or CircuitFunctions(
            circuit, order=order, decompose_threshold=decompose_threshold
        )
        self.gc_node_limit = gc_node_limit
        self.rebuild_node_limit = rebuild_node_limit
        #: current (adaptive) GC trigger; starts at ``gc_node_limit``
        #: and grows when a sweep finds the store mostly live
        self._gc_threshold = gc_node_limit
        #: dynamic reordering policy: ``None`` defers to $REPRO_REORDER
        #: (engines built that way, the verify sweeps included, all
        #: follow ``REPRO_REORDER=1``)
        self.reorder = knobs.REORDER.resolve(reorder)
        self.reorder_growth = reorder_growth
        #: sifting passes this engine triggered / swaps they performed
        self.reorder_runs = 0
        self.reorder_swaps = 0
        #: live nodes just before / after the most recent sifting pass
        self.reorder_nodes_before = 0
        self.reorder_nodes_after = 0
        #: post-sift live-node baseline the growth trigger compares to
        self._reorder_baseline = self.functions.manager.num_live_nodes
        if self.reorder:
            # The initial build dominates the live population under a
            # bad declared order — sift before recording any peaks. A
            # shared function table may already be sifted (campaigns
            # reuse one across chunks); only re-sift if it has grown
            # past the growth factor since, a full pass costs minutes
            # on the big circuits.
            last = self.functions.manager.last_reorder
            if last is None or self.functions.manager.num_live_nodes > (
                self.reorder_growth * max(last.nodes_after, 1)
            ):
                self._sift_now()
            else:
                self._reorder_baseline = last.nodes_after
        #: largest node store seen across every manager this engine has
        #: driven (GC slot reuse and rebuilds reset the store, never
        #: this high-water mark)
        self.peak_nodes = self.functions.manager.num_nodes
        #: largest in-use (live) node count seen between collections
        self.peak_live_nodes = self.functions.manager.num_live_nodes
        #: incremental GC sweeps triggered by this engine
        self.gc_runs = 0
        #: node slots those sweeps reclaimed, summed over all managers
        self.reclaimed_nodes = 0
        #: whole-manager rebuild fallbacks (should stay 0 with GC on)
        self.rebuilds = 0
        #: gates whose output Δ was computed, summed over every fault
        self.gates_evaluated = 0
        # The propagation frontier's static half: gates in topological
        # order, each gate's position in it, and each net's sink gates.
        self._gates = list(circuit.gates())
        self._gate_index = {gate.name: i for i, gate in enumerate(self._gates)}
        self._sinks: dict[str, list[int]] = {net: [] for net in circuit.nets}
        for i, gate in enumerate(self._gates):
            for fanin in gate.fanins:
                self._sinks[fanin].append(i)

    # ------------------------------------------------------------------
    def analyze(self, fault: Fault) -> FaultAnalysis:
        """Complete test set and observability of one fault."""
        with _span("dp.compute_test_set", fault=fault) as sp:
            analysis = self._analyze(fault)
            sp.set(observable_pos=len(analysis.po_deltas))
        return analysis

    def _analyze(self, fault: Fault) -> FaultAnalysis:
        self._manage_memory()
        functions = self.functions
        m = functions.manager
        node = functions.node
        gates, index, sinks = self._gates, self._gate_index, self._sinks
        stem_deltas, branch_deltas = self._initialize(fault)

        # Selective trace: only gates fed by a nonzero Δ are woken, and
        # the heap pops them in topological index order — the order a
        # full sweep would visit them — so a gate runs after every
        # fanin Δ it can see is final. A gate fed by several live nets
        # is pushed once per net; the repeats pop back to back.
        deltas: dict[str, int] = dict(stem_deltas)
        frontier: list[int] = []
        for net, delta in stem_deltas.items():
            if delta != FALSE:
                frontier.extend(sinks[net])
        pinned: dict[int, dict[int, int]] = {}
        for (sink, pin), delta in branch_deltas.items():
            pinned.setdefault(index[sink], {})[pin] = delta
            if delta != FALSE:
                frontier.append(index[sink])
        heapify(frontier)
        evaluated = 0
        last = -1
        while frontier:
            i = heappop(frontier)
            if i == last:
                continue
            last = i
            gate = gates[i]
            name = gate.name
            if name in stem_deltas:
                continue  # the fault pins this net's difference
            input_deltas = [deltas.get(fanin, FALSE) for fanin in gate.fanins]
            if i in pinned:
                for pin, delta in pinned[i].items():
                    input_deltas[pin] = delta
            goods = [node(fanin) for fanin in gate.fanins]
            out_delta = gate_output_difference(
                m, gate.gate_type, goods, input_deltas
            )
            evaluated += 1
            if out_delta != FALSE:
                deltas[name] = out_delta
                for j in sinks[name]:
                    heappush(frontier, j)
        self.gates_evaluated += evaluated

        po_deltas: dict[str, Function] = {}
        tests_node = FALSE
        for po in self.circuit.outputs:
            delta = deltas.get(po, FALSE)
            if delta != FALSE:
                po_deltas[po] = Function(m, delta)
                tests_node = m.apply_or(tests_node, delta)
        if m.num_nodes > self.peak_nodes:
            self.peak_nodes = m.num_nodes
        if m.num_live_nodes > self.peak_live_nodes:
            self.peak_live_nodes = m.num_live_nodes
        return FaultAnalysis(
            fault=fault, tests=Function(m, tests_node), po_deltas=po_deltas
        )

    def analyze_all(self, faults: Iterable[Fault]) -> Iterator[FaultAnalysis]:
        """Analyze a fault list, managing manager growth along the way."""
        for fault in faults:
            yield self.analyze(fault)

    def manager_stats(self) -> ManagerStats:
        """Telemetry snapshot of the engine's current manager."""
        return self.functions.manager.stats()

    # ------------------------------------------------------------------
    def _initialize(
        self, fault: Fault
    ) -> tuple[dict[str, int], dict[tuple[str, int], int]]:
        """Seed difference functions at the fault site(s)."""
        functions = self.functions
        m = functions.manager
        if isinstance(fault, MultipleStuckAtFault):
            # Each component pins its site independently: a stuck line
            # is constant regardless of other faults upstream of it, so
            # Δf at every site is still f ⊕ v of the fault-free f.
            stems: dict[str, int] = {}
            branches: dict[tuple[str, int], int] = {}
            for component in fault.components:
                single_stems, single_branches = self._initialize(component)
                stems.update(single_stems)
                branches.update(single_branches)
            return stems, branches
        if isinstance(fault, StuckAtFault):
            good = functions.node(fault.line.net)
            # Δf = f ⊕ v: s-a-0 disturbs where f=1, s-a-1 where f=0.
            delta = m.apply_not(good) if fault.value else good
            if fault.line.is_stem:
                return {fault.line.net: delta}, {}
            return {}, {(fault.line.sink, fault.line.pin): delta}
        if isinstance(fault, BridgingFault):
            fa = functions.node(fault.net_a)
            fb = functions.node(fault.net_b)
            if fault.kind is BridgeKind.AND:
                delta_a = m.apply_and(fa, m.apply_not(fb))
                delta_b = m.apply_and(m.apply_not(fa), fb)
            else:
                delta_a = m.apply_and(m.apply_not(fa), fb)
                delta_b = m.apply_and(fa, m.apply_not(fb))
            return {fault.net_a: delta_a, fault.net_b: delta_b}, {}
        raise TypeError(f"unsupported fault type {type(fault).__name__}")

    def _manage_memory(self) -> None:
        """Reclaim dead nodes between faults; rebuild only as a fallback.

        Runs before each analysis, when every difference node of the
        previous fault is unreachable (unless the caller kept its
        ``FaultAnalysis`` alive, in which case its roots are pinned by
        the handles' references). A sweep that finds the store mostly
        live raises the threshold — collecting an almost-fully-live
        store every fault would thrash — so steady-state in-use counts
        stay bounded by the (possibly adapted) threshold.
        """
        m = self.functions.manager
        if m.num_live_nodes > self._gc_threshold:
            self.reclaimed_nodes += m.gc()
            self.gc_runs += 1
            live = m.num_live_nodes
            if live > self._gc_threshold // 2:
                self._gc_threshold = max(self.gc_node_limit, 2 * live)
        if self.reorder and m.num_live_nodes > self.reorder_growth * max(
            self._reorder_baseline, self.gc_node_limit
        ):
            # Live growth past the post-sift baseline means the current
            # order is losing to this fault population; re-sift at the
            # same safe point GC runs at (no raw ints outstanding). The
            # gc_node_limit floor keeps small circuits from sift-storming:
            # below it, per-fault transients dwarf any order's footprint
            # and a pass costs far more than it could ever reclaim.
            self._sift_now()
        if m.num_live_nodes > self.rebuild_node_limit:
            with _span("dp.rebuild", live_nodes=m.num_live_nodes):
                self.functions = self.functions.rebuilt()
            self.rebuilds += 1
            self._reorder_baseline = self.functions.manager.num_live_nodes
            if self.reorder:
                self._sift_now()

    def _sift_now(self) -> None:
        """Run one sifting pass and fold its stats into the telemetry."""
        stats = self.functions.manager.sift()
        self.reorder_runs += 1
        self.reorder_swaps += stats.swaps
        self.reorder_nodes_before = stats.nodes_before
        self.reorder_nodes_after = stats.nodes_after
        self._reorder_baseline = stats.nodes_after
        # A large reduction leaves the adaptive GC trigger stranded far
        # above the new working set; pull it back so sweeps resume at
        # the scale the sifted order actually needs.
        self._gc_threshold = max(self.gc_node_limit, 2 * stats.nodes_after)
