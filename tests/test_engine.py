"""Difference Propagation versus the exhaustive oracle — the core claim.

The engine's complete test sets must agree with brute force *exactly*:
same detectabilities, same test vectors, same PO observability, for
stuck-at faults (stems and branches) and bridging faults alike.
"""

from __future__ import annotations

import pytest
from hypothesis import given, settings

from repro.core.engine import DifferencePropagation
from repro.core.symbolic import CircuitFunctions
from repro.faults.bridging import BridgeKind, BridgingFault, enumerate_nfbfs
from repro.benchcircuits.registry import get_circuit
from repro.faults.lines import Line
from repro.faults.multiple import MultipleStuckAtFault, double_faults
from repro.faults.stuck_at import (
    StuckAtFault,
    all_stuck_at_faults,
    collapsed_checkpoint_faults,
)
from repro.simulation.truthtable import TruthTableSimulator

from tests.strategies import circuits


def _words_agree(circuit, analysis, simulator, fault) -> bool:
    """Compare the OBDD test set with the simulator's detection word."""
    word = simulator.detection_word(fault)
    if analysis.test_count() != bin(word).count("1"):
        return False
    for assignment in analysis.tests.minterms():
        vector = sum(
            1 << i for i, net in enumerate(circuit.inputs) if assignment[net]
        )
        if not (word >> vector) & 1:
            return False
    return True


class TestStuckAtExactness:
    @pytest.mark.parametrize("circuit_name", ["c17", "fulladder"])
    def test_every_fault_matches_brute_force(self, circuit_name, request):
        circuit = request.getfixturevalue(circuit_name)
        engine = DifferencePropagation(circuit)
        simulator = TruthTableSimulator(circuit)
        for fault in all_stuck_at_faults(circuit):
            analysis = engine.analyze(fault)
            assert analysis.detectability == simulator.detectability(fault)
            assert _words_agree(circuit, analysis, simulator, fault)

    def test_branch_faults_differ_from_stem_faults(self, c17):
        """A fanout branch fault must NOT be treated as a stem fault."""
        engine = DifferencePropagation(c17)
        # G11 fans out to G16 and G19; the branch fault only enters G16.
        stem = engine.analyze(StuckAtFault(Line("G11"), True))
        branch = engine.analyze(StuckAtFault(Line("G11", "G16", 1), True))
        assert stem.tests != branch.tests

    def test_po_observability_matches_simulation(self, c95):
        engine = DifferencePropagation(c95)
        simulator = TruthTableSimulator(c95)
        for fault in all_stuck_at_faults(c95)[::7]:
            analysis = engine.analyze(fault)
            observable = set()
            injection_word = simulator.detection_word(fault)
            if injection_word:
                from repro.simulation import _engine as sim_engine
                from repro.simulation.injection import injection_for

                faulty = sim_engine.faulty_pass(
                    c95,
                    {n: simulator.good_word(n) for n in c95.nets},
                    injection_for(fault),
                    simulator.mask,
                )
                observable = {
                    po
                    for po in c95.outputs
                    if faulty[po] != simulator.good_word(po)
                }
            assert analysis.observable_pos == observable

    def test_undetectable_redundant_fault(self, c1908=None):
        """The c1908 surrogate's redundant compare cone has undetectable faults."""
        from repro.benchcircuits import get_circuit

        circuit = get_circuit("c1908")
        engine = DifferencePropagation(circuit)
        # cmp gates feed only erra, which single|uncorr already implies;
        # at least one fault in that cone must be undetectable.
        cone_faults = [
            StuckAtFault(Line("anycmp"), False),
            StuckAtFault(Line("anycmp"), True),
        ]
        detectable = [engine.analyze(f).is_detectable for f in cone_faults]
        assert not all(detectable)


class TestBridgingExactness:
    def test_all_c17_bridges_match_brute_force(self, c17):
        engine = DifferencePropagation(c17)
        simulator = TruthTableSimulator(c17)
        for kind in BridgeKind:
            for fault in enumerate_nfbfs(c17, kind):
                analysis = engine.analyze(fault)
                assert analysis.detectability == simulator.detectability(fault)
                assert _words_agree(c17, analysis, simulator, fault)

    def test_sampled_c95_bridges_match_brute_force(self, c95):
        engine = DifferencePropagation(c95)
        simulator = TruthTableSimulator(c95)
        for kind in BridgeKind:
            faults = list(enumerate_nfbfs(c95, kind))[::31]
            for fault in faults:
                analysis = engine.analyze(fault)
                assert analysis.detectability == simulator.detectability(fault)

    def test_and_or_bridges_differ(self, c17):
        engine = DifferencePropagation(c17)
        and_bf = engine.analyze(BridgingFault("G10", "G11", BridgeKind.AND))
        or_bf = engine.analyze(BridgingFault("G10", "G11", BridgeKind.OR))
        assert and_bf.tests != or_bf.tests


class TestEngineMechanics:
    def test_functions_are_shared_across_faults(self, c95):
        functions = CircuitFunctions(c95)
        engine = DifferencePropagation(c95, functions=functions)
        engine.analyze(StuckAtFault(Line("a0"), True))
        assert engine.functions is functions

    def test_rebuild_on_node_budget(self, c95):
        engine = DifferencePropagation(c95, rebuild_node_limit=1)
        before = engine.functions
        first = engine.analyze(StuckAtFault(Line("a0"), True))
        engine.analyze(StuckAtFault(Line("a1"), True))
        assert engine.functions is not before
        # Results from before the rebuild stay usable.
        assert first.tests.satcount() >= 0

    def test_rebuild_preserves_results(self, c95):
        loose = DifferencePropagation(c95)
        tight = DifferencePropagation(c95, rebuild_node_limit=1)
        for fault in all_stuck_at_faults(c95)[:20]:
            assert (
                loose.analyze(fault).detectability
                == tight.analyze(fault).detectability
            )

    def test_unsupported_fault_type(self, c17):
        engine = DifferencePropagation(c17)
        with pytest.raises(TypeError):
            engine.analyze("bogus")  # type: ignore[arg-type]

    def test_analyze_all(self, c17):
        engine = DifferencePropagation(c17)
        faults = all_stuck_at_faults(c17)[:5]
        analyses = list(engine.analyze_all(faults))
        assert [a.fault for a in analyses] == faults

    def test_pick_test_detects(self, fulladder):
        engine = DifferencePropagation(fulladder)
        simulator = TruthTableSimulator(fulladder)
        fault = StuckAtFault(Line("half"), False)
        test = engine.analyze(fault).pick_test()
        assert test is not None
        vector = sum(
            1 << i for i, net in enumerate(fulladder.inputs) if test[net]
        )
        assert (simulator.detection_word(fault) >> vector) & 1


def _site_gates(circuit, fault) -> frozenset[str]:
    """Gates in the transitive fanout of every site of ``fault``."""
    if isinstance(fault, MultipleStuckAtFault):
        return frozenset().union(
            *(_site_gates(circuit, c) for c in fault.components)
        )
    if isinstance(fault, BridgingFault):
        return circuit.transitive_fanout(
            fault.net_a
        ) | circuit.transitive_fanout(fault.net_b)
    line = fault.line
    if line.is_stem:
        return circuit.transitive_fanout(line.net)
    return circuit.transitive_fanout(line.sink) | {line.sink}


def _nested_doubles(circuit) -> list[MultipleStuckAtFault]:
    """Double faults with one component in the other's fanout cone."""
    return [
        fault
        for fault in double_faults(all_stuck_at_faults(circuit))
        if any(
            (first.line.sink or first.line.net)
            in _site_gates(circuit, second)
            for first, second in (fault.components, fault.components[::-1])
        )
    ]


class TestFrontier:
    """Selective trace: only the fault sites' fanout cone is evaluated."""

    @staticmethod
    def _check_cone_bound(circuit, faults, simulator=None) -> int:
        engine = DifferencePropagation(circuit)
        checked = 0
        for fault in faults:
            before = engine.gates_evaluated
            analysis = engine.analyze(fault)
            evaluated = engine.gates_evaluated - before
            assert evaluated <= len(_site_gates(circuit, fault)), fault
            if simulator is not None:
                assert analysis.detectability == simulator.detectability(
                    fault
                ), fault
            checked += 1
        return checked

    def test_c432_stuck_at_faults_stay_in_their_cone(self):
        c432 = get_circuit("c432")
        faults = collapsed_checkpoint_faults(c432)
        assert self._check_cone_bound(c432, faults) == len(faults)

    def test_c17_bridges_stay_in_their_cone_and_match(self, c17):
        simulator = TruthTableSimulator(c17)
        for kind in BridgeKind:
            faults = list(enumerate_nfbfs(c17, kind))
            assert self._check_cone_bound(c17, faults, simulator) == len(faults)

    def test_nested_multiple_faults_stay_in_their_cone_and_match(self, c17):
        faults = _nested_doubles(c17)
        # the upstream site's cone holds the downstream one; G11 feeds
        # G16, so this pair must be among them
        assert MultipleStuckAtFault.of(
            StuckAtFault(Line("G11"), True), StuckAtFault(Line("G16"), False)
        ) in faults
        simulator = TruthTableSimulator(c17)
        assert self._check_cone_bound(c17, faults, simulator) == len(faults)

    def test_counter_is_cumulative_and_skips_dead_gates(self, c17):
        engine = DifferencePropagation(c17)
        assert engine.gates_evaluated == 0
        # A PO stem fault wakes no gate at all.
        engine.analyze(StuckAtFault(Line("G22"), True))
        assert engine.gates_evaluated == 0
        # G10 feeds only G22: exactly one gate evaluated.
        engine.analyze(StuckAtFault(Line("G10"), True))
        assert engine.gates_evaluated == 1
        engine.analyze(StuckAtFault(Line("G10"), False))
        assert engine.gates_evaluated == 2


@settings(max_examples=20, deadline=None)
@given(circuits(max_inputs=4, max_gates=12))
def test_dp_equals_brute_force_on_random_circuits(circuit):
    """The headline property: DP is exact on arbitrary circuits."""
    engine = DifferencePropagation(circuit)
    simulator = TruthTableSimulator(circuit)
    for fault in all_stuck_at_faults(circuit):
        assert engine.analyze(fault).detectability == simulator.detectability(
            fault
        )


@settings(max_examples=12, deadline=None)
@given(circuits(max_inputs=4, max_gates=10))
def test_dp_equals_brute_force_on_random_bridges(circuit):
    engine = DifferencePropagation(circuit)
    simulator = TruthTableSimulator(circuit)
    for kind in BridgeKind:
        for fault in list(enumerate_nfbfs(circuit, kind))[:25]:
            assert engine.analyze(fault).detectability == simulator.detectability(
                fault
            )
