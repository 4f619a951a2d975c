"""Unit + property tests for bridging-fault enumeration and screening."""

from __future__ import annotations

import pytest
from hypothesis import given, settings

from repro.benchcircuits import get_circuit
from repro.circuit.builder import CircuitBuilder
from repro.faults.bridging import (
    BridgeKind,
    BridgingFault,
    enumerate_nfbfs,
    is_feedback_pair,
    is_trivially_undetectable,
)
from repro.faults.sampling import sample_bridging_faults
from repro.simulation.truthtable import TruthTableSimulator

from tests.strategies import circuits


class TestBridgingFault:
    def test_pair_is_canonicalized(self):
        a = BridgingFault("x", "y", BridgeKind.AND)
        b = BridgingFault("y", "x", BridgeKind.AND)
        assert a == b
        assert a.nets == ("x", "y")

    def test_self_bridge_rejected(self):
        with pytest.raises(ValueError):
            BridgingFault("x", "x", BridgeKind.OR)

    def test_str(self):
        fault = BridgingFault("b", "a", BridgeKind.OR)
        assert str(fault) == "OR-BF(a, b)"


class TestFeedbackScreen:
    def test_direct_fanout_is_feedback(self, tiny_circuit):
        assert is_feedback_pair(tiny_circuit, "a", "conj")
        assert is_feedback_pair(tiny_circuit, "conj", "a")  # symmetric

    def test_disjoint_cones_are_not_feedback(self, tiny_circuit):
        assert not is_feedback_pair(tiny_circuit, "conj", "nc")
        assert not is_feedback_pair(tiny_circuit, "a", "c")

    def test_enumeration_excludes_feedback(self, c17):
        for kind in BridgeKind:
            for fault in enumerate_nfbfs(c17, kind):
                assert not is_feedback_pair(c17, fault.net_a, fault.net_b)


class TestTrivialScreen:
    @staticmethod
    def _same_gate_circuit(gate: str):
        b = CircuitBuilder("same_gate")
        x, y = b.inputs("x", "y")
        net = getattr(b, gate)(x, y, name="g")
        b.output(net)
        return b.build()

    def test_and_bridge_into_and_gate_is_trivial(self):
        circuit = self._same_gate_circuit("and_")
        assert is_trivially_undetectable(circuit, "x", "y", BridgeKind.AND)
        assert not is_trivially_undetectable(circuit, "x", "y", BridgeKind.OR)

    def test_or_bridge_into_nor_gate_is_trivial(self):
        circuit = self._same_gate_circuit("nor")
        assert is_trivially_undetectable(circuit, "x", "y", BridgeKind.OR)
        assert not is_trivially_undetectable(circuit, "x", "y", BridgeKind.AND)

    def test_extra_fanout_defeats_the_screen(self):
        b = CircuitBuilder("extra")
        x, y = b.inputs("x", "y")
        b.output(b.and_(x, y, name="g"))
        b.output(b.buf(x, name="tap"))  # x escapes elsewhere
        circuit = b.build()
        assert not is_trivially_undetectable(circuit, "x", "y", BridgeKind.AND)

    def test_output_only_nets_not_screened(self, tiny_circuit):
        # y and z drive nothing; the bridge is observable at the POs.
        assert not is_trivially_undetectable(
            tiny_circuit, "y", "z", BridgeKind.AND
        )

    def test_screened_bridges_really_are_undetectable(self):
        circuit = self._same_gate_circuit("nand")
        simulator = TruthTableSimulator(circuit)
        fault = BridgingFault("x", "y", BridgeKind.AND)
        assert simulator.detection_word(fault) == 0


class TestEnumeration:
    def test_candidate_count_small_circuit(self, tiny_circuit):
        # 7 nets -> 21 pairs minus feedback and trivial screens.
        faults = list(enumerate_nfbfs(tiny_circuit, BridgeKind.AND))
        assert 0 < len(faults) < 21
        assert len(set(faults)) == len(faults)

    def test_include_outputs_flag(self, tiny_circuit):
        with_outputs = set(enumerate_nfbfs(tiny_circuit, BridgeKind.OR))
        without = set(
            enumerate_nfbfs(tiny_circuit, BridgeKind.OR, include_outputs=False)
        )
        assert without < with_outputs
        assert all(
            not tiny_circuit.is_output(f.net_a)
            and not tiny_circuit.is_output(f.net_b)
            for f in without
        )

    @pytest.mark.parametrize(
        "name, and_count, or_count",
        [
            ("c95", 1722, 1719),
            ("alu181", 2454, 2433),
            ("c432", 31726, 31676),
            ("c499", 70684, 70780),
            ("c1355", 250003, 250244),
            ("c1908", 125200, 125358),
        ],
    )
    def test_pinned_candidate_counts(self, name, and_count, or_count):
        circuit = get_circuit(name)
        assert len(enumerate_nfbfs(circuit, BridgeKind.AND)) == and_count
        assert len(enumerate_nfbfs(circuit, BridgeKind.OR)) == or_count

    def test_drawing_builds_only_the_drawn_faults(self, monkeypatch):
        circuit = get_circuit("c1355")
        built = []
        post_init = BridgingFault.__post_init__

        def counting(self):
            built.append(self)
            post_init(self)

        monkeypatch.setattr(BridgingFault, "__post_init__", counting)
        candidates = enumerate_nfbfs(circuit, BridgeKind.AND)
        drawn = sample_bridging_faults(circuit, candidates, 1, seed=0)
        assert len(drawn) == 1
        assert len(built) <= 3


@settings(max_examples=20, deadline=None)
@given(circuits(max_inputs=4, max_gates=10))
def test_enumerated_bridges_are_well_formed(circuit):
    for kind in BridgeKind:
        for fault in enumerate_nfbfs(circuit, kind):
            assert fault.net_a != fault.net_b
            assert not is_feedback_pair(circuit, fault.net_a, fault.net_b)


@settings(max_examples=15, deadline=None)
@given(circuits(max_inputs=4, max_gates=8))
def test_screened_pairs_are_functionally_undetectable(circuit):
    """Whatever the trivial screen drops must truly be undetectable."""
    simulator = TruthTableSimulator(circuit)
    nets = list(circuit.nets)
    for kind in BridgeKind:
        kept = set(enumerate_nfbfs(circuit, kind))
        for i, net_a in enumerate(nets):
            for net_b in nets[i + 1 :]:
                if is_feedback_pair(circuit, net_a, net_b):
                    continue
                fault = BridgingFault(net_a, net_b, kind)
                if fault not in kept:
                    assert simulator.detection_word(fault) == 0
