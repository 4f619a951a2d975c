"""Unit tests for the Circuit container."""

from __future__ import annotations

import pytest

from repro.benchcircuits.registry import CIRCUIT_NAMES, get_circuit
from repro.circuit.gates import GateType
from repro.circuit.netlist import Circuit, CircuitError, Gate


def _chain() -> Circuit:
    """i0 -> NOT a -> NOT b -> NOT c, output c."""
    c = Circuit("chain")
    c.add_input("i0")
    c.add_gate("a", GateType.NOT, ["i0"])
    c.add_gate("b", GateType.NOT, ["a"])
    c.add_gate("c", GateType.NOT, ["b"])
    c.add_output("c")
    return c


class TestConstruction:
    def test_duplicate_net_rejected(self):
        c = Circuit("x")
        c.add_input("a")
        with pytest.raises(CircuitError):
            c.add_input("a")
        with pytest.raises(CircuitError):
            c.add_gate("a", GateType.NOT, ["a"])

    def test_empty_name_rejected(self):
        c = Circuit("x")
        with pytest.raises(CircuitError):
            c.add_input("")

    def test_undefined_fanin_rejected(self):
        c = Circuit("x")
        c.add_input("a")
        with pytest.raises(CircuitError):
            c.add_gate("g", GateType.NOT, ["missing"])

    def test_gate_arity_checked(self):
        with pytest.raises(CircuitError):
            Gate("g", GateType.AND, ("a",))
        with pytest.raises(CircuitError):
            Gate("g", GateType.NOT, ("a", "b"))

    def test_input_via_add_gate_rejected(self):
        c = Circuit("x")
        with pytest.raises(CircuitError):
            c.add_gate("a", GateType.INPUT, [])

    def test_output_must_exist(self):
        c = Circuit("x")
        with pytest.raises(CircuitError):
            c.add_output("nope")

    def test_duplicate_output_rejected(self):
        c = Circuit("x")
        c.add_input("a")
        c.add_output("a")
        with pytest.raises(CircuitError):
            c.add_output("a")


class TestQueries:
    def test_fanout_bookkeeping(self, tiny_circuit):
        assert tiny_circuit.fanout_count("conj") == 2
        sinks = {sink for sink, _pin in tiny_circuit.fanouts("conj")}
        assert sinks == {"y", "z"}

    def test_fanins(self, tiny_circuit):
        assert tiny_circuit.fanins("conj") == ("a", "b")
        assert tiny_circuit.fanins("a") == ()

    def test_unknown_net_queries_raise(self, tiny_circuit):
        with pytest.raises(CircuitError):
            tiny_circuit.fanouts("nope")
        with pytest.raises(CircuitError):
            tiny_circuit.gate("a")  # PI has no driving gate

    def test_membership_and_iteration(self, tiny_circuit):
        assert "conj" in tiny_circuit
        assert "nope" not in tiny_circuit
        assert set(tiny_circuit) == set(tiny_circuit.nets)

    def test_counters(self, tiny_circuit):
        assert tiny_circuit.num_inputs == 3
        assert tiny_circuit.num_outputs == 2
        assert tiny_circuit.num_gates == 4
        assert tiny_circuit.netlist_size == 7


class TestLevels:
    def test_levels_of_chain(self):
        c = _chain()
        assert dict(c.levels()) == {"i0": 0, "a": 1, "b": 2, "c": 3}
        assert c.depth() == 3

    def test_levels_to_po_of_chain(self):
        c = _chain()
        assert c.levels_to_po() == {"c": 0, "b": 1, "a": 2, "i0": 3}

    def test_levels_to_po_skips_unobservable(self):
        c = Circuit("dangling")
        c.add_input("a")
        c.add_input("b")
        c.add_gate("g", GateType.AND, ["a", "b"])
        c.add_gate("dead_end", GateType.NOT, ["b"])
        c.add_output("g")
        distances = c.levels_to_po()
        assert "dead_end" not in distances
        assert distances["a"] == 1

    def test_po_with_further_fanout(self):
        # A PO net that also feeds deeper logic takes the larger distance.
        c = Circuit("po_fanout")
        c.add_input("a")
        c.add_gate("mid", GateType.NOT, ["a"])
        c.add_gate("deep", GateType.NOT, ["mid"])
        c.add_output("mid")
        c.add_output("deep")
        assert c.levels_to_po()["mid"] == 1  # via deep, not its own 0


class TestCones:
    def test_transitive_fanout(self, tiny_circuit):
        assert tiny_circuit.transitive_fanout("a") == frozenset({"conj", "y", "z"})
        assert tiny_circuit.transitive_fanout("y") == frozenset()

    def test_transitive_fanin(self, tiny_circuit):
        assert tiny_circuit.transitive_fanin("y") == frozenset(
            {"conj", "nc", "a", "b", "c"}
        )
        assert tiny_circuit.transitive_fanin("a") == frozenset()

    def test_pos_fed(self, tiny_circuit):
        assert tiny_circuit.pos_fed("conj") == frozenset({"y", "z"})
        assert tiny_circuit.pos_fed("y") == frozenset({"y"})


class TestValidateAndEvaluate:
    def test_validate_requires_outputs(self):
        c = Circuit("no_outputs")
        c.add_input("a")
        with pytest.raises(CircuitError):
            c.validate()

    def test_validate_rejects_dead_gates(self):
        c = Circuit("dead")
        c.add_input("a")
        c.add_gate("alive", GateType.NOT, ["a"])
        c.add_gate("dead", GateType.NOT, ["a"])
        c.add_output("alive")
        with pytest.raises(CircuitError):
            c.validate()

    def test_dead_gate_error_names_every_dead_gate(self):
        c = Circuit("dead_chain")
        c.add_input("a")
        c.add_gate("alive", GateType.NOT, ["a"])
        c.add_gate("d1", GateType.NOT, ["alive"])
        c.add_gate("d2", GateType.AND, ["d1", "a"])
        c.add_output("alive")
        with pytest.raises(CircuitError) as err:
            c.validate()
        assert str(err.value) == (
            "circuit 'dead_chain' has dead gates feeding no output: ['d1', 'd2']"
        )

    @pytest.mark.parametrize("name", CIRCUIT_NAMES)
    def test_dead_gates_are_those_outside_the_per_output_fanin(self, name):
        full = get_circuit(name)
        full.validate()
        # keep only the first half of the outputs: the gates feeding
        # none of them are dead
        kept = full.outputs[: max(1, len(full.outputs) // 2)]
        pruned = Circuit(f"{name}_pruned")
        for net in full.inputs:
            pruned.add_input(net)
        for gate in full.gates():
            pruned.add_gate(gate.name, gate.gate_type, gate.fanins)
        for net in kept:
            pruned.add_output(net)
        live = set(kept)
        for output in kept:
            live |= full.transitive_fanin(output)
        dead = sorted(g.name for g in full.gates() if g.name not in live)
        if not dead:
            pruned.validate()
            return
        with pytest.raises(CircuitError) as err:
            pruned.validate()
        assert str(err.value) == (
            f"circuit '{name}_pruned' has dead gates feeding no output: "
            f"{dead[:10]}"
        )

    def test_evaluate(self, tiny_circuit):
        out = tiny_circuit.evaluate_outputs({"a": True, "b": True, "c": True})
        assert out == {"y": True, "z": True}
        out = tiny_circuit.evaluate_outputs({"a": False, "b": True, "c": True})
        assert out == {"y": False, "z": False}

    def test_evaluate_missing_input(self, tiny_circuit):
        with pytest.raises(CircuitError):
            tiny_circuit.evaluate({"a": True})


class TestCopyAndStats:
    def test_copy_is_deep_equivalent(self, tiny_circuit):
        clone = tiny_circuit.copy("clone")
        assert clone.name == "clone"
        assert clone.nets == tiny_circuit.nets
        assert clone.outputs == tiny_circuit.outputs
        assignment = {"a": True, "b": False, "c": True}
        assert clone.evaluate_outputs(assignment) == tiny_circuit.evaluate_outputs(
            assignment
        )

    def test_stats(self, tiny_circuit):
        stats = tiny_circuit.stats()
        assert stats["inputs"] == 3
        assert stats["netlist_size"] == 7
        assert stats["depth"] == 2

    def test_repr(self, tiny_circuit):
        assert "tiny" in repr(tiny_circuit)
