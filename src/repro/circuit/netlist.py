"""The :class:`Circuit` netlist container.

A circuit is a set of named *nets*. Each net is driven either by a
primary input or by exactly one gate; gates reference their fanin nets
by name. Primary outputs are a subset of nets (a net may be both an
output and feed further gates — that never happens in well-formed
combinational benchmarks, but the model allows it and the analysis code
handles it).

Terminology used throughout the library, matching the paper:

* **level** of a net — distance in gate levels from the primary inputs
  (PIs are level 0, a gate is ``1 + max(level of fanins)``);
* **levels to PO** of a net — the *maximum* number of gate levels on any
  path from the net to a primary output it reaches (Fig. 3 / Fig. 8 use
  this as the observability proxy);
* **netlist size** — number of gates plus primary inputs (the count of
  distinct nets), the x-axis of Fig. 2 / Fig. 7.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Iterable, Iterator, Mapping, Sequence

from repro.circuit.gates import GateType, eval_gate


class CircuitError(Exception):
    """Raised for structurally invalid circuits or bad lookups."""


@dataclass(frozen=True)
class Gate:
    """One gate instance; ``name`` is also the name of its output net."""

    name: str
    gate_type: GateType
    fanins: tuple[str, ...]

    def __post_init__(self) -> None:
        arity = len(self.fanins)
        if arity < self.gate_type.min_arity:
            raise CircuitError(
                f"gate {self.name!r}: {self.gate_type.value} needs at least "
                f"{self.gate_type.min_arity} fanins, got {arity}"
            )
        max_arity = self.gate_type.max_arity
        if max_arity is not None and arity > max_arity:
            raise CircuitError(
                f"gate {self.name!r}: {self.gate_type.value} takes at most "
                f"{max_arity} fanins, got {arity}"
            )


class Circuit:
    """A combinational gate-level netlist.

    Gates must be added after all the nets they reference exist, so the
    insertion order is always a valid topological order; this keeps
    every traversal in the library a simple linear scan.
    """

    def __init__(self, name: str) -> None:
        self.name = name
        self._inputs: list[str] = []
        self._outputs: list[str] = []
        self._gates: dict[str, Gate] = {}  # insertion-ordered, topological
        self._fanouts: dict[str, list[tuple[str, int]]] = {}
        self._levels: dict[str, int] | None = None

    # ------------------------------------------------------------------
    # Construction
    # ------------------------------------------------------------------
    def add_input(self, name: str) -> str:
        self._check_fresh(name)
        self._inputs.append(name)
        self._fanouts[name] = []
        self._levels = None
        return name

    def add_gate(self, name: str, gate_type: GateType, fanins: Sequence[str]) -> str:
        if gate_type is GateType.INPUT:
            raise CircuitError("use add_input() for primary inputs")
        self._check_fresh(name)
        for fanin in fanins:
            if fanin not in self._fanouts:
                raise CircuitError(
                    f"gate {name!r} references undefined net {fanin!r}"
                )
        gate = Gate(name, gate_type, tuple(fanins))
        self._gates[name] = gate
        self._fanouts[name] = []
        for pin, fanin in enumerate(gate.fanins):
            self._fanouts[fanin].append((name, pin))
        self._levels = None
        return name

    def add_output(self, name: str) -> str:
        if name not in self._fanouts:
            raise CircuitError(f"cannot mark undefined net {name!r} as output")
        if name in self._outputs:
            raise CircuitError(f"net {name!r} is already an output")
        self._outputs.append(name)
        return name

    def _check_fresh(self, name: str) -> None:
        if not name:
            raise CircuitError("net names must be non-empty")
        if name in self._fanouts:
            raise CircuitError(f"net {name!r} already defined")

    # ------------------------------------------------------------------
    # Structure queries
    # ------------------------------------------------------------------
    @property
    def inputs(self) -> tuple[str, ...]:
        return tuple(self._inputs)

    @property
    def outputs(self) -> tuple[str, ...]:
        return tuple(self._outputs)

    @property
    def nets(self) -> tuple[str, ...]:
        """All nets: inputs first, then gate outputs in topological order."""
        return tuple(self._inputs) + tuple(self._gates)

    def gates(self) -> Iterator[Gate]:
        """Gates in topological (insertion) order."""
        return iter(self._gates.values())

    def gate(self, name: str) -> Gate:
        try:
            return self._gates[name]
        except KeyError:
            raise CircuitError(f"no gate drives net {name!r}") from None

    def has_net(self, name: str) -> bool:
        return name in self._fanouts

    def is_input(self, name: str) -> bool:
        return name in self._fanouts and name not in self._gates

    def is_output(self, name: str) -> bool:
        return name in self._outputs

    def fanins(self, name: str) -> tuple[str, ...]:
        """Fanin nets of the gate driving ``name`` (empty for PIs)."""
        gate = self._gates.get(name)
        return gate.fanins if gate is not None else ()

    def fanouts(self, name: str) -> tuple[tuple[str, int], ...]:
        """``(sink_gate, pin)`` pairs fed by net ``name``."""
        try:
            return tuple(self._fanouts[name])
        except KeyError:
            raise CircuitError(f"unknown net {name!r}") from None

    def fanout_count(self, name: str) -> int:
        return len(self._fanouts[name])

    @property
    def num_inputs(self) -> int:
        return len(self._inputs)

    @property
    def num_outputs(self) -> int:
        return len(self._outputs)

    @property
    def num_gates(self) -> int:
        return len(self._gates)

    @property
    def netlist_size(self) -> int:
        """Nets in the circuit: gates + primary inputs (paper's size metric)."""
        return len(self._gates) + len(self._inputs)

    # ------------------------------------------------------------------
    # Levelization / topology metrics
    # ------------------------------------------------------------------
    def levels(self) -> Mapping[str, int]:
        """Level (distance from PIs) of every net; PIs are level 0."""
        if self._levels is None:
            levels: dict[str, int] = {name: 0 for name in self._inputs}
            for gate in self._gates.values():
                if gate.fanins:
                    levels[gate.name] = 1 + max(levels[f] for f in gate.fanins)
                else:  # constant generators sit at level 0
                    levels[gate.name] = 0
            self._levels = levels
        return self._levels

    def depth(self) -> int:
        """Maximum net level (0 for a circuit with no gates)."""
        levels = self.levels()
        return max(levels.values(), default=0)

    def levels_to_po(self) -> dict[str, int]:
        """Max gate levels from each net to any primary output it reaches.

        Nets that reach no PO are absent from the result. A net that is
        itself a PO has distance 0 (possibly larger if it also reaches a
        deeper PO through further logic).
        """
        distance: dict[str, int] = {}
        for name in reversed(list(self._gates)):
            self._fold_po_distance(name, distance)
        for name in self._inputs:
            self._fold_po_distance(name, distance)
        return distance

    def _fold_po_distance(self, name: str, distance: dict[str, int]) -> None:
        best: int | None = 0 if name in self._outputs else None
        for sink, _pin in self._fanouts[name]:
            sink_dist = distance.get(sink)
            if sink_dist is not None and (best is None or sink_dist + 1 > best):
                best = sink_dist + 1
        if best is not None:
            distance[name] = best

    def transitive_fanout(self, name: str) -> frozenset[str]:
        """All nets strictly downstream of ``name`` (not including it)."""
        result: set[str] = set()
        stack = [sink for sink, _pin in self.fanouts(name)]
        while stack:
            net = stack.pop()
            if net in result:
                continue
            result.add(net)
            stack.extend(sink for sink, _pin in self._fanouts[net])
        return frozenset(result)

    def transitive_fanin(self, name: str) -> frozenset[str]:
        """All nets strictly upstream of ``name`` (not including it)."""
        result: set[str] = set()
        stack = list(self.fanins(name))
        while stack:
            net = stack.pop()
            if net in result:
                continue
            result.add(net)
            gate = self._gates.get(net)
            if gate is not None:
                stack.extend(gate.fanins)
        return frozenset(result)

    def pos_fed(self, name: str) -> frozenset[str]:
        """Primary outputs in the transitive fanout of ``name`` (incl. itself)."""
        reached = self.transitive_fanout(name) | {name}
        return frozenset(po for po in self._outputs if po in reached)

    # ------------------------------------------------------------------
    # Validation & evaluation
    # ------------------------------------------------------------------
    def validate(self) -> None:
        """Raise :class:`CircuitError` on structural problems.

        The construction API already prevents cycles and dangling nets;
        this additionally checks for missing outputs and dead logic.
        """
        if not self._outputs:
            raise CircuitError(f"circuit {self.name!r} declares no outputs")
        # gates are in topological order, so one reverse sweep sees
        # every sink of a gate before the gate itself
        live = set(self._outputs)
        for gate in reversed(self._gates.values()):
            if gate.name in live:
                live.update(gate.fanins)
        dead = [g for g in self._gates if g not in live]
        if dead:
            raise CircuitError(
                f"circuit {self.name!r} has dead gates feeding no output: "
                f"{sorted(dead)[:10]}"
            )

    def evaluate(self, assignment: Mapping[str, bool]) -> dict[str, bool]:
        """Fault-free value of every net under a full PI assignment."""
        values: dict[str, bool] = {}
        for name in self._inputs:
            try:
                values[name] = bool(assignment[name])
            except KeyError:
                raise CircuitError(f"assignment missing input {name!r}") from None
        for gate in self._gates.values():
            values[gate.name] = eval_gate(
                gate.gate_type, [values[f] for f in gate.fanins]
            )
        return values

    def evaluate_outputs(self, assignment: Mapping[str, bool]) -> dict[str, bool]:
        values = self.evaluate(assignment)
        return {po: values[po] for po in self._outputs}

    # ------------------------------------------------------------------
    # Misc
    # ------------------------------------------------------------------
    def copy(self, name: str | None = None) -> "Circuit":
        clone = Circuit(name or self.name)
        for net in self._inputs:
            clone.add_input(net)
        for gate in self._gates.values():
            clone.add_gate(gate.name, gate.gate_type, gate.fanins)
        for net in self._outputs:
            clone.add_output(net)
        return clone

    def stats(self) -> dict[str, int]:
        """Summary counters used by reports and the experiment tables."""
        return {
            "inputs": self.num_inputs,
            "outputs": self.num_outputs,
            "gates": self.num_gates,
            "netlist_size": self.netlist_size,
            "depth": self.depth(),
        }

    def __repr__(self) -> str:
        return (
            f"Circuit({self.name!r}, inputs={self.num_inputs}, "
            f"outputs={self.num_outputs}, gates={self.num_gates})"
        )

    def __contains__(self, name: str) -> bool:
        return name in self._fanouts

    def __iter__(self) -> Iterator[str]:
        return iter(self.nets)
