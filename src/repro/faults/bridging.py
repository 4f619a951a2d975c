"""Two-wire bridging faults (AND-type and OR-type, non-feedback).

Following the paper (§2.2):

* only bridges between **two** wires are modeled (three or more wires
  shorted together is considered unlikely);
* both **AND** bridges (wired-AND, zero-dominant logic) and **OR**
  bridges (wired-OR, one-dominant logic) are modeled;
* **feedback** bridges — where one wire lies in the transitive fanout
  of the other, creating a loop — are excluded: the analysis is purely
  functional and cannot model induced sequentiality;
* **trivially undetectable** bridges are screened structurally, e.g.
  the AND bridge between two inputs of the same AND gate (absorption
  makes every sink gate's output unchanged).

:func:`enumerate_nfbfs` applies both screens a row of per-net bitmasks
at a time; :func:`is_feedback_pair` and :func:`is_trivially_undetectable`
state the same rules pair by pair.

The faulty behaviour is purely logical: both bridged wires assume
``u OP v`` where ``OP`` is AND or OR of the two fault-free values —
valid because the bridge is non-feedback, so neither wire's fault-free
value is disturbed upstream of the bridge.
"""

from __future__ import annotations

import enum
import itertools
from array import array
from collections.abc import Iterator, Sequence
from dataclasses import dataclass

from repro.circuit.gates import GateType
from repro.circuit.netlist import Circuit


class BridgeKind(enum.Enum):
    AND = "AND"
    OR = "OR"


@dataclass(frozen=True, order=True)
class BridgingFault:
    """Wires ``net_a`` and ``net_b`` shorted with ``kind`` dominance.

    The pair is stored in sorted order so the same physical bridge
    always compares and hashes equal.
    """

    net_a: str
    net_b: str
    kind: BridgeKind

    def __post_init__(self) -> None:
        if self.net_a == self.net_b:
            raise ValueError("cannot bridge a wire to itself")
        if self.net_a > self.net_b:
            first, second = self.net_b, self.net_a
            object.__setattr__(self, "net_a", first)
            object.__setattr__(self, "net_b", second)

    @property
    def nets(self) -> tuple[str, str]:
        return (self.net_a, self.net_b)

    def __str__(self) -> str:
        return f"{self.kind.value}-BF({self.net_a}, {self.net_b})"


def is_feedback_pair(circuit: Circuit, net_a: str, net_b: str) -> bool:
    """True if bridging the two nets would close a structural loop."""
    return net_b in circuit.transitive_fanout(net_a) or net_a in circuit.transitive_fanout(
        net_b
    )


_ABSORBING = {
    BridgeKind.AND: (GateType.AND, GateType.NAND),
    BridgeKind.OR: (GateType.OR, GateType.NOR),
}


def is_trivially_undetectable(
    circuit: Circuit, net_a: str, net_b: str, kind: BridgeKind
) -> bool:
    """Structural screen for bridges no test could ever detect.

    An AND bridge is absorbed when *every* sink of both wires is an
    AND/NAND gate fed by *both* wires: each such gate's product term
    already contains ``a·b``, so replacing both inputs by ``a·b``
    changes nothing (dually for OR bridges into OR/NOR sinks). Wires
    feeding no gate at all (output-only nets) also absorb trivially
    undetectable bridges only through this common-sink rule, so a
    bridge between two distinct primary-output stems is *not* screened
    here — it is genuinely detectable at the outputs themselves.
    """
    absorbing = _ABSORBING[kind]
    if circuit.is_output(net_a) or circuit.is_output(net_b):
        # the bridged value is read directly at a PO tap, which no
        # absorbing sink can mask
        return False
    sinks_a = circuit.fanouts(net_a)
    sinks_b = circuit.fanouts(net_b)
    if not sinks_a or not sinks_b:
        return False
    for sink, _pin in itertools.chain(sinks_a, sinks_b):
        gate = circuit.gate(sink)
        if gate.gate_type not in absorbing:
            return False
        if net_a not in gate.fanins or net_b not in gate.fanins:
            return False
    return True


class NfbfCandidates(Sequence[BridgingFault]):
    """The bridges :func:`enumerate_nfbfs` kept, as two index columns.

    Row *r* bridges ``nets[first[r]]`` and ``nets[second[r]]``; its
    :class:`BridgingFault` is built only when the row is read, so a
    sampler that draws *k* of the rows builds *k* fault objects.
    """

    def __init__(
        self, nets: tuple[str, ...], kind: BridgeKind, first: array, second: array
    ) -> None:
        self.nets, self.kind, self.first, self.second = nets, kind, first, second

    def __len__(self) -> int:
        return len(self.first)

    def __getitem__(self, row):
        if isinstance(row, slice):
            return [self[r] for r in range(len(self))[row]]
        nets = self.nets
        return BridgingFault(nets[self.first[row]], nets[self.second[row]], self.kind)

    def __iter__(self) -> Iterator[BridgingFault]:
        nets, kind = self.nets, self.kind
        for a, b in zip(self.first, self.second):
            yield BridgingFault(nets[a], nets[b], kind)


def _set_bits(mask: int) -> list[int]:
    """Positions of the set bits of ``mask``, ascending."""
    bits = bin(mask)[:1:-1]
    found, pos = [], bits.find("1")
    while pos >= 0:
        found.append(pos)
        pos = bits.find("1", pos + 1)
    return found


def enumerate_nfbfs(
    circuit: Circuit,
    kind: BridgeKind,
    include_outputs: bool = True,
) -> NfbfCandidates:
    """All potentially detectable non-feedback bridging faults.

    Pairs range over every net (primary inputs included), in
    ``circuit.nets`` order, minus the feedback and trivial-
    undetectability screens. Both screens work on per-net bitmasks:
    O(nets) big-int operations plus one step per bridge kept. The
    result is a lazy :class:`NfbfCandidates` sequence.

    ``include_outputs=False`` drops bridges touching primary-output
    nets (useful to model output pads routed apart from core logic).
    """
    nets = circuit.nets
    index = {net: i for i, net in enumerate(nets)}
    # circuit.nets is topological: a net reaches only later nets, so
    # one reverse pass completes every transitive-fanout mask
    reach = [0] * len(nets)
    for i in range(len(nets) - 1, -1, -1):
        for sink, _pin in circuit.fanouts(nets[i]):
            reach[i] |= (1 << index[sink]) | reach[index[sink]]
    # is_trivially_undetectable's rule per net: a non-PO net whose sinks
    # are all absorbing gates absorbs a bridge only to a net feeding
    # every one of those sinks; a pair is absorbed iff each absorbs it
    absorbing = _ABSORBING[kind]
    partners: dict[int, int] = {}
    for i, net in enumerate(nets):
        sinks = [circuit.gate(sink) for sink, _pin in circuit.fanouts(net)]
        if sinks and not circuit.is_output(net) and all(
            gate.gate_type in absorbing for gate in sinks
        ):
            partners[i] = -1
            for gate in sinks:
                partners[i] &= sum({1 << index[fanin] for fanin in gate.fanins})
    keep = sum(
        1 << i
        for i, net in enumerate(nets)
        if include_outputs or not circuit.is_output(net)
    )
    first, second = array("l"), array("l")
    for i in range(len(nets)):
        if keep >> i & 1:
            row = keep & ~reach[i] & -(2 << i)  # -(2 << i): bits above i
            for j in _set_bits(partners.get(i, 0) & row):
                if partners.get(j, 0) >> i & 1:
                    row &= ~(1 << j)
            found = _set_bits(row)
            first.extend([i] * len(found))
            second.extend(found)
    return NfbfCandidates(nets, kind, first, second)
