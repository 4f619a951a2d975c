"""The per-gate difference identities (the paper's Table 1).

With ``Δf = f ⊕ F`` (good XOR faulty) at each node, the faulty output
of a gate ``C = g(A, B)`` expands over GF(2) into an expression in the
*good* input functions and the input differences only. For a 2-input
AND::

    F_C = F_A · F_B = (f_A ⊕ Δf_A)(f_B ⊕ Δf_B)
        = f_A f_B ⊕ f_A Δf_B ⊕ f_B Δf_A ⊕ Δf_A Δf_B
    Δf_C = f_C ⊕ F_C = f_A·Δf_B ⊕ f_B·Δf_A ⊕ Δf_A·Δf_B

Output inversion never changes a difference (``¬x ⊕ ¬y = x ⊕ y``), so
NAND/NOR/XNOR share their base gate's identity. Table 1:

=============  ====================================================
Gate           Δf_C
=============  ====================================================
AND / NAND     ``f_A·Δf_B ⊕ f_B·Δf_A ⊕ Δf_A·Δf_B``
OR / NOR       ``f̄_A·Δf_B ⊕ f̄_B·Δf_A ⊕ Δf_A·Δf_B``
XOR / XNOR     ``Δf_A ⊕ Δf_B``
INV / BUF      ``Δf_A``
=============  ====================================================

The AND and OR rows are each one recursion over all four operands
(:meth:`~repro.bdd.manager.BDDManager.apply_and_difference` and
``apply_or_difference``), not three products and two sums.

Gates with more fanins are folded as chains of 2-input gates — the
paper's own remedy for the exponential term count of the general
*n*-input identity. The fold short-circuits on zero differences
(selective trace) inside those recursions' terminal cases: a chain
step whose both differences are the zero function contributes nothing
and costs nothing, and a step with one zero difference reduces to its
single surviving term (``f_B·Δf_A``, ``f̄_B·Δf_A`` and the mirror
cases).
"""

from __future__ import annotations

from typing import Sequence

from repro.bdd.manager import BDDManager, FALSE
from repro.circuit.gates import GateType

#: Human-readable Table 1, used by the table-reproduction benchmark.
TABLE1: tuple[tuple[str, str], ...] = (
    ("AND / NAND", "fA·ΔfB ⊕ fB·ΔfA ⊕ ΔfA·ΔfB"),
    ("OR / NOR", "f̄A·ΔfB ⊕ f̄B·ΔfA ⊕ ΔfA·ΔfB"),
    ("XOR / XNOR", "ΔfA ⊕ ΔfB"),
    ("INVERTER / BUFFER", "ΔfA"),
)


def and_difference(m: BDDManager, fa: int, fb: int, da: int, db: int) -> int:
    """Δ output of a 2-input AND (or NAND)."""
    return m.apply_and_difference(fa, fb, da, db)


def or_difference(m: BDDManager, fa: int, fb: int, da: int, db: int) -> int:
    """Δ output of a 2-input OR (or NOR)."""
    return m.apply_or_difference(fa, fb, da, db)


def xor_difference(m: BDDManager, da: int, db: int) -> int:
    """Δ output of a 2-input XOR (or XNOR)."""
    return m.apply_xor(da, db)


def gate_output_difference(
    m: BDDManager,
    gate_type: GateType,
    goods: Sequence[int],
    deltas: Sequence[int],
) -> int:
    """Δ at the output of an arbitrary gate.

    ``goods[i]`` / ``deltas[i]`` are the good function and difference of
    fanin *i*. Gates with more than two fanins are folded left-to-right
    through the 2-input identities, carrying the (good, Δ) pair of the
    partial chain — the chain's good function is the fold of the base
    (non-inverting) gate, and output inversion is irrelevant to Δ. Only
    the goods a later step reads are computed: none for XOR, and never
    the whole chain's.
    """
    if len(goods) != len(deltas):
        raise ValueError("goods and deltas must align")
    if gate_type in (GateType.BUF, GateType.NOT):
        return deltas[0]
    if gate_type in (GateType.CONST0, GateType.CONST1):
        return FALSE
    base = gate_type.base
    delta_acc = deltas[0]
    if base is GateType.XOR:
        for delta_in in deltas[1:]:
            delta_acc = xor_difference(m, delta_acc, delta_in)
        return delta_acc
    if base is GateType.AND:
        step, fold = and_difference, m.apply_and
    elif base is GateType.OR:
        step, fold = or_difference, m.apply_or
    else:
        raise ValueError(f"no difference identity for {gate_type}")
    good_acc = goods[0]
    last = len(goods) - 1
    for k in range(1, last + 1):
        delta_acc = step(m, good_acc, goods[k], delta_acc, deltas[k])
        if k < last:
            good_acc = fold(good_acc, goods[k])
    return delta_acc
