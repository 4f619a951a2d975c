"""Table 1 — output difference functions per gate type.

The paper's Table 1 is analytical, so "reproducing" it means
*validating* it: for each gate type we draw random good/difference
input functions, form the faulty inputs ``F = f ⊕ Δf``, evaluate the
gate on both sides, and check the identity's output difference equals
``gate(f_A, f_B) ⊕ gate(F_A, F_B)`` exactly (OBDD equality). The
rendered output prints the table alongside the number of random
identities checked.
"""

from __future__ import annotations

import random

from repro.analysis.report import render_table
from repro.bdd.manager import BDDManager
from repro.circuit.gates import GateType, eval_gate
from repro.core.difference import TABLE1, gate_output_difference
from repro.experiments.base import ExperimentResult
from repro.experiments.config import Scale, get_scale

_GATES = (
    GateType.AND,
    GateType.NAND,
    GateType.OR,
    GateType.NOR,
    GateType.XOR,
    GateType.XNOR,
    GateType.BUF,
    GateType.NOT,
)


def _random_node(manager: BDDManager, rng: random.Random) -> int:
    """A random function over the manager's variables (expression tree)."""
    names = manager.var_names
    node = manager.var(rng.choice(names))
    for _ in range(rng.randrange(0, 6)):
        other = manager.var(rng.choice(names))
        op = rng.choice(
            (manager.apply_and, manager.apply_or, manager.apply_xor)
        )
        node = op(node, other)
        if rng.random() < 0.3:
            node = manager.apply_not(node)
    return node


def check_identity(
    gate_type: GateType, manager: BDDManager, goods: list[int], deltas: list[int]
) -> bool:
    """Does Table 1 match the defining expansion for these functions?"""
    via_table = gate_output_difference(manager, gate_type, goods, deltas)
    faulty_inputs = [manager.apply_xor(f, d) for f, d in zip(goods, deltas)]
    good_out = _direct(manager, gate_type, goods)
    faulty_out = _direct(manager, gate_type, faulty_inputs)
    return via_table == manager.apply_xor(good_out, faulty_out)


def _direct(manager: BDDManager, gate_type: GateType, operands: list[int]) -> int:
    """Evaluate a gate on operand nodes by folding its base and
    inverting once at the end (the n-ary gate semantics)."""
    if gate_type in (GateType.BUF, GateType.NOT):
        out = operands[0]
        return manager.apply_not(out) if gate_type is GateType.NOT else out
    base_op = {
        GateType.AND: manager.apply_and,
        GateType.OR: manager.apply_or,
        GateType.XOR: manager.apply_xor,
    }[gate_type.base]
    acc = operands[0]
    for operand in operands[1:]:
        acc = base_op(acc, operand)
    return manager.apply_not(acc) if gate_type.is_inverting else acc


def run_table1(scale: Scale | None = None, trials: int = 200) -> ExperimentResult:
    """Validate and print Table 1."""
    scale = scale or get_scale()
    rng = random.Random(scale.effective_seed())
    manager = BDDManager([f"x{i}" for i in range(6)])
    checked = 0
    failures = 0
    for _ in range(trials):
        for gate_type in _GATES:
            arity = 1 if gate_type in (GateType.BUF, GateType.NOT) else rng.choice(
                (2, 2, 3, 4)
            )
            goods = [_random_node(manager, rng) for _ in range(arity)]
            deltas = [
                0 if rng.random() < 0.3 else _random_node(manager, rng)
                for _ in range(arity)
            ]
            checked += 1
            if not check_identity(gate_type, manager, goods, deltas):
                failures += 1
    rows = list(TABLE1)
    text = render_table(("Gate", "Δf_C ="), rows)
    text += (
        f"\n\nIdentities checked on random functions: {checked} "
        f"({failures} failures)"
    )
    return ExperimentResult(
        exp_id="table1",
        title="Output difference functions (Table 1)",
        text=text,
        data={"checked": checked, "failures": failures},
        findings=(
            "every Table 1 identity holds exactly on the OBDDs"
            if failures == 0
            else f"{failures} identity checks FAILED",
        ),
    )
