"""Tests for the Table 1 difference identities."""

from __future__ import annotations

import itertools

import pytest
from hypothesis import example, given, settings, strategies as st

from repro.bdd.manager import BDDManager, FALSE
from repro.circuit.gates import GateType
from repro.core.difference import (
    TABLE1,
    and_difference,
    gate_output_difference,
    or_difference,
    xor_difference,
)

from tests.strategies import BOOLEXPR_NAMES, boolexprs, build_bdd

_NAMES = ["fa", "fb", "da", "db"]


def _setup():
    m = BDDManager(_NAMES)
    return m, m.var("fa"), m.var("fb"), m.var("da"), m.var("db")


class TestTwoInputIdentities:
    """Each identity versus its defining expansion F_C = g(f⊕Δ)."""

    def test_and(self):
        m, fa, fb, da, db = _setup()
        faulty = m.apply_and(m.apply_xor(fa, da), m.apply_xor(fb, db))
        expected = m.apply_xor(m.apply_and(fa, fb), faulty)
        assert and_difference(m, fa, fb, da, db) == expected

    def test_or(self):
        m, fa, fb, da, db = _setup()
        faulty = m.apply_or(m.apply_xor(fa, da), m.apply_xor(fb, db))
        expected = m.apply_xor(m.apply_or(fa, fb), faulty)
        assert or_difference(m, fa, fb, da, db) == expected

    def test_xor(self):
        m, fa, fb, da, db = _setup()
        faulty = m.apply_xor(m.apply_xor(fa, da), m.apply_xor(fb, db))
        expected = m.apply_xor(m.apply_xor(fa, fb), faulty)
        assert xor_difference(m, da, db) == expected

    def test_inversion_leaves_difference_unchanged(self):
        m, fa, fb, da, db = _setup()
        for gate, base in (
            (GateType.NAND, GateType.AND),
            (GateType.NOR, GateType.OR),
            (GateType.XNOR, GateType.XOR),
        ):
            assert gate_output_difference(
                m, gate, [fa, fb], [da, db]
            ) == gate_output_difference(m, base, [fa, fb], [da, db])

    def test_zero_deltas_shortcut(self):
        m, fa, fb, _, _ = _setup()
        assert and_difference(m, fa, fb, FALSE, FALSE) == FALSE
        assert or_difference(m, fa, fb, FALSE, FALSE) == FALSE

    def test_unary_gates_pass_delta_through(self):
        m, fa, _, da, _ = _setup()
        assert gate_output_difference(m, GateType.BUF, [fa], [da]) == da
        assert gate_output_difference(m, GateType.NOT, [fa], [da]) == da

    def test_constant_gates_have_no_difference(self):
        m, *_ = _setup()
        assert gate_output_difference(m, GateType.CONST0, [], []) == FALSE
        assert gate_output_difference(m, GateType.CONST1, [], []) == FALSE

    def test_misaligned_inputs_rejected(self):
        m, fa, fb, da, _ = _setup()
        with pytest.raises(ValueError):
            gate_output_difference(m, GateType.AND, [fa, fb], [da])


class TestNInputChaining:
    """The n-input fold must equal the defining expansion, exhaustively."""

    @pytest.mark.parametrize(
        "gate_type",
        [
            GateType.AND,
            GateType.NAND,
            GateType.OR,
            GateType.NOR,
            GateType.XOR,
            GateType.XNOR,
        ],
    )
    @pytest.mark.parametrize("arity", [2, 3, 4])
    def test_exhaustive_constant_functions(self, gate_type, arity):
        """Evaluate with all constant good/delta combinations.

        Constants cover every pointwise case, and the identities are
        pointwise — so this is a complete check of the algebra.
        """
        m = BDDManager(["x"])  # variables unused; constants suffice
        from repro.circuit.gates import eval_gate

        for goods in itertools.product([False, True], repeat=arity):
            for deltas in itertools.product([False, True], repeat=arity):
                good_nodes = [int(v) for v in goods]
                delta_nodes = [int(v) for v in deltas]
                result = gate_output_difference(
                    m, gate_type, good_nodes, delta_nodes
                )
                faulty_inputs = [g ^ d for g, d in zip(goods, deltas)]
                expected = eval_gate(gate_type, list(goods)) ^ eval_gate(
                    gate_type, faulty_inputs
                )
                assert result == int(expected)


class TestTable1Rendering:
    def test_table_lists_all_gate_families(self):
        families = {row[0] for row in TABLE1}
        assert families == {
            "AND / NAND",
            "OR / NOR",
            "XOR / XNOR",
            "INVERTER / BUFFER",
        }


@settings(max_examples=60, deadline=None)
@given(
    st.sampled_from(
        [
            GateType.AND,
            GateType.NAND,
            GateType.OR,
            GateType.NOR,
            GateType.XOR,
            GateType.XNOR,
        ]
    ),
    st.integers(2, 4),
    st.randoms(use_true_random=False),
)
def test_identities_on_random_functions(gate_type, arity, rng):
    """Table 1 versus the defining expansion on random OBDDs."""
    m = BDDManager([f"v{i}" for i in range(5)])

    def random_node():
        node = m.var(f"v{rng.randrange(5)}")
        for _ in range(rng.randrange(4)):
            op = rng.choice([m.apply_and, m.apply_or, m.apply_xor])
            node = op(node, m.var(f"v{rng.randrange(5)}"))
        return node

    goods = [random_node() for _ in range(arity)]
    deltas = [random_node() if rng.random() > 0.25 else FALSE for _ in range(arity)]
    via_table = gate_output_difference(m, gate_type, goods, deltas)
    faulty = [m.apply_xor(f, d) for f, d in zip(goods, deltas)]

    def direct(operands):
        base_op = {
            GateType.AND: m.apply_and,
            GateType.OR: m.apply_or,
            GateType.XOR: m.apply_xor,
        }[gate_type.base]
        acc = operands[0]
        for operand in operands[1:]:
            acc = base_op(acc, operand)
        return m.apply_not(acc) if gate_type.is_inverting else acc

    assert via_table == m.apply_xor(direct(goods), direct(faulty))


def _literal_fold(m, base, goods, deltas):
    """Table 1 written out term by term, every partial good computed."""
    good_acc, delta_acc = goods[0], deltas[0]
    for good_in, delta_in in zip(goods[1:], deltas[1:]):
        if base is GateType.AND:
            terms = (
                m.apply_and(good_acc, delta_in),
                m.apply_and(good_in, delta_acc),
                m.apply_and(delta_acc, delta_in),
            )
            good_next = m.apply_and(good_acc, good_in)
        elif base is GateType.OR:
            terms = (
                m.apply_and(m.apply_not(good_acc), delta_in),
                m.apply_and(m.apply_not(good_in), delta_acc),
                m.apply_and(delta_acc, delta_in),
            )
            good_next = m.apply_or(good_acc, good_in)
        else:
            terms = (delta_acc, delta_in)
            good_next = m.apply_xor(good_acc, good_in)
        delta_acc = FALSE
        for term in terms:
            delta_acc = m.apply_xor(delta_acc, term)
        good_acc = good_next
    return delta_acc


_FOLDED_GATES = [
    GateType.AND,
    GateType.NAND,
    GateType.OR,
    GateType.NOR,
    GateType.XOR,
    GateType.XNOR,
]

#: (good expression, Δ expression or None for the zero function) per fanin
_fanins = st.lists(
    st.tuples(boolexprs(), st.one_of(st.none(), boolexprs())),
    min_size=1,
    max_size=5,
)


@pytest.mark.parametrize("gate_type", _FOLDED_GATES + [GateType.BUF, GateType.NOT])
@settings(max_examples=40, deadline=None)
@given(fanins=_fanins)
@example(fanins=[("a", None), ("b", "c")])  # zero Δ on the left
@example(fanins=[("a", "c"), ("b", None)])  # zero Δ on the right
@example(fanins=[("a", None), ("b", None), ("c", "d")])
@example(fanins=[("a", "d"), ("b", None), ("c", None), ("e", "a"), ("d", None)])
def test_fold_equals_the_literal_expansion(gate_type, fanins):
    """Every shortcut of the fold agrees with the full Table 1 chain."""
    if gate_type in (GateType.BUF, GateType.NOT):
        fanins = fanins[:1]
    m = BDDManager(BOOLEXPR_NAMES)
    goods = [build_bdd(m, good) for good, _ in fanins]
    deltas = [FALSE if d is None else build_bdd(m, d) for _, d in fanins]
    expected = (
        deltas[0]
        if gate_type in (GateType.BUF, GateType.NOT)
        else _literal_fold(m, gate_type.base, goods, deltas)
    )
    assert gate_output_difference(m, gate_type, goods, deltas) == expected


#: the constant functions, spelled as :func:`boolexprs` trees, so the
#: fused op's terminal cases are drawn as often as its recursion
_ZERO = ("xor", "a", "a")
_ONE = ("not", _ZERO)
_operands = st.one_of(st.sampled_from((_ZERO, _ONE)), boolexprs())


def _literal_rows(m, fa, fb, da, db):
    """Table 1's AND and OR rows, three products and two sums each."""
    return tuple(
        _literal_fold(m, base, [fa, fb], [da, db])
        for base in (GateType.AND, GateType.OR)
    )


class TestFusedDifferences:
    """``apply_and_difference``/``apply_or_difference`` against the
    literal Table 1 rows."""

    @settings(max_examples=80, deadline=None)
    @given(operands=st.tuples(_operands, _operands, _operands, _operands))
    @example(operands=("a", "b", _ONE, _ONE))
    @example(operands=("a", "b", _ONE, "c"))
    @example(operands=("a", "b", "c", _ONE))
    @example(operands=("a", "a", "b", "b"))
    def test_both_polarities_equal_the_literal_rows(self, operands):
        m = BDDManager(BOOLEXPR_NAMES)
        fa, fb, da, db = (build_bdd(m, expr) for expr in operands)
        and_row, or_row = _literal_rows(m, fa, fb, da, db)
        assert m.apply_and_difference(fa, fb, da, db) == and_row
        assert m.apply_and_difference(fb, fa, db, da) == and_row
        assert and_difference(m, fa, fb, da, db) == and_row
        assert m.apply_or_difference(fa, fb, da, db) == or_row
        assert m.apply_or_difference(fb, fa, db, da) == or_row
        assert or_difference(m, fa, fb, da, db) == or_row

    @settings(max_examples=30, deadline=None)
    @given(
        quads=st.lists(
            st.tuples(_operands, _operands, _operands, _operands),
            min_size=2,
            max_size=5,
        )
    )
    def test_gc_and_sift_between_calls_leave_no_stale_entry(self, quads):
        # Each call fills the fused tables; dropping its operands and
        # sweeping frees slots the next quadruple reuses, so a stale
        # entry keyed on an old id would alias onto a new node.
        m = BDDManager(BOOLEXPR_NAMES)
        for step, quad in enumerate(quads):
            fa, fb, da, db = (build_bdd(m, expr) for expr in quad)
            for node in (fa, fb, da, db):
                m.incref(node)
            fused = (
                m.apply_and_difference(fa, fb, da, db),
                m.apply_or_difference(fa, fb, da, db),
            )
            for node in fused:
                m.incref(node)
            if step % 2:
                m.sift()
            else:
                m.gc()
            assert fused == (
                m.apply_and_difference(fa, fb, da, db),
                m.apply_or_difference(fa, fb, da, db),
            )
            assert fused == _literal_rows(m, fa, fb, da, db)
            for node in (fa, fb, da, db, *fused):
                m.decref(node)
            if m.gc():
                assert not m._cache.and_diff and not m._cache.or_diff
