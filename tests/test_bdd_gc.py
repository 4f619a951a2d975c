"""Reference counting, garbage collection and bounded-cache correctness.

The hazards these tests pin down:

* live roots must evaluate identically before and after :meth:`gc`,
  with *unchanged node ids* (raw int handles are pervasive);
* freed slots are reused, so any computed-table or counting-memo entry
  touching a dead id must be invalidated — a stale entry would silently
  alias onto whatever different node later lands in the slot;
* cache eviction may only ever cost recomputation, never wrongness, and
  an overflow empties every computed table;
* table keys pack two node ids into one int, so the packing must be
  injective and node ids must stay below its limit;
* the apply closures are bound once per manager to its tables, so the
  tables must keep their identity across :meth:`gc` and :meth:`sift`,
  and the closures must not keep their manager alive.

Property tests draw expression trees from
:func:`tests.strategies.boolexprs` and build them in differently
configured managers, demanding identical semantics throughout.
"""

from __future__ import annotations

import gc as cyclic_gc
import itertools
import pickle
import weakref

import pytest
from hypothesis import given, settings, strategies as st

from repro.bdd import manager as manager_module
from repro.bdd.cache import (
    KEY_BITS,
    NODE_LIMIT,
    OP_NAMES,
    ManagerStats,
    OperationCache,
    pack,
)
from repro.bdd.function import Function
from repro.bdd.manager import FALSE, TRUE, BDDError, BDDManager
from repro.benchcircuits.registry import get_circuit
from repro.core.symbolic import CircuitFunctions

from tests.strategies import BOOLEXPR_NAMES, boolexprs, build_bdd


def truth_table(manager: BDDManager, node: int) -> tuple[bool, ...]:
    """Exhaustive evaluation over the shared five-variable space."""
    return tuple(
        manager.evaluate(node, dict(zip(BOOLEXPR_NAMES, values)))
        for values in itertools.product(
            (False, True), repeat=len(BOOLEXPR_NAMES)
        )
    )


def fresh_manager(**kwargs) -> BDDManager:
    return BDDManager(BOOLEXPR_NAMES, **kwargs)


# ----------------------------------------------------------------------
# Reference counting
# ----------------------------------------------------------------------
class TestRefcounts:
    def test_function_handles_take_and_release_references(self):
        m = fresh_manager()
        f = Function(m, m.apply_and(m.var("a"), m.var("b")))
        node = f.node
        assert m.ref_count(node) == 1
        g = Function(m, node)
        assert m.ref_count(node) == 2
        del g
        assert m.ref_count(node) == 1
        del f
        assert m.ref_count(node) == 0

    def test_terminals_are_never_counted(self):
        m = fresh_manager()
        t = Function.true(m)
        z = Function.false(m)
        assert m.ref_count(TRUE) == 0
        assert m.ref_count(FALSE) == 0
        assert m.incref(TRUE) == TRUE
        m.decref(FALSE)  # no-op, no error
        del t, z

    def test_decref_is_lenient_on_over_release(self):
        m = fresh_manager()
        node = m.var("a")
        m.decref(node)  # never incref'd: must not raise
        m.incref(node)
        m.decref(node)
        m.decref(node)  # second release of a single ref: still fine
        assert m.ref_count(node) == 0


# ----------------------------------------------------------------------
# Garbage collection
# ----------------------------------------------------------------------
class TestGC:
    def test_dead_nodes_are_reclaimed_and_slots_reused(self):
        m = fresh_manager()
        # A chain of XORs with no external references is pure garbage.
        acc = m.var("a")
        for name in ("b", "c", "d", "e"):
            acc = m.apply_xor(acc, m.var(name))
        allocated = m.num_nodes
        assert m.num_live_nodes == allocated
        freed = m.gc()
        assert freed > 0
        assert m.reclaimed_nodes == freed
        assert m.gc_runs == 1
        assert m.num_live_nodes == allocated - freed
        # Rebuilding comparable structure reuses freed slots: the
        # allocation high-water mark must not grow.
        acc = m.var("e")
        for name in ("d", "c", "b", "a"):
            acc = m.apply_xor(acc, m.var(name))
        assert m.num_nodes <= allocated

    def test_live_roots_survive_with_stable_ids(self):
        m = fresh_manager()
        kept = Function(m, build_bdd(m, ("xor", ("and", "a", "b"), "c")))
        node_before = kept.node
        table_before = truth_table(m, kept.node)
        # garbage alongside the root
        build_bdd(m, ("or", ("not", "d"), ("and", "e", "a")))
        m.gc()
        assert kept.node == node_before
        assert truth_table(m, kept.node) == table_before

    def test_gc_without_roots_drops_every_internal_node(self):
        m = fresh_manager()
        build_bdd(m, ("and", ("or", "a", "b"), ("xor", "c", "d")))
        m.gc()
        assert m.num_live_nodes == 2  # just the terminals

    def test_unique_table_is_canonical_after_gc(self):
        m = fresh_manager()
        kept = Function(m, m.apply_and(m.var("a"), m.var("b")))
        build_bdd(m, ("xor", ("or", "c", "d"), "e"))  # garbage
        m.gc()
        # The same function must resolve to the very same node id —
        # survivors stay registered in the rebuilt unique table.
        assert m.apply_and(m.var("a"), m.var("b")) == kept.node

    def test_repeated_gc_is_idempotent_on_a_clean_store(self):
        m = fresh_manager()
        kept = Function(m, build_bdd(m, ("or", "a", ("not", "b"))))
        m.gc()
        live = m.num_live_nodes
        assert m.gc() == 0
        assert m.num_live_nodes == live
        del kept

    @settings(max_examples=60, deadline=None)
    @given(
        exprs=st.lists(boolexprs(), min_size=1, max_size=6),
        keep_mask=st.lists(st.booleans(), min_size=6, max_size=6),
    )
    def test_live_roots_evaluate_identically_before_and_after_gc(
        self, exprs, keep_mask
    ):
        m = fresh_manager()
        handles = [Function(m, build_bdd(m, e)) for e in exprs]
        kept = [h for h, keep in zip(handles, keep_mask) if keep]
        if not kept:  # always keep at least one root
            kept = [handles[0]]
        expected = [(h.node, truth_table(m, h.node)) for h in kept]
        dropped = [h for h in handles if h not in kept]
        del handles
        for h in dropped:
            del h
        del dropped
        m.gc()
        for handle, (node_before, table_before) in zip(kept, expected):
            assert handle.node == node_before
            assert truth_table(m, handle.node) == table_before

    @settings(max_examples=40, deadline=None)
    @given(exprs=st.lists(boolexprs(), min_size=1, max_size=5))
    def test_interleaved_ops_and_gc_match_a_gc_free_oracle(self, exprs):
        noisy = fresh_manager()
        oracle = fresh_manager()
        for expr in exprs:
            kept = Function(noisy, build_bdd(noisy, expr))
            noisy.gc()  # collect between every build
            assert truth_table(noisy, kept.node) == truth_table(
                oracle, build_bdd(oracle, expr)
            )
            del kept


# ----------------------------------------------------------------------
# Memo / computed-table invalidation across collections
# ----------------------------------------------------------------------
class TestMemoInvalidation:
    def test_stale_computed_entries_never_alias_reused_slots(self):
        m = fresh_manager()
        # Root the literals themselves; only the AND node is garbage.
        lit_a, lit_b = Function(m, m.var("a")), Function(m, m.var("b"))
        a, b = lit_a.node, lit_b.node
        dead = m.apply_and(a, b)  # cached under pack(min, max) in and_
        key = pack(min(a, b), max(a, b))
        assert m._cache.and_[key] == dead
        dead_table = truth_table(m, dead)
        m.gc()  # the AND node has no external refs and dies
        assert key not in m._cache.and_
        # Fill the freed slot with a *different* node, then redo the
        # AND: a stale cache entry would now hand back the impostor.
        m.apply_or(m.var("c"), m.var("d"))
        again = m.apply_and(a, b)
        assert truth_table(m, again) == dead_table

    def test_involution_priming_is_invalidated_with_its_node(self):
        m = fresh_manager()
        f = Function(m, build_bdd(m, ("or", "a", ("and", "b", "c"))))
        negated = m.apply_not(f.node)  # primes not_[negated] -> f
        assert m._cache.not_[f.node] == negated
        assert m._cache.not_[negated] == f.node
        m.gc()  # negation had no external ref: both entries must go
        assert f.node not in m._cache.not_
        assert negated not in m._cache.not_
        assert truth_table(m, m.apply_not(f.node)) == tuple(
            not v for v in truth_table(m, f.node)
        )

    @settings(max_examples=40, deadline=None)
    @given(expr=boolexprs())
    def test_satcount_memo_survives_gc_for_live_roots(self, expr):
        m = fresh_manager()
        f = Function(m, build_bdd(m, expr))
        count_before = f.satcount()
        density_before = f.density()
        m.gc()
        # The memo may only retain live ids...
        level = m._level
        assert all(level[u] != -1 for u in m._count_memo)
        # ...and must still answer identically for the surviving root.
        assert f.satcount() == count_before
        assert f.density() == density_before
        assert f.satcount() == sum(truth_table(m, f.node))

    def test_satcount_memo_drops_dead_roots(self):
        m = fresh_manager()
        dead = build_bdd(m, ("xor", "a", ("and", "b", "c")))
        m.satcount(dead)  # populate the memo
        m.gc()
        assert dead not in m._count_memo


class TestComputedTableEpochs:
    def test_gc_that_frees_a_slot_drops_the_whole_table(self):
        m = fresh_manager()
        kept = Function(m, build_bdd(m, ("or", "a", ("and", "b", "c"))))
        build_bdd(m, ("xor", ("and", "d", "e"), ("not", "a")))  # garbage
        entries = len(m._cache)
        invalidated = m.stats().cache_invalidations
        assert entries > 0
        assert m.gc() > 0
        assert len(m._cache) == 0
        assert m.stats().cache_invalidations == invalidated + entries
        # The survivors still resolve through the emptied table.
        assert m.apply_or(m.var("a"), m.apply_and(m.var("b"), m.var("c"))) == (
            kept.node
        )

    def test_gc_that_frees_nothing_keeps_the_table(self):
        m = fresh_manager()
        a, b = Function(m, m.var("a")), Function(m, m.var("b"))
        kept = Function(m, m.apply_or(a.node, b.node))  # no garbage made
        entries = len(m._cache)
        assert entries > 0
        assert m.gc() == 0
        assert len(m._cache) == entries
        del kept


# ----------------------------------------------------------------------
# Manager lifetime and the bound apply closures
# ----------------------------------------------------------------------
class TestManagerLifetime:
    def test_manager_and_function_table_die_on_del(self):
        # With the cycle collector off, only plain reference counting
        # can free them: a closure holding the manager (or one of its
        # bound methods) would form a cycle and keep both alive.
        cyclic_gc.disable()
        try:
            m = fresh_manager()
            Function(m, build_bdd(m, ("xor", ("and", "a", "b"), "c")))
            manager_ref = weakref.ref(m)
            del m
            assert manager_ref() is None

            functions = CircuitFunctions(get_circuit("c17"))
            table_refs = (weakref.ref(functions), weakref.ref(functions.manager))
            del functions
            assert [ref() for ref in table_refs] == [None, None]
        finally:
            cyclic_gc.enable()

    def test_manager_with_a_populated_fused_table_dies_on_del(self):
        cyclic_gc.disable()
        try:
            m = fresh_manager()
            exprs = (("or", "a", "b"), ("xor", "b", "c"), "d", ("and", "d", "e"))
            quad = [build_bdd(m, expr) for expr in exprs]
            m.apply_and_difference(*quad)
            m.apply_or_difference(*quad)
            assert m._cache.and_diff and m._cache.or_diff
            manager_ref = weakref.ref(m)
            del m
            assert manager_ref() is None
        finally:
            cyclic_gc.enable()

    def test_tables_keep_their_identity_across_gc_and_sift(self):
        m = fresh_manager()

        def tables() -> list[object]:
            return [m._unique, *m._unique, *m._cache.tables]

        def same_tables() -> bool:
            now = tables()
            return len(now) == len(before) and all(
                table is old for table, old in zip(now, before)
            )

        before = tables()
        assert len(before) == 1 + len(BOOLEXPR_NAMES) + 7
        kept = Function(m, build_bdd(m, ("or", ("and", "a", "e"), ("xor", "b", "d"))))
        table = truth_table(m, kept.node)
        build_bdd(m, ("and", ("or", "c", "d"), ("not", "e")))  # garbage
        assert m.gc() > 0
        assert same_tables()
        m.sift()
        assert same_tables()
        build_bdd(m, ("xor", ("or", "a", "c"), ("not", "d")))
        m.clear_caches()
        assert same_tables()
        # The closures still see the live tables: rebuilding the kept
        # function finds the very same node.
        assert build_bdd(m, ("or", ("and", "a", "e"), ("xor", "b", "d"))) == (
            kept.node
        )
        assert truth_table(m, kept.node) == table


# ----------------------------------------------------------------------
# Bounded operation cache
# ----------------------------------------------------------------------
class TestBoundedCache:
    def test_cache_size_stays_within_bound(self):
        m = fresh_manager(cache_size=32)
        for expr_vars in itertools.permutations(BOOLEXPR_NAMES, 3):
            build_bdd(m, ("xor", ("and", *expr_vars[:2]), expr_vars[2]))
            assert len(m._cache) <= 32

    def test_eviction_counters_increment(self):
        m = fresh_manager(cache_size=8)
        for expr_vars in itertools.permutations(BOOLEXPR_NAMES, 3):
            build_bdd(m, ("or", ("xor", *expr_vars[:2]), expr_vars[2]))
        stats = m.stats()
        assert stats.cache_evictions > 0
        assert stats.cache_bound == 8
        assert sum(op.evictions for op in stats.op_stats) == (
            stats.cache_evictions
        )

    @settings(max_examples=60, deadline=None)
    @given(exprs=st.lists(boolexprs(), min_size=1, max_size=5))
    def test_eviction_never_returns_a_wrong_result(self, exprs):
        # A pathologically tiny cache evicts constantly; results must
        # still match an effectively unbounded manager bit for bit.
        tiny = fresh_manager(cache_size=4)
        roomy = fresh_manager()
        for expr in exprs:
            assert truth_table(tiny, build_bdd(tiny, expr)) == truth_table(
                roomy, build_bdd(roomy, expr)
            )

    def test_overflow_empties_every_table_and_counts_each_op(self):
        m = fresh_manager(cache_size=8)
        a, b, c, d = (m.var(name) for name in "abcd")
        # The bare recursions skip the bound check, so the tables can
        # be filled past the bound, every op's included, before the
        # next public operation notices.
        f = m._xor(m._and(a, b), m._or(c, d))
        m._not(f)
        m._ite(a, f, c)
        m._restrict(f, m.level_of("c"), True)
        m._and_diff(a, f, b, c)
        m._or_diff(a, f, b, c)
        cache = m._cache
        before = {name: 0 for name in OP_NAMES}
        packed = ("and", "or", "xor", "not", "and_diff", "or_diff")
        for name, table in zip(packed, cache.tables):
            before[name] = len(table)
        for key in cache.other:
            before[OP_NAMES[key[0]]] += 1
        used = (*packed, "ite", "restrict")
        assert all(before[name] for name in used)
        assert sum(before.values()) == len(cache) > 8
        evictions = {op.op: op.evictions for op in m.stats().op_stats}
        assert m.apply_and(f, TRUE) == f  # a terminal case: no new entry
        assert all(len(table) == 0 for table in cache.tables)
        for op in m.stats().op_stats:
            assert op.evictions - evictions[op.op] == before[op.op], op.op

    @pytest.mark.parametrize(
        "method, op",
        [("apply_and_difference", "and_diff"), ("apply_or_difference", "or_diff")],
    )
    def test_fused_difference_overflows_and_counts_its_evictions(self, method, op):
        tiny = fresh_manager(cache_size=16)
        roomy = fresh_manager()

        def fused_table(m: BDDManager, quad) -> tuple[bool, ...]:
            operands = [build_bdd(m, expr) for expr in quad]
            return truth_table(m, getattr(m, method)(*operands))

        for a, b, c, d in itertools.permutations(BOOLEXPR_NAMES, 4):
            quad = (("xor", a, b), ("or", b, c), ("and", c, d), ("xor", d, a))
            assert fused_table(tiny, quad) == fused_table(roomy, quad)
            assert len(tiny._cache) <= 16
        fused = {stat.op: stat for stat in tiny.stats().op_stats}[op]
        assert fused.misses > 0 and fused.evictions > 0
        assert fused.evictions <= fused.misses
        roomy_fused = {stat.op: stat for stat in roomy.stats().op_stats}[op]
        assert roomy_fused.evictions == 0
        assert len(getattr(roomy._cache, op)) == roomy_fused.misses

    def test_clear_preserves_counters_but_drops_entries(self):
        m = fresh_manager()
        build_bdd(m, ("and", ("or", "a", "b"), "c"))
        misses_before = m.stats().cache_misses
        assert misses_before > 0
        m.clear_caches()
        stats = m.stats()
        assert stats.cache_entries == 0
        assert stats.cache_misses == misses_before


# ----------------------------------------------------------------------
# Telemetry plumbing
# ----------------------------------------------------------------------
class TestManagerStats:
    def test_stats_snapshot_is_consistent(self):
        m = fresh_manager()
        f = Function(m, build_bdd(m, ("xor", ("or", "a", "b"), "c")))
        build_bdd(m, ("and", "d", "e"))  # garbage
        m.gc()
        stats = m.stats()
        assert stats.live_nodes == m.num_live_nodes
        assert stats.allocated_nodes == m.num_nodes
        assert stats.live_nodes <= stats.allocated_nodes
        assert stats.gc_runs == 1
        assert stats.reclaimed_nodes == m.reclaimed_nodes > 0
        assert 0.0 <= stats.cache_hit_rate <= 1.0
        lookups = stats.cache_hits + stats.cache_misses
        assert lookups == sum(
            op.hits + op.misses for op in stats.op_stats
        )
        del f

    def test_stats_are_picklable_for_worker_transport(self):
        m = fresh_manager()
        build_bdd(m, ("or", ("and", "a", "b"), ("xor", "c", "d")))
        stats = m.stats()
        clone = pickle.loads(pickle.dumps(stats))
        assert clone == stats

    def test_per_op_counters_name_every_op(self):
        cache = OperationCache(bound=16)
        assert len(cache.op_stats()) == len(OP_NAMES)
        m = fresh_manager()
        m.restrict(build_bdd(m, ("xor", "a", "b")), "a", True)
        by_name = {op.op: op for op in m.stats().op_stats}
        assert by_name["restrict"].lookups > 0


# ----------------------------------------------------------------------
# Packed table keys
# ----------------------------------------------------------------------
node_ids = st.integers(min_value=0, max_value=NODE_LIMIT - 1)


class TestPackedKeys:
    @given(
        first=st.tuples(node_ids, node_ids), second=st.tuples(node_ids, node_ids)
    )
    def test_packing_is_injective_below_the_limit(self, first, second):
        assert (pack(*first) == pack(*second)) == (first == second)

    @given(hi=node_ids, lo=node_ids)
    def test_packing_round_trips(self, hi, lo):
        key = pack(hi, lo)
        assert (key >> KEY_BITS, key & (NODE_LIMIT - 1)) == (hi, lo)

    @settings(max_examples=40, deadline=None)
    @given(exprs=st.lists(boolexprs(), min_size=1, max_size=4), sift=st.booleans())
    def test_unique_tables_hold_exactly_the_live_nodes(self, exprs, sift):
        m = fresh_manager()
        kept = [Function(m, build_bdd(m, e)) for e in exprs[::2]]
        for expr in exprs[1::2]:
            build_bdd(m, expr)  # garbage
        m.gc()
        if sift:
            m.sift()
        live = {
            u: (m.level(u), pack(m.low(u), m.high(u)))
            for u in range(2, m.num_nodes)
            if m._level[u] != -1
        }
        assert len(live) == m.num_live_nodes - 2
        assert sum(map(len, m._unique)) == len(live)
        for u, (lv, key) in live.items():
            assert m._unique[lv][key] == u
        del kept

    def test_new_slots_past_the_limit_raise(self, monkeypatch):
        monkeypatch.setattr(manager_module, "NODE_LIMIT", 5)
        m = fresh_manager()
        a, b = m.var("a"), m.var("b")  # slots 2 and 3
        ab = m.apply_and(a, b)  # slot 4, the last one below the limit
        with pytest.raises(BDDError, match="below 5"):
            m.var("c")  # find-or-create
        with pytest.raises(BDDError, match="below 5"):
            m.apply_or(a, b)  # the node creation inlined in the recursion
        # Hits and reused slots are never limited.
        assert m.var("b") == b and m.apply_and(a, b) == ab
        kept = Function(m, a)
        assert m.gc() == 2
        a_or_c = m.apply_or(a, m.var("c"))
        assert m.num_nodes == 5
        assert m.evaluate(a_or_c, dict.fromkeys(BOOLEXPR_NAMES, False)) is False
        assert m.evaluate(a_or_c, {**dict.fromkeys(BOOLEXPR_NAMES, False), "c": True})
        del kept


if __name__ == "__main__":  # pragma: no cover
    raise SystemExit(pytest.main([__file__, "-q"]))
