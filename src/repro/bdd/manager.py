"""The ROBDD node manager.

Nodes are integers. ``FALSE`` is 0 and ``TRUE`` is 1; every other node
``u`` is an internal node with a variable level ``level(u)`` and two
children ``low(u)`` / ``high(u)`` (the cofactors for the level variable
set to 0 / 1). The manager enforces the two ROBDD invariants:

* **ordered** — children always have strictly larger levels;
* **reduced** — no node with ``low == high`` and no duplicate
  ``(level, low, high)`` triples (unique table: one dict per level,
  keyed by the packed pair ``low << 32 | high``).

Because of these invariants two functions are equal iff their node ids
are equal, which is what makes exact fault analysis cheap: a difference
function is "identically zero" exactly when its id is 0.

Memory management is reference-counted at the root granularity:
external holders (``Function`` handles, ``CircuitFunctions`` tables)
register their roots with :meth:`BDDManager.incref` and release them
with :meth:`BDDManager.decref`. :meth:`BDDManager.gc` mark-sweeps
everything unreachable from the registered roots onto a free list —
node ids of live nodes never change — rebuilds the unique tables over
the survivors, drops the whole computed table and the counting-memo
entries of freed slots (a freed slot may be reused for a different
node, so stale entries would otherwise alias). GC never runs
implicitly: raw integer handles stay valid until somebody explicitly
calls :meth:`gc`, which is why the engine only collects between fault
analyses.

The NOT/AND/OR/XOR recursions, and the fused AND/OR-difference
recursions of Difference Propagation, are closures over the node arrays
and tables, built once per manager; GC, sifting and cache eviction mutate
those tables in place so the closures never need rebinding.

The computed table itself is a size-bounded
:class:`~repro.bdd.cache.OperationCache`: one packed-key dict per apply
op plus one shared dict, all emptied once their total overflows, with
per-op hit/miss/eviction counters; :meth:`BDDManager.stats` snapshots
the whole picture as a :class:`~repro.bdd.cache.ManagerStats`.

The manager works on raw integer handles for speed; the friendlier
:class:`repro.bdd.function.Function` wrapper is layered on top.
"""

from __future__ import annotations

import weakref
from dataclasses import dataclass
from time import perf_counter
from typing import Callable, Iterable, Iterator, Sequence

from repro.bdd.cache import (
    DEFAULT_CACHE_SIZE,
    NODE_LIMIT,
    ManagerStats,
    OperationCache,
)
from repro.obs import resource as _resource
from repro.obs.trace import span as _span
from repro.bdd.cache import (
    OP_AND as _OP_AND,
    OP_AND_DIFF as _OP_AND_DIFF,
    OP_COMPOSE as _OP_COMPOSE,
    OP_EXISTS as _OP_EXISTS,
    OP_FORALL as _OP_FORALL,
    OP_ITE as _OP_ITE,
    OP_NOT as _OP_NOT,
    OP_OR as _OP_OR,
    OP_OR_DIFF as _OP_OR_DIFF,
    OP_RESTRICT as _OP_RESTRICT,
    OP_XOR as _OP_XOR,
)

FALSE = 0
TRUE = 1

#: Sentinel level marking a freed node slot (terminals use 2**60).
_FREED = -1


class BDDError(Exception):
    """Raised on misuse of the BDD layer (unknown variables, mixed managers...)."""


def _node_limit_error() -> BDDError:
    return BDDError(
        f"node store full: packed table keys need node ids below {NODE_LIMIT}"
    )


@dataclass(frozen=True)
class ReorderStats:
    """Outcome of one reordering pass (:meth:`BDDManager.sift`).

    ``nodes_before``/``nodes_after`` are live-node counts in the same
    units as :attr:`BDDManager.num_live_nodes` (terminals included);
    ``nodes_before`` is measured *after* the pre-pass garbage sweep, so
    the reduction credited here is the reordering's alone.
    """

    swaps: int
    nodes_before: int
    nodes_after: int
    seconds: float

    @property
    def reduction(self) -> float:
        """Fractional live-node reduction achieved by the pass."""
        if not self.nodes_before:
            return 0.0
        return 1.0 - self.nodes_after / self.nodes_before


class _ReorderState:
    """Bookkeeping shared by the adjacent swaps of one reordering pass.

    ``by_level[lv]`` is the set of live internal nodes decided at level
    ``lv``; ``ref[u]`` counts ``u``'s parents plus one pin if ``u`` is
    externally referenced (so a pinned node can never cascade-die);
    ``dead`` accumulates slots whose last parent released them — they
    are only moved to the manager's free list when the pass ends, so an
    id freed mid-pass can never be re-issued within the same pass;
    ``size`` tracks the live internal-node total (the sifting objective).
    """

    __slots__ = ("by_level", "ref", "dead", "size")

    def __init__(
        self, by_level: list[set[int]], ref: list[int], size: int
    ) -> None:
        self.by_level = by_level
        self.ref = ref
        self.dead: list[int] = []
        self.size = size


class BDDManager:
    """Shared-node ROBDD manager over a fixed, extendable variable order.

    Parameters
    ----------
    variables:
        Initial variable names, in order (level 0 is the topmost level,
        tested first). More variables may be appended later with
        :meth:`add_var`; inserting in the middle of the order is not
        supported (it would invalidate existing nodes).
    cache_size:
        Bound on the computed table, in entries summed over its
        per-op tables. Every table is emptied when the total passes
        it; see :mod:`repro.bdd.cache`.
    """

    def __init__(
        self,
        variables: Iterable[str] = (),
        cache_size: int = DEFAULT_CACHE_SIZE,
    ) -> None:
        # Node store. Index = node id. Terminals occupy ids 0 and 1 with
        # a sentinel level larger than any variable level.
        self._level: list[int] = [2**60, 2**60]
        self._low: list[int] = [0, 1]
        self._high: list[int] = [0, 1]
        # One dict per level, keyed ``low << 32 | high``.
        self._unique: list[dict[int, int]] = []
        self._cache = OperationCache(cache_size)
        self._count_memo: dict[int, int] = {}
        self._var_names: list[str] = []
        self._var_index: dict[str, int] = {}
        # Reclaimed node slots available for reuse (ids stay stable for
        # live nodes; only slots proven dead by gc() land here).
        self._free: list[int] = []
        # External reference counts: node id -> number of outstanding
        # holders. These are gc()'s root set.
        self._extrefs: dict[int, int] = {}
        self._gc_runs = 0
        self._reclaimed_total = 0
        self._reorder_runs = 0
        self._reorder_swaps = 0
        self._last_reorder: ReorderStats | None = None
        # Bound once: GC, sifting and eviction mutate these tables in
        # place, never replace them, so the closures stay valid.
        (
            self._mk, self._not, self._and, self._or, self._xor,
            self._and_diff, self._or_diff,
        ) = _apply_closures(
            self._level, self._low, self._high, self._unique, self._free,
            self._cache,
        )
        for name in variables:
            self.add_var(name)
        _MANAGERS.add(self)

    # ------------------------------------------------------------------
    # Variables
    # ------------------------------------------------------------------
    def add_var(self, name: str) -> int:
        """Append variable ``name`` at the bottom of the order; return its level."""
        if name in self._var_index:
            raise BDDError(f"variable {name!r} already declared")
        level = len(self._var_names)
        self._var_names.append(name)
        self._var_index[name] = level
        self._unique.append({})
        # Counting results depend on the variable-set size.
        self._count_memo.clear()
        return level

    @property
    def var_names(self) -> tuple[str, ...]:
        """Variable names in order (level 0 first)."""
        return tuple(self._var_names)

    @property
    def num_vars(self) -> int:
        return len(self._var_names)

    def level_of(self, name: str) -> int:
        try:
            return self._var_index[name]
        except KeyError:
            raise BDDError(f"unknown variable {name!r}") from None

    def var(self, name: str) -> int:
        """Node for the literal ``name``."""
        return self._mk(self.level_of(name), FALSE, TRUE)

    def nvar(self, name: str) -> int:
        """Node for the negative literal ``~name``."""
        return self._mk(self.level_of(name), TRUE, FALSE)

    # ------------------------------------------------------------------
    # Node structure access
    # ------------------------------------------------------------------
    def level(self, u: int) -> int:
        return self._level[u]

    def var_at(self, u: int) -> str:
        """Name of the decision variable of internal node ``u``."""
        if u <= TRUE:
            raise BDDError("terminal nodes have no decision variable")
        return self._var_names[self._level[u]]

    def low(self, u: int) -> int:
        return self._low[u]

    def high(self, u: int) -> int:
        return self._high[u]

    def is_terminal(self, u: int) -> bool:
        return u <= TRUE

    @property
    def num_nodes(self) -> int:
        """Node slots allocated so far (including both terminals).

        Freed slots are counted until they are reused — this is the
        store's high-water footprint, not the live population; see
        :attr:`num_live_nodes`.
        """
        return len(self._level)

    @property
    def num_allocated_nodes(self) -> int:
        """Alias of :attr:`num_nodes` (allocated slots incl. terminals)."""
        return len(self._level)

    @property
    def num_live_nodes(self) -> int:
        """Slots currently in use (allocated minus the free list).

        Between :meth:`gc` calls this includes not-yet-collected
        garbage; immediately after a collection it is exactly the
        number of nodes reachable from the registered roots.
        """
        return len(self._level) - len(self._free)

    # ------------------------------------------------------------------
    # External references & garbage collection
    # ------------------------------------------------------------------
    def incref(self, u: int) -> int:
        """Register an external reference to ``u`` (a GC root); returns ``u``.

        Terminals are permanent and never counted. Every ``incref``
        must eventually be paired with a :meth:`decref` or the node
        stays live forever.
        """
        if u > TRUE:
            refs = self._extrefs
            refs[u] = refs.get(u, 0) + 1
        return u

    def decref(self, u: int) -> None:
        """Release one external reference to ``u``.

        Lenient on over-release: unknown nodes are ignored so handle
        finalizers are safe during interpreter teardown (and after the
        reference table has been dropped wholesale).
        """
        if u <= TRUE:
            return
        refs = self._extrefs
        count = refs.get(u)
        if count is None:
            return
        if count <= 1:
            del refs[u]
        else:
            refs[u] = count - 1

    def ref_count(self, u: int) -> int:
        """Outstanding external references to ``u`` (0 for terminals)."""
        return self._extrefs.get(u, 0)

    def gc(self) -> int:
        """Mark-and-sweep unreachable nodes; returns the number reclaimed.

        Roots are the externally referenced nodes (see :meth:`incref`).
        Live node ids never change — dead slots go to a free list for
        reuse — so raw handles to live nodes, ``Function`` wrappers,
        and ``CircuitFunctions`` tables all stay valid. The unique
        tables are rebuilt over the survivors. If any slot was freed, the
        computed table is dropped (counted in ``cache_invalidations``)
        and so are the counting-memo entries of freed slots: slot reuse
        would otherwise alias them onto different nodes.

        Never called implicitly: callers holding raw node ints outside
        the root set are safe until *they* decide to collect.
        """
        with _span("bdd.gc") as sp:
            freed = self._gc_sweep()
            sp.set(
                freed=freed,
                live_nodes=self.num_live_nodes,
                allocated_nodes=self.num_nodes,
            )
        return freed

    def _gc_sweep(self) -> int:
        level, low, high = self._level, self._low, self._high
        alive = bytearray(len(level))
        alive[FALSE] = alive[TRUE] = 1
        stack = list(self._extrefs)
        while stack:
            u = stack.pop()
            if alive[u]:
                continue
            alive[u] = 1
            lo, hi = low[u], high[u]
            if not alive[lo]:
                stack.append(lo)
            if not alive[hi]:
                stack.append(hi)
        free = self._free
        freed = 0
        # Rebuilt in place: the apply closures hold these very dicts.
        unique = self._unique
        for table in unique:
            table.clear()
        for u in range(2, len(level)):
            lv = level[u]
            if lv == _FREED:
                continue  # reclaimed in an earlier sweep, still free
            if alive[u]:
                unique[lv][low[u] << 32 | high[u]] = u
            else:
                level[u] = _FREED
                free.append(u)
                freed += 1
        self._gc_runs += 1
        if freed:
            self._reclaimed_total += freed
            # A freed slot may be reused for a different node, so any
            # entry naming one would alias; most entries name a dead
            # node anyway, so the whole table goes.
            cache = self._cache
            cache.invalidated += len(cache)
            cache.clear()
            self._count_memo = {
                u: count for u, count in self._count_memo.items() if alive[u]
            }
        return freed

    @property
    def gc_runs(self) -> int:
        """Number of :meth:`gc` sweeps performed."""
        return self._gc_runs

    @property
    def reclaimed_nodes(self) -> int:
        """Total node slots reclaimed across every :meth:`gc` sweep."""
        return self._reclaimed_total

    def stats(self) -> ManagerStats:
        """Plain-scalar snapshot of node store and cache health."""
        cache = self._cache
        return ManagerStats(
            live_nodes=self.num_live_nodes,
            allocated_nodes=self.num_nodes,
            gc_runs=self._gc_runs,
            reclaimed_nodes=self._reclaimed_total,
            cache_entries=len(cache),
            cache_bound=cache.bound,
            cache_hits=sum(cache.hits),
            cache_misses=sum(cache.misses),
            cache_evictions=sum(cache.evictions),
            cache_invalidations=cache.invalidated,
            op_stats=cache.op_stats(),
            reorder_runs=self._reorder_runs,
            reorder_swaps=self._reorder_swaps,
        )

    # ------------------------------------------------------------------
    # Dynamic variable reordering (Rudell sifting)
    # ------------------------------------------------------------------
    #
    # Reordering rewrites the diagram *in place*: live node ids never
    # change, so Function handles and raw ints registered through
    # incref() stay valid across a pass (they simply denote the same
    # function under the new order). Three invalidation rules make that
    # sound:
    #
    # * the computed table and the counting memo are dropped wholesale
    #   at the start and end of a pass (their keys embed levels, and
    #   results describe the old order — see bdd/cache.py);
    # * every pass starts with a garbage sweep, so reordering shares
    #   gc()'s contract: raw node ints NOT registered via incref() are
    #   treated as garbage. Call sites must hold roots, which is why
    #   the engine only reorders at its between-fault GC boundary;
    # * slots that die mid-pass are quarantined until the pass ends, so
    #   an id can never be re-issued while swaps are still in flight.

    @property
    def reorder_runs(self) -> int:
        """Number of completed :meth:`sift` passes."""
        return self._reorder_runs

    @property
    def reorder_swaps(self) -> int:
        """Cumulative adjacent-level swaps across all reordering."""
        return self._reorder_swaps

    @property
    def last_reorder(self) -> ReorderStats | None:
        """Stats of the most recent :meth:`sift` pass (``None`` before any)."""
        return self._last_reorder

    def swap_adjacent(self, level: int) -> ReorderStats:
        """Exchange variable levels ``level`` and ``level + 1`` in place.

        The primitive behind :meth:`sift`, exposed for testing and for
        callers that want to steer the order manually. Shares gc()'s
        root contract (unregistered raw ints are collected first).
        """
        if not 0 <= level < self.num_vars - 1:
            raise BDDError(
                f"swap_adjacent needs 0 <= level < {self.num_vars - 1}, "
                f"got {level}"
            )
        start = perf_counter()
        st = self._reorder_begin()
        nodes_before = st.size
        self._swap_levels(level, st)
        nodes_after = st.size
        self._reorder_end(st)
        self._reorder_swaps += 1
        return ReorderStats(
            swaps=1,
            nodes_before=nodes_before + 2,
            nodes_after=nodes_after + 2,
            seconds=perf_counter() - start,
        )

    def sift(
        self, max_growth: float = 1.2, max_vars: int | None = None
    ) -> ReorderStats:
        """Rudell sifting: move every variable to its best position.

        Variables are processed in decreasing order of level population
        (big levels first — they have the most to gain). Each one is
        bubbled through the whole order by adjacent swaps and parked at
        the position that minimized the live node count; a sweep
        direction is abandoned early once the diagram grows beyond
        ``max_growth`` × the size at that variable's start. ``max_vars``
        caps how many variables are sifted (all by default).

        Like :meth:`gc`, a pass first collects everything unreachable
        from the registered roots; surviving node ids are preserved, so
        ``Function`` handles and incref'd ints remain valid.
        """
        if max_growth < 1.0:
            raise BDDError(f"max_growth must be >= 1.0, got {max_growth}")
        start = perf_counter()
        with _span("bdd.reorder") as sp:
            st = self._reorder_begin()
            nodes_before = st.size
            swaps = 0
            if self.num_vars >= 2 and st.size:
                ranked = sorted(
                    self._var_names,
                    key=lambda name: len(st.by_level[self._var_index[name]]),
                    reverse=True,
                )
                if max_vars is not None:
                    ranked = ranked[:max_vars]
                for name in ranked:
                    swaps += self._sift_var(name, st, max_growth)
            nodes_after = st.size
            self._reorder_end(st)
            self._reorder_runs += 1
            self._reorder_swaps += swaps
            stats = ReorderStats(
                swaps=swaps,
                nodes_before=nodes_before + 2,
                nodes_after=nodes_after + 2,
                seconds=perf_counter() - start,
            )
            self._last_reorder = stats
            sp.set(
                swaps=swaps,
                nodes_before=stats.nodes_before,
                nodes_after=stats.nodes_after,
            )
        return stats

    def _sift_var(
        self, name: str, st: _ReorderState, max_growth: float
    ) -> int:
        """Bubble one variable to its best position; returns swaps used."""
        n = self.num_vars
        pos = self._var_index[name]
        best_size = st.size
        best_pos = pos
        limit = max_growth * st.size
        swaps = 0

        def sweep_down() -> None:
            nonlocal pos, best_size, best_pos, swaps
            while pos < n - 1:
                self._swap_levels(pos, st)
                swaps += 1
                pos += 1
                if st.size < best_size:
                    best_size, best_pos = st.size, pos
                elif st.size > limit:
                    break

        def sweep_up() -> None:
            nonlocal pos, best_size, best_pos, swaps
            while pos > 0:
                self._swap_levels(pos - 1, st)
                swaps += 1
                pos -= 1
                if st.size < best_size:
                    best_size, best_pos = st.size, pos
                elif st.size > limit:
                    break

        # Head for the closer end first: if that direction aborts on
        # growth, the way back passes through the start position anyway.
        if n - 1 - pos <= pos:
            sweep_down()
            sweep_up()
        else:
            sweep_up()
            sweep_down()
        while pos < best_pos:
            self._swap_levels(pos, st)
            swaps += 1
            pos += 1
        while pos > best_pos:
            self._swap_levels(pos - 1, st)
            swaps += 1
            pos -= 1
        return swaps

    def _reorder_begin(self) -> _ReorderState:
        """Sweep garbage, drop order-dependent caches, build swap state."""
        self._cache.clear()
        self._count_memo.clear()
        self._gc_sweep()
        level, low, high = self._level, self._low, self._high
        by_level: list[set[int]] = [set() for _ in self._var_names]
        ref = [0] * len(level)
        for u in range(2, len(level)):
            if level[u] == _FREED:
                continue
            by_level[level[u]].add(u)
            ref[low[u]] += 1
            ref[high[u]] += 1
        # One pin per externally referenced node: pinned nodes can lose
        # every internal parent without cascading onto the dead list.
        for u in self._extrefs:
            ref[u] += 1
        size = len(self._level) - len(self._free) - 2
        return _ReorderState(by_level, ref, size)

    def _reorder_end(self, st: _ReorderState) -> None:
        """Release quarantined dead slots and re-drop the caches."""
        level, free = self._level, self._free
        for u in st.dead:
            level[u] = _FREED
            free.append(u)
        self._cache.clear()
        self._count_memo.clear()

    def _swap_levels(self, i: int, st: _ReorderState) -> None:
        """Exchange variable levels ``i`` and ``i + 1`` in place.

        Level-``i+1`` nodes keep their structure (their decision
        variable just moves up). Level-``i`` nodes independent of the
        level-``i+1`` variable slide down unchanged. The rest are
        rewired through the swap identity

            ite(a, ite(b, f11, f10), ite(b, f01, f00))
          = ite(b, ite(a, f11, f01), ite(a, f10, f00))

        keeping their ids (only ``low``/``high`` change), so external
        handles survive. Distinct live nodes denote distinct functions
        (canonicity), hence the freshly registered triples can never
        collide in the unique table.
        """
        j = i + 1
        level, low, high = self._level, self._low, self._high
        unique_i, unique_j = self._unique[i], self._unique[j]
        by_level, ref = st.by_level, st.ref
        a_nodes = by_level[i]
        b_nodes = by_level[j]
        # Retire both levels' unique-table keys before any node changes
        # shape: with the key space empty, transient aliasing between
        # old and new pairs is impossible. Within a pass each level's
        # dict holds exactly that level's live nodes.
        unique_i.clear()
        unique_j.clear()
        # Level-j nodes move up unchanged. From here on ``b_nodes`` also
        # serves as the "was decided at level j" membership test — its
        # ids are disjoint from every old child examined below, because
        # children of level-i nodes sit strictly below level i.
        for v in b_nodes:
            level[v] = i
            unique_i[low[v] << 32 | high[v]] = v
        new_j: set[int] = set()
        rewired: list[int] = []
        for u in a_nodes:
            if low[u] in b_nodes or high[u] in b_nodes:
                rewired.append(u)
            else:
                # Independent of the level-j variable: slide down as-is.
                level[u] = j
                unique_j[low[u] << 32 | high[u]] = u
                new_j.add(u)
        by_level[i] = b_nodes
        by_level[j] = new_j
        for u in rewired:
            f0, f1 = low[u], high[u]
            if f0 in b_nodes:
                f00, f01 = low[f0], high[f0]
            else:
                f00 = f01 = f0
            if f1 in b_nodes:
                f10, f11 = low[f1], high[f1]
            else:
                f10 = f11 = f1
            # New cofactors on the former level-i variable, now at j.
            if f00 == f10:
                nf0 = f00
            else:
                key = f00 << 32 | f10
                nf0 = unique_j.get(key)
                if nf0 is None:
                    nf0 = self._reorder_new_node(j, f00, f10, st)
                    unique_j[key] = nf0
                    new_j.add(nf0)
            if f01 == f11:
                nf1 = f01
            else:
                key = f01 << 32 | f11
                nf1 = unique_j.get(key)
                if nf1 is None:
                    nf1 = self._reorder_new_node(j, f01, f11, st)
                    unique_j[key] = nf1
                    new_j.add(nf1)
            # nf0 != nf1 always: equal cofactors would mean u does not
            # depend on the level-j variable, contradicting the rewire
            # test above. Rewire u in place and release its old children.
            low[u] = nf0
            high[u] = nf1
            unique_i[nf0 << 32 | nf1] = u
            ref[nf0] += 1
            ref[nf1] += 1
            self._reorder_deref(f0, st)
            self._reorder_deref(f1, st)
        b_nodes.update(rewired)
        # The two levels trade variables; everything else is untouched.
        names = self._var_names
        names[i], names[j] = names[j], names[i]
        self._var_index[names[i]] = i
        self._var_index[names[j]] = j

    def _reorder_new_node(
        self, lv: int, lo: int, hi: int, st: _ReorderState
    ) -> int:
        """Allocate a node during a swap (free-list reuse, ref upkeep)."""
        free = self._free
        if free:
            node = free.pop()
            self._level[node] = lv
            self._low[node] = lo
            self._high[node] = hi
        else:
            node = len(self._level)
            if node >= NODE_LIMIT:
                raise _node_limit_error()
            self._level.append(lv)
            self._low.append(lo)
            self._high.append(hi)
            st.ref.append(0)
        st.ref[lo] += 1
        st.ref[hi] += 1
        st.size += 1
        return node

    def _reorder_deref(self, v: int, st: _ReorderState) -> None:
        """Release one parent reference to ``v``, cascading on death.

        Iterative on an explicit stack — a dying chain can be as deep
        as the variable order. Dead slots are quarantined on
        ``st.dead`` (not the free list) until the pass ends.
        """
        ref = st.ref
        level, low, high = self._level, self._low, self._high
        unique = self._unique
        by_level = st.by_level
        extrefs = self._extrefs
        stack = [v]
        while stack:
            v = stack.pop()
            ref[v] -= 1
            if v > TRUE and ref[v] == 0 and v not in extrefs:
                lv = level[v]
                del unique[lv][low[v] << 32 | high[v]]
                by_level[lv].discard(v)
                st.dead.append(v)
                st.size -= 1
                stack.append(low[v])
                stack.append(high[v])

    # ------------------------------------------------------------------
    # Core operator: if-then-else
    # ------------------------------------------------------------------
    def ite(self, f: int, g: int, h: int) -> int:
        """``(f & g) | (~f & h)`` — the universal ternary connective."""
        result = self._ite(f, g, h)
        self._cache.maybe_evict()
        return result

    def _ite(self, f: int, g: int, h: int) -> int:
        if f == TRUE:
            return g
        if f == FALSE:
            return h
        if g == h:
            return g
        if g == TRUE and h == FALSE:
            return f
        key = (_OP_ITE, f, g, h)
        cache = self._cache
        result = cache.other.get(key)
        if result is not None:
            cache.hits[_OP_ITE] += 1
            return result
        cache.misses[_OP_ITE] += 1
        levels = (self._level[f], self._level[g], self._level[h])
        top = min(levels)
        f0, f1 = self._cofactors(f, top)
        g0, g1 = self._cofactors(g, top)
        h0, h1 = self._cofactors(h, top)
        low = self._ite(f0, g0, h0)
        high = self._ite(f1, g1, h1)
        result = self._mk(top, low, high)
        cache.other[key] = result
        return result

    def _cofactors(self, u: int, level: int) -> tuple[int, int]:
        if self._level[u] == level:
            return self._low[u], self._high[u]
        return u, u

    # ------------------------------------------------------------------
    # Binary / unary operators
    # ------------------------------------------------------------------
    # The recursions are closures built once per manager by
    # _apply_closures (see there); these wrappers only add the
    # between-operation eviction check.

    def apply_not(self, f: int) -> int:
        result = self._not(f)
        self._cache.maybe_evict()
        return result

    def apply_and(self, f: int, g: int) -> int:
        result = self._and(f, g)
        self._cache.maybe_evict()
        return result

    def apply_or(self, f: int, g: int) -> int:
        result = self._or(f, g)
        self._cache.maybe_evict()
        return result

    def apply_xor(self, f: int, g: int) -> int:
        result = self._xor(f, g)
        self._cache.maybe_evict()
        return result

    def apply_and_difference(self, fa: int, fb: int, da: int, db: int) -> int:
        """Δ at the output of a 2-input AND, in one apply (Table 1).

        ``fa``/``fb`` are the good input functions and ``da``/``db``
        their differences; the result is ``(fa ∧ fb) ⊕ ((fa ⊕ da) ∧
        (fb ⊕ db))``.
        """
        result = self._and_diff(fa, fb, da, db)
        self._cache.maybe_evict()
        return result

    def apply_or_difference(self, fa: int, fb: int, da: int, db: int) -> int:
        """Δ at the output of a 2-input OR: ``(fa ∨ fb) ⊕ ((fa ⊕ da) ∨
        (fb ⊕ db))``, in one apply (Table 1)."""
        result = self._or_diff(fa, fb, da, db)
        self._cache.maybe_evict()
        return result

    def apply_nand(self, f: int, g: int) -> int:
        return self.apply_not(self.apply_and(f, g))

    def apply_nor(self, f: int, g: int) -> int:
        return self.apply_not(self.apply_or(f, g))

    def apply_xnor(self, f: int, g: int) -> int:
        return self.apply_not(self.apply_xor(f, g))

    def apply_implies(self, f: int, g: int) -> int:
        return self.ite(f, g, TRUE)

    # ------------------------------------------------------------------
    # Cofactor / quantification / composition
    # ------------------------------------------------------------------
    def restrict(self, f: int, name: str, value: bool) -> int:
        """Cofactor of ``f`` with variable ``name`` fixed to ``value``."""
        level = self.level_of(name)
        result = self._restrict(f, level, bool(value))
        self._cache.maybe_evict()
        return result

    def _restrict(self, f: int, level: int, value: bool) -> int:
        if self._level[f] > level:
            return f
        key = (_OP_RESTRICT, f, level, value)
        cache = self._cache
        result = cache.other.get(key)
        if result is not None:
            cache.hits[_OP_RESTRICT] += 1
            return result
        cache.misses[_OP_RESTRICT] += 1
        if self._level[f] == level:
            result = self._high[f] if value else self._low[f]
        else:
            result = self._mk(
                self._level[f],
                self._restrict(self._low[f], level, value),
                self._restrict(self._high[f], level, value),
            )
        cache.other[key] = result
        return result

    def exists(self, f: int, names: Iterable[str]) -> int:
        """Existential quantification over the given variables."""
        levels = frozenset(self.level_of(n) for n in names)
        result = self._quantify(f, levels, _OP_EXISTS)
        self._cache.maybe_evict()
        return result

    def forall(self, f: int, names: Iterable[str]) -> int:
        """Universal quantification over the given variables."""
        levels = frozenset(self.level_of(n) for n in names)
        result = self._quantify(f, levels, _OP_FORALL)
        self._cache.maybe_evict()
        return result

    def _quantify(self, f: int, levels: frozenset[int], op: int) -> int:
        if f <= TRUE or not levels:
            return f
        if self._level[f] > max(levels):
            return f
        key = (op, f, levels)
        cache = self._cache
        result = cache.other.get(key)
        if result is not None:
            cache.hits[op] += 1
            return result
        cache.misses[op] += 1
        low = self._quantify(self._low[f], levels, op)
        high = self._quantify(self._high[f], levels, op)
        if self._level[f] in levels:
            if op == _OP_EXISTS:
                result = self.apply_or(low, high)
            else:
                result = self.apply_and(low, high)
        else:
            result = self._mk(self._level[f], low, high)
        cache.other[key] = result
        return result

    def compose(self, f: int, name: str, g: int) -> int:
        """Substitute function ``g`` for variable ``name`` in ``f``."""
        level = self.level_of(name)
        result = self._compose(f, level, g)
        self._cache.maybe_evict()
        return result

    def _compose(self, f: int, level: int, g: int) -> int:
        if self._level[f] > level:
            return f
        key = (_OP_COMPOSE, f, level, g)
        cache = self._cache
        result = cache.other.get(key)
        if result is not None:
            cache.hits[_OP_COMPOSE] += 1
            return result
        cache.misses[_OP_COMPOSE] += 1
        if self._level[f] == level:
            result = self._ite(g, self._high[f], self._low[f])
        else:
            low = self._compose(self._low[f], level, g)
            high = self._compose(self._high[f], level, g)
            # The substituted children may no longer respect the order
            # relative to level(f) if g's top variable sits above f's —
            # rebuild through ite on the decision variable to stay safe.
            var_node = self._mk(self._level[f], FALSE, TRUE)
            result = self._ite(var_node, high, low)
        cache.other[key] = result
        return result

    # ------------------------------------------------------------------
    # Analysis
    # ------------------------------------------------------------------
    def satcount(self, f: int, nvars: int | None = None) -> int:
        """Number of satisfying assignments over ``nvars`` variables.

        ``nvars`` defaults to the manager's full variable count, which is
        what detectability/syndrome computations want (every minterm is a
        full primary-input vector); it may exceed the count to model
        extra free variables, but cannot be smaller.
        """
        if nvars is None:
            nvars = self.num_vars
        elif nvars < self.num_vars:
            raise BDDError(
                f"nvars={nvars} is smaller than the manager's "
                f"{self.num_vars} variables"
            )
        if f == FALSE:
            return 0
        if f == TRUE:
            return 1 << nvars
        count = self._satcount_rec(f, self._count_memo)
        # _satcount_rec counts assignments to variables strictly below
        # level(f) within the manager's own variable set; scale by the
        # skipped levels above the root and any extra free variables.
        return count << (self._level[f] + nvars - self.num_vars)

    def _satcount_rec(self, f: int, memo: dict[int, int]) -> int:
        """Count assignments over levels ``level(f) .. num_vars-1``."""
        if f == FALSE:
            return 0
        if f == TRUE:
            return 1
        cached = memo.get(f)
        if cached is not None:
            return cached
        nvars = self.num_vars
        low, high = self._low[f], self._high[f]
        level = self._level[f]
        low_level = min(self._level[low], nvars)
        high_level = min(self._level[high], nvars)
        count = self._satcount_rec(low, memo) << (low_level - level - 1)
        count += self._satcount_rec(high, memo) << (high_level - level - 1)
        memo[f] = count
        return count

    def support(self, f: int) -> frozenset[str]:
        """Names of the variables ``f`` structurally depends on."""
        levels: set[int] = set()
        seen: set[int] = set()
        stack = [f]
        while stack:
            u = stack.pop()
            if u <= TRUE or u in seen:
                continue
            seen.add(u)
            levels.add(self._level[u])
            stack.append(self._low[u])
            stack.append(self._high[u])
        return frozenset(self._var_names[lv] for lv in levels)

    def node_count(self, f: int) -> int:
        """Number of distinct nodes in the diagram rooted at ``f`` (incl. terminals)."""
        seen: set[int] = set()
        stack = [f]
        while stack:
            u = stack.pop()
            if u in seen:
                continue
            seen.add(u)
            if u > TRUE:
                stack.append(self._low[u])
                stack.append(self._high[u])
        return len(seen)

    def pick_minterm(self, f: int) -> dict[str, bool] | None:
        """One satisfying full assignment of ``f``, or ``None`` if unsatisfiable."""
        if f == FALSE:
            return None
        assignment: dict[str, bool] = {}
        u = f
        while u > TRUE:
            if self._low[u] != FALSE:
                assignment[self.var_at(u)] = False
                u = self._low[u]
            else:
                assignment[self.var_at(u)] = True
                u = self._high[u]
        for name in self._var_names:
            assignment.setdefault(name, False)
        return assignment

    def minterms(self, f: int, limit: int | None = None) -> Iterator[dict[str, bool]]:
        """Iterate full satisfying assignments (at most ``limit`` of them)."""
        if f == FALSE:
            return
        emitted = 0
        names = self._var_names

        def rec(u: int, level: int, partial: dict[str, bool]) -> Iterator[dict[str, bool]]:
            if level == len(names):
                if u == TRUE:
                    yield dict(partial)
                return
            if u == FALSE:
                return
            name = names[level]
            if self._level[u] == level:
                branches = ((False, self._low[u]), (True, self._high[u]))
            else:
                branches = ((False, u), (True, u))
            for value, child in branches:
                partial[name] = value
                yield from rec(child, level + 1, partial)
            del partial[name]

        for assignment in rec(f, 0, {}):
            yield assignment
            emitted += 1
            if limit is not None and emitted >= limit:
                return

    def evaluate(self, f: int, assignment: dict[str, bool]) -> bool:
        """Evaluate ``f`` under a (full) variable assignment."""
        u = f
        while u > TRUE:
            name = self._var_names[self._level[u]]
            try:
                value = assignment[name]
            except KeyError:
                raise BDDError(f"assignment missing variable {name!r}") from None
            u = self._high[u] if value else self._low[u]
        return u == TRUE

    # ------------------------------------------------------------------
    # Bulk helpers
    # ------------------------------------------------------------------
    def cube(self, literals: dict[str, bool]) -> int:
        """Conjunction of literals, e.g. ``cube({'a': True, 'b': False})``."""
        result = TRUE
        for name, value in literals.items():
            lit = self.var(name) if value else self.nvar(name)
            result = self.apply_and(result, lit)
        return result

    def disjoin(self, nodes: Sequence[int]) -> int:
        result = FALSE
        for node in nodes:
            result = self.apply_or(result, node)
        return result

    def conjoin(self, nodes: Sequence[int]) -> int:
        result = TRUE
        for node in nodes:
            result = self.apply_and(result, node)
        return result

    def clear_caches(self) -> None:
        """Drop the computed table (node store and unique table are kept)."""
        self._cache.clear()


# ----------------------------------------------------------------------
# The apply recursions
# ----------------------------------------------------------------------
def _apply_closures(
    level: list[int],
    low: list[int],
    high: list[int],
    unique: list[dict[int, int]],
    free: list[int],
    cache: OperationCache,
) -> tuple[Callable[..., int], ...]:
    """Find-or-create and the apply recursions over one store.

    Returns ``(mk, not_, and_, or_, xor_, and_diff, or_diff)``.
    Difference Propagation spends nearly all its time in these, so they
    read the node arrays and tables from closure cells rather than
    through ``self`` — that roughly halves the cost of the recursion.
    They close over the tables only, never the manager, so a manager is freed as soon as
    its last reference goes (no manager <-> closure cycle). The binary
    recursions share one body, each bound to its op's computed table;
    each op's terminal cases stay inline, picked by flags fixed when
    the closure is made. Table keys pack two node ids into one int
    (:func:`repro.bdd.cache.pack`, spelled out inline), so a new slot
    past :data:`~repro.bdd.cache.NODE_LIMIT` raises :class:`BDDError`.

    ``and_diff(fa, fb, da, db)`` is the Table 1 AND identity
    ``fa·db ⊕ fb·da ⊕ da·db`` as one descent over all four operands,
    ``ITE(da, ITE(db, ¬(fa⊕fb), fb), ITE(db, fa, 0))``, so none of the
    three products or two sums is built as a BDD of its own. Once a
    difference is constant the rest drops into the AND/XOR/NOT
    recursions. ``or_diff`` is the same body over complemented goods
    (``f̄a ⊕ f̄b = fa ⊕ fb``), each bound to its own computed table.
    """
    hits, misses = cache.hits, cache.misses
    not_table = cache.not_
    limit = NODE_LIMIT

    def mk(top: int, r0: int, r1: int) -> int:
        if r0 == r1:
            return r0
        table = unique[top]
        key = r0 << 32 | r1
        node = table.get(key)
        if node is None:
            if free:
                node = free.pop()
                level[node] = top
                low[node] = r0
                high[node] = r1
            else:
                node = len(level)
                if node >= limit:
                    raise _node_limit_error()
                level.append(top)
                low.append(r0)
                high.append(r1)
            table[key] = node
        return node

    def not_(f: int) -> int:
        if f == FALSE:
            return TRUE
        if f == TRUE:
            return FALSE
        result = not_table.get(f)
        if result is not None:
            hits[_OP_NOT] += 1
            return result
        misses[_OP_NOT] += 1
        result = mk(level[f], not_(low[f]), not_(high[f]))
        not_table[f] = result
        # Negation is an involution; prime the reverse entry too.
        not_table[result] = f
        return result

    def binary(op: int, data: dict[int, int]) -> Callable[[int, int], int]:
        is_and, is_or = op == _OP_AND, op == _OP_OR

        def rec(f: int, g: int) -> int:
            if is_and:
                if f == g or g == TRUE:
                    return f
                if f == FALSE or g == FALSE:
                    return FALSE
                if f == TRUE:
                    return g
            elif is_or:
                if f == g or g == FALSE:
                    return f
                if f == TRUE or g == TRUE:
                    return TRUE
                if f == FALSE:
                    return g
            else:
                if f == g:
                    return FALSE
                if f == FALSE:
                    return g
                if g == FALSE:
                    return f
                if f == TRUE:
                    return not_(g)
                if g == TRUE:
                    return not_(f)
            if f > g:  # commutative: canonicalize the cache key
                f, g = g, f
            key = f << 32 | g
            result = data.get(key)
            if result is not None:
                hits[op] += 1
                return result
            misses[op] += 1
            lf, lg = level[f], level[g]
            if lf <= lg:
                top, f0, f1 = lf, low[f], high[f]
            else:
                top, f0, f1 = lg, f, f
            if lg <= lf:
                g0, g1 = low[g], high[g]
            else:
                g0, g1 = g, g
            r0 = rec(f0, g0)
            r1 = rec(f1, g1)
            # mk, inlined: a call per miss cost ~10% of a c1908 build
            if r0 == r1:
                result = r0
            else:
                table = unique[top]
                node_key = r0 << 32 | r1
                result = table.get(node_key)
                if result is None:
                    if free:
                        result = free.pop()
                        level[result] = top
                        low[result] = r0
                        high[result] = r1
                    else:
                        result = len(level)
                        if result >= limit:
                            raise _node_limit_error()
                        level.append(top)
                        low.append(r0)
                        high.append(r1)
                    table[node_key] = result
            data[key] = result
            return result

        return rec

    and_ = binary(_OP_AND, cache.and_)
    xor = binary(_OP_XOR, cache.xor)

    def difference(op: int, data: dict[int, int]) -> Callable[..., int]:
        # the OR row is the AND row over complemented goods; the flag
        # complements them only where a terminal case reads one
        is_or = op == _OP_OR_DIFF

        def rec(fa: int, fb: int, da: int, db: int) -> int:
            if da == FALSE:
                return and_(not_(fa) if is_or else fa, db)
            if db == FALSE:
                return and_(not_(fb) if is_or else fb, da)
            if da == TRUE:
                if db == TRUE:
                    return not_(xor(fa, fb))
                gb, na = (not_(fb), fa) if is_or else (fb, not_(fa))
                return xor(gb, and_(db, na))
            if db == TRUE:
                ga, nb = (not_(fa), fb) if is_or else (fa, not_(fb))
                return xor(ga, and_(da, nb))
            # symmetric in its two inputs: canonicalize the cache key
            if fa > fb or (fa == fb and da > db):
                fa, fb, da, db = fb, fa, db, da
            key = ((fa << 32 | fb) << 32 | da) << 32 | db
            result = data.get(key)
            if result is not None:
                hits[op] += 1
                return result
            misses[op] += 1
            lfa, lfb, lda, ldb = level[fa], level[fb], level[da], level[db]
            top = lfa if lfa < lfb else lfb
            if lda < top:
                top = lda
            if ldb < top:
                top = ldb
            if lfa == top:
                fa0, fa1 = low[fa], high[fa]
            else:
                fa0 = fa1 = fa
            if lfb == top:
                fb0, fb1 = low[fb], high[fb]
            else:
                fb0 = fb1 = fb
            if lda == top:
                da0, da1 = low[da], high[da]
            else:
                da0 = da1 = da
            if ldb == top:
                db0, db1 = low[db], high[db]
            else:
                db0 = db1 = db
            result = mk(top, rec(fa0, fb0, da0, db0), rec(fa1, fb1, da1, db1))
            data[key] = result
            return result

        return rec

    return (
        mk,
        not_,
        and_,
        binary(_OP_OR, cache.or_),
        xor,
        difference(_OP_AND_DIFF, cache.and_diff),
        difference(_OP_OR_DIFF, cache.or_diff),
    )


# ----------------------------------------------------------------------
# Resource-sampler probe
# ----------------------------------------------------------------------
#: Every manager alive in this process, for the obs resource sampler.
#: Weak references: registration must never keep a retired campaign's
#: node store alive.
_MANAGERS: "weakref.WeakSet[BDDManager]" = weakref.WeakSet()


def _resource_probe() -> dict[str, int]:
    """Aggregate node/cache footprint across every live manager.

    Runs on the sampler's daemon thread, so it only reads O(1)
    attributes per manager — never ``stats()`` (which walks per-op
    cache tables) and never anything that mutates.
    """
    live = allocated = cache_entries = 0
    for manager in list(_MANAGERS):
        live += manager.num_live_nodes
        allocated += manager.num_allocated_nodes
        cache_entries += len(manager._cache)
    return {
        "live_nodes": live,
        "allocated_nodes": allocated,
        "cache_entries": cache_entries,
    }


_resource.register_probe("bdd", _resource_probe)
