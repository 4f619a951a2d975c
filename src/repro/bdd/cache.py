"""Bounded operation cache and manager telemetry.

The computed table is the manager's dominant memory consumer during
long fault campaigns — it dwarfs the node store by an order of
magnitude. :class:`OperationCache` bounds it: once the table overflows
``bound`` entries the oldest half is evicted (dict insertion order is
age order), and every lookup/store is attributed to its operation tag
so :meth:`BDDManager.stats <repro.bdd.manager.BDDManager.stats>` can
report per-op hit/miss/eviction counts.

Garbage collection drops the whole table whenever a sweep frees node
slots, and counts the dropped entries in
:attr:`OperationCache.invalidated`: a freed slot can be reused for a
*different* node, and a stale entry keyed on the old id would silently
return a wrong result. Selective invalidation is not worth it — on
Difference Propagation campaigns most entries name a dead
per-fault difference node by the time a sweep runs.

Dynamic reordering (:meth:`BDDManager.sift
<repro.bdd.manager.BDDManager.sift>`) could not invalidate selectively
either: quantifier keys embed level *frozensets* and restrict/compose
keys embed level ints, all of which change meaning when variables move,
and even pure node-id keys describe results under the old order. Both
drop the table in place with :meth:`OperationCache.clear` (counters
survive; they are cumulative), so the manager's apply closures, which
hold :attr:`OperationCache.data`, stay bound to the live table.

:class:`ManagerStats` is the plain-scalar snapshot of all of this
(live/allocated nodes, GC totals, cache rates); it is picklable so the
parallel campaign workers can ship it home inside their chunk stats.
"""

from __future__ import annotations

from dataclasses import dataclass
from itertools import islice

#: Operation tags for the computed table, in stable display order.
OP_AND = 0
OP_OR = 1
OP_XOR = 2
OP_NOT = 3
OP_ITE = 4
OP_EXISTS = 5
OP_FORALL = 6
OP_COMPOSE = 7
OP_RESTRICT = 8

NUM_OPS = 9

OP_NAMES: tuple[str, ...] = (
    "and",
    "or",
    "xor",
    "not",
    "ite",
    "exists",
    "forall",
    "compose",
    "restrict",
)

#: Default computed-table bound. Roughly 100 MB of dict at CPython's
#: per-entry cost — far below what unbounded campaign tables reached.
DEFAULT_CACHE_SIZE = 1 << 20


@dataclass(frozen=True)
class OpCacheStats:
    """Hit/miss/eviction counters for one operation tag."""

    op: str
    hits: int
    misses: int
    evictions: int

    @property
    def lookups(self) -> int:
        return self.hits + self.misses

    @property
    def hit_rate(self) -> float:
        lookups = self.lookups
        return self.hits / lookups if lookups else 0.0


@dataclass(frozen=True)
class ManagerStats:
    """Snapshot of a manager's memory and cache health (all scalars)."""

    live_nodes: int
    allocated_nodes: int
    gc_runs: int
    reclaimed_nodes: int
    cache_entries: int
    cache_bound: int
    cache_hits: int
    cache_misses: int
    cache_evictions: int
    cache_invalidations: int
    op_stats: tuple[OpCacheStats, ...]
    # Dynamic-reordering totals (see BDDManager.sift): number of sifting
    # passes and cumulative adjacent-level swaps across them.
    reorder_runs: int = 0
    reorder_swaps: int = 0

    @property
    def cache_hit_rate(self) -> float:
        lookups = self.cache_hits + self.cache_misses
        return self.cache_hits / lookups if lookups else 0.0


class OperationCache:
    """Size-bounded computed table with per-op counters.

    The manager's hot apply loops bind :attr:`data`, :attr:`hits` and
    :attr:`misses` directly — a method call per lookup would roughly
    double the cost of the apply recursion — so this class only owns
    the bounding, eviction and reporting logic.
    """

    __slots__ = ("data", "bound", "hits", "misses", "evictions", "invalidated")

    def __init__(self, bound: int = DEFAULT_CACHE_SIZE) -> None:
        if bound < 1:
            raise ValueError("cache bound must be at least 1")
        self.data: dict[tuple, int] = {}
        self.bound = bound
        self.hits: list[int] = [0] * NUM_OPS
        self.misses: list[int] = [0] * NUM_OPS
        self.evictions: list[int] = [0] * NUM_OPS
        #: entries dropped by GC sweeps that freed node slots
        self.invalidated = 0

    def __len__(self) -> int:
        return len(self.data)

    def maybe_evict(self) -> int:
        """Shed the oldest entries once the table overflows the bound.

        Eviction drops back to half the bound so consecutive large
        operations don't evict on every call. Called between (or at
        worst around) operations — an evicted entry can only ever cost
        recomputation, never a wrong answer.
        """
        data = self.data
        if len(data) <= self.bound:
            return 0
        drop = len(data) - self.bound // 2
        stale = list(islice(iter(data), drop))
        evictions = self.evictions
        for key in stale:
            del data[key]
            evictions[key[0]] += 1
        return drop

    def clear(self) -> None:
        """Drop every entry (counters are cumulative and survive)."""
        self.data.clear()

    def op_stats(self) -> tuple[OpCacheStats, ...]:
        return tuple(
            OpCacheStats(
                op=OP_NAMES[op],
                hits=self.hits[op],
                misses=self.misses[op],
                evictions=self.evictions[op],
            )
            for op in range(NUM_OPS)
        )
