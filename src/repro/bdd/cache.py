"""Bounded operation cache, packed table keys and manager telemetry.

The computed table is the manager's dominant memory consumer during
long fault campaigns. It is split by operation, in the layout of
Brace, Rudell & Bryant ("Efficient Implementation of a BDD Package",
DAC 1990): AND, OR and XOR each own a dict keyed by the packed node
pair ``f << 32 | g`` (operands ordered ``f <= g``), NOT owns a dict
keyed by ``f``, the fused AND- and OR-difference recursions each own
a dict keyed by the packed quadruple ``((f_A << 32 | f_B) << 32 |
Δf_A) << 32 | Δf_B`` (input pairs ordered), and the rarely used ITE,
quantifier, compose and restrict recursions share one dict of tagged
tuple keys. A packed pair key is a 32-byte object and hashes faster
than the 64-byte tuple it replaces. The manager's unique table uses
the same packing, one dict per variable level keyed by ``low << 32 |
high``; :func:`pack` is the packing, spelled out inline on the hot
paths. Every node id must therefore stay below :data:`NODE_LIMIT`.

:class:`OperationCache` bounds the seven tables together: once their
total size passes ``bound`` every table is emptied with ``clear()``,
which hands the memory back at once, and the dropped entries are
counted as that op's evictions. Every lookup/store is attributed to
its operation tag so :meth:`BDDManager.stats
<repro.bdd.manager.BDDManager.stats>` can report per-op
hit/miss/eviction counts.

Garbage collection drops every table whenever a sweep frees node
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
empty the tables in place with :meth:`OperationCache.clear` (counters
survive; they are cumulative), so the manager's apply closures, which
each hold their op's table, stay bound to the live tables.

:class:`ManagerStats` is the plain-scalar snapshot of all of this
(live/allocated nodes, GC totals, cache rates); it is picklable so the
parallel campaign workers can ship it home inside their chunk stats.
"""

from __future__ import annotations

from dataclasses import dataclass

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
OP_AND_DIFF = 9
OP_OR_DIFF = 10

NUM_OPS = 11

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
    "and_diff",
    "or_diff",
)

#: Bit width of one packed operand: a node id must fit below it.
KEY_BITS = 32

#: Exclusive upper bound on node ids (see :func:`pack`).
NODE_LIMIT = 1 << KEY_BITS


def pack(hi: int, lo: int) -> int:
    """The packed table key of a node pair: ``hi << 32 | lo``.

    Injective while ``lo`` stays below :data:`NODE_LIMIT`, which the
    manager enforces on every new node slot. The hot paths spell this
    expression out inline rather than pay a call.
    """
    return hi << KEY_BITS | lo


#: Default computed-table bound, in entries summed over all seven tables.
#: About 90 MB when full of pair keys: 1.05M AND/OR/XOR/NOT entries
#: took 87 MB of dicts and keys (83 B an entry; results are node ids the
#: unique table already holds), where one tuple-keyed table took 167 MB.
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
    """Size-bounded computed tables with per-op counters.

    :attr:`and_`, :attr:`or_`, :attr:`xor`, :attr:`not_`,
    :attr:`and_diff` and :attr:`or_diff` are the packed-key tables of
    the six apply recursions; :attr:`other` holds
    the tagged tuple keys of ITE, exists, forall, compose and restrict.
    The manager's hot apply loops bind these dicts and :attr:`hits` /
    :attr:`misses` directly — a method call per lookup would roughly
    double the cost of the apply recursion — so this class only owns
    the bounding, emptying and reporting logic. The tables are only
    ever emptied in place, never replaced.
    """

    __slots__ = (
        "and_", "or_", "xor", "not_", "and_diff", "or_diff", "other",
        "bound", "hits", "misses", "evictions", "invalidated",
    )

    def __init__(self, bound: int = DEFAULT_CACHE_SIZE) -> None:
        if bound < 1:
            raise ValueError("cache bound must be at least 1")
        self.and_: dict[int, int] = {}
        self.or_: dict[int, int] = {}
        self.xor: dict[int, int] = {}
        self.not_: dict[int, int] = {}
        self.and_diff: dict[int, int] = {}
        self.or_diff: dict[int, int] = {}
        self.other: dict[tuple, int] = {}
        self.bound = bound
        self.hits: list[int] = [0] * NUM_OPS
        self.misses: list[int] = [0] * NUM_OPS
        self.evictions: list[int] = [0] * NUM_OPS
        #: entries dropped by GC sweeps that freed node slots
        self.invalidated = 0

    @property
    def tables(self) -> tuple[dict, ...]:
        """The seven tables: AND, OR, XOR, NOT, AND- and OR-difference,
        then the shared one."""
        return (
            self.and_, self.or_, self.xor, self.not_,
            self.and_diff, self.or_diff, self.other,
        )

    def __len__(self) -> int:
        return (
            len(self.and_) + len(self.or_) + len(self.xor)
            + len(self.not_) + len(self.and_diff) + len(self.or_diff)
            + len(self.other)
        )

    def maybe_evict(self) -> int:
        """Empty every table once their total size passes the bound.

        Returns the number of entries dropped. Runs after every public
        operation, so the no-overflow check is a few ``len`` calls
        (spelled out: ``len(self)`` would add a Python-level call).
        Emptying in place returns the memory at once and never walks
        the packed tables; only the small shared one is tallied by op
        tag. An evicted entry can only ever cost recomputation, never a
        wrong answer.
        """
        total = (
            len(self.and_) + len(self.or_) + len(self.xor)
            + len(self.not_) + len(self.and_diff) + len(self.or_diff)
            + len(self.other)
        )
        if total <= self.bound:
            return 0
        evictions = self.evictions
        packed = (OP_AND, OP_OR, OP_XOR, OP_NOT, OP_AND_DIFF, OP_OR_DIFF)
        for op, table in zip(packed, self.tables):
            evictions[op] += len(table)
        for key in self.other:
            evictions[key[0]] += 1
        self.clear()
        return total

    def clear(self) -> None:
        """Drop every entry (counters are cumulative and survive)."""
        for table in self.tables:
            table.clear()

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
