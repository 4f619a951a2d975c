"""Campaign run-cache: the ledger codec for :class:`CampaignResult`.

:mod:`repro.obs.store` stores opaque JSON documents by content hash;
this module is the campaign-shaped layer on top of it — it knows which
manifest fields determine a campaign's result (the **projection**
hashed into the run key), how to reduce a finished
:class:`~repro.experiments.campaigns.CampaignResult` to an exact JSON
body, and how to rebuild an identical result from that body.

The projection is a campaign's identity — it keys the in-process
memo of :mod:`repro.experiments.campaigns` as well as the ledger — and
deliberately includes only what changes the computed numbers:

* circuit name, fault model (and bridge dominance), the resolved
  routing key (``dp`` / ``bitparallel`` / ``sampled``);
* the per-circuit scale fields (sample limits, decomposition
  threshold, variable ordering);
* every knob of :mod:`repro.knobs` whose row says ``affects_results``
  (seed, engine and mode as the routing fixed them, sampled-mode
  precision), resolved;
* the :func:`~repro.obs.store.source_digest` of the code that
  computed it — an uncommitted edit changes the key, no git needed.

Worker count, reordering policy and the ledger switch are *excluded*:
all are result-neutral (``tests/test_parallel_campaigns.py``, the
reorder oracles), so a serial run can serve a later ``--workers 8`` run
and vice versa.

The body is columnar: one list per fault field (``net``/``sink``/
``pin``/``value`` for stuck-at faults, ``net_a``/``net_b`` and a single
``kind`` for bridging faults), one per result field, and ``null`` for an
optional field no record sets. Detectabilities are exact
:class:`~fractions.Fraction`\\ s; they round trip as ``"p/q"`` strings,
so a decoded campaign is **equal** to the computed one — byte-identical
rendered figures — not merely close. Execution telemetry
(``chunk_stats``, resource series) is intentionally *not* stored: a
served result did no work, and its ``sim.*`` / ``bdd.*`` counters must
say so.
"""

from __future__ import annotations

import dataclasses
from fractions import Fraction
from itertools import repeat
from typing import Any, Iterator, Mapping, Sequence

from repro import knobs
from repro.benchcircuits import get_circuit
from repro.experiments.config import Scale
from repro.faults.bridging import BridgeKind, BridgingFault
from repro.faults.lines import Line
from repro.faults.stuck_at import StuckAtFault
from repro.obs import store as _store
from repro.obs.logging import get_logger

#: Schema of the stored campaign body (the ledger object's ``body``).
BODY_SCHEMA = "repro.campaign-result/2"

#: Schema tag inside every run-key projection, so a future projection
#: change (new knob, new model) can never collide with old keys.
PROJECTION_SCHEMA = "repro.run-key/2"

log = get_logger("repro.experiments.runcache")

_LEDGERS: dict[str, _store.RunLedger] = {}


def cache_enabled(scale: Scale | None = None) -> bool:
    """Whether campaigns should consult the ledger for this run."""
    return knobs.CACHE.resolve(None if scale is None else scale.cache)


def ledger() -> _store.RunLedger:
    """The process-wide ledger at the ``$REPRO_CACHE``-resolved root."""
    root = str(_store.ledger_dir(knobs.CACHE.raw()))
    if root not in _LEDGERS:
        _LEDGERS[root] = _store.RunLedger(root)
    return _LEDGERS[root]


def cache_stats() -> dict[str, int]:
    """Hit/miss/corrupt/put totals over every ledger this process used."""
    totals = {"hits": 0, "misses": 0, "corrupt": 0, "puts": 0}
    for instance in _LEDGERS.values():
        stats = instance.stats()
        for name in totals:
            totals[name] += getattr(stats, name)
    return totals


# ----------------------------------------------------------------------
# Run-key projections
# ----------------------------------------------------------------------
def campaign_projection(
    name: str,
    scale: Scale,
    routing: str,
    model: str,
    bridge_kind: str | None = None,
) -> dict[str, Any]:
    """The normalized, result-determining identity of one campaign."""
    sampled = routing == "sampled"
    projection: dict[str, Any] = {
        "schema": PROJECTION_SCHEMA,
        "circuit": name,
        "model": model,
        "bridge_kind": bridge_kind,
        "routing": routing,
        # the sampled estimator runs on the kernel whatever the engine
        "engine": None if sampled else routing,
        "mode": "sampled" if sampled else "exact",
        "stuck_at_limit": scale.stuck_at_limit(name),
        "bridging_target": scale.bridging_target(name),
        "decompose_threshold": scale.decompose_threshold(name),
        "ordering": scale.ordering(name),
        "code": _store.source_digest(),
    }
    for knob in knobs.KNOBS:
        if knob.affects_results and knob.name not in projection:
            projection[knob.name] = scale.resolve(knob.name)
    return projection


def stuck_at_projection(
    name: str, scale: Scale, routing: str
) -> dict[str, Any]:
    return campaign_projection(name, scale, routing, model="stuck-at")


def bridging_projection(
    name: str, kind: BridgeKind, scale: Scale, routing: str
) -> dict[str, Any]:
    return campaign_projection(
        name, scale, routing, model="bridging", bridge_kind=kind.value
    )


# ----------------------------------------------------------------------
# Codec
# ----------------------------------------------------------------------
#: The last FaultResult fields, in field order: each is stored as a
#: column, or as ``null`` when no record sets it (exact campaigns).
OPTIONAL_COLUMNS = (
    "stuck_at_equivalent", "ci_low", "ci_high", "patterns_spent", "stratum"
)


def _encode_faults(faults: Sequence[Any]) -> dict[str, Any]:
    """One campaign's faults as the columns of their (single) model.

    An empty campaign encodes as empty stuck-at columns.
    """
    if all(isinstance(fault, StuckAtFault) for fault in faults):
        return {
            "model": "stuck-at",
            "net": [fault.line.net for fault in faults],
            "sink": [fault.line.sink for fault in faults],
            "pin": [fault.line.pin for fault in faults],
            "value": [fault.value for fault in faults],
        }
    for fault in faults:
        if not isinstance(fault, BridgingFault):
            raise TypeError(
                f"no ledger codec for fault type {type(fault).__name__}"
            )
    (kind,) = {fault.kind for fault in faults}  # one kind per campaign
    return {
        "model": "bridging",
        "net_a": [fault.net_a for fault in faults],
        "net_b": [fault.net_b for fault in faults],
        "kind": kind.value,
    }


def _decode_faults(columns: Mapping[str, Any]) -> Iterator[Any]:
    model = columns.get("model")
    if model == "stuck-at":
        lines = map(Line, columns["net"], columns["sink"], columns["pin"])
        return map(StuckAtFault, lines, map(bool, columns["value"]))
    if model == "bridging":
        kind = BridgeKind(columns["kind"])
        return map(BridgingFault, columns["net_a"], columns["net_b"], repeat(kind))
    raise ValueError(f"unknown fault model {model!r} in ledger body")


def encode_result(name: str, result: Any) -> dict[str, Any]:
    """A finished campaign as an exact, ledger-storable columnar body."""
    records = result.results
    body: dict[str, Any] = {
        "schema": BODY_SCHEMA,
        "circuit": name,
        "exact": result.exact,
        "faults": _encode_faults([record.fault for record in records]),
        "detectability": [str(record.detectability) for record in records],
        "upper_bound": [str(record.upper_bound) for record in records],
        "observable_pos": [sorted(record.observable_pos) for record in records],
        "strata": [dataclasses.asdict(stratum) for stratum in result.strata],
    }
    for field in OPTIONAL_COLUMNS:
        column = [getattr(record, field) for record in records]
        body[field] = (
            None if all(value is None for value in column) else column
        )
    return body


def decode_result(body: Mapping[str, Any]) -> Any:
    """Rebuild a :class:`CampaignResult` equal to the one encoded.

    One pass over the zipped columns. Each distinct ``"p/q"`` string
    and observable-PO list is decoded once, into dicts that live only
    for this call, and its (immutable) value is shared by the records.

    The rebuilt result carries ``from_cache=True`` and **empty**
    execution telemetry — zero chunks, zero ``sim.*``/``bdd.*``
    counters — which is the truthful accounting of a run that did no
    fault simulation.
    """
    from repro.experiments.campaigns import CampaignResult, FaultResult

    if body.get("schema") != BODY_SCHEMA:
        raise ValueError(
            f"unexpected campaign body schema {body.get('schema')!r}"
        )
    detectability, bounds = body["detectability"], body["upper_bound"]
    observable = body["observable_pos"]
    fractions = {text: Fraction(text) for text in {*detectability, *bounds}}
    po_sets = {pos: frozenset(pos) for pos in set(map(tuple, observable))}
    optional = [
        body[field] or [None] * len(detectability) for field in OPTIONAL_COLUMNS
    ]
    results = [
        FaultResult(
            fault, fractions[det], fractions[bound], po_sets[tuple(pos)], *rest
        )
        for fault, det, bound, pos, *rest in zip(
            _decode_faults(body["faults"]),
            detectability,
            bounds,
            observable,
            *optional,
            strict=True,
        )
    ]
    strata: tuple = ()
    if body["strata"]:
        from repro.sampling.strata import StratumStat

        strata = tuple(StratumStat(**stratum) for stratum in body["strata"])
    return CampaignResult(
        circuit=get_circuit(body["circuit"]),
        results=tuple(results),
        exact=bool(body["exact"]),
        strata=strata,
        from_cache=True,
    )


# ----------------------------------------------------------------------
# The consult/record pair campaigns call
# ----------------------------------------------------------------------
def fetch(projection: Mapping[str, Any]) -> Any | None:
    """A cached campaign equal to what this projection would compute.

    ``None`` on a miss *or* on a failed integrity/decode check — the
    ledger never serves silently wrong data; the caller recomputes.
    """
    key = _store.run_key(projection)
    body = ledger().get(key)
    if body is None:
        return None
    try:
        result = decode_result(body)
    except Exception as exc:
        log.warning(
            "ledger object %s decoded to garbage (%r); recomputing", key, exc
        )
        return None
    log.info(
        "campaign %s/%s served from ledger (%d faults, key %s)",
        projection.get("circuit"),
        projection.get("model"),
        len(result.results),
        key[:12],
    )
    return result


def record(
    projection: Mapping[str, Any], result: Any
) -> str | None:
    """Store a freshly computed campaign; returns its run key.

    Best-effort: a fault type the codec can't represent, or an
    unwritable ledger directory, skips caching with a warning — the
    run itself already succeeded and must not fail retroactively.
    """
    key = _store.run_key(projection)
    try:
        body = encode_result(projection["circuit"], result)
        meta = {
            "circuit": projection.get("circuit"),
            "model": projection.get("model"),
            "bridge_kind": projection.get("bridge_kind"),
            "routing": projection.get("routing"),
            "seed": projection.get("seed"),
            "num_faults": len(result.results),
            "num_detectable": len(result.detectable()),
            "exact": result.exact,
            "seconds": result.total_seconds(),
        }
        ledger().put(key, body, meta=meta)
    except Exception as exc:
        log.warning("could not record campaign in ledger: %r", exc)
        return None
    return key


def round_trip_equal(name: str, result: Any) -> bool:
    """Debug helper: does this result survive the codec exactly?"""
    return decode_result(encode_result(name, result)) == result
