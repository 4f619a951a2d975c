"""Span-based structured tracing with near-zero disabled overhead.

A *span* is one timed, named, attributed region of work::

    with obs.span("dp.compute_test_set", fault=fault) as sp:
        analysis = engine.analyze(fault)
        sp.set(observable_pos=len(analysis.po_deltas))

Spans nest through a per-tracer stack: a span opened while another is
open becomes its child, and the ``with`` protocol guarantees LIFO
closing even on exception paths (an exception marks the span
``status="error"`` and still closes every ancestor correctly). Each
closed span is recorded as one plain dict — id, parent id, name, pid,
monotonic start/end/duration, status, JSON-safe attributes — and the
whole record list exports as JSON Lines via
:meth:`Tracer.export_jsonl`.

**Disabled is the default and costs almost nothing.** Unless
``$REPRO_TRACE`` is set (or :func:`enable_tracing` is called) the
active tracer is the :class:`NullTracer`, whose ``span()`` returns one
shared :data:`NOOP_SPAN` singleton — no allocation, no clock read, no
attribute formatting. ``benchmarks/test_bench_obs.py`` proves the
residual cost is <3% of the c432 stuck-at campaign.

**Process boundaries.** Pool workers trace into their own
:class:`Tracer` (they inherit ``$REPRO_TRACE`` through the
environment); :class:`capture` fences one chunk's spans into a
picklable event list that travels home inside the ``ChunkResult`` and
is merged by :meth:`Tracer.absorb` in shard-index order — the same
determinism rule the result merge uses. Timestamps are per-process
monotonic offsets (comparable *within* a pid, not across pids);
durations and tree shape are always meaningful.
"""

from __future__ import annotations

import json
import os
import time
from typing import Any, Iterable, Mapping, Sequence

from repro import knobs
from repro.obs.encode import json_safe

class _NoopSpan:
    """The disabled tracer's span: one shared, stateless singleton."""

    __slots__ = ()
    enabled = False

    def __enter__(self) -> "_NoopSpan":
        return self

    def __exit__(self, *exc: object) -> bool:
        return False

    def set(self, **attrs: Any) -> "_NoopSpan":
        return self


#: The one span every disabled ``span()`` call returns.
NOOP_SPAN = _NoopSpan()


class NullTracer:
    """Tracer used while tracing is disabled: records nothing, ever."""

    enabled = False
    events: tuple = ()  # never grows — the no-op path allocates nothing

    def span(self, name: str, attrs: Mapping[str, Any] | None = None):
        return NOOP_SPAN

    def drain(self) -> list[dict]:
        return []

    def absorb(
        self, events: Sequence[Mapping[str, Any]], parent: int | None = None
    ) -> int:
        return 0

    def current_location(self) -> str | None:
        return None

    def export_jsonl(self, path) -> int:
        return 0


class Span:
    """One open region of work; closes via the ``with`` protocol."""

    __slots__ = ("_tracer", "id", "parent", "name", "attrs", "t0")
    enabled = True

    def __init__(
        self,
        tracer: "Tracer",
        span_id: int,
        parent: int | None,
        name: str,
        attrs: dict[str, Any],
        t0: float,
    ) -> None:
        self._tracer = tracer
        self.id = span_id
        self.parent = parent
        self.name = name
        self.attrs = attrs
        self.t0 = t0

    def set(self, **attrs: Any) -> "Span":
        """Attach (or overwrite) attributes on the open span."""
        self.attrs.update(attrs)
        return self

    def __enter__(self) -> "Span":
        return self

    def __exit__(self, exc_type, exc, tb) -> bool:
        self._tracer._finish(self, exc_type)
        return False


class Tracer:
    """Records finished spans as plain dicts, in closing order.

    Events reference each other by integer ids, so the span *tree* is
    reconstructed from ``parent`` links (see :func:`render_tree`), not
    from record order. ``t0``/``t1`` are seconds since the tracer's
    monotonic epoch; ``epoch_unix`` anchors that epoch to wall time.
    """

    enabled = True

    def __init__(self) -> None:
        self.events: list[dict] = []
        self.pid = os.getpid()
        self.epoch_unix = time.time()
        self._epoch = time.perf_counter()
        self._stack: list[Span] = []
        self._next_id = 0

    # -- recording ------------------------------------------------------
    def span(self, name: str, attrs: Mapping[str, Any] | None = None) -> Span:
        """Open a child of the innermost open span (or a root)."""
        span_id = self._next_id
        self._next_id += 1
        parent = self._stack[-1].id if self._stack else None
        span = Span(
            self,
            span_id,
            parent,
            name,
            dict(attrs) if attrs else {},
            time.perf_counter() - self._epoch,
        )
        self._stack.append(span)
        return span

    def _finish(self, span: Span, exc_type) -> None:
        t1 = time.perf_counter() - self._epoch
        while self._stack:
            top = self._stack.pop()
            if top is span:
                break
            # A child was opened without `with` and never closed; close
            # it here so the stack stays consistent, flagged loudly.
            self._emit(top, t1, "leaked")
        else:
            return  # double close — the first close already recorded it
        self._emit(span, t1, "error" if exc_type else "ok", exc_type)

    def _emit(self, span: Span, t1: float, status: str, exc_type=None) -> None:
        event: dict[str, Any] = {
            "id": span.id,
            "parent": span.parent,
            "name": span.name,
            "pid": self.pid,
            "t0": round(span.t0, 9),
            "t1": round(t1, 9),
            "dur": round(t1 - span.t0, 9),
            "status": status,
        }
        if exc_type is not None:
            event["exc"] = exc_type.__name__
        if span.attrs:
            event["attrs"] = json_safe(span.attrs)
        self.events.append(event)

    # -- merging & export ----------------------------------------------
    def drain(self) -> list[dict]:
        """Remove and return every recorded event (open spans stay)."""
        events, self.events = self.events, []
        return events

    def absorb(
        self,
        events: Sequence[Mapping[str, Any]],
        parent: int | None = None,
    ) -> int:
        """Append externally captured (closed) events, remapping ids.

        Roots of the absorbed batch are re-parented under ``parent``,
        defaulting to the innermost span currently open here — this is
        how a worker chunk's span tree hangs under the driver's
        ``campaign.run`` span. Call in shard-index order to keep merged
        traces deterministic.
        """
        if not events:
            return 0
        if parent is None and self._stack:
            parent = self._stack[-1].id
        offset = self._next_id
        max_id = 0
        for event in events:
            merged = dict(event)
            merged["id"] = event["id"] + offset
            merged["parent"] = (
                parent if event["parent"] is None else event["parent"] + offset
            )
            if event["id"] > max_id:
                max_id = event["id"]
            self.events.append(merged)
        self._next_id = offset + max_id + 1
        return len(events)

    def current_location(self) -> str | None:
        """Breadcrumb of open span names, e.g. ``"campaign.run/dp.compute_test_set"``."""
        if not self._stack:
            return None
        return "/".join(span.name for span in self._stack)

    def export_jsonl(self, path) -> int:
        """Write one JSON object per line; returns the event count."""
        with open(path, "w", encoding="utf-8") as fh:
            for event in self.events:
                fh.write(json.dumps(event, sort_keys=True) + "\n")
        return len(self.events)


# ----------------------------------------------------------------------
# Active-tracer plumbing (module-global: processes, not threads, are
# this codebase's unit of parallelism)
# ----------------------------------------------------------------------
_NULL = NullTracer()
_active: NullTracer | Tracer = Tracer() if knobs.TRACE.read() else _NULL


def get_tracer() -> NullTracer | Tracer:
    """The tracer ``span()`` currently records into."""
    return _active


def set_tracer(tracer: NullTracer | Tracer | None) -> NullTracer | Tracer:
    """Install ``tracer`` (``None`` → the null tracer); returns it."""
    global _active
    _active = _NULL if tracer is None else tracer
    return _active


def tracing_enabled() -> bool:
    return _active.enabled


def enable_tracing() -> Tracer:
    """Start recording into a fresh :class:`Tracer` (idempotent)."""
    if not _active.enabled:
        set_tracer(Tracer())
    return _active  # type: ignore[return-value]


def disable_tracing() -> None:
    set_tracer(None)


def span(name: str, **attrs: Any):
    """Open a span on the active tracer (no-op singleton when disabled)."""
    return _active.span(name, attrs if attrs else None)


def current_location() -> str | None:
    """Breadcrumb of the active tracer's open spans (``None`` if none)."""
    return _active.current_location()


class capture:
    """Fence spans into a private tracer; expose them as ``.events``.

    Used by pool workers (and the inline serial path, for symmetry) to
    collect exactly one chunk's spans into a picklable payload::

        with obs.capture() as cap:
            with obs.span("campaign.chunk", index=i):
                ...
        ship(cap.events)  # () when tracing is disabled

    The previous active tracer is always restored, exception or not.
    """

    def __init__(self) -> None:
        self.events: list[dict] = []
        self._tracer: Tracer | None = None
        self._prev: NullTracer | Tracer | None = None

    def __enter__(self) -> "capture":
        self._prev = _active
        if self._prev.enabled:
            self._tracer = Tracer()
            set_tracer(self._tracer)
        return self

    def __exit__(self, *exc: object) -> bool:
        if self._tracer is not None:
            set_tracer(self._prev)
            self.events = self._tracer.drain()
            self._tracer = None
        return False


# ----------------------------------------------------------------------
# Rendering
# ----------------------------------------------------------------------
def render_tree(events: Iterable[Mapping[str, Any]]) -> list[str]:
    """Pretty-print an event list as an indented span tree.

    Children sort by start time then id; orphans (parent outside the
    batch) render as roots so partial traces still display.
    """
    events = list(events)
    ids = {event["id"] for event in events}
    children: dict[int | None, list[Mapping[str, Any]]] = {}
    for event in events:
        parent = event["parent"]
        if parent not in ids:
            parent = None
        children.setdefault(parent, []).append(event)
    for siblings in children.values():
        siblings.sort(key=lambda e: (e["t0"], e["id"]))

    lines: list[str] = []

    def walk(parent: int | None, depth: int) -> None:
        for event in children.get(parent, ()):
            attrs = event.get("attrs", {})
            rendered_attrs = " ".join(
                f"{key}={value}" for key, value in attrs.items()
            )
            status = "" if event["status"] == "ok" else f" [{event['status']}]"
            lines.append(
                f"{'  ' * depth}{event['name']}  "
                f"{1000 * event['dur']:.2f} ms{status}"
                + (f"  {rendered_attrs}" if rendered_attrs else "")
            )
            walk(event["id"], depth + 1)

    walk(None, 0)
    return lines
