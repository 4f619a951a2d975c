"""Property and unit tests for the span tracer.

The tracer's contract: spans nest LIFO (exception paths included),
every opened ``with`` span closes exactly once, parent links
reconstruct the nesting tree, the disabled path allocates nothing, and
captured event lists survive a process boundary and merge
deterministically via :meth:`Tracer.absorb`.
"""

from __future__ import annotations

import dataclasses
import json
import math
import os
from concurrent.futures import ProcessPoolExecutor
from fractions import Fraction

import pytest
from hypothesis import given
from hypothesis import strategies as st

from repro import knobs, obs
from repro.obs import trace as trace_mod
from repro.obs.encode import json_safe


@pytest.fixture
def active_tracer():
    """A fresh enabled tracer installed as the active one, restored after."""
    prev = obs.get_tracer()
    tracer = obs.Tracer()
    obs.set_tracer(tracer)
    yield tracer
    obs.set_tracer(prev)


# ----------------------------------------------------------------------
# Nesting properties
# ----------------------------------------------------------------------
span_names = st.sampled_from(("load", "apply", "gc", "analyze"))

span_trees = st.recursive(
    st.tuples(span_names, st.just(())),
    lambda children: st.tuples(span_names, st.lists(children, max_size=3)),
    max_leaves=12,
)


def _run_tree(tracer: obs.Tracer, tree) -> None:
    name, children = tree
    with tracer.span(name):
        for child in children:
            _run_tree(tracer, child)


def _rebuild(events):
    """Reconstruct (name, children) trees from parent links."""
    by_parent: dict[int | None, list[dict]] = {}
    for event in events:
        by_parent.setdefault(event["parent"], []).append(event)
    for siblings in by_parent.values():
        siblings.sort(key=lambda e: (e["t0"], e["id"]))

    def build(event):
        return (
            event["name"],
            tuple(build(c) for c in by_parent.get(event["id"], ())),
        )

    return [build(root) for root in by_parent.get(None, ())]


def _as_tuple_tree(tree):
    name, children = tree
    return (name, tuple(_as_tuple_tree(c) for c in children))


@given(st.lists(span_trees, min_size=1, max_size=4))
def test_parent_links_reconstruct_the_nesting(forest):
    tracer = obs.Tracer()
    for tree in forest:
        _run_tree(tracer, tree)
    events = tracer.events
    # Every opened span closed exactly once, with a unique id.
    assert len({e["id"] for e in events}) == len(events)
    assert all(e["status"] == "ok" for e in events)
    assert all(e["t1"] >= e["t0"] and e["dur"] >= 0 for e in events)
    assert _rebuild(events) == [_as_tuple_tree(t) for t in forest]


@given(st.lists(span_trees, min_size=1, max_size=3))
def test_children_close_within_their_parents_interval(forest):
    tracer = obs.Tracer()
    for tree in forest:
        _run_tree(tracer, tree)
    by_id = {e["id"]: e for e in tracer.events}
    for event in tracer.events:
        if event["parent"] is not None:
            parent = by_id[event["parent"]]
            assert parent["t0"] <= event["t0"]
            assert event["t1"] <= parent["t1"]


@given(st.integers(min_value=0, max_value=5))
def test_exception_closes_the_whole_stack(depth):
    tracer = obs.Tracer()

    def nest(level: int):
        with tracer.span(f"level{level}"):
            if level == depth:
                raise RuntimeError("boom")
            nest(level + 1)

    with pytest.raises(RuntimeError):
        nest(0)
    assert len(tracer.events) == depth + 1
    assert tracer.current_location() is None  # stack fully unwound
    # Every level is recorded as an error, innermost closed first.
    assert [e["name"] for e in tracer.events] == [
        f"level{i}" for i in range(depth, -1, -1)
    ]
    assert all(
        e["status"] == "error" and e["exc"] == "RuntimeError"
        for e in tracer.events
    )


def test_leaked_child_is_flagged_and_stack_repaired():
    tracer = obs.Tracer()
    with tracer.span("outer"):
        tracer.span("leaked-inner")  # opened without `with`, never closed
    (inner, outer) = tracer.events
    assert inner["name"] == "leaked-inner" and inner["status"] == "leaked"
    assert outer["name"] == "outer" and outer["status"] == "ok"
    assert inner["parent"] == outer["id"]
    assert tracer.current_location() is None


def test_double_close_records_once():
    tracer = obs.Tracer()
    span = tracer.span("once")
    span.__exit__(None, None, None)
    span.__exit__(None, None, None)
    assert len(tracer.events) == 1


def test_current_location_breadcrumb(active_tracer):
    assert obs.current_location() is None
    with obs.span("campaign.run"):
        with obs.span("campaign.chunk"):
            assert obs.current_location() == "campaign.run/campaign.chunk"
        assert obs.current_location() == "campaign.run"
    assert obs.current_location() is None


# ----------------------------------------------------------------------
# Disabled path: no allocation, no events
# ----------------------------------------------------------------------
def test_disabled_tracer_allocates_no_spans():
    prev = obs.get_tracer()
    obs.disable_tracing()
    try:
        assert not obs.tracing_enabled()
        first = obs.span("dp.compute_test_set", fault="f")
        second = obs.span("bdd.gc")
        assert first is obs.NOOP_SPAN and second is obs.NOOP_SPAN
        with first as sp:
            assert sp.set(anything=1) is sp  # chainable no-op
        assert obs.get_tracer().events == ()
        assert obs.current_location() is None
    finally:
        obs.set_tracer(prev)


def test_enable_disable_roundtrip():
    prev = obs.get_tracer()
    try:
        tracer = obs.enable_tracing()
        assert obs.tracing_enabled()
        assert obs.enable_tracing() is tracer  # idempotent
        with obs.span("x"):
            pass
        assert [e["name"] for e in tracer.events] == ["x"]
        obs.disable_tracing()
        assert not obs.tracing_enabled()
        assert obs.span("y") is obs.NOOP_SPAN
    finally:
        obs.set_tracer(prev)


@pytest.mark.parametrize(
    ("value", "expect"),
    [("", False), ("0", False), ("off", False), ("1", True), ("true", True)],
)
def test_env_enabled_parsing(value, expect):
    assert knobs.TRACE.read({"REPRO_TRACE": value}) is expect
    assert knobs.TRACE.read({}) is False


# ----------------------------------------------------------------------
# capture / absorb across process boundaries
# ----------------------------------------------------------------------
def test_capture_fences_and_restores(active_tracer):
    with obs.span("driver"):
        with obs.capture() as cap:
            with obs.span("chunk"):
                pass
        assert [e["name"] for e in cap.events] == ["chunk"]
    # The fenced span never leaked into the surrounding tracer...
    assert [e["name"] for e in active_tracer.events] == ["driver"]
    # ...and the surrounding tracer was restored as active.
    assert obs.get_tracer() is active_tracer


def test_capture_is_inert_when_disabled():
    prev = obs.get_tracer()
    obs.disable_tracing()
    try:
        with obs.capture() as cap:
            with obs.span("invisible"):
                pass
        assert cap.events == []
    finally:
        obs.set_tracer(prev)


def test_absorb_remaps_ids_and_reparents(active_tracer):
    worker = obs.Tracer()
    with worker.span("chunk"):
        with worker.span("analyze"):
            pass
    payload = worker.drain()
    with obs.span("campaign.run") as root:
        absorbed = active_tracer.absorb(payload)
    assert absorbed == 2
    by_name = {e["name"]: e for e in active_tracer.events}
    assert by_name["chunk"]["parent"] == root.id
    assert by_name["analyze"]["parent"] == by_name["chunk"]["id"]
    ids = [e["id"] for e in active_tracer.events]
    assert len(set(ids)) == len(ids)


def test_absorb_in_index_order_is_deterministic():
    def merged(order):
        driver = obs.Tracer()
        payloads = {}
        for index in (0, 1, 2):
            worker = obs.Tracer()
            with worker.span("chunk", {"index": index}):
                pass
            payloads[index] = worker.drain()
        with driver.span("campaign.run"):
            for index in order:  # completion order varies...
                pass
            for index in sorted(payloads):  # ...absorb order must not
                driver.absorb(payloads[index])
        return [
            (e["name"], e.get("attrs", {}).get("index")) for e in driver.events
        ]

    assert merged((2, 0, 1)) == merged((0, 1, 2))


def _traced_pool_work(index: int):
    """Top-level so ProcessPoolExecutor can pickle it."""
    obs.enable_tracing()
    with obs.capture() as cap:
        with obs.span("campaign.chunk", index=index):
            with obs.span("dp.compute_test_set", fault=f"n{index}/sa1"):
                pass
    return index, cap.events


def test_spans_survive_process_pool_boundary(active_tracer):
    with ProcessPoolExecutor(max_workers=2) as pool:
        payloads = dict(pool.map(_traced_pool_work, range(3)))
    with obs.span("campaign.run") as root:
        for index in sorted(payloads):
            active_tracer.absorb(payloads[index])
    chunk_events = [
        e for e in active_tracer.events if e["name"] == "campaign.chunk"
    ]
    assert [e["attrs"]["index"] for e in chunk_events] == [0, 1, 2]
    assert all(e["parent"] == root.id for e in chunk_events)
    assert any(e["pid"] != os.getpid() for e in active_tracer.events)


# ----------------------------------------------------------------------
# Export & rendering
# ----------------------------------------------------------------------
def test_export_jsonl_roundtrip(tmp_path, active_tracer):
    with obs.span("campaign.run", circuit="c17"):
        with obs.span("dp.compute_test_set", fault="G1/sa0"):
            pass
    path = tmp_path / "trace.jsonl"
    assert active_tracer.export_jsonl(path) == 2
    parsed = [json.loads(line) for line in path.read_text().splitlines()]
    assert parsed == active_tracer.events


def test_render_tree_indents_children():
    tracer = obs.Tracer()
    with tracer.span("campaign.run", {"circuit": "c17"}):
        with tracer.span("campaign.chunk", {"index": 0}):
            pass
        with tracer.span("campaign.chunk", {"index": 1}):
            pass
    lines = render = obs.render_tree(tracer.events)
    assert len(lines) == 3
    assert render[0].startswith("campaign.run")
    assert render[1].startswith("  campaign.chunk") and "index=0" in render[1]
    assert render[2].startswith("  campaign.chunk") and "index=1" in render[2]


def test_render_tree_keeps_orphans_visible():
    tracer = obs.Tracer()
    with tracer.span("parent"):
        with tracer.span("child"):
            pass
    # Drop the parent record: the child must still render (as a root).
    orphans = [e for e in tracer.events if e["name"] == "child"]
    assert obs.render_tree(orphans)[0].startswith("child")


# ----------------------------------------------------------------------
# json_safe attribute encoding
# ----------------------------------------------------------------------
@dataclasses.dataclass(frozen=True)
class _FakeFault:
    net: str
    value: bool


def test_json_safe_handles_domain_values():
    encoded = json_safe(
        {
            "detectability": Fraction(3, 16),
            "fault": _FakeFault("G17", True),
            "pos": frozenset({"b", "a"}),
            "nan": math.nan,
        }
    )
    assert encoded["detectability"] == "3/16"
    assert encoded["fault"] == {"net": "G17", "value": True}
    assert encoded["pos"] == ["a", "b"]
    assert encoded["nan"] == "nan"
    json.dumps(encoded)  # must be serializable as-is


def test_json_safe_bounds_recursion_depth():
    nested: object = "leaf"
    for _ in range(40):
        nested = [nested]
    json.dumps(json_safe(nested))  # deep nesting degrades to str, not crash


def test_absorb_empty_payload_is_a_noop(active_tracer):
    """A chunk that traced nothing (or a pre-obs worker) merges cleanly."""
    with obs.span("campaign.run"):
        assert active_tracer.absorb([]) == 0
        assert active_tracer.absorb(()) == 0
    assert [e["name"] for e in active_tracer.events] == ["campaign.run"]
    # Id allocation was untouched: the next span gets the next id.
    before = active_tracer.events[-1]["id"]
    with obs.span("next"):
        pass
    assert active_tracer.events[-1]["id"] == before + 1


def test_absorb_failed_chunk_preserves_error_status(active_tracer):
    worker = obs.Tracer()
    with pytest.raises(RuntimeError):
        with worker.span("campaign.chunk", {"index": 0}):
            with worker.span("dp.compute_test_set"):
                raise RuntimeError("fault analysis blew up")
    payload = worker.drain()
    with obs.span("campaign.run") as root:
        assert active_tracer.absorb(payload) == 2
    by_name = {e["name"]: e for e in active_tracer.events}
    chunk = by_name["campaign.chunk"]
    assert chunk["status"] == "error" and chunk["exc"] == "RuntimeError"
    assert chunk["parent"] == root.id
    inner = by_name["dp.compute_test_set"]
    assert inner["status"] == "error"
    assert inner["parent"] == chunk["id"]


def test_absorb_mixed_empty_and_failed_chunks_stays_deterministic(
    active_tracer,
):
    """The parallel merge absorbs per-chunk payloads in shard-index
    order; empty and failed chunks must not perturb ids or parents."""
    payloads = {}
    for index in range(3):
        worker = obs.Tracer()
        if index == 1:
            payloads[index] = worker.drain()  # traced nothing
            continue
        try:
            with worker.span("campaign.chunk", {"index": index}):
                if index == 2:
                    raise RuntimeError("boom")
        except RuntimeError:
            pass
        payloads[index] = worker.drain()
    with obs.span("campaign.run") as root:
        absorbed = [
            active_tracer.absorb(payloads[i]) for i in sorted(payloads)
        ]
    assert absorbed == [1, 0, 1]
    chunks = [
        e for e in active_tracer.events if e["name"] == "campaign.chunk"
    ]
    assert [c["attrs"]["index"] for c in chunks] == [0, 2]
    assert [c["status"] for c in chunks] == ["ok", "error"]
    assert all(c["parent"] == root.id for c in chunks)
    ids = [e["id"] for e in active_tracer.events]
    assert len(set(ids)) == len(ids)
