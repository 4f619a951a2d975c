"""Durability and integrity of the content-addressed run ledger.

Three properties a persistent cross-run cache must actually hold, not
just claim:

* **concurrent writers stay consistent** — two processes putting into
  the same ledger interleave whole index lines, never fragments;
* **corruption is detected, never served** — a flipped byte anywhere
  in a stored object, header line or body, makes ``verify`` flag it
  and ``get`` treat it as a miss (the caller recomputes);
* **a miss after ``gc`` degrades to recompute** — eviction is an
  ordinary miss, not an error.
"""

from __future__ import annotations

import hashlib
import json
import multiprocessing
import random
import sys

import pytest

from repro import knobs
from repro.obs import store


@pytest.fixture
def ledger(tmp_path):
    return store.RunLedger(tmp_path / "ledger")


def _body(i: int) -> dict:
    return {"schema": "test/1", "value": i, "payload": list(range(i % 7))}


# ----------------------------------------------------------------------
# Keys and canonical form
# ----------------------------------------------------------------------
def test_run_key_is_order_insensitive():
    a = store.run_key({"x": 1, "y": [1, 2], "z": None})
    b = store.run_key({"z": None, "y": [1, 2], "x": 1})
    assert a == b and len(a) == 64


def test_run_key_changes_with_any_field():
    base = {"circuit": "c432", "seed": 0}
    assert store.run_key(base) != store.run_key({**base, "seed": 1})
    assert store.run_key(base) != store.run_key({**base, "extra": None})


def test_canonical_json_fixed_separators():
    assert store.canonical_json({"b": 1, "a": [1, 2]}) == '{"a":[1,2],"b":1}'


# ----------------------------------------------------------------------
# Round trip, query, stats
# ----------------------------------------------------------------------
def test_put_get_round_trip(ledger):
    key = store.run_key({"n": 1})
    ledger.put(key, _body(1), meta={"circuit": "c17"})
    assert ledger.get(key) == _body(1)
    stats = ledger.stats()
    assert stats.puts == 1 and stats.hits >= 1 and stats.corrupt == 0


def test_get_miss_on_unknown_key(ledger):
    assert ledger.get("0" * 64) is None
    assert ledger.stats().misses == 1


def test_query_filters_on_meta(ledger):
    for i, circuit in enumerate(("c17", "c432", "c17")):
        ledger.put(
            store.run_key({"n": i}),
            _body(i),
            meta={"circuit": circuit, "model": "stuck-at"},
        )
    assert len(ledger.query(circuit="c17")) == 2
    assert len(ledger.query(circuit="c432", model="stuck-at")) == 1
    assert ledger.query(circuit="c880") == []


def test_reput_overwrites_and_appends(ledger):
    key = store.run_key({"n": 1})
    ledger.put(key, _body(1))
    ledger.put(key, _body(1))
    assert ledger.keys() == [key]
    assert len(ledger.entries()) == 2


# ----------------------------------------------------------------------
# Durability 1: concurrent put from two processes
# ----------------------------------------------------------------------
def _writer(root: str, salt: int, count: int) -> None:
    ledger = store.RunLedger(root)
    for i in range(count):
        key = store.run_key({"salt": salt, "n": i})
        ledger.put(key, {"salt": salt, "n": i}, meta={"salt": salt})


def test_concurrent_puts_from_two_processes(ledger):
    """Whole-line O_APPEND writes: no torn/interleaved index lines."""
    count = 40
    ctx = multiprocessing.get_context(
        "fork" if sys.platform != "win32" else "spawn"
    )
    workers = [
        ctx.Process(target=_writer, args=(str(ledger.root), salt, count))
        for salt in (1, 2)
    ]
    for proc in workers:
        proc.start()
    for proc in workers:
        proc.join(60)
        assert proc.exitcode == 0
    # every line parses (no fragments), every put is present
    lines = ledger.index_path.read_text().splitlines()
    assert len(lines) == 2 * count
    for line in lines:
        entry = json.loads(line)
        assert entry["schema"] == store.INDEX_SCHEMA
    assert len(ledger.keys()) == 2 * count
    # and every object is retrievable and intact
    assert all(status == "ok" for _, status in ledger.verify())
    for salt in (1, 2):
        for i in range(count):
            key = store.run_key({"salt": salt, "n": i})
            assert ledger.get(key) == {"salt": salt, "n": i}


def test_torn_trailing_index_line_is_skipped(ledger):
    key = store.run_key({"n": 1})
    ledger.put(key, _body(1))
    with open(ledger.index_path, "a", encoding="utf-8") as fh:
        fh.write('{"schema": "repro.ledger-index/1", "key": "tr')  # torn
    assert [entry["key"] for entry in ledger.entries()] == [key]


# ----------------------------------------------------------------------
# Durability 2: bit flips are flagged and never served
# ----------------------------------------------------------------------
def test_verify_flags_bit_flipped_object(ledger):
    good, bad = store.run_key({"n": 1}), store.run_key({"n": 2})
    ledger.put(good, _body(1))
    ledger.put(bad, _body(2))
    path = ledger.object_path(bad)
    raw = bytearray(path.read_bytes())
    target = raw.find(b'"value": 2')
    assert target != -1
    raw[target + len(b'"value": ')] ^= 0x01  # 2 -> 3, valid JSON still
    path.write_bytes(bytes(raw))
    assert dict(ledger.verify()) == {good: "ok", bad: "corrupt"}


def test_get_never_serves_corrupted_body(ledger):
    key = store.run_key({"n": 5})
    ledger.put(key, _body(5))
    path = ledger.object_path(key)
    header, body = path.read_text().split("\n", 1)
    tampered = json.loads(body)
    tampered["value"] = 6  # tamper without updating the digest
    path.write_text(header + "\n" + json.dumps(tampered))
    assert ledger.get(key) is None  # miss → caller recomputes
    stats = ledger.stats()
    assert stats.corrupt == 1 and stats.misses == 1
    # recompute-and-reput heals it
    ledger.put(key, _body(5))
    assert ledger.get(key) == _body(5)


def _flip_positions(raw: bytes) -> list[int]:
    """Every byte of the header line and its newline, plus the body's
    first and last bytes and a seeded sample of the rest."""
    newline = raw.index(b"\n")
    body = random.Random(0).sample(range(newline + 2, len(raw) - 1), 24)
    return [*range(newline + 1), newline + 1, *sorted(body), len(raw) - 1]


@pytest.mark.parametrize("mask", [0x01, 0x29, 0x80])
def test_any_flipped_byte_is_a_miss(ledger, mask):
    """Header or body, a flip is caught — even one that leaves valid
    JSON (a digit changed, a space turned into a tab by ``0x29``)."""
    key = store.run_key({"n": 3})
    ledger.put(key, _body(3))
    path = ledger.object_path(key)
    pristine = path.read_bytes()
    positions = _flip_positions(pristine)
    for position in positions:
        raw = bytearray(pristine)
        raw[position] ^= mask
        path.write_bytes(bytes(raw))
        assert ledger.get(key) is None, position
        assert dict(ledger.verify()) == {key: "corrupt"}, position
    stats = ledger.stats()
    assert stats.hits == 0
    assert stats.misses == stats.corrupt == len(positions)
    path.write_bytes(pristine)
    assert ledger.get(key) == _body(3)


def test_object_layout_is_header_line_then_hashed_body(ledger):
    key = store.run_key({"n": 4})
    ledger.put(key, _body(4))
    header, body = ledger.object_path(key).read_bytes().split(b"\n", 1)
    assert json.loads(header) == {
        "key": key,
        "schema": store.OBJECT_SCHEMA,
        "sha256": hashlib.sha256(body).hexdigest(),
    }
    assert json.loads(body) == _body(4)
    [entry] = ledger.entries()
    assert entry["sha256"] == hashlib.sha256(body).hexdigest()


def test_schema_1_object_is_a_miss(ledger):
    """Objects of the one-document ``/1`` layout are never served."""
    key = store.run_key({"n": 8})
    ledger.put(key, _body(8))
    body = _body(8)
    legacy = {
        "schema": "repro.ledger-object/1",
        "key": key,
        "sha256": hashlib.sha256(
            store.canonical_json(body).encode("utf-8")
        ).hexdigest(),
        "body": body,
    }
    ledger.object_path(key).write_text(
        json.dumps(legacy, indent=2, sort_keys=True) + "\n"
    )
    assert ledger.get(key) is None
    stats = ledger.stats()
    assert stats.misses == 1 and stats.hits == 0
    assert dict(ledger.verify()) == {key: "corrupt"}


def test_unparseable_object_is_a_miss(ledger):
    key = store.run_key({"n": 9})
    ledger.put(key, _body(9))
    ledger.object_path(key).write_text("{ not json")
    assert ledger.get(key) is None
    assert ledger.stats().corrupt == 1


# ----------------------------------------------------------------------
# Durability 3: gc eviction degrades to an ordinary miss
# ----------------------------------------------------------------------
def test_get_after_gc_misses_then_recomputes(ledger):
    keys = []
    for i in range(5):
        key = store.run_key({"n": i})
        ledger.put(key, _body(i))
        keys.append(key)
    evicted = ledger.gc(keep=2)
    assert evicted == keys[:3]
    for key in evicted:
        assert ledger.get(key) is None  # plain miss, no exception
    for i, key in enumerate(keys[3:], start=3):
        assert ledger.get(key) == _body(i)  # survivors intact
    # the index only mentions survivors now
    assert ledger.keys() == keys[3:]
    assert all(status == "ok" for _, status in ledger.verify())
    # "recompute" then re-put repopulates the evicted key
    ledger.put(keys[0], _body(0))
    assert ledger.get(keys[0]) == _body(0)


def test_gc_keep_zero_empties_ledger(ledger):
    for i in range(3):
        ledger.put(store.run_key({"n": i}), _body(i))
    assert len(ledger.gc(keep=0)) == 3
    assert ledger.keys() == []
    assert ledger.entries() == []


def test_gc_rejects_negative_keep(ledger):
    with pytest.raises(ValueError):
        ledger.gc(keep=-1)


# ----------------------------------------------------------------------
# Environment switch
# ----------------------------------------------------------------------
@pytest.mark.parametrize(
    "raw,enabled",
    [
        ("", False),
        ("0", False),
        ("off", False),
        ("1", True),
        ("true", True),
        ("/tmp/elsewhere", True),
    ],
)
def test_env_cache_enabled(raw, enabled):
    assert knobs.CACHE.read({"REPRO_CACHE": raw}) is enabled


def test_env_ledger_dir_paths():
    from pathlib import Path

    assert store.ledger_dir("1") == store.DEFAULT_LEDGER_DIR
    assert store.ledger_dir("") == store.DEFAULT_LEDGER_DIR
    assert store.ledger_dir("/x/y") == Path("/x/y")
