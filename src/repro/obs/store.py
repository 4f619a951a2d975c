"""Content-addressed run ledger: the persistent cross-run result store.

Every campaign (and, later, every service request) can be named by a
**run key**: the SHA-256 of a canonical JSON projection of its run
manifest — circuit roster, fault model, engine/mode, seed, the scale
knobs that shape the fault set, and the :func:`source_digest` of the
code that computed it. Two runs with the same key are byte-identical by
construction, so their results can be *served* instead of recomputed.

The ledger is a plain directory (default ``results/ledger/``)::

    ledger/
      objects/<run_key>.json     one header line, then the body bytes
      index.jsonl                append-only log: one line per put

* **Objects are integrity-checked over their stored bytes.** An object
  is one JSON header line ``{"key", "schema", "sha256"}`` followed by
  the body's JSON bytes, and ``sha256`` is the digest of exactly those
  bytes. :meth:`RunLedger.get` and :meth:`RunLedger.verify` share one
  reader: it hashes the body bytes it read, requires the header line to
  be byte-for-byte the one that key, schema and digest produce, and
  only then parses the body, once. Any flipped byte — header or body —
  is a *miss* (logged, counted): a corrupt object is recomputed, never
  silently served. Objects of an older schema are misses too.
* **The index is append-only and crash-tolerant.** Each ``put``
  appends exactly one line with a single ``O_APPEND`` write, so
  concurrent writers from different processes interleave whole lines,
  never fragments; a torn trailing line (crash mid-write) is skipped
  on load. :meth:`RunLedger.gc` is the one maintenance operation that
  rewrites it (atomically, via rename).
* **Query is over index metadata.** Every index line carries the
  caller-supplied ``meta`` mapping (circuit, model, engine, seed …),
  so "every c432 stuck-at run we have" is one :meth:`RunLedger.query`
  away without opening any object.

This module is deliberately generic — it stores JSON documents by key
and knows nothing about campaigns. The campaign projection/codec lives
in :mod:`repro.experiments.runcache`, keeping the obs layer free of
upward imports.
"""

from __future__ import annotations

import hashlib
import json
import os
import time
from dataclasses import dataclass
from pathlib import Path
from typing import Any, Iterator, Mapping

from repro.obs.encode import json_safe
from repro.obs.logging import get_logger

OBJECT_SCHEMA = "repro.ledger-object/2"
INDEX_SCHEMA = "repro.ledger-index/1"

#: Default ledger location, relative to the working directory (the same
#: convention as every other ``results/`` artifact).
DEFAULT_LEDGER_DIR = Path("results") / "ledger"

log = get_logger("repro.obs.store")


def canonical_json(value: Any) -> str:
    """The one canonical rendering hashes are taken over.

    Keys sorted, separators fixed, values passed through
    :func:`~repro.obs.encode.json_safe` — so the same logical document
    always produces the same bytes regardless of dict order or which
    process serialized it.
    """
    return json.dumps(
        json_safe(value), sort_keys=True, separators=(",", ":")
    )


_GIT_SHA_CACHE: list[str | None] = []


def git_sha_cached() -> str | None:
    """:func:`~repro.obs.manifest.git_sha`, resolved once per process."""
    if not _GIT_SHA_CACHE:
        from repro.obs.manifest import git_sha

        _GIT_SHA_CACHE.append(git_sha())
    return _GIT_SHA_CACHE[0]


#: The package whose source is the code identity of every run key.
PACKAGE_ROOT = Path(__file__).resolve().parents[1]

_SOURCE_DIGEST: list[str] = []


def source_digest() -> str:
    """SHA-256 over every ``*.py`` file of the package: relative path,
    length and bytes, in sorted order. Computed once per process.

    The code identity in run keys. Unlike a commit SHA it changes with
    an uncommitted edit, so an edited tree is never served results the
    old code computed, and it needs no git.
    """
    if not _SOURCE_DIGEST:
        digest = hashlib.sha256()
        for path in sorted(PACKAGE_ROOT.rglob("*.py")):
            data = path.read_bytes()
            name = path.relative_to(PACKAGE_ROOT).as_posix()
            digest.update(f"{name}\0{len(data)}\0".encode("utf-8"))
            digest.update(data)
        _SOURCE_DIGEST.append(digest.hexdigest())
    return _SOURCE_DIGEST[0]


def run_key(projection: Mapping[str, Any]) -> str:
    """SHA-256 hex digest of a normalized manifest projection.

    The projection must already be *normalized*: include exactly the
    fields that determine the result (circuit roster, fault model,
    engine/mode, seed, scale knobs, source digest) and nothing incidental
    (hostnames, timestamps, pids). Hash equality then *is* result
    equality.
    """
    return hashlib.sha256(canonical_json(projection).encode("utf-8")).hexdigest()


def _header(key: str, digest: str) -> bytes:
    """The first line of the object stored under ``key`` whose body
    bytes hash to ``digest`` (without its newline)."""
    return json.dumps(
        {"key": key, "schema": OBJECT_SCHEMA, "sha256": digest}
    ).encode("utf-8")


@dataclass(frozen=True)
class LedgerStats:
    """Counters of one ledger instance's lifetime (this process)."""

    hits: int
    misses: int
    corrupt: int
    puts: int


class RunLedger:
    """Content-addressed store of JSON result documents under one root."""

    def __init__(self, root: Path | str = DEFAULT_LEDGER_DIR) -> None:
        self.root = Path(root)
        self._hits = 0
        self._misses = 0
        self._corrupt = 0
        self._puts = 0

    # -- layout ---------------------------------------------------------
    @property
    def objects_dir(self) -> Path:
        return self.root / "objects"

    @property
    def index_path(self) -> Path:
        return self.root / "index.jsonl"

    def object_path(self, key: str) -> Path:
        return self.objects_dir / f"{key}.json"

    # -- writing --------------------------------------------------------
    def put(
        self,
        key: str,
        body: Mapping[str, Any],
        meta: Mapping[str, Any] | None = None,
    ) -> Path:
        """Store ``body`` under ``key`` and append one index line.

        The body is reduced by :func:`~repro.obs.encode.json_safe` and
        encoded once (keys sorted); the object is its header line plus
        those bytes. The object lands atomically (tmp file + rename) so a
        concurrent reader never sees a half-written document; the index
        line lands with a single ``O_APPEND`` write so concurrent writers
        never interleave. Re-putting an existing key overwrites the object
        (same key ⇒ same content by the run-key contract) and appends a
        fresh index line — the index is a log, not a set.
        """
        data = (
            json.dumps(json_safe(body), sort_keys=True, separators=(", ", ": "))
            + "\n"
        ).encode("utf-8")
        digest = hashlib.sha256(data).hexdigest()
        self.objects_dir.mkdir(parents=True, exist_ok=True)
        path = self.object_path(key)
        tmp = path.with_name(f".{path.name}.{os.getpid()}.tmp")
        tmp.write_bytes(_header(key, digest) + b"\n" + data)
        os.replace(tmp, path)
        entry = {
            "schema": INDEX_SCHEMA,
            "key": key,
            "sha256": digest,
            "created_utc": time.strftime(
                "%Y-%m-%dT%H:%M:%SZ", time.gmtime()
            ),
            "pid": os.getpid(),
            "meta": json_safe(dict(meta or {})),
        }
        line = (json.dumps(entry, sort_keys=True) + "\n").encode("utf-8")
        fd = os.open(
            self.index_path, os.O_WRONLY | os.O_CREAT | os.O_APPEND, 0o644
        )
        try:
            os.write(fd, line)
        finally:
            os.close(fd)
        self._puts += 1
        return path

    # -- reading --------------------------------------------------------
    def _read(self, key: str) -> tuple[str, dict[str, Any] | None]:
        """``("ok", body)``, ``("missing", None)`` or ``("corrupt", None)``.

        The one reader behind :meth:`get` and :meth:`verify`: one hash
        over the body bytes on disk, one byte comparison of the header
        line (schema, key and digest at once), then one parse.
        """
        try:
            raw = self.object_path(key).read_bytes()
        except OSError:
            return "missing", None
        head, newline, data = raw.partition(b"\n")
        if not newline or head != _header(key, hashlib.sha256(data).hexdigest()):
            return "corrupt", None
        try:
            body = json.loads(data)
        except ValueError:
            body = None
        if not isinstance(body, dict):
            return "corrupt", None
        return "ok", body

    def get(self, key: str) -> dict[str, Any] | None:
        """The stored body for ``key``, or ``None`` on miss/corruption.

        Integrity is re-checked on **every** read: a missing object is
        a miss; a header that is not exactly this key's, an older
        schema, a body whose bytes no longer hash to the recorded digest
        or an unparseable body is a miss that also bumps the corruption
        counter — the caller recomputes, the ledger never serves
        silently wrong data.
        """
        status, body = self._read(key)
        if body is None:
            self._misses += 1
            if status == "corrupt":
                self._corrupt += 1
                log.warning(
                    "ledger object %s failed its integrity check; "
                    "treating as miss",
                    self.object_path(key),
                )
            return None
        self._hits += 1
        return body

    def entries(self) -> list[dict[str, Any]]:
        """Every well-formed index line, oldest first.

        A torn trailing line (crash mid-append) or a line of the wrong
        schema is skipped, not fatal — the index is a log and the
        objects are the ground truth.
        """
        entries: list[dict[str, Any]] = []
        try:
            text = self.index_path.read_text(encoding="utf-8")
        except OSError:
            return entries
        for line in text.splitlines():
            line = line.strip()
            if not line:
                continue
            try:
                entry = json.loads(line)
            except ValueError:
                continue
            if entry.get("schema") == INDEX_SCHEMA and "key" in entry:
                entries.append(entry)
        return entries

    def query(self, **filters: Any) -> list[dict[str, Any]]:
        """Index entries whose ``meta`` matches every filter, oldest first.

        ``ledger.query(circuit="c432", model="stuck-at")`` returns every
        recorded c432 stuck-at run. One entry per put — re-runs of the
        same key appear once per recording, which is exactly what a
        cross-run dashboard wants.
        """
        matched = []
        for entry in self.entries():
            meta = entry.get("meta", {})
            if all(meta.get(name) == value for name, value in filters.items()):
                matched.append(entry)
        return matched

    def keys(self) -> list[str]:
        """Distinct keys in the index, in first-recorded order."""
        seen: dict[str, None] = {}
        for entry in self.entries():
            seen.setdefault(entry["key"], None)
        return list(seen)

    # -- maintenance ----------------------------------------------------
    def verify(self) -> list[tuple[str, str]]:
        """Re-check every indexed object; return ``(key, status)`` pairs.

        Status is ``"ok"``, ``"missing"`` (object deleted, e.g. by
        :meth:`gc`), or ``"corrupt"`` (any flipped byte, an older
        schema, or an unparseable body) — the same reader as :meth:`get`.
        """
        return [(key, self._read(key)[0]) for key in self.keys()]

    def gc(self, keep: int) -> list[str]:
        """Drop all but the ``keep`` most recently recorded keys.

        Deletes the evicted objects and rewrites the index atomically
        to only mention survivors (newest entry per surviving key).
        Returns the evicted keys. A later :meth:`get` on an evicted key
        is an ordinary miss — callers fall back to recompute.
        """
        if keep < 0:
            raise ValueError("keep must be non-negative")
        entries = self.entries()
        newest: dict[str, dict[str, Any]] = {}
        for entry in entries:  # oldest→newest: later entries win
            newest[entry["key"]] = entry
        ordered = list(newest)  # first-recorded order of distinct keys
        survivors = set(ordered[len(ordered) - keep :]) if keep else set()
        evicted = [key for key in ordered if key not in survivors]
        for key in evicted:
            try:
                self.object_path(key).unlink()
            except OSError:
                pass
        kept_lines = [
            json.dumps(newest[key], sort_keys=True)
            for key in ordered
            if key in survivors
        ]
        tmp = self.index_path.with_name(f".index.{os.getpid()}.tmp")
        self.root.mkdir(parents=True, exist_ok=True)
        tmp.write_text(
            "".join(line + "\n" for line in kept_lines), encoding="utf-8"
        )
        os.replace(tmp, self.index_path)
        return evicted

    # -- telemetry ------------------------------------------------------
    def stats(self) -> LedgerStats:
        return LedgerStats(
            hits=self._hits,
            misses=self._misses,
            corrupt=self._corrupt,
            puts=self._puts,
        )


_SWITCH_WORDS = frozenset(
    ("", "0", "false", "no", "off", "1", "true", "yes", "on")
)


def ledger_dir(raw: str) -> Path:
    """Ledger root from ``$REPRO_CACHE``'s text.

    Switch words (``1``/``true``/``off``/…) select the default
    ``results/ledger``; any other value is an explicit ledger directory.
    """
    if raw.lower() in _SWITCH_WORDS:
        return DEFAULT_LEDGER_DIR
    return Path(raw)


def iter_ledger_roots(results_dir: Path | str) -> Iterator[Path]:
    """Ledger roots under a results tree (currently just ``ledger/``)."""
    root = Path(results_dir) / "ledger"
    if root.exists():
        yield root
