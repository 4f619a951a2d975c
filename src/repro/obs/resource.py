"""Background resource sampler: RSS and BDD footprints as time-series.

``peak_live_nodes`` says how big a campaign got; it cannot say *when*,
how fast it grew, or whether GC actually brought it back down. This
module records those curves: a daemon thread wakes every ``interval``
seconds and appends one sample — process RSS plus whatever the
registered probes report (the BDD layer registers live/allocated node
counts and operation-cache sizes) — to an in-memory series that the
campaign attaches to its :class:`CampaignResult` and run manifest.

Design rules, mirrored from the tracer and the progress meter:

* **Disabled is free.** Unless ``$REPRO_RESOURCE`` is set (or
  :func:`enable_resource` is called), :func:`resource_sampler` returns
  the shared :data:`NULL_SAMPLER` singleton whose ``start``/``stop``
  do nothing — no thread, no clock read, no allocation. The campaign
  path calls it unconditionally; ``benchmarks/test_bench_observatory``
  holds the disabled-path cost under the 3 % obs gate.
* **The clock is injectable.** Tests drive :meth:`sample_once` with a
  fake clock and never sleep.
* **Probes never break the run.** A probe that raises is dropped from
  that sample (and only that sample); sampling is telemetry, not
  control flow.

Probes are registered by *lower* layers at import time (the obs layer
imports nothing above itself): ``repro.bdd.manager`` registers a
``bdd`` probe summing live/allocated nodes and computed-table entries
over every live manager in the process.
"""

from __future__ import annotations

import os
import threading
import time
from dataclasses import dataclass, field
from typing import Any, Callable, Mapping

from repro import knobs

#: Default seconds between samples. 20 Hz is fine-grained enough to see
#: GC sawtooths on second-scale campaigns and far too slow to perturb
#: them (one /proc read and a few attribute sums per tick).
DEFAULT_INTERVAL = 0.05

#: Hard floor on the sampling interval: protects against a typo'd
#: ``REPRO_RESOURCE=0.00001`` busy-looping a core.
MIN_INTERVAL = 0.001

_PAGE_SIZE = os.sysconf("SC_PAGE_SIZE") if hasattr(os, "sysconf") else 4096

#: Registered probes: name → zero-arg callable returning a mapping of
#: scalar fields. Fields land in samples as ``<name>.<field>``.
_PROBES: dict[str, Callable[[], Mapping[str, float]]] = {}


def register_probe(
    name: str, probe: Callable[[], Mapping[str, float]]
) -> None:
    """Add (or replace) a named probe contributing fields to samples."""
    _PROBES[name] = probe


def unregister_probe(name: str) -> None:
    _PROBES.pop(name, None)


def probe_names() -> list[str]:
    return sorted(_PROBES)


def rss_bytes() -> int:
    """Current resident set size in bytes (best effort, 0 if unknown).

    Linux: resident pages from ``/proc/self/statm``. Elsewhere: the
    peak RSS from ``getrusage`` (coarser, but monotone and portable).
    """
    try:
        with open("/proc/self/statm", "rb") as fh:
            return int(fh.read().split()[1]) * _PAGE_SIZE
    except (OSError, ValueError, IndexError):
        pass
    try:
        import resource as _resource

        # ru_maxrss is kilobytes on Linux, bytes on macOS.
        peak = _resource.getrusage(_resource.RUSAGE_SELF).ru_maxrss
        return peak if peak > 1 << 32 else peak * 1024
    except Exception:
        return 0


@dataclass(frozen=True)
class ResourceSeries:
    """One sampled run: timestamped samples plus the sampling policy.

    ``samples`` is a tuple of plain dicts (JSON-safe by construction):
    ``{"t": seconds-since-start, "rss_bytes": ..., "bdd.live_nodes":
    ..., ...}``. Fields other than ``t`` are whatever probes were
    registered when the sample was taken.
    """

    interval: float
    samples: tuple[dict[str, float], ...] = ()

    def __bool__(self) -> bool:
        return bool(self.samples)

    def fields(self) -> list[str]:
        names: dict[str, None] = {}
        for sample in self.samples:
            for name in sample:
                if name != "t":
                    names.setdefault(name, None)
        return sorted(names)

    def peak(self, name: str) -> float:
        """Largest observed value of one field (0 when never sampled)."""
        return max(
            (s[name] for s in self.samples if name in s), default=0.0
        )

    def series(self, name: str) -> list[tuple[float, float]]:
        """``(t, value)`` pairs of one field, in sample order."""
        return [
            (s["t"], s[name]) for s in self.samples if name in s
        ]

    def summary(self) -> dict[str, Any]:
        """JSON-safe projection for manifests and ledger documents."""
        return {
            "schema": "repro.resource-series/1",
            "interval": self.interval,
            "num_samples": len(self.samples),
            "duration_seconds": (
                self.samples[-1]["t"] if self.samples else 0.0
            ),
            "peaks": {name: self.peak(name) for name in self.fields()},
            "samples": [dict(sample) for sample in self.samples],
        }

    @classmethod
    def from_summary(cls, summary: Mapping[str, Any]) -> "ResourceSeries":
        return cls(
            interval=float(summary.get("interval", DEFAULT_INTERVAL)),
            samples=tuple(
                {str(k): v for k, v in sample.items()}
                for sample in summary.get("samples", ())
            ),
        )


#: The empty series every disabled stop() returns.
EMPTY_SERIES = ResourceSeries(interval=0.0)


class _NullSampler:
    """The disabled path: one shared, stateless, do-nothing singleton."""

    __slots__ = ()
    enabled = False

    def start(self) -> "_NullSampler":
        return self

    def sample_once(self) -> None:
        pass

    def stop(self) -> ResourceSeries:
        return EMPTY_SERIES

    def __enter__(self) -> "_NullSampler":
        return self

    def __exit__(self, *exc: object) -> None:
        pass


#: The one sampler every disabled :func:`resource_sampler` call returns.
NULL_SAMPLER = _NullSampler()


class ResourceSampler:
    """Samples RSS + registered probes on a daemon thread.

    Use as a context manager (``with ResourceSampler() as s: ...``)
    or via explicit :meth:`start`/:meth:`stop`; :meth:`stop` returns
    the collected :class:`ResourceSeries` and always takes one final
    sample so even an instantaneous run yields a curve endpoint.
    ``clock`` is injectable for deterministic tests; production code
    never passes it.
    """

    def __init__(
        self,
        interval: float = DEFAULT_INTERVAL,
        clock: Callable[[], float] = time.perf_counter,
    ) -> None:
        self.interval = max(float(interval), MIN_INTERVAL)
        self._clock = clock
        self._t0 = clock()
        self._samples: list[dict[str, float]] = []
        self._lock = threading.Lock()
        self._stop_event = threading.Event()
        self._thread: threading.Thread | None = None

    enabled = True

    # -- sampling -------------------------------------------------------
    def sample_once(self) -> dict[str, float]:
        """Take one sample now (also the loop body of the thread)."""
        sample: dict[str, float] = {
            "t": self._clock() - self._t0,
            "rss_bytes": rss_bytes(),
        }
        for name, probe in list(_PROBES.items()):
            try:
                fields = probe()
            except Exception:  # telemetry must never break the run
                continue
            for key, value in fields.items():
                sample[f"{name}.{key}"] = value
        with self._lock:
            self._samples.append(sample)
        return sample

    def _loop(self) -> None:
        while not self._stop_event.wait(self.interval):
            self.sample_once()

    # -- lifecycle ------------------------------------------------------
    def start(self) -> "ResourceSampler":
        if self._thread is not None:
            return self
        self._t0 = self._clock()
        self.sample_once()  # t=0 anchor
        self._thread = threading.Thread(
            target=self._loop, name="repro-resource-sampler", daemon=True
        )
        self._thread.start()
        return self

    def stop(self) -> ResourceSeries:
        if self._thread is not None:
            self._stop_event.set()
            self._thread.join(timeout=5.0)
            self._thread = None
        self.sample_once()  # closing endpoint
        with self._lock:
            samples = tuple(self._samples)
        return ResourceSeries(interval=self.interval, samples=samples)

    def __enter__(self) -> "ResourceSampler":
        return self.start()

    def __exit__(self, *exc: object) -> None:
        self.stop()


# ----------------------------------------------------------------------
# Module switch (mirrors trace.py/progress.py)
# ----------------------------------------------------------------------
def sample_interval(raw: str) -> float:
    """Sampling interval from ``$REPRO_RESOURCE``'s text (seconds)."""
    try:
        return max(float(raw), MIN_INTERVAL)
    except ValueError:
        return DEFAULT_INTERVAL


_enabled: bool = knobs.RESOURCE.read()


def resource_enabled() -> bool:
    return _enabled


def enable_resource() -> None:
    global _enabled
    _enabled = True


def disable_resource() -> None:
    global _enabled
    _enabled = False


def resource_sampler(
    interval: float | None = None,
) -> ResourceSampler | _NullSampler:
    """A live sampler when resource sampling is on, else the null one."""
    if not _enabled:
        return NULL_SAMPLER
    if interval is None:
        interval = sample_interval(knobs.RESOURCE.raw())
    return ResourceSampler(interval=interval)
