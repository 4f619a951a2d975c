"""Live campaign progress: heartbeat events behind ``$REPRO_PROGRESS``.

A heartbeat is one structured log record on the ``repro.progress``
logger reporting how far a campaign has got — faults done / total,
aggregate throughput, ETA, and (for the parallel driver) the finishing
chunk's own throughput::

    I repro.progress: c432 stuck-at: 232/464 faults (50.0%), 96.1 faults/s, eta 2.4s [chunk 3: 58 faults @ 101.2 f/s]

Emission follows the tracer's design: **disabled is the default and
costs almost nothing**. Unless ``$REPRO_PROGRESS`` is set (or
:func:`enable_progress` is called), :func:`meter` returns the shared
:data:`NULL_METER` singleton whose ``update()`` does nothing — no
clock read, no allocation — so the serial per-fault loop can call it
unconditionally. ``benchmarks/test_bench_obs.py`` holds the combined
disabled-path cost of tracing *and* progress under the 3 % gate.

Two call sites feed heartbeats:

* the serial campaign loop (``campaigns.analyze_faults``) ticks the
  meter once per fault, throttled to one record per
  ``min_interval`` seconds;
* the parallel driver (``parallel.run_campaign``) calls
  :meth:`ProgressMeter.chunk_done` from its chunk-completion loop —
  chunk completions are seconds apart, so every one emits.

Pool workers inherit ``$REPRO_PROGRESS`` through the environment and
heartbeat their own chunks to stderr as well; records carry the pid
implicitly through the logging hierarchy.
"""

from __future__ import annotations

import time

from repro import knobs
from repro.obs.logging import get_logger

#: Default seconds between throttled heartbeats from per-fault ticks.
DEFAULT_INTERVAL = 1.0

log = get_logger("repro.progress")


class _NullMeter:
    """The disabled path: one shared, stateless, do-nothing singleton."""

    __slots__ = ()
    enabled = False

    def update(self, n: int = 1) -> None:
        pass

    def chunk_done(
        self, index: int, faults: int, seconds: float | None = None
    ) -> None:
        pass

    def finish(self) -> None:
        pass


#: The one meter every disabled :func:`meter` call returns.
NULL_METER = _NullMeter()


class ProgressMeter:
    """Counts completed faults and heartbeats through ``repro.progress``.

    ``clock`` is injectable for deterministic tests; production code
    never passes it.
    """

    __slots__ = ("label", "total", "done", "_clock", "_t0", "_last_emit", "_interval")
    enabled = True

    def __init__(
        self,
        total: int,
        label: str = "campaign",
        min_interval: float = DEFAULT_INTERVAL,
        clock=time.perf_counter,
    ) -> None:
        self.label = label
        self.total = total
        self.done = 0
        self._clock = clock
        self._t0 = clock()
        self._last_emit = self._t0 - min_interval  # first tick may emit
        self._interval = min_interval

    # -- feeding --------------------------------------------------------
    def update(self, n: int = 1) -> None:
        """Tick ``n`` finished faults; emit if the throttle allows."""
        self.done += n
        now = self._clock()
        if now - self._last_emit >= self._interval:
            self._emit(now)

    def chunk_done(
        self, index: int, faults: int, seconds: float | None = None
    ) -> None:
        """One parallel chunk finished: always heartbeat, with its rate."""
        self.done += faults
        chunk = f"chunk {index}: {faults} faults"
        # An instantaneous chunk (0 faults, cached results, or a clock
        # that went backwards) has no meaningful rate — omit it rather
        # than divide by zero or print a negative throughput.
        if seconds is not None and seconds > 0:
            chunk += f" @ {faults / seconds:.1f} f/s"
        self._emit(self._clock(), detail=chunk)

    def finish(self) -> None:
        """Force a final heartbeat (total reached or loop abandoned)."""
        self._emit(self._clock())

    # -- emission -------------------------------------------------------
    def _emit(self, now: float, detail: str | None = None) -> None:
        self._last_emit = now
        elapsed = now - self._t0
        rate = self.done / elapsed if elapsed > 0 else 0.0
        if self.total > 0:
            pct = 100.0 * self.done / self.total
            remaining = max(self.total - self.done, 0)
            eta = f"{remaining / rate:.1f}s" if rate > 0 else "?"
            message = (
                f"{self.label}: {self.done}/{self.total} faults "
                f"({pct:.1f}%), {rate:.1f} faults/s, eta {eta}"
            )
        else:
            message = f"{self.label}: {self.done} faults, {rate:.1f} faults/s"
        if detail:
            message += f" [{detail}]"
        log.info("%s", message)


# ----------------------------------------------------------------------
# Module switch (mirrors trace.py: processes are the parallelism unit)
# ----------------------------------------------------------------------
_enabled: bool = knobs.PROGRESS.read()


def progress_enabled() -> bool:
    return _enabled


def enable_progress() -> None:
    global _enabled
    _enabled = True


def disable_progress() -> None:
    global _enabled
    _enabled = False


def meter(
    total: int,
    label: str = "campaign",
    min_interval: float = DEFAULT_INTERVAL,
) -> ProgressMeter | _NullMeter:
    """A live meter when progress is on, else :data:`NULL_METER`."""
    if not _enabled:
        return NULL_METER
    return ProgressMeter(total, label=label, min_interval=min_interval)
