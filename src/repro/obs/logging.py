"""Structured logging for the ``repro.*`` hierarchy.

One logger tree, one env knob::

    REPRO_LOG=debug python -m repro.experiments fig2

Levels are ``debug`` / ``info`` (default) / ``warning``. Progress
chatter in the experiment runners goes through these loggers instead
of stray ``print`` calls; rendered experiment *results* still print to
stdout (they are the deliverable, not diagnostics).

The handler resolves ``sys.stderr`` at emit time rather than capturing
the stream object at configuration time, so pytest's ``capsys`` and
other stream swappers see log output without any re-configuration.
"""

from __future__ import annotations

import logging
import sys
import threading

from repro import knobs

#: Marker attribute stamped on the handler ``configure_logging``
#: attaches. Identity checks use this instead of ``isinstance`` so
#: idempotency survives module reloads (a reload mints a new handler
#: *class*, and an ``isinstance`` guard would then stack a second
#: handler on the shared root logger).
_HANDLER_MARK = "_repro_stderr_handler"

_CONFIGURE_LOCK = threading.Lock()

_LEVELS = {
    "debug": logging.DEBUG,
    "info": logging.INFO,
    "warning": logging.WARNING,
}

_FORMAT = "%(levelname).1s %(name)s: %(message)s"


class _DynamicStderrHandler(logging.StreamHandler):
    """StreamHandler that always writes to the *current* sys.stderr."""

    @property
    def stream(self):
        return sys.stderr

    @stream.setter
    def stream(self, value):  # StreamHandler.__init__ assigns; ignore
        pass


def configure_logging(level: int | str | None = None) -> logging.Logger:
    """Attach one stderr handler to the ``repro`` root logger (idempotent).

    ``level`` overrides ``$REPRO_LOG``; repeated calls only adjust the
    level, never stack handlers — even across module reloads or racing
    threads. Any duplicate marked handlers picked up along the way
    (e.g. attached by a reloaded copy of this module) are pruned down
    to one.
    """
    if isinstance(level, str):
        level = _LEVELS[level.lower()]
    root = logging.getLogger("repro")
    with _CONFIGURE_LOCK:
        root.setLevel(_LEVELS[knobs.LOG.read()] if level is None else level)
        marked = [
            handler
            for handler in root.handlers
            if getattr(handler, _HANDLER_MARK, False)
        ]
        for extra in marked[1:]:
            root.removeHandler(extra)
        if not marked:
            handler = _DynamicStderrHandler()
            setattr(handler, _HANDLER_MARK, True)
            handler.setFormatter(logging.Formatter(_FORMAT))
            root.addHandler(handler)
        root.propagate = False
    return root


def get_logger(name: str) -> logging.Logger:
    """A logger under the ``repro`` hierarchy (prefix added if missing)."""
    if name != "repro" and not name.startswith("repro."):
        name = f"repro.{name}"
    return logging.getLogger(name)
