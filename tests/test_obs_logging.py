"""Handler idempotency and level plumbing of ``repro.obs.logging``.

The regression these tests pin: ``configure_logging`` used an
``isinstance`` check to decide whether its stderr handler was already
attached. A module reload (importlib, pytest plugins re-importing,
``%autoreload``) mints a *new* handler class, the isinstance guard
misses the old instance, and every reconfigure stacks one more handler
— every log line printed N times. The guard is now a marker attribute
on the handler itself, which survives reloads.
"""

from __future__ import annotations

import importlib
import logging as stdlib_logging
import threading

import pytest

from repro import knobs
from repro.obs import logging as obs_logging


@pytest.fixture
def clean_root():
    """The ``repro`` root logger with no handlers, restored afterwards."""
    root = stdlib_logging.getLogger("repro")
    saved = (list(root.handlers), root.level, root.propagate)
    root.handlers[:] = []
    yield root
    root.handlers[:], root.level, root.propagate = saved


def _marked(root):
    return [
        handler
        for handler in root.handlers
        if getattr(handler, obs_logging._HANDLER_MARK, False)
    ]


def test_repeated_configure_attaches_one_handler(clean_root):
    for _ in range(5):
        obs_logging.configure_logging()
    assert len(_marked(clean_root)) == 1
    assert clean_root.propagate is False


def test_configure_survives_module_reload(clean_root):
    """A reload must not stack a second handler (the old bug)."""
    obs_logging.configure_logging()
    reloaded = importlib.reload(obs_logging)
    try:
        reloaded.configure_logging()
        reloaded.configure_logging()
        assert len(_marked(clean_root)) == 1
    finally:
        importlib.reload(obs_logging)


def test_configure_prunes_preexisting_duplicates(clean_root):
    """Handlers stacked by an older buggy copy are pruned down to one."""
    for _ in range(3):
        handler = obs_logging._DynamicStderrHandler()
        setattr(handler, obs_logging._HANDLER_MARK, True)
        clean_root.addHandler(handler)
    obs_logging.configure_logging()
    assert len(_marked(clean_root)) == 1


def test_configure_leaves_foreign_handlers_alone(clean_root):
    """User-attached handlers are not ours to prune."""
    foreign = stdlib_logging.NullHandler()
    clean_root.addHandler(foreign)
    obs_logging.configure_logging()
    assert foreign in clean_root.handlers
    assert len(_marked(clean_root)) == 1


def test_concurrent_configure_attaches_one_handler(clean_root):
    barrier = threading.Barrier(8)

    def worker():
        barrier.wait()
        obs_logging.configure_logging()

    threads = [threading.Thread(target=worker) for _ in range(8)]
    for thread in threads:
        thread.start()
    for thread in threads:
        thread.join()
    assert len(_marked(clean_root)) == 1


def test_log_lines_not_duplicated(clean_root, capsys):
    obs_logging.configure_logging("info")
    obs_logging.configure_logging("info")
    obs_logging.get_logger("repro.test").info("exactly once")
    err = capsys.readouterr().err
    assert err.count("exactly once") == 1


def test_level_override_and_env(clean_root, monkeypatch):
    monkeypatch.setenv(knobs.LOG.env, "debug")
    root = obs_logging.configure_logging()
    assert root.level == stdlib_logging.DEBUG
    root = obs_logging.configure_logging("warning")
    assert root.level == stdlib_logging.WARNING
    assert len(_marked(clean_root)) == 1


def test_get_logger_prefixes_bare_names():
    assert obs_logging.get_logger("x").name == "repro.x"
    assert obs_logging.get_logger("repro.y").name == "repro.y"
    assert obs_logging.get_logger("repro").name == "repro"
