"""Run manifests: the provenance record written next to every artifact.

A :class:`RunManifest` pins everything needed to reproduce (or refuse
to compare) a run: the master seed, the scale profile, worker count,
git SHA, interpreter and platform, the circuit roster, and wall time.
Experiment outputs gain a sibling ``results/<name>.json`` carrying the
manifest plus the machine-readable result data; ``BENCH_*.json``
benchmark artifacts embed one too, so two perf numbers are only ever
diffed when their manifests say they are comparable.
"""

from __future__ import annotations

import json
import os
import platform as _platform
import socket
import subprocess
import sys
import time
from dataclasses import dataclass, field
from pathlib import Path
from typing import Any, Mapping

from repro import knobs
from repro.obs.encode import json_safe

SCHEMA = "repro.run-manifest/1"

#: Variables recorded verbatim (when set) besides every ``REPRO_*`` knob.
_EXTRA_ENV = ("HYPOTHESIS_PROFILE",)


def numpy_version() -> str | None:
    """Installed numpy's version, or ``None`` when numpy is absent.

    Recorded so trajectory entries produced by the vectorized kernel
    are only compared across runs with a comparable numeric backend.
    """
    try:
        import numpy
    except ImportError:
        return None
    return numpy.__version__


def git_sha() -> str | None:
    """HEAD commit of the working tree, or ``None`` outside a checkout."""
    try:
        out = subprocess.run(
            ["git", "rev-parse", "HEAD"],
            cwd=Path(__file__).resolve().parent,
            capture_output=True,
            text=True,
            timeout=10,
        )
    except (OSError, subprocess.SubprocessError):
        return None
    sha = out.stdout.strip()
    return sha if out.returncode == 0 and sha else None


def _effective(scale: Any, knob: knobs.Knob) -> Any:
    """A knob's value for the manifest: the scale's resolution, else its
    own field, else the variable (``None`` when unset or unparsable)."""
    resolve = getattr(scale, "resolve", None)
    if callable(resolve):
        return resolve(knob.name)
    value = getattr(scale, knob.name, None)
    if value is not None or not knob.raw():
        return value
    try:
        return knob.read()
    except (KeyError, ValueError):
        return None


@dataclass(frozen=True)
class RunManifest:
    """Provenance of one run (all fields JSON-safe scalars/sequences)."""

    schema: str
    created_utc: str
    command: tuple[str, ...]
    seed: int
    scale: str | None
    workers: int | None
    git_sha: str | None
    python: str
    platform: str
    hostname: str
    pid: int
    circuits: tuple[str, ...]
    wall_seconds: float | None
    env: Mapping[str, str] = field(default_factory=dict)
    extra: Mapping[str, Any] = field(default_factory=dict)
    #: installed numpy version (``None`` without numpy) — kernel-backend
    #: provenance for perf-trajectory comparability
    numpy: str | None = None
    #: effective knobs: explicit argument, else the scale's field, else
    #: the ``REPRO_*`` variable, else the knob default (``None`` with
    #: neither a scale nor the variable; ``ci_width`` only when sampled)
    engine: str | None = None
    reorder: bool | None = None
    mode: str | None = None
    ci_width: float | None = None
    #: resource time-series summary for the run (the dict shape of
    #: :meth:`repro.obs.resource.ResourceSeries.summary`; ``None`` when
    #: ``$REPRO_RESOURCE`` was off or no series was attached)
    resources: Mapping[str, Any] | None = None

    @classmethod
    def collect(
        cls,
        scale: Any = None,
        workers: int | None = None,
        circuits: tuple[str, ...] | None = None,
        command: tuple[str, ...] | None = None,
        wall_seconds: float | None = None,
        extra: Mapping[str, Any] | None = None,
        engine: str | None = None,
        reorder: bool | None = None,
        mode: str | None = None,
        ci_width: float | None = None,
        resources: Mapping[str, Any] | None = None,
    ) -> "RunManifest":
        """Snapshot the current process (pass the run's ``Scale`` if any).

        ``scale`` duck-types on ``name``/``circuits`` and the knob fields
        (resolved through its ``resolve()`` when present) so the obs
        layer stays importable from everywhere below ``experiments``.
        An explicit ``engine``/``reorder``/``mode``/``ci_width`` wins;
        without a scale, a knob is recorded only when its variable is
        set and parses.
        """
        if engine is None:
            engine = _effective(scale, knobs.ENGINE)
        if reorder is None:
            reorder = _effective(scale, knobs.REORDER)
        if mode is None:
            mode = _effective(scale, knobs.MODE)
        if ci_width is None and mode == "sampled":
            ci_width = _effective(scale, knobs.CI_WIDTH)
        seed = _effective(scale, knobs.SEED)
        if circuits is None:
            circuits = tuple(getattr(scale, "circuits", ()) or ())
        return cls(
            schema=SCHEMA,
            created_utc=time.strftime(
                "%Y-%m-%dT%H:%M:%SZ", time.gmtime()
            ),
            command=tuple(command if command is not None else sys.argv),
            seed=knobs.SEED.default if seed is None else seed,
            scale=getattr(scale, "name", None),
            workers=workers,
            git_sha=git_sha(),
            python=sys.version.split()[0],
            platform=_platform.platform(),
            hostname=socket.gethostname(),
            pid=os.getpid(),
            circuits=circuits,
            wall_seconds=wall_seconds,
            env={
                name: os.environ[name]
                for name in (*(k.env for k in knobs.KNOBS), *_EXTRA_ENV)
                if name in os.environ
            },
            extra=dict(extra or {}),
            numpy=numpy_version(),
            engine=engine,
            reorder=reorder,
            mode=mode,
            ci_width=ci_width,
            resources=resources,
        )

    def to_dict(self) -> dict[str, Any]:
        return json_safe(self)

    def write(self, path: Path | str) -> Path:
        """Serialize as pretty JSON at ``path``; returns the path."""
        path = Path(path)
        path.parent.mkdir(parents=True, exist_ok=True)
        path.write_text(
            json.dumps(self.to_dict(), indent=2, sort_keys=True) + "\n",
            encoding="utf-8",
        )
        return path
