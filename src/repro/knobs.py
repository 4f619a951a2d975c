"""The ``REPRO_*`` knob table: one row per environment variable.

Each row declares a variable once — how its text parses, its default,
whether it changes what a campaign computes, its CLI flag and help.
:class:`~repro.experiments.config.Scale` resolves its knob fields by
one rule (explicit field, else variable, else default); the CLIs build
their flags with :func:`add_flags`; the run manifest records every set
variable; a campaign's run key holds every ``affects_results`` knob.

A set but unparsable value raises rather than silently running with
the wrong setting; only ``REPRO_LOG`` falls back to its default. The
module imports nothing from ``repro``, so every layer can read it.
"""

from __future__ import annotations

import argparse
import os
from dataclasses import dataclass
from typing import Any, Callable, Mapping

#: Engines the campaign layer can route to.
CAMPAIGN_ENGINES = ("dp", "bitparallel")

#: Campaign modes the dispatch layer can route to.
CAMPAIGN_MODES = ("exact", "sampled")

LOG_LEVELS = ("debug", "info", "warning")

_FALSEY = frozenset(("0", "false", "no", "off"))


def _switch(raw: str) -> bool:
    """Any value but ``0``/``false``/``no``/``off`` turns a switch on."""
    return raw.lower() not in _FALSEY


def _choice(what: str, options: tuple[str, ...]) -> Callable[[str], str]:
    def parse(raw: str) -> str:
        if raw not in options:
            known = ", ".join(options)
            raise KeyError(f"unknown {what} {raw!r}; known: {known}")
        return raw

    return parse


def _ci_width(raw: str) -> float:
    width = float(raw)
    if not 0.0 < width <= 0.5:
        raise ValueError(f"{width} outside (0, 0.5]")
    return width


def _positive_int(raw: str) -> int:
    value = int(raw)
    if value < 1:
        raise ValueError(f"{value} must be positive")
    return value


def _log_level(raw: str) -> str | None:
    level = raw.lower()
    return level if level in LOG_LEVELS else None


@dataclass(frozen=True)
class Knob:
    """One ``REPRO_*`` variable.

    ``name`` is the :class:`~repro.experiments.config.Scale` field (when
    the scale has one) and the argparse destination; ``parse`` turns
    the variable's stripped, non-empty text into a value (``None`` means
    the default) and raises ``ValueError``/``KeyError`` on bad input.
    """

    name: str
    env: str
    parse: Callable[[str], Any]
    default: Any
    affects_results: bool
    flag: str | None
    help: str
    choices: tuple[str, ...] | None = None
    metavar: str | None = None

    @property
    def is_switch(self) -> bool:
        return self.parse is _switch

    def raw(self, environ: Mapping[str, str] = os.environ) -> str:
        """The variable's stripped text (empty when unset)."""
        return environ.get(self.env, "").strip()

    def read(self, environ: Mapping[str, str] = os.environ) -> Any:
        """The variable's value, or the default when it is unset."""
        raw = self.raw(environ)
        if not raw:
            return self.default
        try:
            value = self.parse(raw)
        except (KeyError, ValueError) as exc:
            raise type(exc)(f"${self.env}={raw!r}: {exc.args[0]}") from None
        return self.default if value is None else value

    def resolve(
        self, explicit: Any, environ: Mapping[str, str] = os.environ
    ) -> Any:
        """The one rule: explicit value, else variable, else default."""
        return self.read(environ) if explicit is None else explicit

    def export(self) -> None:
        """Turn a switch on for this process and the workers it starts.

        A value that is already on is kept: it may carry a ledger path
        or a sampling interval.
        """
        if not self.read():
            os.environ[self.env] = "1"


# name, variable, parse, default, affects_results, flag, help
SEED = Knob("seed", "REPRO_SEED", int, 0, True, "--seed",
            "master seed of the fault samples and random patterns")
SCALE = Knob("scale", "REPRO_SCALE", str, "ci", False, "--scale",
             "fault-set sizing profile")
WORKERS = Knob("workers", "REPRO_WORKERS", int, 1, False, "--workers",
               "worker processes for fault campaigns (tiny circuits stay "
               "serial regardless)", metavar="N")
ENGINE = Knob("engine", "REPRO_ENGINE",
              _choice("campaign engine", CAMPAIGN_ENGINES), "dp", True,
              "--engine", "fault-campaign engine", choices=CAMPAIGN_ENGINES)
REORDER = Knob("reorder", "REPRO_REORDER", _switch, False, False, "--reorder",
               "dynamic OBDD variable reordering (Rudell sifting) in the DP "
               "engine; never changes results, only memory/runtime")
MODE = Knob("mode", "REPRO_MODE", _choice("campaign mode", CAMPAIGN_MODES),
            "exact", True, "--mode",
            "campaign mode: exact closed-form analysis or sampled "
            "Monte-Carlo estimation with confidence intervals",
            choices=CAMPAIGN_MODES)
CI_WIDTH = Knob("ci_width", "REPRO_CI_WIDTH", _ci_width, 0.05, True,
                "--ci-width", "sampled mode's target CI half-width per fault",
                metavar="W")
PATTERN_BUDGET = Knob("pattern_budget", "REPRO_PATTERN_BUDGET", _positive_int,
                      4096, True, "--budget",
                      "sampled mode's per-fault pattern budget", metavar="N")
CACHE = Knob("cache", "REPRO_CACHE", _switch, False, False, "--cache",
             "consult/record the content-addressed run ledger "
             "(results/ledger/) so identical re-runs are served without any "
             "fault simulation; a value other than 1/true/yes/on is the "
             "ledger directory")
RESOURCE = Knob("resource", "REPRO_RESOURCE", _switch, False, False,
                "--resource", "sample RSS and BDD-node time-series while "
                "campaigns run (series land in the per-experiment JSON "
                "manifests); a numeric value is the interval in seconds")
TRACE = Knob("trace", "REPRO_TRACE", _switch, False, False, "--trace",
             "record a span trace of the run, written as JSONL next to the "
             "other artifacts")
PROGRESS = Knob("progress", "REPRO_PROGRESS", _switch, False, False,
                "--progress", "live campaign heartbeats on stderr: faults "
                "done/total, throughput, ETA")
LOG = Knob("log", "REPRO_LOG", _log_level, "info", False, None,
           "level of the repro.* loggers on stderr (debug/info/warning)")

#: Every knob; the manifest lists set variables in this order.
KNOBS: tuple[Knob, ...] = (SEED, SCALE, WORKERS, ENGINE, REORDER, MODE,
                           CI_WIDTH, PATTERN_BUDGET, CACHE, RESOURCE, TRACE,
                           PROGRESS, LOG)

BY_NAME: dict[str, Knob] = {knob.name: knob for knob in KNOBS}


def _argument_type(parse: Callable[[str], Any]) -> Callable[[str], Any]:
    def convert(text: str) -> Any:
        try:
            return parse(text)
        except ValueError as exc:
            raise argparse.ArgumentTypeError(str(exc)) from None

    return convert


def add_flags(
    parser: argparse.ArgumentParser, *names: str, **choices: Any
) -> None:
    """Add the flag of each named knob to ``parser``.

    A switch becomes ``store_true`` (the same as setting its variable
    to 1); any other knob takes a value parsed like its variable, with
    ``None`` meaning "not given". ``choices`` overrides a row's choices
    by knob name (the scale profiles live above this module).
    """
    for name in names:
        knob = BY_NAME[name]
        if knob.is_switch:
            parser.add_argument(
                knob.flag,
                action="store_true",
                help=f"{knob.help} (same as {knob.env}=1)",
            )
            continue
        options = choices.get(name, knob.choices)
        parser.add_argument(
            knob.flag,
            dest=name,
            type=str if options else _argument_type(knob.parse),
            choices=options,
            default=None,
            metavar=knob.metavar,
            help=f"{knob.help} (default: ${knob.env} or {knob.default!r})",
        )


def given(args: argparse.Namespace, *names: str) -> dict[str, Any]:
    """The named knob flags set on the command line, by knob name."""
    values = {name: getattr(args, name) for name in names}
    return {
        name: value
        for name, value in values.items()
        if value is not None and value is not False
    }
