"""Best-effort conversion of repro values to JSON-serializable data.

The observability artifacts (span attributes, run manifests, the
``results/*.json`` experiment siblings, ``BENCH_*.json``) must be
parseable by anything — a plot script, a CI check, ``jq`` — so every
value that crosses into them is funnelled through :func:`json_safe`:
exact :class:`~fractions.Fraction`\\ s become ``"p/q"`` strings (never
lossy floats), dataclasses become plain dicts, sets become sorted
lists, and anything unrecognized falls back to ``str``.
"""

from __future__ import annotations

import dataclasses
from collections.abc import Mapping
from fractions import Fraction
from typing import Any

#: Recursion guard: artifacts are shallow; anything deeper is a cycle
#: or an accident, and gets stringified rather than chased.
_MAX_DEPTH = 12


def json_safe(value: Any, _depth: int = 0) -> Any:
    """Reduce ``value`` to something ``json.dumps`` accepts losslessly."""
    # Exact built-in types first: they are almost every value, and the
    # dataclass/ABC checks below cost far more than an identity test.
    cls = type(value)
    if cls is str or cls is int or cls is bool or value is None:
        return value
    if cls is dict:
        if _depth >= _MAX_DEPTH:
            return str(value)
        return {str(k): json_safe(v, _depth + 1) for k, v in value.items()}
    if cls is list or cls is tuple:
        if _depth >= _MAX_DEPTH:
            return str(value)
        return [json_safe(v, _depth + 1) for v in value]
    if isinstance(value, (bool, int, str)):
        return value
    if isinstance(value, float):
        # json.dumps rejects NaN/inf under allow_nan=False; stringify.
        if value != value or value in (float("inf"), float("-inf")):
            return str(value)
        return value
    if _depth >= _MAX_DEPTH:
        return str(value)
    if isinstance(value, Fraction):
        return str(value)  # exact "p/q", reparseable via Fraction(s)
    if dataclasses.is_dataclass(value) and not isinstance(value, type):
        return {
            f.name: json_safe(getattr(value, f.name), _depth + 1)
            for f in dataclasses.fields(value)
        }
    if isinstance(value, Mapping):
        return {
            str(k): json_safe(v, _depth + 1) for k, v in value.items()
        }
    if isinstance(value, (set, frozenset)):
        return [json_safe(v, _depth + 1) for v in sorted(value, key=str)]
    if isinstance(value, (list, tuple)):
        return [json_safe(v, _depth + 1) for v in value]
    return str(value)
