"""``json_safe`` output is pinned over a corpus of every value shape it
handles, so the exact-type fast path can never change an artifact."""

from __future__ import annotations

import enum
import json
from collections import OrderedDict
from dataclasses import dataclass, field
from fractions import Fraction
from types import MappingProxyType

import pytest

from repro.obs.encode import _MAX_DEPTH, json_safe


@dataclass(frozen=True)
class _Point:
    x: int
    ratio: Fraction
    tags: frozenset = frozenset()
    extra: dict = field(default_factory=dict)


class _Colour(enum.Enum):
    RED = "red"


class _Level(enum.IntEnum):
    HIGH = 3


class _Name(str):
    pass


class _Opaque:
    def __str__(self) -> str:
        return "<opaque>"


def _nested_list(depth: int) -> list:
    value: list = []
    for _ in range(depth):
        value = [value]
    return value


CORPUS = [
    (None, None),
    (True, True),
    (7, 7),
    (-3, -3),
    ("text", "text"),
    (_Name("sub"), _Name("sub")),  # str subclasses pass through
    (_Level.HIGH, _Level.HIGH),
    (1.5, 1.5),
    (float("nan"), "nan"),
    (float("inf"), "inf"),
    (float("-inf"), "-inf"),
    (Fraction(3, 4), "3/4"),
    (Fraction(0), "0"),
    (Fraction(5), "5"),
    ({3, 1, 2}, [1, 2, 3]),
    (frozenset({"b", "a"}), ["a", "b"]),
    ({10, 9}, [10, 9]),  # sorted by str, not by value
    ((1, (2, 3)), [1, [2, 3]]),
    ([Fraction(1, 2), None, float("nan")], ["1/2", None, "nan"]),
    ({"b": 1, 2: {"c": frozenset({1})}}, {"b": 1, "2": {"c": [1]}}),
    (OrderedDict([("z", 1), ("a", (2,))]), {"z": 1, "a": [2]}),
    (MappingProxyType({"k": Fraction(2, 3)}), {"k": "2/3"}),
    (
        _Point(1, Fraction(1, 3), frozenset({"t"}), {"n": float("inf")}),
        {"x": 1, "ratio": "1/3", "tags": ["t"], "extra": {"n": "inf"}},
    ),
    ({"p": [_Point(2, Fraction(1))]},
     {"p": [{"x": 2, "ratio": "1", "tags": [], "extra": {}}]}),
    (_Point, str(_Point)),  # a dataclass *type* is not an instance
    (_Colour.RED, "_Colour.RED"),
    (_Opaque(), "<opaque>"),
    (b"raw", "b'raw'"),
]


@pytest.mark.parametrize("value,expected", CORPUS, ids=range(len(CORPUS)))
def test_json_safe_corpus(value, expected):
    out = json_safe(value)
    assert out == expected
    assert type(out) is type(expected)
    json.dumps(out, allow_nan=False)  # always strictly serializable


def test_json_safe_preserves_key_order():
    assert list(json_safe({"b": 1, "a": 2, "c": 3})) == ["b", "a", "c"]


def _nested_dict(depth: int) -> dict:
    value: dict = {}
    for _ in range(depth):
        value = {"k": value}
    return value


@pytest.mark.parametrize(
    "build,step", [(_nested_list, lambda v: v[0]), (_nested_dict, lambda v: v["k"])]
)
def test_json_safe_depth_guard(build, step):
    # containers nested past the guard are stringified, not chased
    out = json_safe(build(_MAX_DEPTH + 2))
    for _ in range(_MAX_DEPTH):
        out = step(out)
    assert out == str(build(2))
    # scalars are never stringified, however deep
    assert json_safe(7, _MAX_DEPTH + 5) == 7
    assert json_safe(float("nan"), _MAX_DEPTH) == "nan"
    assert json_safe(Fraction(1, 2), _MAX_DEPTH) == str(Fraction(1, 2))
    assert json_safe((1,), _MAX_DEPTH) == "(1,)"
    assert json_safe({"a": 1}, _MAX_DEPTH) == "{'a': 1}"
