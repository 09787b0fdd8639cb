"""``json_text`` is ``json.dumps(obj, indent=1)``, byte for byte.

The renderer writes plain JSON values itself and hands everything else
to ``json.dumps``. Seeded objects mix what either side could get wrong:
nested and empty containers, tuples, strings that need escaping
(non-ASCII, astral characters, quotes, backslashes, control
characters), big and negative ints next to bools, the floats JSON
spells specially (-0.0, 1e300, NaN, ±inf), None, dicts with int,
float, bool and None keys, int-only lists and str-to-int dicts (the
joined fast path), an ``IntEnum``, a ``str`` subclass and an
``OrderedDict``. Values JSON cannot encode raise what ``json.dumps``
raises.
"""

import collections
import enum
import json

import numpy as np
import pytest

from repro.analyze import report
from repro.analyze.report import json_text


class Level(enum.IntEnum):
    LOW = 1
    HIGH = 2 ** 40


class Tag(str):
    pass


_CHARS = ["a", "Z", "0", " ", '"', "\\", "/", "\n", "\t", "\x00", "\x1f",
          "\x7f", "é", "ß", " ", "中", "\U0001f600", "\ud800"]
_FLOATS = [0.0, -0.0, 1.5, -2.25, 0.1, 1e300, -1e300, 1e-300, 5e-324,
           float("nan"), float("inf"), float("-inf"), 123456789.0]
_INTS = [0, 1, -1, 255, -256, 2 ** 31, 2 ** 63, -(2 ** 64), 10 ** 30]


def _string(rng) -> str:
    return "".join(rng.choice(_CHARS, size=int(rng.integers(0, 6))))


def _int(rng) -> int:
    if rng.random() < 0.5:
        return int(rng.integers(-1000, 1000))
    return _INTS[int(rng.integers(len(_INTS)))]


def _scalar(rng):
    pick = int(rng.integers(11))
    if pick == 0:
        return _string(rng)
    if pick in (1, 2):
        return _int(rng)
    if pick == 3:
        return _FLOATS[int(rng.integers(len(_FLOATS)))]
    if pick == 4:
        return float(rng.normal() * 10.0 ** rng.integers(-5, 6))
    if pick == 5:
        return bool(rng.integers(2))
    if pick == 6:
        return None
    if pick == 7:
        return Level.HIGH if rng.random() < 0.5 else Level.LOW
    if pick == 8:
        return Tag(_string(rng))
    if pick == 9:
        return [_int(rng) for _ in range(int(rng.integers(0, 6)))]
    return {str(_int(rng)): _int(rng) for _ in range(int(rng.integers(0, 6)))}


def _key(rng):
    pick = int(rng.integers(8))
    if pick < 4:
        return _string(rng)
    if pick == 4:
        return _int(rng)
    if pick == 5:
        return _FLOATS[int(rng.integers(len(_FLOATS)))]
    if pick == 6:
        return bool(rng.integers(2))
    return None


def _value(rng, depth: int):
    if depth >= 4 or rng.random() < 0.45:
        return _scalar(rng)
    size = int(rng.integers(0, 5))
    pick = int(rng.integers(6))
    if pick == 0:
        return [_value(rng, depth + 1) for _ in range(size)]
    if pick == 1:
        return tuple(_value(rng, depth + 1) for _ in range(size))
    if pick == 2:
        return collections.OrderedDict(
            (_string(rng), _value(rng, depth + 1)) for _ in range(size)
        )
    if pick == 3:
        return {_key(rng): _value(rng, depth + 1) for _ in range(size)}
    return {_string(rng): _value(rng, depth + 1) for _ in range(size)}


@pytest.mark.parametrize("block", range(20))
def test_seeded_objects_render_like_json_dumps(block):
    rng = np.random.default_rng([2024, block])
    for _ in range(100):
        obj = _value(rng, 0)
        assert json_text(obj) == json.dumps(obj, indent=1)


def test_placement_shaped_object():
    rng = np.random.default_rng(7)
    tasks = rng.permutation(5000).tolist()
    obj = {
        "machine": "SMP20E7",
        "threads": 5000,
        "cost": 1234.5,
        "placement": {
            "thread_to_pu": {str(t): int(rng.integers(160)) for t in tasks},
            "control_to_pu": {},
            "groups_per_level": [[[0, 1], [2, 3]], [[0, 1]]],
        },
    }
    assert json_text(obj) == json.dumps(obj, indent=1)


def test_plain_values_do_not_call_json_dumps(monkeypatch):
    shared = [7, 8]  # referenced twice, which is not circular
    obj = {"a": [1, 2.5, "x", None, True], "b": {"0": 3, "1": -4},
           "c": ((), {}, [[]]), "d": [shared, {"e": shared}]}
    want = json.dumps(obj, indent=1)

    def refuse(*args, **kwargs):
        raise AssertionError("json.dumps called for a plain value")

    monkeypatch.setattr(report.json, "dumps", refuse)
    assert json_text(obj) == want


def _circular_list():
    loop = [1, 2]
    loop.append(loop)
    return loop


def _circular_dict():
    loop = {"a": 1}
    loop["self"] = {"up": loop}
    return loop


@pytest.mark.parametrize("make", [
    lambda: np.int64(3),
    lambda: {"a": [1, np.int32(2)]},
    lambda: {1, 2},
    lambda: [{"k": {3}}],
    lambda: {(1, 2): 3},
    _circular_list,
    _circular_dict,
], ids=["numpy-scalar", "nested-numpy-scalar", "set", "nested-set",
        "tuple-key", "circular-list", "circular-dict"])
def test_unencodable_values_raise_like_json_dumps(make):
    with pytest.raises(Exception) as want:
        json.dumps(make(), indent=1)
    with pytest.raises(want.type) as got:
        json_text(make())
    assert str(got.value) == str(want.value)
