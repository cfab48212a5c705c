"""The JSON writer: ``json.dumps(payload, indent=2)``'s bytes, and the only one in ``src/``."""

from __future__ import annotations

import ast
import collections
import enum
import json
import math
from pathlib import Path

import numpy as np
import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

import spectral_scope
from spectral_scope.jsontext import dumps

SRC = Path(spectral_scope.__file__).resolve().parent

SCALARS = (
    st.none()
    | st.booleans()
    | st.integers()
    | st.floats()
    | st.sampled_from([-0.0, 1e16, 1e-320, math.nan, math.inf, -math.inf, 0.1])
    | st.text()
    | st.sampled_from(["", "ü", "日本", "\x00\n\t\"\\", "\U0001f600", "\ud800"])
)
PAYLOADS = st.recursive(
    SCALARS,
    lambda inner: st.lists(inner, max_size=4)
    | st.lists(inner, max_size=3).map(tuple)
    | st.dictionaries(st.text(max_size=5), inner, max_size=4),
    max_leaves=25,
)


@settings(max_examples=400, deadline=None)
@given(payload=PAYLOADS)
@example(payload={})
@example(payload=[])
@example(payload={"a": {}, "b": [], "c": [[], {}], "d": ()})
@example(payload=[-0.0, 1e16, math.nan, math.inf, -math.inf, 2**64, True, None])
@example(payload={"é": "ü", "k": ["日本", "\U0001f600"]})
def test_the_writer_gives_the_bytes_of_json_dumps_with_indent_2(payload):
    assert dumps(payload) == json.dumps(payload, indent=2)


class Label(str):
    pass


class Mode(enum.IntEnum):
    DT = 1


def test_subclasses_write_as_json_writes_them():
    pair = collections.namedtuple("pair", "re im")
    payload = collections.OrderedDict(
        x=np.float64(0.1),
        y=[np.float64(-np.inf), np.float64(np.nan), np.float64(1e16)],
        mode=Mode.DT,
        roots=[pair(1.0, -0.0)],
        label=Label("ü"),
    )
    payload[Label("key")] = {}
    assert dumps(payload) == json.dumps(payload, indent=2)


@pytest.mark.parametrize("payload", [
    np.int64(1), np.bool_(True), {1: 2}, {(1, 2): 3}, {None: 1}, {1.5: 0}, [set()], {"a": object()},
    np.array([1.0]), 1j,
])
def test_any_other_type_is_a_type_error(payload):
    with pytest.raises(TypeError):
        dumps(payload)


def indented_json_dumps(path: Path) -> list[int]:
    """Lines of ``path`` that call a ``dump``/``dumps`` with an ``indent`` keyword."""
    lines = []
    for node in ast.walk(ast.parse(path.read_text(), filename=str(path))):
        if isinstance(node, ast.Call) and any(k.arg == "indent" for k in node.keywords):
            func = node.func
            name = func.attr if isinstance(func, ast.Attribute) else getattr(func, "id", None)
            if name in ("dump", "dumps"):
                lines.append(node.lineno)
    return lines


def test_every_json_file_goes_through_the_one_writer():
    found = {p.name: indented_json_dumps(p) for p in sorted(SRC.rglob("*.py"))}
    assert found and all(not lines for lines in found.values()), found
    # and the guard sees the call it is there to catch
    assert indented_json_dumps(Path(__file__))
