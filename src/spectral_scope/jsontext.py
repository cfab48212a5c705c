"""The package's one JSON writer: the bytes of ``json.dumps(payload, indent=2)``.

With ``indent`` set, CPython's ``json`` module gives up its C encoder for a
pure-Python one that goes through generators and an ``isinstance`` chain per
value. The files written here hold only dicts with string keys, lists,
tuples, strings, ints, bools, None and floats, so one recursion that
dispatches on the exact type writes the same text in about 0.6 of the time.
Subclasses of these types (numpy's ``float64`` is a ``float``) take json's
own order of checks. Any other type, such as ``numpy.int64``, and a key
that is not a string, is a ``TypeError``.
"""

from __future__ import annotations

from json.encoder import encode_basestring_ascii as _string

__all__ = ["dumps"]

_INF = float("inf")
_CONSTANTS = {None: "null", True: "true", False: "false"}


def _float(x: float) -> str:
    if x != x:
        return "NaN"
    if x == _INF:
        return "Infinity"
    if x == -_INF:
        return "-Infinity"
    return float.__repr__(x)


def _key(k) -> str:
    if isinstance(k, str):
        return _string(k)
    raise TypeError(f"keys must be str, not {type(k).__name__}")


def _encode(o, newline: str) -> str:
    """``o`` as JSON text whose nested lines start with ``newline`` and two more spaces."""
    t = type(o)
    if t is float:
        return float.__repr__(o) if -_INF < o < _INF else _float(o)
    if t is str:
        return _string(o)
    if t is dict:
        if not o:
            return "{}"
        inner = newline + "  "
        items = [_key(k) + ": " + _encode(v, inner) for k, v in o.items()]
        return "{" + inner + ("," + inner).join(items) + newline + "}"
    if t is list or t is tuple:
        if not o:
            return "[]"
        inner = newline + "  "
        items = [_encode(v, inner) for v in o]
        return "[" + inner + ("," + inner).join(items) + newline + "]"
    if o is None or o is True or o is False:
        return _CONSTANTS[o]
    if t is int:
        return int.__repr__(o)
    return _encode_subclass(o, newline)


def _encode_subclass(o, newline: str) -> str:
    # json's own order of checks, for subclasses such as numpy's float64
    if isinstance(o, str):
        return _string(o)
    if isinstance(o, int):
        return int.__repr__(o)
    if isinstance(o, float):
        return _float(o)
    if isinstance(o, (list, tuple)):
        return _encode(list(o), newline)
    if isinstance(o, dict):
        return _encode(dict(o.items()), newline)
    raise TypeError(f"Object of type {type(o).__name__} is not JSON serializable")


def dumps(payload) -> str:
    """``json.dumps(payload, indent=2)``, byte for byte, for the types above."""
    return _encode(payload, "\n")
