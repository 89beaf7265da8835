"""Indented JSON text, byte-identical to ``json.dumps(obj, indent=2)``.

With an ``indent`` the standard library encodes in pure Python, one small
chunk per token, which dominates the cost of writing a large algebra.  This
emitter writes the same text from larger pieces:

* a flat list of ints, or of strs, is one ``join``;
* a list of equal-length int rows (tuples or lists), like the
  ``[i, j, k, sign]`` entries of an integral basis, is one ``%d``
  template, repeated once per row and filled by a single ``%`` call.

Everything else is written by the general recursive path, with scalars
encoded by the C encoder.  The input is a tree: a container that contains
itself is not detected.
"""

from __future__ import annotations

from itertools import chain
from json.encoder import JSONEncoder, encode_basestring_ascii
from typing import Optional

_INDENT = "  "
# one JSON scalar (None, bool, int, float) in C; TypeError on anything else
_scalar = JSONEncoder().encode


def dumps(obj) -> str:
    """The text of ``json.dumps(obj, indent=2)``, built faster."""
    return _encode(obj, 0)


def _newline(level: int) -> str:
    return "\n" + _INDENT * level


def _encode(obj, level: int) -> str:
    if isinstance(obj, str):
        return encode_basestring_ascii(obj)
    if isinstance(obj, (list, tuple)):
        return _list(obj, level)
    if isinstance(obj, dict):
        return _dict(obj, level)
    return _scalar(obj)


def _key(key) -> str:
    if isinstance(key, str):
        return encode_basestring_ascii(key)
    if isinstance(key, (int, float)) or key is None:   # bool is an int
        return encode_basestring_ascii(_scalar(key))
    raise TypeError(f"keys must be str, int, float, bool or None, "
                    f"not {key.__class__.__name__}")


def _dict(obj: dict, level: int) -> str:
    if not obj:
        return "{}"
    inner = _newline(level + 1)
    return ("{" + inner
            + ("," + inner).join(_key(k) + ": " + _encode(v, level + 1)
                                 for k, v in obj.items())
            + _newline(level) + "}")


def _list(items, level: int) -> str:
    if not items:
        return "[]"
    types = set(map(type, items))
    if types == {int}:
        parts = map(int.__repr__, items)
    elif types == {str}:
        parts = map(encode_basestring_ascii, items)
    elif types <= {list, tuple} and (rows := _int_rows(items, level)):
        return rows
    else:
        parts = (_encode(item, level + 1) for item in items)
    inner = _newline(level + 1)
    return "[" + inner + ("," + inner).join(parts) + _newline(level) + "]"


def _int_rows(rows, level: int) -> Optional[str]:
    """rows of one length holding only ints (no bool), from one template."""
    if (len(set(map(len, rows))) != 1
            or set(map(type, chain.from_iterable(rows))) - {int}):
        return None
    field = _newline(level + 2)
    cells = ("," + field).join(["%d"] * len(rows[0]))
    template = "[" + field + cells + _newline(level + 1) + "]" if cells else "[]"
    inner = _newline(level + 1)
    # one % call over all rows, not one string per row: a string per row
    # leaves freed small-object memory behind and lifts peak RSS
    body = ("," + inner).join([template] * len(rows))
    return ("[" + inner + body % tuple(chain.from_iterable(rows))
            + _newline(level) + "]")
