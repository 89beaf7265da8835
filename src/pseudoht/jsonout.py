"""Indented JSON text, byte-identical to ``json.dumps(obj, indent=2)``.

With an ``indent`` the standard library encodes in pure Python, one small
chunk per token, which dominates the cost of writing a large algebra.  This
emitter writes the same text from larger pieces:

* a flat list of ints, or of strs, is one ``join``;
* :class:`Records` -- rows of ints under one key order, like the
  ``(i, j, k, sign)`` entries of an integral basis -- is one ``%d``
  template, repeated once per row and filled by a single ``%`` call, so a
  caller need not build a dict per row.

Everything else is written by the general recursive path, with scalars
encoded by the C encoder.  The input is a tree: a container that contains
itself is not detected.
"""

from __future__ import annotations

from itertools import chain
from json.encoder import JSONEncoder, encode_basestring_ascii
from typing import Optional, Sequence

_INDENT = "  "
# one JSON scalar (None, bool, int, float) in C; TypeError on anything else
_scalar = JSONEncoder().encode


class Records:
    """Rows of values written as a list of objects with the given keys.

    ``dumps`` writes ``Records(keys, rows)`` exactly as it writes
    ``[dict(zip(keys, row)) for row in rows]``.
    """

    __slots__ = ("keys", "rows")

    def __init__(self, keys: Sequence[str], rows: Sequence[tuple]):
        self.keys = tuple(keys)
        self.rows = rows
        if set(map(len, rows)) - {len(self.keys)}:
            raise ValueError("every row needs one value per key")


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
    if isinstance(obj, Records):
        return _records(obj.keys, obj.rows, level) or _list(
            [dict(zip(obj.keys, row)) for row in obj.rows], level)
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
    else:
        parts = (_encode(item, level + 1) for item in items)
    inner = _newline(level + 1)
    return "[" + inner + ("," + inner).join(parts) + _newline(level) + "]"


def _records(keys: tuple, rows: Sequence[tuple], level: int) -> Optional[str]:
    """rows as a list of objects with the str keys, from one template; None
    when there are no keys or a value is not an int (a bool is not)."""
    if not keys or set(map(type, chain.from_iterable(rows))) - {int}:
        return None
    if not rows:
        return "[]"
    field = _newline(level + 2)
    template = ("{" + field
                + ("," + field).join(encode_basestring_ascii(k).replace("%", "%%")
                                     + ": %d" for k in keys)
                + _newline(level + 1) + "}")
    inner = _newline(level + 1)
    # one % call over all rows, not one string per record: a string per
    # record leaves freed small-object memory behind and lifts peak RSS
    body = ("," + inner).join([template] * len(rows))
    return ("[" + inner + body % tuple(chain.from_iterable(rows))
            + _newline(level) + "]")
