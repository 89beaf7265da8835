"""Hardcoded base algebras, their table renderer, the Bott steps, and
minimal module dimensions.

The catalog is the fourteen signatures whose commutator tables are
published; the constructible ones (1,472 with r, s <= 64) are these
extended by Bott steps, ExtensionStep, along the one reduction search that
standard_chain and min_module_dim read with different seeds.  Each table
below is a literal transcription, row by row, in its own display order.  A
checksum locks every transcription against accidental edits, and the axiom
verifiers independently cross-check them (a single wrong sign breaks the
Clifford or composition identities).
"""

from __future__ import annotations

import contextlib
import contextvars
import functools
import hashlib
import io
import threading
from collections import OrderedDict
from enum import Enum
from typing import Callable, Iterator, NamedTuple, Optional, Sequence

from .algebra import (
    MAX_CENTER_DIM,  # the budgets keep their documented catalog names
    MAX_MODULE_DIM,
    BaseProvenance,
    ExtensionProvenance,
    PseudoHTypeAlgebra,
    StructureTensor,
    SumProvenance,
    require_center_budget,
)
from .core import Signature

BaseTableId = tuple[int, int]


class UnsupportedSignatureError(ValueError):
    def __init__(self, r: int, s: int, what: str = "base table"):
        ids = ", ".join(f"({a},{b})" for a, b in BASE_IDS)
        super().__init__(
            f"no {what} for signature ({r},{s}); catalog covers: {ids}")
        self.signature = (r, s)


# --- commutator tables ------------------------------------------------------
# Cell syntax: "." for zero, else [-]Z<k>.  Rows/columns follow DISPLAY order.

_T_1 = """
.    Z1
-Z1  .
"""

_T_2 = """
.    .    Z1   Z2
.    .   -Z2   Z1
-Z1  Z2   .    .
-Z2 -Z1   .    .
"""

_T_40 = """
.    .    .    .    Z1   Z2   Z3   Z4
.    .    .    .    Z2  -Z1  -Z4   Z3
.    .    .    .    Z3   Z4  -Z1  -Z2
.    .    .    .    Z4  -Z3   Z2  -Z1
-Z1 -Z2  -Z3  -Z4   .    .    .    .
-Z2  Z1  -Z4   Z3   .    .    .    .
-Z3  Z4   Z1  -Z2   .    .    .    .
-Z4 -Z3   Z2   Z1   .    .    .    .
"""

_T_04 = """
.    .    .    .    Z1   Z2   Z3   Z4
.    .    .    .   -Z2   Z1   Z4  -Z3
.    .    .    .   -Z3  -Z4   Z1   Z2
.    .    .    .   -Z4   Z3  -Z2   Z1
-Z1  Z2   Z3   Z4   .    .    .    .
-Z2 -Z1   Z4  -Z3   .    .    .    .
-Z3 -Z4  -Z1   Z2   .    .    .    .
-Z4  Z3  -Z2  -Z1   .    .    .    .
"""

_T_11 = """
.    .    Z1   Z2
.    .   -Z2  -Z1
-Z1  Z2   .    .
-Z2  Z1   .    .
"""

_T_22 = """
.    .    .    .    Z1   Z2   Z3   Z4
.    .    .    .    Z2  -Z1   Z4  -Z3
.    .    .    .    Z3  -Z4   Z1  -Z2
.    .    .    .    Z4   Z3   Z2   Z1
-Z1 -Z2  -Z3  -Z4   .    .    .    .
-Z2  Z1   Z4  -Z3   .    .    .    .
-Z3 -Z4  -Z1  -Z2   .    .    .    .
-Z4  Z3   Z2  -Z1   .    .    .    .
"""

_T_32 = """
.   -Z0   .    .    Z1   Z2   Z3   Z4
Z0   .    .    .    Z2  -Z1   Z4  -Z3
.    .    .   -Z0   Z3  -Z4   Z1  -Z2
.    .    Z0   .    Z4   Z3   Z2   Z1
-Z1 -Z2  -Z3  -Z4   .   -Z0   .    .
-Z2  Z1   Z4  -Z3   Z0   .    .    .
-Z3 -Z4  -Z1  -Z2   .    .    .    Z0
-Z4  Z3   Z2  -Z1   .    .   -Z0   .
"""

_T_23 = """
.    .    .    Z5   Z1   Z2   Z3   Z4
.    .   -Z5   .    Z2  -Z1   Z4  -Z3
.    Z5   .    .    Z3  -Z4   Z1  -Z2
-Z5  .    .    .    Z4   Z3   Z2   Z1
-Z1 -Z2  -Z3  -Z4   .    .    .    Z5
-Z2  Z1   Z4  -Z3   .    .    Z5   .
-Z3 -Z4  -Z1  -Z2   .   -Z5   .    .
-Z4  Z3   Z2  -Z1  -Z5   .    .    .
"""

_T_33 = """
.    Z1   .    Z6   Z2   Z3   Z4   Z5
-Z1  .   -Z6   .   -Z3   Z2  -Z5   Z4
.    Z6   .    Z1   Z5   Z4   Z3   Z2
-Z6  .   -Z1   .    Z4  -Z5   Z2  -Z3
-Z2  Z3  -Z5  -Z4   .   -Z1   Z6   .
-Z3 -Z2  -Z4   Z5   Z1   .    .   -Z6
-Z4  Z5  -Z3  -Z2  -Z6   .    .    Z1
-Z5 -Z4  -Z2   Z3   .    Z6  -Z1   .
"""

_T_80 = """
.   .   .   .   .   .   .   .    Z1   Z2   Z3   Z4   Z5   Z6   Z7   Z8
.   .   .   .   .   .   .   .    Z2  -Z1  -Z4   Z3  -Z6   Z5  -Z8   Z7
.   .   .   .   .   .   .   .    Z3   Z4  -Z1  -Z2   Z8   Z7  -Z6  -Z5
.   .   .   .   .   .   .   .    Z4  -Z3   Z2  -Z1   Z7  -Z8  -Z5   Z6
.   .   .   .   .   .   .   .    Z5   Z6  -Z8  -Z7  -Z1  -Z2   Z4   Z3
.   .   .   .   .   .   .   .    Z6  -Z5  -Z7   Z8   Z2  -Z1   Z3  -Z4
.   .   .   .   .   .   .   .    Z7   Z8   Z6   Z5  -Z4  -Z3  -Z1  -Z2
.   .   .   .   .   .   .   .    Z8  -Z7   Z5  -Z6  -Z3   Z4   Z2  -Z1
-Z1 -Z2 -Z3 -Z4 -Z5 -Z6 -Z7 -Z8  .    .    .    .    .    .    .    .
-Z2  Z1 -Z4  Z3 -Z6  Z5 -Z8  Z7  .    .    .    .    .    .    .    .
-Z3  Z4  Z1 -Z2  Z8  Z7 -Z6 -Z5  .    .    .    .    .    .    .    .
-Z4 -Z3  Z2  Z1  Z7 -Z8 -Z5  Z6  .    .    .    .    .    .    .    .
-Z5  Z6 -Z8 -Z7  Z1 -Z2  Z4  Z3  .    .    .    .    .    .    .    .
-Z6 -Z5 -Z7  Z8  Z2  Z1  Z3 -Z4  .    .    .    .    .    .    .    .
-Z7  Z8  Z6  Z5 -Z4 -Z3  Z1 -Z2  .    .    .    .    .    .    .    .
-Z8 -Z7  Z5 -Z6 -Z3  Z4  Z2  Z1  .    .    .    .    .    .    .    .
"""

_T_08 = """
.   .   .   .   .   .   .   .    Z1   Z2   Z3   Z4   Z5   Z6   Z7   Z8
.   .   .   .   .   .   .   .   -Z2   Z1   Z4  -Z3   Z6  -Z5   Z8  -Z7
.   .   .   .   .   .   .   .   -Z3  -Z4   Z1   Z2  -Z8  -Z7   Z6   Z5
.   .   .   .   .   .   .   .   -Z4   Z3  -Z2   Z1  -Z7   Z8   Z5  -Z6
.   .   .   .   .   .   .   .   -Z5  -Z6   Z8   Z7   Z1   Z2  -Z4  -Z3
.   .   .   .   .   .   .   .   -Z6   Z5   Z7  -Z8  -Z2   Z1  -Z3   Z4
.   .   .   .   .   .   .   .   -Z7  -Z8  -Z6  -Z5   Z4   Z3   Z1   Z2
.   .   .   .   .   .   .   .   -Z8   Z7  -Z5   Z6   Z3  -Z4  -Z2   Z1
-Z1  Z2  Z3  Z4  Z5  Z6  Z7  Z8  .    .    .    .    .    .    .    .
-Z2 -Z1  Z4 -Z3  Z6 -Z5  Z8 -Z7  .    .    .    .    .    .    .    .
-Z3 -Z4 -Z1  Z2 -Z8 -Z7  Z6  Z5  .    .    .    .    .    .    .    .
-Z4  Z3 -Z2 -Z1 -Z7  Z8  Z5 -Z6  .    .    .    .    .    .    .    .
-Z5 -Z6  Z8  Z7 -Z1  Z2 -Z4 -Z3  .    .    .    .    .    .    .    .
-Z6  Z5  Z7 -Z8 -Z2 -Z1 -Z3  Z4  .    .    .    .    .    .    .    .
-Z7 -Z8 -Z6 -Z5  Z4  Z3 -Z1  Z2  .    .    .    .    .    .    .    .
-Z8  Z7 -Z5  Z6  Z3 -Z4 -Z2 -Z1  .    .    .    .    .    .    .    .
"""

_T_44 = """
.   .   .   .   .   .   .   .    Z1   Z2   Z3   Z4   Z5   Z6   Z7   Z8
.   .   .   .   .   .   .   .    Z2  -Z1  -Z4   Z3   Z6  -Z5   Z8  -Z7
.   .   .   .   .   .   .   .    Z3   Z4  -Z1  -Z2   Z8   Z7  -Z6  -Z5
.   .   .   .   .   .   .   .    Z4  -Z3   Z2  -Z1  -Z7   Z8   Z5  -Z6
.   .   .   .   .   .   .   .    Z5  -Z6  -Z8   Z7   Z1  -Z2   Z4  -Z3
.   .   .   .   .   .   .   .    Z6   Z5  -Z7  -Z8   Z2   Z1  -Z3  -Z4
.   .   .   .   .   .   .   .    Z7  -Z8   Z6  -Z5  -Z4   Z3   Z1  -Z2
.   .   .   .   .   .   .   .    Z8   Z7   Z5   Z6   Z3   Z4   Z2   Z1
-Z1 -Z2 -Z3 -Z4 -Z5 -Z6 -Z7 -Z8  .    .    .    .    .    .    .    .
-Z2  Z1 -Z4  Z3  Z6 -Z5  Z8 -Z7  .    .    .    .    .    .    .    .
-Z3  Z4  Z1 -Z2  Z8  Z7 -Z6 -Z5  .    .    .    .    .    .    .    .
-Z4 -Z3  Z2  Z1 -Z7  Z8  Z5 -Z6  .    .    .    .    .    .    .    .
-Z5 -Z6 -Z8  Z7 -Z1 -Z2  Z4 -Z3  .    .    .    .    .    .    .    .
-Z6  Z5 -Z7 -Z8  Z2 -Z1 -Z3 -Z4  .    .    .    .    .    .    .    .
-Z7 -Z8  Z6 -Z5 -Z4  Z3 -Z1 -Z2  .    .    .    .    .    .    .    .
-Z8  Z7  Z5  Z6  Z3  Z4  Z2 -Z1  .    .    .    .    .    .    .    .
"""


class TableLayout(NamedTuple):
    """Presentation data for one catalog entry."""

    display_order: tuple[int, ...]  # table row/column order in basis indices
    module_symbol: str
    module_tilde: bool
    center_tilde: bool
    center_offset: int         # first center label index (Z0... for (3,2))


def _parse_table(text: str, display_order: Sequence[int], dim_center: int,
                 center_offset: int) -> list[tuple[int, int, int, int]]:
    rows = [line.split() for line in text.strip().splitlines()]
    n = len(display_order)
    assert len(rows) == n and all(len(r) == n for r in rows), "ragged table"
    entries = []
    for rpos, row in enumerate(rows):
        for cpos, cell in enumerate(row):
            if cell == ".":
                continue
            sign = 1
            if cell.startswith("-"):
                sign = -1
                cell = cell[1:]
            assert cell.startswith("Z")
            k = int(cell[1:]) - center_offset + 1
            assert 1 <= k <= dim_center, f"bad center label in cell {cell}"
            i = display_order[rpos]
            j = display_order[cpos]
            if i < j:
                entries.append((i, j, k, sign))
    return entries


# (table text, display order, module metric, layout)
_natural8 = tuple(range(1, 9))
_natural16 = tuple(range(1, 17))

_CATALOG_SPECS: dict[BaseTableId, dict] = {
    (1, 0): dict(text=_T_1, order=(1, 2), metric=(1, 1)),
    (0, 1): dict(text=_T_1, order=(1, 2), metric=(1, -1), tilde=True),
    (2, 0): dict(text=_T_2, order=(1, 2, 3, 4), metric=(1,) * 4),
    (0, 2): dict(text=_T_2, order=(1, 2, 3, 4), metric=(1, 1, -1, -1),
                 tilde=True),
    (4, 0): dict(text=_T_40, order=_natural8, metric=(1,) * 8),
    (0, 4): dict(text=_T_04, order=_natural8, metric=(1,) * 4 + (-1,) * 4,
                 tilde=True),
    (8, 0): dict(text=_T_80, order=_natural16, metric=(1,) * 16,
                 module_symbol="u"),
    (0, 8): dict(text=_T_08, order=_natural16, metric=(1,) * 8 + (-1,) * 8,
                 module_symbol="v", center_tilde=True),
    (1, 1): dict(text=_T_11, order=(1, 4, 2, 3), metric=(1, 1, -1, -1)),
    (2, 2): dict(text=_T_22, order=(1, 4, 7, 8, 2, 3, 5, 6),
                 metric=(1,) * 4 + (-1,) * 4),
    (3, 2): dict(text=_T_32, order=(1, 4, 7, 8, 2, 3, 5, 6),
                 metric=(1,) * 4 + (-1,) * 4, center_offset=0),
    (2, 3): dict(text=_T_23, order=(1, 4, 7, 8, 2, 3, 5, 6),
                 metric=(1,) * 4 + (-1,) * 4),
    (3, 3): dict(text=_T_33, order=(1, 2, 5, 6, 3, 4, 7, 8),
                 metric=(1,) * 4 + (-1,) * 4),
    (4, 4): dict(text=_T_44,
                 order=(1, 6, 7, 8, 13, 14, 15, 16, 2, 3, 4, 5, 9, 10, 11, 12),
                 metric=(1,) * 8 + (-1,) * 8, module_symbol="y"),
}

BASE_IDS: tuple[BaseTableId, ...] = tuple(_CATALOG_SPECS)

# sha256 of the canonical entry list, locking each transcription.
_CHECKSUMS = {
    (1, 0): "553d414a0348c6fb9eef09b88559d1c128eecfb1cd410ddcd45e6c2dbd669084",
    (0, 1): "553d414a0348c6fb9eef09b88559d1c128eecfb1cd410ddcd45e6c2dbd669084",
    (2, 0): "2e4a622fe9e7eafe57a1706e2c57816d6599102761f355c6ed9b41760cb0fa9e",
    (0, 2): "2e4a622fe9e7eafe57a1706e2c57816d6599102761f355c6ed9b41760cb0fa9e",
    (4, 0): "d73e9b3cfd2600f20eb9a60ab6aed9784fdeb48474d94440bc841c8781794133",
    (0, 4): "7460c3cad9c449ce0e01b50ffa53cd93a97604bd2d29497b9cc6a10fc820837f",
    (8, 0): "52d881bddd2389a850c40e8bc2d0187c224b817653c8921ac771a4af8626b368",
    (0, 8): "a9b391c98f97978e3e60d2450ef9472ab2414e4e6d19a7d99dc281c9025e2fe1",
    (1, 1): "8e482b901647b3e85047153967de7df104c6d7b1791ebf8b34889bb1a6848f9c",
    (2, 2): "b32c13dfa51bdd59d791e0e726a933e9a83e20d8a017800ee2081a308a0bb2d6",
    (3, 2): "75127f30f0d438cd6abbee79152a1f59da705e71c193317df4c10fe54928aedc",
    (2, 3): "718521546bcd64ae99850cb9f722125d327fe1269135742e9735bc9d355f9954",
    (3, 3): "472c6952277d30178bf79e040c7b87bfbe893daac8b9240fa83896302847df44",
    (4, 4): "44225ee17d56de6a17e66be6f3a49806bebd62c588288d96920557869558f965",
}


def _spec(table_id: BaseTableId) -> dict:
    """The catalog entry of table_id.  An id that is no pair is a plain
    ValueError; only int pairs are looked up, so that (1.0, 0) or
    (True, 0) can never be read as (1, 0)."""
    if type(table_id) is not tuple or len(table_id) != 2:
        raise ValueError(f"a catalog id is a pair (r, s); got {table_id!r}")
    if table_id not in _CATALOG_SPECS or set(map(type, table_id)) != {int}:
        raise UnsupportedSignatureError(*table_id)
    return _CATALOG_SPECS[table_id]


def table_layout(table_id: BaseTableId) -> TableLayout:
    entry = _spec(table_id)
    tilde = entry.get("tilde", False)
    return TableLayout(
        display_order=tuple(entry["order"]),
        module_symbol=entry.get("module_symbol", "w"),
        module_tilde=tilde,
        center_tilde=tilde or entry.get("center_tilde", False),
        center_offset=entry.get("center_offset", 1),
    )


def render_table(a: PseudoHTypeAlgebra, fmt: str = "md") -> str:
    """Commutator table regenerated from the structure tensor, in the
    catalog's table layout for a base algebra and in basis order otherwise:
    each entry fills its two cells, and every other cell is 0."""
    if isinstance(a.provenance, BaseProvenance) and (a.r, a.s) in BASE_IDS:
        order = table_layout((a.r, a.s)).display_order
    else:
        order = range(1, a.dim_module + 1)
    module, center = basis_labels(a)
    pos = {i: p for p, i in enumerate(order)}  # basis index -> table position
    rows = [[module[i - 1]] + ["0"] * len(order) for i in order]
    for (i, j, k, s) in a.tensor.entries:
        label = center[k - 1]
        for x, y, sign in ((i, j, s), (j, i, -s)):
            rows[pos[x]][pos[y] + 1] = ("-" if sign < 0 else "") + label
    header = ["[r,c]"] + [module[i - 1] for i in order]
    if fmt == "md":
        lines = ["| " + " | ".join(header) + " |",
                 "|" + "|".join([" --- "] * len(header)) + "|"]
        lines += ["| " + " | ".join(row) + " |" for row in rows]
        return "\n".join(lines) + "\n"
    if fmt == "csv":
        import csv  # imported here, by its one user, not by every command
        buf = io.StringIO()
        csv.writer(buf, lineterminator="\n").writerows([header] + rows)
        return buf.getvalue()
    raise ValueError(f"unknown table format {fmt!r}")


def _labels(table_id: BaseTableId, n: int, dim_center: int
            ) -> tuple[tuple[str, ...], tuple[str, ...]]:
    lay = table_layout(table_id)
    mt = "~" if lay.module_tilde else ""
    ct = "~" if lay.center_tilde else ""
    module = tuple(f"{lay.module_symbol}{i}{mt}" for i in range(1, n + 1))
    center = tuple(f"Z{k + lay.center_offset - 1}{ct}"
                   for k in range(1, dim_center + 1))
    return module, center


def basis_labels(a: PseudoHTypeAlgebra
                 ) -> tuple[tuple[str, ...], tuple[str, ...]]:
    """The names of a's module and center basis vectors, read off its
    provenance each time they are asked for and never kept:

    - a catalog base, or the aligned (0,8) factor, by its table's layout;
    - an extension w_i (x) u_j as "w_i*u_j" in final order, u_j named by
      the layout of the step's (p, q) table, its center as Z1..Zn;
    - a direct sum's copy b of x as "x.b", x and the center named by the
      base table's layout;
    - any other algebra as v1..vn and Z1..Zm.
    """
    prov = a.provenance
    if isinstance(prov, BaseProvenance) and (prov.r, prov.s) in _CATALOG_SPECS:
        return _labels((prov.r, prov.s), a.dim_module, a.dim_center)
    if isinstance(prov, SumProvenance):
        copies = prov.mu + prov.nu
        module, center = _labels((prov.base_r, prov.base_s),
                                 a.dim_module // copies, a.dim_center)
        return (tuple(f"{x}.{b}" for b in range(1, copies + 1) for x in module),
                center)
    center = tuple(f"Z{k}" for k in range(1, a.dim_center + 1))
    if isinstance(prov, ExtensionProvenance):
        parent, _ = basis_labels(prov.parent)
        p, q = map(int, prov.step.split(","))
        factor, _ = _labels((p, q), 16, p + q)
        module = [""] * a.dim_module
        for f, pos in enumerate(prov.pair_to_final):
            module[pos - 1] = f"{parent[f // 16]}*{factor[f % 16]}"
        return tuple(module), center
    return tuple(f"v{i}" for i in range(1, a.dim_module + 1)), center


def base_table_entries(table_id: BaseTableId) -> list[tuple[int, int, int, int]]:
    _spec(table_id)
    return list(_verified_entries(table_id, _CHECKSUMS[table_id]))


@functools.cache
def _verified_entries(table_id: BaseTableId, expected: str
                      ) -> tuple[tuple[int, int, int, int], ...]:
    """The parsed table, checked against the digest it is cached under: a
    different expected digest is a different key, so it is checked anew."""
    entry = _CATALOG_SPECS[table_id]
    dim_center = table_id[0] + table_id[1]
    entries = _parse_table(entry["text"], entry["order"], dim_center,
                           entry.get("center_offset", 1))
    digest = hashlib.sha256(repr(sorted(entries)).encode()).hexdigest()
    if expected and digest != expected:
        raise RuntimeError(
            f"transcription checksum mismatch for {table_id}: {digest}")
    return tuple(entries)


def base_algebra(r: int, s: int) -> PseudoHTypeAlgebra:
    """The catalog algebra of a published commutator table, shared through
    the algebra cache: every call in a process may return the same object.
    Only int ids are looked up, so that (1.0, 0) can never be stored under
    (1, 0)."""
    _spec((r, s))
    return _CACHE.get().get(((r, s), ()), lambda: _build_base(r, s))


def _build_base(r: int, s: int) -> PseudoHTypeAlgebra:
    """A new catalog algebra, built from its table and never shared."""
    metric = tuple(_CATALOG_SPECS[(r, s)]["metric"])
    return PseudoHTypeAlgebra(
        center_sig=Signature(r, s),
        module_signs=metric,
        tensor=StructureTensor(len(metric), r + s, base_table_entries((r, s))),
        provenance=BaseProvenance(r, s),
    )


def table_text(table_id: BaseTableId) -> str:
    """The stored transcription of a published commutator table."""
    return _spec(table_id)["text"]


def aligned_factor_0_8() -> PseudoHTypeAlgebra:
    """The (0,8) algebra in the sign-adjusted basis shared with (8,0).

    Flipping v_2..v_8 makes the (0,8) structure constants literally equal to
    the (8,0) ones; the extension machinery and the recursive isomorphisms
    are all stated in this aligned basis.  It is shared like a step of
    base_algebra(8, 0), whose tensor it reads.
    """
    eight = base_algebra(8, 0)
    return shared_step(eight, "aligned 0,8", lambda: PseudoHTypeAlgebra(
        center_sig=Signature(0, 8),
        module_signs=_spec((0, 8))["metric"],
        tensor=eight.tensor,
        provenance=BaseProvenance(0, 8),
    ))


# --- the algebra cache -------------------------------------------------------

# How a catalog-rooted algebra was built: its base table id, then the
# steps applied to it in order, each an extension step ("8,0", "0,8" or
# "4,4"), a direct sum of mu + nu copies ("sum mu,nu") or, on (8,0) alone,
# the aligned (0,8) factor ("aligned 0,8").
CatalogKey = tuple[BaseTableId, tuple[str, ...]]

# Total module dimension the per-process algebra cache holds.  An algebra
# above an eighth of it is built but never kept, so that one large request
# cannot flush the small algebras that the requests around it share.  The
# algebras verify-paper's axiom suite checks add up to 6,000 (the 14 bases,
# 112; their 42 single steps, 5,376; n_(9,8), 512) and the ten direct sums
# of criteria 6 and 7 to 100 more, so 8,192 keeps all of them with their
# tables and axiom verdicts, and its cap of 1,024 admits the dim-512
# algebras of the ISO questions n_(9,8) <-> n_(8,9).
ALGEBRA_CACHE_DIM = 8192


class AlgebraCache:
    """Catalog-rooted algebras by catalog key, with the least recently used
    evicted first once their module dimensions add up past the budget.

    A key names how an algebra was built, never what it records: provenance
    records compare through every parent algebra, and the aligned (0,8)
    factor carries BaseProvenance(0, 8) without being base_algebra(0, 8).
    An algebra not built under a key (parsed, made by hand, or summed or
    extended from such an algebra) has no key and is never stored.
    Sharing is safe because algebras are frozen and each derived table is
    set once from the fields.
    """

    def __init__(self, budget: int = ALGEBRA_CACHE_DIM):
        self.budget = budget
        self.cap = budget // 8
        self.total = 0
        self._algebras: OrderedDict[CatalogKey, PseudoHTypeAlgebra] = \
            OrderedDict()
        # id() of each stored algebra; a stored algebra is alive, so no
        # other object can have its id
        self._keys: dict[int, CatalogKey] = {}
        self._lock = threading.Lock()

    def key_of(self, a: PseudoHTypeAlgebra) -> Optional[CatalogKey]:
        """The key a is stored under, or None if a is not stored."""
        with self._lock:
            return self._keys.get(id(a))

    def get(self, key: CatalogKey,
            build: Callable[[], PseudoHTypeAlgebra]) -> PseudoHTypeAlgebra:
        """The algebra stored under key, else build() stored under it.

        build runs outside the lock, since it may read the cache itself;
        two threads that both miss build equal algebras, and the first one
        stored is the one both return.
        """
        with self._lock:
            a = self._hit(key)
        return a if a is not None else self._store(key, build())

    def get_step(self, parent: PseudoHTypeAlgebra, step: str,
                 build: Callable[[], PseudoHTypeAlgebra]
                 ) -> PseudoHTypeAlgebra:
        """get(parent's key plus step, build) when parent is stored, else
        build(), with the parent's key and the child read under one
        acquisition of the lock."""
        a = None
        with self._lock:
            key = self._keys.get(id(parent))
            if key is not None:
                key = (key[0], key[1] + (step,))
                a = self._hit(key)
        if a is not None:
            return a
        return build() if key is None else self._store(key, build())

    def _hit(self, key: CatalogKey) -> Optional[PseudoHTypeAlgebra]:
        """The algebra stored under key, made the most recently used, or
        None; the caller holds the lock."""
        a = self._algebras.get(key)
        if a is not None:
            self._algebras.move_to_end(key)
        return a

    def _store(self, key: CatalogKey,
               a: PseudoHTypeAlgebra) -> PseudoHTypeAlgebra:
        """a stored under key unless it is above the cap or another thread
        stored an algebra there first, then the stored one (or a)."""
        if a.dim_module > self.cap:
            return a
        with self._lock:
            kept = self._algebras.setdefault(key, a)
            if kept is a:
                self._keys[id(a)] = key
                self.total += a.dim_module
                while self.total > self.budget:
                    _key, old = self._algebras.popitem(last=False)
                    del self._keys[id(old)]
                    self.total -= old.dim_module
        return kept


# The current context's cache; a new thread starts in the process cache.
_CACHE: contextvars.ContextVar[AlgebraCache] = contextvars.ContextVar(
    "algebra_cache", default=AlgebraCache())


@contextlib.contextmanager
def scope(budget: int = ALGEBRA_CACHE_DIM) -> Iterator[AlgebraCache]:
    """A fresh cache of the given budget in place of the current one for
    the body, which it is yielded to; the current one is back on exit."""
    token = _CACHE.set(AlgebraCache(budget))
    try:
        yield _CACHE.get()
    finally:
        _CACHE.reset(token)


def shared_step(parent: PseudoHTypeAlgebra, step: str,
                build: Callable[[], PseudoHTypeAlgebra]) -> PseudoHTypeAlgebra:
    """build(), the algebra made from parent by step: shared under the
    parent's catalog key plus step when the parent is stored (see
    AlgebraCache.get_step), and built anew for any other parent."""
    return _CACHE.get().get_step(parent, step, build)


def catalog_key(a: PseudoHTypeAlgebra) -> Optional[CatalogKey]:
    """The catalog key of a shared algebra, or None for any other."""
    return _CACHE.get().key_of(a)


# --- the Bott steps and the one reduction -----------------------------------


class ExtensionStep(Enum):
    """n_(r,s) -> n_(r+8,s), n_(r,s+8) or n_(r+4,s+4), a Bott step."""

    BY_8_0 = "8,0"
    BY_0_8 = "0,8"
    BY_4_4 = "4,4"

    @staticmethod
    def parse(text: str) -> "ExtensionStep":
        t = text.strip().replace(" ", "")
        for step in ExtensionStep:
            if t == step.value or t == step.value.replace(",", ""):
                return step
        raise ValueError(f"unknown extension step {text!r}; "
                         f"expected one of 8,0 0,8 4,4")

    def __init__(self, value: str) -> None:
        p, q = value.split(",")
        # the signature (dr, ds) the step adds, parsed once per member
        self.delta = (int(p), int(q))


# Seeded only from stated or exhibited values: the printed bases for the
# catalog ids, and the dimension counts used by the non-isomorphism argument
# for the remaining definite signatures.
_BASE_DIMS: dict[BaseTableId, int] = {
    (0, 0): 1,
    (1, 0): 2, (2, 0): 4, (3, 0): 4, (4, 0): 8,
    (5, 0): 8, (6, 0): 8, (7, 0): 8, (8, 0): 16,
    (0, 1): 2, (0, 2): 4, (0, 3): 8, (0, 4): 8,
    (0, 5): 16, (0, 6): 16, (0, 7): 16, (0, 8): 16,
    (1, 1): 4, (2, 2): 8, (3, 2): 8, (2, 3): 8, (3, 3): 8, (4, 4): 16,
}
_DIM_SEEDS = frozenset(_BASE_DIMS)


@functools.lru_cache(maxsize=4096, typed=True)
def _reduce(r: int, s: int, seeds
            ) -> Optional[tuple[BaseTableId, tuple[ExtensionStep, ...]]]:
    """The seed (r, s) reduces to and the steps from it back up, or None.
    Peels the last step in ExtensionStep order, (8,0) first, memoizing dead
    ends too.  A non-int or over-budget (r, s) raises a plain ValueError
    first; typed keys keep (1.0, 0) off the entry of (1, 0)."""
    if type(r) is not int or type(s) is not int:
        raise ValueError(f"signature counts must be ints; got ({r!r}, {s!r})")
    require_center_budget(r, s)
    if r < 0 or s < 0:
        return None
    if (r, s) in seeds:
        return (r, s), ()
    for step in ExtensionStep:
        dr, ds = step.delta
        found = _reduce(r - dr, s - ds, seeds)
        if found is not None:
            return found[0], found[1] + (step,)
    return None


def standard_chain(r: int, s: int
                   ) -> Optional[tuple[BaseTableId, list[ExtensionStep]]]:
    """The catalog base and the steps, in extension_chain's order, that
    build n_(r,s): the reduction to a catalog id, or None if none is met."""
    found = _reduce(r, s, BASE_IDS)
    return None if found is None else (found[0], list(found[1]))


def min_module_dim(r: int, s: int) -> int:
    """Dimension of the minimal admissible module for signature (r, s): the
    seed's, times 16 per Bott step (Atiyah-Bott-Shapiro).  That every route
    to a seed agrees is checked by a test, as the seeds are constant data;
    reaching none raises UnsupportedSignatureError."""
    found = _reduce(r, s, _DIM_SEEDS)
    if found is None:
        raise UnsupportedSignatureError(
            r, s, what="minimal-module dimension entry")
    seed, steps = found
    return _BASE_DIMS[seed] * 16 ** len(steps)
