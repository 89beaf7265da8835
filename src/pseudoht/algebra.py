"""Pseudo H-type Lie algebras on integral bases.

An algebra is stored as its structure tensor A^k_{ab} in {-1,0,+1} together
with the center signature and the +-1 module metric.  The J-operators are
derived from the tensor through eps^v_b * B^k_{ab} = eps^z_k * A^k_{ab}, or
for an extension from its parent's and factor's by the same product that
makes its entries (ExtensionRecipe).  Each algebra keeps one J table, a
signed-index row per center index (_JTable); a J operator is made from its
row when asked for and is not kept.

All indices in the public API are 1-based.
"""

from __future__ import annotations

import bisect
import functools
import itertools
import json
import operator
from array import array
from collections import deque
from typing import Callable, Iterable, Mapping, NamedTuple, Optional, Sequence, Union

from .core import (
    ExactMatrix,
    Frozen,
    Rational,
    Signature,
    SparseVector,
    Vector,
    basis_vector,
    epsilon,
    exact,
    exact_rank,
    gram_matrix,
    nullspace,
    scalar_product,
    signed_permutation,
)
from .jsonout import dumps


class IntegralBasisError(ValueError):
    """The structure tensor violates the integral-basis property."""


# Largest module dimension and largest r + s that any construction or parse
# may make.  The first is twice the 4096 of the largest module the tests and
# the benchmark build; no module of a larger center fits it (the minimal
# module grows 16-fold per 8 center dimensions), and as the dimension and
# chain searches recurse once per 8 of them, the second also keeps them far
# from the recursion limit.  Larger requests raise ValueError before
# anything is allocated.
MAX_MODULE_DIM = 8192
MAX_CENTER_DIM = 256


def require_module_budget(dim: int, what: str = "module dimension") -> None:
    """Raise ValueError, naming dim as what, above MAX_MODULE_DIM."""
    if dim > MAX_MODULE_DIM:
        raise ValueError(f"{what} {dim} exceeds the budget of "
                         f"{MAX_MODULE_DIM} (MAX_MODULE_DIM)")


def require_center_budget(r: int, s: int,
                          what: str = "center dimension") -> None:
    """Raise ValueError, naming r + s as what, above MAX_CENTER_DIM: a plain
    one, not UnsupportedSignatureError, as an oversized signature is
    refused, never compared as if its dimension were unknown."""
    if r + s > MAX_CENTER_DIM:
        raise ValueError(f"{what} {r + s} exceeds the budget of "
                         f"{MAX_CENTER_DIM} (MAX_CENTER_DIM)")


class StructureTensor:
    """Sparse antisymmetric tensor A^k_{ab} with entries in {-1,+1}.

    Only the entries are stored, canonically with a < b and sorted, one
    (k, sign) per pair; bracket_pair bisects them.

    Construction checks each entry in input order (integers, module and
    center index range, +-1 sign, off the diagonal) and raises ValueError
    at the first fault.  It then sorts the canonical entries once and
    rejects two different (k, sign) on the same (a, b) pair with
    IntegralBasisError, naming the smallest such pair, since an integral
    basis sends each bracket to a single +-Z_k.  Repeats of one entry, as
    given or flipped to (b, a, k, -sign), collapse into one.

    An extension's tensor is made by from_recipe instead: it keeps the
    recipe for its life, and its entries are made from it on first read.
    """

    _recipe: Optional["ExtensionRecipe"] = None

    def __init__(self, dim_module: int, dim_center: int,
                 entries: Iterable[tuple[int, int, int, int]]):
        self.dim_module = dim_module
        self.dim_center = dim_center
        canon = []
        append = canon.append
        for entry in entries:
            a, b, k, s = entry
            if (type(a) is not int or type(b) is not int
                    or type(k) is not int or type(s) is not int):
                raise ValueError(f"entry {(a, b, k, s)} must hold integers")
            if not (1 <= a <= dim_module and 1 <= b <= dim_module):
                raise ValueError(f"module index out of range in entry {(a, b, k, s)}")
            if not 1 <= k <= dim_center:
                raise ValueError(f"center index out of range in entry {(a, b, k, s)}")
            if s != 1 and s != -1:
                raise ValueError(f"structure constants must be +-1, got {s}")
            if a < b:
                append(entry if type(entry) is tuple else (a, b, k, s))
            elif a > b:
                append((b, a, k, -s))
            else:
                raise ValueError(f"diagonal entry ({a},{a}) violates antisymmetry")
        canon.sort()
        self.entries = _distinct_pairs(canon)

    @classmethod
    def from_recipe(cls, recipe: "ExtensionRecipe") -> "StructureTensor":
        """The tensor of an extension, holding the recipe, whose entries
        are made from it on first read without the constructor's checks.

        They need none: the parent's tensor holds canonical entries with
        one (k, sign) per pair, and so does the factor's; each entry made
        from the parent keeps one factor index and the parent's pair, each
        one made from the factor keeps one parent index and the factor's
        pair, so no pair is made twice.  Each is flipped to a < b as it is
        made, and the list is sorted once.
        """
        t = object.__new__(cls)
        prov = recipe.provenance
        t.dim_module = len(prov.pair_to_final)
        t.dim_center = (len(prov.parent_center_to_final)
                        + len(prov.factor_center_to_final))
        t._recipe = recipe
        return t

    @functools.cached_property
    def entries(self) -> tuple[tuple[int, int, int, int], ...]:
        # reached only by a tensor made by from_recipe, before its first
        # read: __init__ stores the entries of every other tensor
        return _product_entries(self._recipe)

    def bracket_pair(self, a: int, b: int) -> Optional[tuple[int, int]]:
        """(k, sign) with [v_a, v_b] = sign * Z_k, or None."""
        lo, hi = (a, b) if a < b else (b, a)
        entries = self.entries
        i = bisect.bisect_left(entries, (lo, hi))
        if i < len(entries) and entries[i][0] == lo and entries[i][1] == hi:
            _lo, _hi, k, s = entries[i]
            return k, s if a < b else -s
        return None

    def __eq__(self, other) -> bool:
        return (isinstance(other, StructureTensor)
                and self.dim_module == other.dim_module
                and self.dim_center == other.dim_center
                and self.entries == other.entries)

    def __hash__(self) -> int:
        return hash((self.dim_module, self.dim_center, self.entries))


def _distinct_pairs(canon: list) -> tuple[tuple[int, int, int, int], ...]:
    """Sorted canonical entries as a tuple, each repeated entry kept once.

    Sorting puts every entry of one (a, b) pair next to each other, so the
    first neighbours with equal (a, b) and a different (k, sign) name the
    smallest conflicting pair.
    """
    out = []
    last = (0, 0, 0, 0)
    for e in canon:
        if e[0] == last[0] and e[1] == last[1]:
            if e != last:
                raise IntegralBasisError(
                    f"pair ({e[0]},{e[1]}) maps to more than one center direction")
            continue
        out.append(e)
        last = e
    return tuple(out)


class SignedPermutationOp(Frozen):
    """Linear map sending v_a to sign[a] * v_image[a]; tuples are 1-based.
    Other sequences, such as lists, are stored as tuples, so equal ops
    compare and hash equal."""

    image: tuple[int, ...]
    sign: tuple[int, ...]

    def __init__(self, image: Sequence[int], sign: Sequence[int]) -> None:
        image, sign = tuple(image), tuple(sign)
        n = len(image)
        if {*map(type, image), *map(type, sign)} - {int}:
            raise ValueError("image and signs must be integers")
        if sorted(image) != list(range(1, n + 1)):
            raise ValueError("image is not a permutation")
        if len(sign) != n or not set(sign) <= {1, -1}:
            raise ValueError("signs must be +-1, one per basis vector")
        self.__dict__.update(image=image, sign=sign)

    @property
    def dim(self) -> int:
        return len(self.image)

    def apply_basis(self, a: int) -> tuple[int, int]:
        """(b, sign) with op(v_a) = sign * v_b."""
        return self.image[a - 1], self.sign[a - 1]

    def compose(self, other: "SignedPermutationOp") -> "SignedPermutationOp":
        """self after other: (self.compose(other))(v) = self(other(v))."""
        if len(other.image) != len(self.image):
            raise ValueError(f"cannot compose a dim-{self.dim} op with a "
                             f"dim-{other.dim} op")
        image, sign = (0, *self.image), (0, *self.sign)
        return _unchecked_op(
            tuple(map(image.__getitem__, other.image)),
            tuple(map(operator.mul, other.sign,
                      map(sign.__getitem__, other.image))))

    def inverse(self) -> "SignedPermutationOp":
        order = sorted(range(1, self.dim + 1),
                       key=(0, *self.image).__getitem__)
        return _unchecked_op(tuple(order),
                             tuple(map((0, *self.sign).__getitem__, order)))

    def negate(self) -> "SignedPermutationOp":
        return _unchecked_op(self.image, tuple(map(operator.neg, self.sign)))

    def scalar_action(self) -> Optional[int]:
        """+1 or -1 if the op is that multiple of the identity, else None."""
        if any(b != a for a, b in enumerate(self.image, start=1)):
            return None
        first = self.sign[0]
        return first if all(s == first for s in self.sign) else None

    @staticmethod
    def from_matrix(m: ExactMatrix) -> Optional["SignedPermutationOp"]:
        """The op whose matrix() is m, or None if m is not a signed
        permutation matrix: one +-1 in every row and every column.

        Recognized once per matrix and kept on it, so the relation, the
        classification and the recheck of one morphism share the result.
        """
        return derived_value(m, "_signed_op", _recognize_signed_permutation)

    def matrix(self) -> ExactMatrix:
        rows = [[0] * self.dim for _ in range(self.dim)]
        for a in range(1, self.dim + 1):
            b, s = self.apply_basis(a)
            rows[b - 1][a - 1] = s
        return ExactMatrix.from_rows(rows)

    @staticmethod
    def identity(n: int) -> "SignedPermutationOp":
        return SignedPermutationOp(tuple(range(1, n + 1)), (1,) * n)

    @staticmethod
    def from_signed(indices: Sequence[int]) -> "SignedPermutationOp":
        """The op sending v_a to sign(t) * v_|t| for t = indices[a - 1],
        the signed-index form of a J table row (signed_row); ValueError for
        a 0, bool or float entry or a repeated |t|."""
        image = tuple(t if t > 0 else -t for t in indices)
        return SignedPermutationOp(image,
                                   tuple(1 if t > 0 else -1 for t in indices))


def _unchecked_op(image: tuple[int, ...], sign: tuple[int, ...]
                  ) -> SignedPermutationOp:
    """SignedPermutationOp(image, sign) without __init__'s checks.

    Only for ops that are signed permutations by how they were made: the
    composite, inverse or negation of checked ops, or a J operator read
    off a J table row with no conflict and no empty slot (the row is then
    a signed fixed-point-free involution of 1..n).  The public
    constructor, from_signed and every reader of outside data keep all
    checks.
    """
    op = object.__new__(SignedPermutationOp)
    op.__dict__.update(image=image, sign=sign)
    return op


def _recognize_signed_permutation(m: ExactMatrix
                                  ) -> Optional[SignedPermutationOp]:
    """SignedPermutationOp.from_matrix(m), computed by core's row scan."""
    found = signed_permutation(m.entries)
    return None if found is None else SignedPermutationOp(*found)


class BlockSets(NamedTuple):
    """Half-basis decomposition refined by metric sign."""

    a_plus: frozenset[int]
    a_minus: frozenset[int]
    b_plus: frozenset[int]
    b_minus: frozenset[int]

    @property
    def a_side(self) -> frozenset[int]:
        return self.a_plus | self.a_minus

    @property
    def b_side(self) -> frozenset[int]:
        return self.b_plus | self.b_minus


class BaseProvenance(NamedTuple):
    r: int
    s: int

    def json_dict(self) -> dict:
        return {"kind": "base", "id": [self.r, self.s]}


class ExtensionProvenance(NamedTuple):
    parent: "PseudoHTypeAlgebra"
    step: str  # "8,0" | "0,8" | "4,4"
    pair_to_final: tuple[int, ...]  # flattened (i,j) position -> final index
    parent_center_to_final: tuple[int, ...]
    factor_center_to_final: tuple[int, ...]

    def json_dict(self) -> dict:
        steps = [self.step]
        node = self.parent.provenance
        while isinstance(node, ExtensionProvenance):
            steps.append(node.step)
            node = node.parent.provenance
        base = [node.r, node.s] if isinstance(node, BaseProvenance) else None
        steps.reverse()
        return {"kind": "extended", "base": base,
                "steps": [[int(p) for p in st.split(",")] for st in steps]}


class SumProvenance(NamedTuple):
    base_r: int
    base_s: int
    mu: int
    nu: int

    def json_dict(self) -> dict:
        return {"kind": "sum", "base": [self.base_r, self.base_s],
                "blocks": [{"type": 1, "count": self.mu},
                           {"type": 2, "count": self.nu}]}


class OpaqueProvenance(NamedTuple):
    """Provenance parsed back from JSON without reconstructing parents."""

    data: Mapping

    def json_dict(self) -> dict:
        return dict(self.data)


Provenance = Union[BaseProvenance, ExtensionProvenance, SumProvenance,
                   OpaqueProvenance]


class ExtensionRecipe(NamedTuple):
    """What extension.extend makes an extension from, held by its tensor
    for its life: its entries are made from it on first read, and its J
    table from the parent's and factor's (_product_j_table).

    With w_i (x) u_j at final index pair_to_final[16(i-1) + (j-1)], the
    parent's module basis w (metric g) tensored with the factor's u
    (metric h), and pc, fc the provenance's final center positions:

    - [w_i (x) u_j, w_p (x) u_j] = parent_signs[j] * [w_i, w_p], the
      parent's Z_k moved to Z_pc[k];
    - [w_i (x) u_j, w_i (x) u_q] = g_i * [u_j, u_q], the factor's Z_m
      moved to Z_fc[m].

    So J'_pc[k] = J_k (x) E with E = diag(parent_signs[j] * h_j), and
    J'_fc[m] = Id (x) J^f_m.  metric and center_sig are the extension's;
    the J table's signs depend on them.
    """

    provenance: ExtensionProvenance
    factor: "PseudoHTypeAlgebra"
    parent_signs: tuple[int, ...]
    metric: tuple[int, ...]
    center_sig: Signature


def _product_entries(recipe: ExtensionRecipe
                     ) -> tuple[tuple[int, int, int, int], ...]:
    """The sorted canonical entries an ExtensionRecipe describes."""
    prov = recipe.provenance
    parent, final = prov.parent, prov.pair_to_final
    # 1-based: columns[j][i] and rows[i][j] are the final index of w_i (x) u_j
    columns = [(0, *final[j::16]) for j in range(16)]
    rows = [(0, *final[f:f + 16]) for f in range(0, len(final), 16)]
    pc = (0, *prov.parent_center_to_final)
    fc = (0, *prov.factor_center_to_final)
    entries = [(x, y, pc[k], s * e) if (x := col[i]) < (y := col[p])
               else (y, x, pc[k], -s * e)
               for (i, p, k, s) in parent.tensor.entries
               for col, e in zip(columns, recipe.parent_signs)]
    entries += [(x, y, fc[k], s * g) if (x := row[j]) < (y := row[q])
                else (y, x, fc[k], -s * g)
                for (j, q, k, s) in recipe.factor.tensor.entries
                for row, g in zip(rows, parent.module_signs)]
    entries.sort()
    return tuple(entries)


class PseudoHTypeAlgebra(Frozen):
    """2-step nilpotent algebra v + z described by an integral basis.  A
    module metric given as another sequence, such as a list, is stored as
    a tuple, so equal algebras compare and hash equal."""

    center_sig: Signature
    module_signs: tuple[int, ...]
    tensor: StructureTensor
    provenance: Provenance

    def __init__(self, center_sig: Signature, module_signs: tuple[int, ...],
                 tensor: StructureTensor, provenance: Provenance) -> None:
        module_signs = tuple(module_signs)
        if tensor.dim_module != len(module_signs):
            raise ValueError("module metric length does not match tensor")
        if {*map(type, module_signs)} - {int}:
            bad = next(e for e in module_signs if type(e) is not int)
            raise ValueError(f"module metric entries must be integers, "
                             f"got {bad!r}")
        if not set(module_signs) <= {1, -1}:
            raise ValueError("module metric entries must be +-1")
        if tensor.dim_center != center_sig.dim:
            raise ValueError("center signature does not match tensor")
        self.__dict__.update(center_sig=center_sig, module_signs=module_signs,
                             tensor=tensor, provenance=provenance)

    @property
    def dim_module(self) -> int:
        return self.tensor.dim_module

    @property
    def dim_center(self) -> int:
        return self.tensor.dim_center

    @property
    def r(self) -> int:
        return self.center_sig.pos

    @property
    def s(self) -> int:
        return self.center_sig.neg

    @property
    def blocks(self) -> Optional[BlockSets]:
        """The quarter sets: block_decomposition's halves split by metric
        sign, or None where it finds no halves.  Kept on the algebra."""
        return derived_value(self, "_blocks", _quarter_sets)

    def center_sign(self, k: int) -> int:
        return epsilon(k, self.center_sig)

    def module_sign(self, a: int) -> int:
        return self.module_signs[a - 1]

    def name(self) -> str:
        return f"n_({self.r},{self.s})"

    def __repr__(self) -> str:
        return f"<PseudoHTypeAlgebra {self.name()} dim_v={self.dim_module}>"


class Verdict(NamedTuple):
    """Outcome of an axiom check, with a witness when it fails."""

    ok: bool
    witness: Optional[tuple] = None
    detail: str = ""

    def __bool__(self) -> bool:
        return self.ok


def bracket(a: PseudoHTypeAlgebra, x: Sequence[Rational],
            y: Sequence[Rational]) -> Vector:
    """Center coordinates of [x, y], read off the tensor entries: the entry
    (p, q, k, s) adds s * (x_p y_q - x_q y_p) to coordinate k."""
    if len(x) != a.dim_module or len(y) != a.dim_module:
        raise ValueError("bracket arguments must have module length")
    xs, ys = [exact(e) for e in x], [exact(e) for e in y]
    out = [0] * a.dim_center
    for (p, q, k, s) in a.tensor.entries:
        out[k - 1] += s * (xs[p - 1] * ys[q - 1] - xs[q - 1] * ys[p - 1])
    return tuple(out)


def j_operator(a: PseudoHTypeAlgebra, k: int) -> SignedPermutationOp:
    """Recover J_{Z_k} from the structure tensor.

    The defining relation gives B^k_{ab} = eps^z_k * A^k_{ab} / eps^v_b; on an
    integral basis this is a signed permutation because each (k, a) has
    exactly one partner b.  It is made from row k of the algebra's J table
    (_j_table) on every call, and not kept.
    """
    if not 1 <= k <= a.dim_center:
        raise IndexError(f"center index {k} out of range")
    table = _partner_table(a)
    row = table.rows[k - 1]
    if table.missing is not None and 0 in row[1:]:
        raise IntegralBasisError(
            f"no partner for center {k}, vector {row.index(0, 1)}")
    signed = row[1:a.dim_module + 1]
    image = tuple(map(abs, signed))
    return _unchecked_op(image, tuple(map(operator.floordiv, signed, image)))


def j_operators(a: PseudoHTypeAlgebra) -> tuple[SignedPermutationOp, ...]:
    """(J_{Z_1}, ..., J_{Z_n}): j_operator() for every center index."""
    return tuple(j_operator(a, k) for k in range(1, a.dim_center + 1))


def _partner_table(a: PseudoHTypeAlgebra) -> _JTable:
    """The algebra's _JTable, or IntegralBasisError when a (k, a) has two
    partners, one of which the table lost.  adjoint_rows and
    two_point_rank read it: J_{Z_k} v_alpha = sign * v_b gives [v_alpha,
    v_b] = eps^z_k sign eps^v_b Z_k, an empty slot no bracket."""
    table = _j_table(a)
    if table.conflicts:
        raise IntegralBasisError(
            f"multiple partners for (k, a) pairs {table.conflicts[:3]}")
    return table


class _JTable(NamedTuple):
    """rows[k - 1]: J_{Z_k} as an array('i') in signed_row form, 0 at b
    where no entry gives v_b a partner; conflicts: each 1-based (k, a)
    that an entry gives a second partner, in entries order; missing: the
    first 1-based (k, b) with no partner, k outermost, or None."""

    rows: tuple[array, ...]
    conflicts: tuple[tuple[int, int], ...]
    missing: Optional[tuple[int, int]]


def _j_table(a: PseudoHTypeAlgebra) -> _JTable:
    """The algebra's _JTable, from one pass over the tensor entries: the
    entry (p, q, k, s) gives J_{Z_k} v_p = eps^z_k s eps^v_q v_q and
    J_{Z_k} v_q = -eps^z_k s eps^v_p v_p, a later entry overwriting an
    earlier one's slot.  Kept on the algebra, since the signs depend on
    its metrics.

    When the entries write exactly as many slots as the table has, two
    per entry, and none stays empty, each slot was written once, so the
    pass makes no per-entry conflict test.  Otherwise a second pass lists
    every write to a slot already written, in entries order.

    An extension takes its table from its parent's and factor's instead
    (_product_j_table), when they have no conflict and no empty slot,
    whether or not its entries were read.
    """
    def build(a: PseudoHTypeAlgebra) -> _JTable:
        recipe = a.tensor._recipe
        if recipe is not None:
            table = _product_j_table(a, recipe)
            if table is not None:
                return table
        n, entries = a.dim_module, a.tensor.entries
        ez, g = (0, *a.center_sig.signs()), (0, *a.module_signs)
        # 1-based lists, slot 0 unused, until they become the rows
        targets = [[0] * (n + 1) for _ in ez]
        for (p, q, k, s) in entries:
            row, e = targets[k], ez[k] * s
            row[p] = e * g[q] * q
            row[q] = -e * g[p] * p
        rows = tuple(array("i", signed_row(row[1:])) for row in targets[1:])
        missing = next(((k, row.index(0, 1)) for k, row in enumerate(
            rows, start=1) if 0 in row[1:]), None)
        if 2 * len(entries) == n * a.dim_center and missing is None:
            return _JTable(rows, (), None)
        written: set[tuple[int, int]] = set()
        conflicts = tuple(slot for (p, q, k, _s) in entries
                          for slot in ((k, p), (k, q))
                          if slot in written or written.add(slot))
        return _JTable(rows, conflicts, missing)

    return derived_value(a, "_j_table", build)


def _product_j_table(a: PseudoHTypeAlgebra, recipe: ExtensionRecipe
                     ) -> Optional[_JTable]:
    """The J table of the extension a from its recipe, or None when the
    parent's or the factor's table has a conflict or an empty slot, or a's
    metrics are not the recipe's (an algebra rebuilt around the tensor).

    Each row is the table the recipe's entries would write, each slot
    once: J_k (x) E for a parent center index and Id (x) J^f_m for a factor
    one (see ExtensionRecipe).  It is made in pair order, 16 slots per
    parent index, and put in final order by one itemgetter: a parent
    row's signed index t picks the block of w_|t| times sign(t) E, and a
    factor row gathers from the signed_row of each block.
    """
    if a.module_signs != recipe.metric or a.center_sig != recipe.center_sig:
        return None
    prov = recipe.provenance
    parent, factor = _j_table(prov.parent), _j_table(recipe.factor)
    if any(t.conflicts or t.missing for t in (parent, factor)):
        return None
    final = prov.pair_to_final
    to_final = operator.itemgetter(
        *sorted(range(len(final)), key=final.__getitem__))
    blocks = [final[f:f + 16] for f in range(0, len(final), 16)]
    volume = tuple(map(operator.mul, recipe.parent_signs,
                       recipe.factor.module_signs))
    scaled = [tuple(map(operator.mul, volume, block)) for block in blocks]
    of_parent = [None, *scaled, *(tuple(map(operator.neg, block))
                                  for block in reversed(scaled))].__getitem__
    signed_blocks = [signed_row(block) for block in blocks]
    chain = itertools.chain.from_iterable
    n = len(blocks)
    rows: list = [None] * a.dim_center
    for pos, row in zip(prov.parent_center_to_final, parent.rows):
        rows[pos - 1] = to_final(list(chain(map(of_parent, row[1:n + 1]))))
    for pos, row in zip(prov.factor_center_to_final, factor.rows):
        within = operator.itemgetter(*row[1:17])
        rows[pos - 1] = to_final(list(chain(map(within, signed_blocks))))
    return _JTable(tuple(array("i", signed_row(r)) for r in rows), (), None)


_UNSET = object()


def derived_value(obj, name: str, build: Callable):
    """build(obj), computed once and kept on obj under name: a table or
    verdict of an algebra, the recognized form of a matrix (None too), a
    canonical map kept on its source algebra, or an outcome a caller
    derives from obj alone (acceptance names the ones it keeps).

    The fields are never reassigned, so the value cannot go stale, and it
    is not a field, so ==, hash, repr and the JSON form never see it.  Two
    threads that both miss build the same value; either one may be kept.
    A build that raises keeps nothing, so the next call builds again.
    """
    value = getattr(obj, name, _UNSET)
    if value is _UNSET:
        value = build(obj)
        object.__setattr__(obj, name, value)
    return value


def verify_integral_basis(a: PseudoHTypeAlgebra) -> Verdict:
    """Antisymmetry, +-1 entries, and the exactly-one-partner property."""
    table = _j_table(a)
    if table.conflicts:
        return Verdict(False, table.conflicts[0],
                       "a (center, vector) pair has several partners")
    if table.missing is not None:
        return Verdict(False, table.missing,
                       "no partner for this (center, vector) pair")
    return Verdict(True)


def signed_row(signed: Sequence[int]) -> list[int]:
    """[0, *signed, *-signed reversed]: t with t[b] = signed[b - 1] and
    t[-b] = -t[b], entry 0 unused.  A signed permutation sending v_b to
    sign * v_b' has t[b] = sign * b' in this form, so a negative b reads
    from the end of the list and the composite J(J'(v_a)) is t[t'[a]]."""
    return [0, *signed, *map(operator.neg, reversed(signed))]


def signed_lookups(a: PseudoHTypeAlgebra) -> tuple[array, ...]:
    """The rows of the algebra's J table, J_{Z_k} in signed_row form, or
    IntegralBasisError when a (k, a) has two partners or none.

    The rows are shared by every user of the algebra, a catalog algebra
    across the process: internal to the package, read by algebra and
    morphism alone, and never written.  An array holds 4 bytes per entry
    but makes an int object for each item it hands out, so a reader that
    gathers through a row many times, or compares it with a list, reads it
    as a list (tolist()) first.
    """
    table = _partner_table(a)
    if table.missing is not None:
        raise IntegralBasisError(
            "no partner for center {}, vector {}".format(*table.missing))
    return table.rows


def _gather(indices: Sequence[int]) -> Callable[[Sequence], tuple]:
    """row -> (row[i] for i in indices) as a tuple, by operator.itemgetter,
    which gathers at C speed but returns a bare item for one index and
    cannot be made for none."""
    if len(indices) > 1:
        return operator.itemgetter(*indices)
    return lambda row: tuple(map(row.__getitem__, indices))


def _first_difference(xs: Sequence, ys: Sequence) -> Optional[int]:
    """1-based position of the first entry where xs and ys differ, or None."""
    if xs == ys:
        return None
    return next(i for i, (x, y) in enumerate(zip(xs, ys), start=1) if x != y)


def verify_clifford(a: PseudoHTypeAlgebra) -> Verdict:
    """J_k J_m + J_m J_k = -2 <Z_k, Z_m> Id on the recovered operators.

    Both sides are compared as signed-index tuples over the basis: J_k J_m
    must equal -J_m J_k for k != m and -<Z_k,Z_k> Id for k = m.  The
    witness is the first basis index where they differ.  Each side is
    one gather of a row through an itemgetter of another row's slice.
    The rows are read as lists, whose items a gather hands on without
    making an int object for each, as indexing an array does.
    """
    n_mod = a.dim_module
    rows = list(map(array.tolist, signed_lookups(a)))
    forward = [_gather(row[1:n_mod + 1]) for row in rows]   # J v_b
    negated = [_gather(row[:n_mod:-1]) for row in rows]     # -J v_b
    ident = tuple(range(1, n_mod + 1))
    minus_ident = tuple(-alpha for alpha in ident)
    ez = a.center_sig.signs()
    n = len(rows)
    for k in range(n):
        row = rows[k]
        for m in range(k, n):
            km = forward[m](row)
            if k == m:
                want = minus_ident if ez[k] > 0 else ident
                detail = "J_k^2 is not -<Z_k,Z_k> Id"
            else:
                want = negated[k](rows[m])
                detail = "J_k J_m + J_m J_k does not vanish"
            alpha = _first_difference(km, want)
            if alpha is not None:
                return Verdict(False, (k + 1, m + 1, alpha), detail)
    return Verdict(True)


def verify_admissible(a: PseudoHTypeAlgebra) -> Verdict:
    """Each J_k is skew-adjoint for the module scalar product.

    For a signed permutation the quantified condition collapses to the
    orbit pairs: <J_k v_a, v_b> is nonzero only at b = image(a), so it
    suffices that image is an involution there with matching signs.  With
    +-1 signs that is J_k J_k v_a = -<v_a, v_a> <v_b, v_b> v_a, compared
    as one signed-index list per k; at the first index a where it fails,
    the orbit does not return if J_k J_k v_a is not +-v_a and the signs
    disagree otherwise.
    """
    n_mod = a.dim_module
    g = a.module_signs
    g_of = [0, *g, *reversed(g)].__getitem__  # g_of(t) = <v_|t|, v_|t|>
    minus_g_ident = [-e * alpha for alpha, e in enumerate(g, start=1)]
    for k, row in enumerate(map(array.tolist, signed_lookups(a)), start=1):
        forward = row[1:n_mod + 1]
        square = list(map(row.__getitem__, forward))
        alpha = _first_difference(
            square, list(map(operator.mul, minus_g_ident, map(g_of, forward))))
        if alpha is not None:
            detail = ("skew-adjointness fails: orbit does not return"
                      if abs(square[alpha - 1]) != alpha
                      else "skew-adjointness fails on this pair")
            return Verdict(False, (k, alpha, abs(forward[alpha - 1])), detail)
    return Verdict(True)


def verify_htype(a: PseudoHTypeAlgebra) -> Verdict:
    """Polarized composition identities on all basis combinations.

    <J_k v_a, J_m v_a> = <Z_k, Z_m> <v_a, v_a> for all k, m, a; the companion
    identity <J_k v_a, J_k v_b> = <Z_k, Z_k> <v_a, v_b> holds off-diagonal for
    free (a signed permutation sends distinct basis vectors to orthogonal
    ones) and its diagonal is the k = m case below.  With +-1 signs the
    left side is <v_b, v_b> at k = m (b = image_k(a)), and for k != m it
    vanishes exactly when image_k(a) != image_m(a).  So every k != m
    identity holds when each column (image_1(a), ..., image_n(a)) has n
    distinct entries, one set per column; only when one does not are the
    pairs scanned, in the order of the witness (k, m, a).
    """
    images = [op.image for op in j_operators(a)]
    g = list(a.module_signs)
    g_at = [0, *g].__getitem__
    minus_g = [-e for e in g]
    ez = a.center_sig.signs()
    n = len(images)
    distinct = sum(map(len, map(set, zip(*images)))) == n * a.dim_module
    for k in range(n):
        ik = images[k]
        m = k
        alpha = _first_difference(list(map(g_at, ik)),
                                  g if ez[k] > 0 else minus_g)
        if alpha is None and not distinct:
            for m in range(k + 1, n):
                alpha = next((i for i, (bk, bm) in enumerate(
                    zip(ik, images[m]), start=1) if bk == bm), None)
                if alpha is not None:
                    break
        if alpha is not None:
            return Verdict(False, (k + 1, m + 1, alpha),
                           "composition identity fails")
    return Verdict(True)


def verify_axioms(a: PseudoHTypeAlgebra) -> Verdict:
    """The first failure of the four axiom checks, named, or Verdict(True).

    Computed once per algebra and kept on it, since it depends on the
    frozen fields alone: a shared catalog algebra, or a direct sum of a
    shared base, is checked once per process.  A copy made by
    _replace, a parsed algebra, a sum of any other base, or a
    private _build_base is a new object and is checked afresh.
    """
    return derived_value(a, "_axioms", _first_axiom_failure)


def _first_axiom_failure(a: PseudoHTypeAlgebra) -> Verdict:
    # the verifiers are read from the module at call time, so a wrapper or
    # a stand-in installed on this module is the one that runs
    for check in (verify_integral_basis, verify_clifford, verify_admissible,
                  verify_htype):
        verdict = check(a)
        if not verdict.ok:
            return Verdict(False, verdict.witness,
                           f"{check.__name__}: {verdict.detail}")
    return Verdict(True)


def two_coloring(n: int, edges: Sequence[tuple[int, int, int]],
                 every_component: bool = False
                 ) -> tuple[Optional[list[int]], Optional[list]]:
    """Signs on vertices 1..n with signs[a] * signs[b] == rhs on every edge
    (a, b, rhs), as (signs, None); or (None, cycle) when none exist.

    A FIFO breadth-first search from each uncolored vertex in index order
    gives that vertex +1 and visits neighbours in edge order.  The first
    edge that contradicts the coloring closes an odd cycle: the positions in
    ``edges`` of the tree path from the edge's first end up to the common
    ancestor, then down to its second end, then the edge itself.  signs[0]
    is unused.

    With every_component the walk goes on past contradictions and returns
    (signs, balanced): balanced[c] tells whether no edge contradicts the
    c-th component, in the order of their lowest vertices, and signs hold
    on the tree edges.  A loop (a, a, -1) contradicts on its own; a vertex
    without edges is a balanced component.
    """
    adj: list[list[int]] = [[] for _ in range(n + 1)]
    for p, (a, b, _rhs) in enumerate(edges):
        adj[a].append(p)
        adj[b].append(p)
    signs = [0] * (n + 1)
    balanced: list[bool] = []
    # the tree edge that colored each vertex, its other end, and its depth
    tree, parent, depth = [-1] * (n + 1), [0] * (n + 1), [0] * (n + 1)
    for start in range(1, n + 1):
        if signs[start]:
            continue
        signs[start] = 1
        balanced.append(True)
        queue = deque([start])
        while queue:
            u = queue.popleft()
            for p in adj[u]:
                a, b, rhs = edges[p]
                w = b if u == a else a
                if not signs[w]:
                    signs[w] = signs[u] * rhs
                    tree[w], parent[w], depth[w] = p, u, depth[u] + 1
                    queue.append(w)
                elif signs[u] * signs[w] != rhs:
                    if every_component:
                        balanced[-1] = False
                        continue
                    up: list[int] = []
                    down: list[int] = []
                    while a != b:
                        if depth[a] >= depth[b]:
                            up.append(tree[a])
                            a = parent[a]
                        else:
                            down.append(tree[b])
                            b = parent[b]
                    return None, up + down[::-1] + [p]
    return signs, balanced if every_component else None


def signed_incidence_rank(n: int,
                          columns: Iterable[Sequence[tuple[int, int]]]) -> int:
    """Rank over Q of the n-row matrix whose columns each add up at most
    two terms sign * e_row, given as (row, sign) pairs, rows 1-based.

    The matrix is the incidence matrix of a signed graph on its rows
    (T. Zaslavsky, "Signed graphs", Discrete Appl. Math. 4 (1982)).  A
    vector y of its left kernel has y_a y_b = -s_a s_b across a column
    s_a e_a + s_b e_b, so each column is the two_coloring edge (a, b,
    -s_a s_b): one term reads as two equal ones, and a column of equal
    terms on one row is the loop (a, a, -1) that forces y_a = 0, while
    opposite terms cancel into the loop (a, a, +1) that constrains
    nothing.  The left kernel has one dimension per balanced component,
    so the rank is n minus their number.
    """
    edges = [(col[0][0], col[-1][0], -col[0][1] * col[-1][1])
             for col in columns if col]
    _signs, balanced = two_coloring(n, edges, every_component=True)
    return n - sum(balanced)


def two_point_rank(a: PseudoHTypeAlgebra, alpha: int, beta: int) -> int:
    """Rank of ad_x for x = v_alpha + v_beta (1-based; IndexError outside
    1..dim v), by signed_incidence_rank: on an integral basis column b of
    ad_x, [v_alpha, v_b] + [v_beta, v_b], adds at most two terms +-Z_k,
    read off the J table (_partner_table).  Row k is taken times eps^z_k
    and column b times eps^v_b, which leaves the rank alone, so a term is
    (k, sign): t = sign * b in row k at alpha or beta."""
    if not (1 <= alpha <= a.dim_module and 1 <= beta <= a.dim_module):
        raise IndexError(f"module index out of range in {(alpha, beta)}")
    rows = _partner_table(a).rows
    columns: dict[int, list[tuple[int, int]]] = {}
    for p in (alpha, beta):
        for k, row in enumerate(rows, start=1):
            t = row[p]
            if t:
                columns.setdefault(abs(t), []).append((k, 1 if t > 0 else -1))
    return signed_incidence_rank(a.dim_center, columns.values())


def block_decomposition(a: PseudoHTypeAlgebra
                        ) -> Optional[tuple[frozenset[int], frozenset[int]]]:
    """Split the basis into two commuting halves, or None.

    The commutation graph has an edge v_a - v_b for each J table slot
    J_{Z_k} v_a = +-v_b.  Its breadth-first levels from each component's
    lowest index alternate between the halves, that index in the first,
    as two_coloring would place them; each level takes one gather per J
    row, where two_coloring takes a Python step per edge (2.4 times as
    long on the algebras a run_all() splits).  None off an integral basis
    (a conflict or an empty slot), on an odd cycle (an edge inside a
    level), or when the halves differ in size.
    """
    table = _j_table(a)
    if table.conflicts or table.missing is not None:
        return None
    halves: tuple[set[int], set[int]] = (set(), set())
    left = set(range(1, a.dim_module + 1))
    while left:
        prev, level, side = set(), {min(left)}, 0
        while level:
            left -= level
            halves[side].update(level)
            # slot 0 holds 0, so the gather is a tuple for any level
            gather = operator.itemgetter(0, *level)
            reached = set(map(abs, set(itertools.chain.from_iterable(
                map(gather, table.rows)))))
            reached.discard(0)
            if not reached.isdisjoint(level):
                return None
            prev, level, side = level, reached - prev, 1 - side
    if len(halves[0]) != len(halves[1]):
        return None
    return frozenset(halves[0]), frozenset(halves[1])


def _quarter_sets(a: PseudoHTypeAlgebra) -> Optional[BlockSets]:
    """PseudoHTypeAlgebra.blocks, built."""
    split = block_decomposition(a)
    if split is None:
        return None
    plus = {i for i, e in enumerate(a.module_signs, start=1) if e > 0}
    return BlockSets(*(part for side in split
                       for part in (side & plus, side - plus)))


def bd_decomposition(a: PseudoHTypeAlgebra) -> Optional[BlockSets]:
    """a.blocks when each quarter set holds a quarter of the basis (the
    halves have equal size, so A+ and B+ decide); definite metrics never
    qualify."""
    sets = a.blocks
    if sets is None or not (
            4 * len(sets.a_plus) == 4 * len(sets.b_plus) == a.dim_module):
        return None
    return sets


class DegenerateKernelError(ValueError):
    """Metric restricted to ker(ad_v) is degenerate for the witness vector."""

    def __init__(self, v: Vector):
        self.v = v
        super().__init__(f"degenerate metric on ker(ad_v) for v = {v}")


def adjoint_rows(a: PseudoHTypeAlgebra,
                 x: Sequence[Rational]) -> list[list[Rational]]:
    """Rows of the matrix of ad_x: column b holds the coords of [x, v_b].

    Entries keep the number type of x, so integer input gives integer rows.
    Each nonzero x_alpha reads its column of the J table (_partner_table):
    eps^z_k sign eps^v_b x_alpha at row k, column b, for t = sign * b.
    """
    if len(x) != a.dim_module:
        raise ValueError("x must have module length")
    j_rows = _partner_table(a).rows
    ez = a.center_sig.signs()
    signed_g = signed_row(a.module_signs)  # at t = sign * b: sign * g_b
    rows = [[0] * a.dim_module for _ in range(a.dim_center)]
    for alpha, xa in enumerate(x, start=1):
        if xa:
            for row, e, j_row in zip(rows, ez, j_rows):
                t = j_row[alpha]
                if t:
                    row[abs(t) - 1] += e * signed_g[t] * xa
    return rows


def j_image(a: PseudoHTypeAlgebra, z: SparseVector,
            x: SparseVector) -> dict[int, Rational]:
    """J_Z x by its support: {b: c} for each nonzero coordinate c at v_b,
    in index order; <Z, [x, v_b]> = <J_Z x, v_b> = eps^v_b c.

    Read off the J table (_partner_table): row k holds t = sign * b at
    alpha for J_{Z_k} v_alpha = sign * v_b, so each pair of an entry of
    z's support and one of x's is one lookup, and nothing of size dim is
    made.  Values keep the number type of the input.  ValueError when z or
    x is not of center or module dimension, IntegralBasisError when a
    (k, a) has two partners.
    """
    if z.dim != a.dim_center or x.dim != a.dim_module:
        raise ValueError("Z and x must have center and module dimension")
    rows = _partner_table(a).rows
    image: dict[int, Rational] = {}
    for k, zk in z.items():
        row = rows[k - 1]
        for alpha, xa in x.items():
            t = row[alpha]
            if t:
                image[abs(t)] = image.get(abs(t), 0) + (
                    zk * xa if t > 0 else -zk * xa)
    return {b: c for b, c in sorted(image.items()) if c}


def verify_general_htype(a: PseudoHTypeAlgebra) -> Verdict:
    """Decide the surjective-(anti-)isometry characterization: for every
    non-null v, ad_v maps ker(ad_v)^perp onto z with <[v,b], [v,b']> =
    <v,v> <b,b'>.  It follows from the axioms, returned as the first failure:
    <J_Z x, y> = <Z, [x,y]> gives ad_v^tau Z = J_Z v, and Clifford with
    skew-adjointness gives <J_Z v, J_W v> = <Z,W> <v,v>, so [v, J_Z v] =
    <v,v> Z.  For non-null v, ker(ad_v)^perp = {J_Z v} is non-degenerate
    (no DegenerateKernelError), ad_v is onto, and the identity holds at
    b = J_Z v, b' = J_W v.  Each basis vector is then the exact witness,
    and its kernel, complement and Gram matrices are integer matrices.

    Kept on the algebra like verify_axioms(a), so a shared catalog algebra
    is scanned once per process; a DegenerateKernelError is raised each
    time and never kept.
    """
    return derived_value(a, "_general_htype", _first_general_failure)


def _first_general_failure(a: PseudoHTypeAlgebra) -> Verdict:
    # verify_axioms and _check_general_at are read from the module at call
    # time, so a wrapper or a stand-in installed on this module is used
    axioms = verify_axioms(a)
    if not axioms.ok:
        return axioms
    for alpha in range(1, a.dim_module + 1):
        verdict = _check_general_at(a, basis_vector(alpha, a.dim_module))
        if not verdict.ok:
            return verdict
    return Verdict(True)


def _check_general_at(a: PseudoHTypeAlgebra, v: Vector) -> Verdict:
    """Both checks at the integer vector v, with integer bases of the
    kernel and its complement: the identity is homogeneous of degree 2 in
    the pair (b, b'), and surjectivity depends on spaces only."""
    vv = scalar_product(v, v, a.module_signs)
    rows = adjoint_rows(a, v)
    kernel = nullspace(rows)  # never empty: [v, v] = 0
    if exact_rank(gram_matrix(kernel, a.module_signs)) != len(kernel):
        raise DegenerateKernelError(v)
    # complement = vectors orthogonal to every kernel element
    comp = nullspace([[s * e for s, e in zip(a.module_signs, kv)]
                      for kv in kernel])
    images = [[sum(map(operator.mul, row, b)) for row in rows] for b in comp]
    if exact_rank(images) != a.dim_center:
        return Verdict(False, (v,), "ad_v is not surjective on the complement")
    lhs = gram_matrix(images, a.center_sig)
    rhs = gram_matrix(comp, a.module_signs)
    for i in range(len(comp)):
        for j in range(i, len(comp)):
            if lhs[i][j] != vv * rhs[i][j]:
                return Verdict(False, (v, i + 1, j + 1),
                               "scaled Gram identity fails")
    return Verdict(True)


# ---------------------------------------------------------------------------
# JSON form: deterministic key order, 1-based indices.
# ---------------------------------------------------------------------------

def _algebra_fields(a: PseudoHTypeAlgebra, structure) -> dict:
    """The top-level fields; a direct sum, built or parsed, repeats its
    block counts last."""
    provenance = a.provenance.json_dict()
    fields = {
        "r": a.r,
        "s": a.s,
        "dim_v": a.dim_module,
        "module_metric": list(a.module_signs),
        "structure": structure,
        "provenance": provenance,
    }
    if provenance.get("kind") == "sum" and "blocks" in provenance:
        fields["blocks"] = provenance["blocks"]
    return fields


def algebra_to_dict(a: PseudoHTypeAlgebra) -> dict:
    return _algebra_fields(a, [list(e) for e in a.tensor.entries])


def algebra_json(a: PseudoHTypeAlgebra) -> str:
    """The text of ``json.dumps(algebra_to_dict(a), indent=2)``, written
    from the tensor entries without building a list per entry."""
    return dumps(_algebra_fields(a, a.tensor.entries))


def _json_field(data: Mapping, name: str, kind=object):
    if not isinstance(data, Mapping) or name not in data:
        raise ValueError(f"algebra JSON has no {name!r}")
    if not isinstance(data[name], kind):
        raise ValueError(f"{name} has the wrong shape: {data[name]!r:.40}")
    return data[name]


def _json_ints(values, what: str) -> tuple[int, ...]:
    """values unchanged if every one is a JSON integer (no bool or float)."""
    values = tuple(values)
    for v in values:
        if type(v) is not int:
            raise ValueError(f"{what} must be integers, got {v!r}")
    return values


def _structure_row(entry) -> Sequence:
    """entry as an [i, j, k, sign] row, or the row of the object
    {"i", "j", "k", "sign"} that older versions wrote."""
    if isinstance(entry, (list, tuple)) and len(entry) == 4:
        return entry
    if isinstance(entry, Mapping) and entry.keys() >= {"i", "j", "k", "sign"}:
        return entry["i"], entry["j"], entry["k"], entry["sign"]
    raise ValueError(f"structure entry {entry!r} is no [i, j, k, sign] row")


def algebra_from_dict(data: Mapping) -> PseudoHTypeAlgebra:
    """The algebra of an algebra_to_dict tree; a missing field, one of
    another shape (a float, a bool or a string for an integer, an entry
    that is no row or its object form), or an r + s or dim_v above its
    budget raises ValueError naming it, the last before anything is built."""
    r, s, dim_v = _json_ints([_json_field(data, key)
                              for key in ("r", "s", "dim_v")], "r, s and dim_v")
    require_center_budget(r, s, "r + s")
    require_module_budget(dim_v, "dim_v")
    sig = Signature(r, s)
    signs = _json_ints(_json_field(data, "module_metric", (list, tuple)),
                       "module_metric entries")
    structure = _json_field(data, "structure", (list, tuple))
    # rows of four go to the tensor as they are: it checks their values
    if {*map(type, structure)} - {list, tuple} or {*map(len, structure)} - {4}:
        structure = [_structure_row(e) for e in structure]
    provenance = (_json_field(data, "provenance", Mapping)
                  if "provenance" in data else {})
    return PseudoHTypeAlgebra(
        center_sig=sig,
        module_signs=signs,
        tensor=StructureTensor(dim_v, sig.dim, structure),
        provenance=OpaqueProvenance(dict(provenance)),
    )


def algebra_from_json(text: str) -> PseudoHTypeAlgebra:
    return algebra_from_dict(json.loads(text))
