"""Exact linear algebra over signed scalar-product spaces.

The kernel is integral: ExactMatrix, rank, determinant and nullspace take
rows of ints and run one fraction-free elimination on them, and refuse any
other entry.  A rational arrives only at the public vector boundary
(scalar_product, bracket, gram_det, adjoint_rank), where exact reads it
and clear_denominators turns a vector into integers.  No floating point
anywhere.  Basis indices in the public API are 1-based,
matching the commutator-table conventions used throughout the package.
A morphism's blocks are signed permutations, which signed_permutation
recognizes; morphism reads their center action off the signs, so no map
is classified here.
"""

from __future__ import annotations

import math
import operator
from enum import Enum
from fractions import Fraction
from typing import Iterable, Optional, Sequence, Union

Rational = Union[int, Fraction]
Vector = tuple[Rational, ...]


class Frozen:
    """Base of the validated value classes: __init__ checks and stores the
    annotated fields, _fields.  Nothing can be set or deleted; ==, hash and
    repr read the fields, and == is False against a tuple; _replace copies
    through __init__, checked again and with no derived value kept."""

    def __init_subclass__(cls) -> None:
        cls._fields = tuple(cls.__annotations__)
        cls._values = property(operator.attrgetter(*cls._fields))

    def __setattr__(self, name: str, value) -> None:
        raise AttributeError(f"cannot assign to field {name!r}")

    def __delattr__(self, name: str) -> None:
        raise AttributeError(f"cannot delete field {name!r}")

    def __eq__(self, other) -> bool:
        if other.__class__ is not self.__class__:
            return NotImplemented
        return self._values == other._values

    def __hash__(self) -> int:
        return hash(self._values)

    def __repr__(self) -> str:
        fields = ", ".join(map("{}={!r}".format, self._fields, self._values))
        return f"{type(self).__qualname__}({fields})"

    def _replace(self, **changes):
        return type(self)(**dict(zip(self._fields, self._values)) | changes)


class Signature(Frozen):
    """Index pair (pos, neg) of a diagonal +-1 scalar product: two
    nonnegative ints, bool and float refused."""

    pos: int
    neg: int

    def __init__(self, pos: int, neg: int) -> None:
        if type(pos) is not int or type(neg) is not int:
            raise ValueError(f"signature counts must be ints; "
                             f"got ({pos!r}, {neg!r})")
        if pos < 0 or neg < 0:
            raise ValueError("signature counts must be nonnegative")
        self.__dict__.update(pos=pos, neg=neg)

    @property
    def dim(self) -> int:
        return self.pos + self.neg

    def signs(self) -> tuple[int, ...]:
        return (1,) * self.pos + (-1,) * self.neg

    def __str__(self) -> str:
        return f"({self.pos},{self.neg})"


def epsilon(i: int, sig: Signature) -> int:
    """Sign of the i-th orthonormal basis vector; i is 1-based."""
    if not 1 <= i <= sig.dim:
        raise IndexError(f"index {i} out of range for signature {sig}")
    return 1 if i <= sig.pos else -1


MetricLike = Union[Signature, Sequence[int]]


def metric_signs(metric: MetricLike) -> tuple[int, ...]:
    """Normalize a Signature or explicit +-1 sequence to a sign tuple."""
    if isinstance(metric, Signature):
        return metric.signs()
    signs = tuple(metric)
    if any(s not in (1, -1) for s in signs):
        raise ValueError("metric entries must be +1 or -1")
    return signs


def exact(e) -> Rational:
    """An int stays an int; anything else becomes a Fraction."""
    return e if type(e) is int else Fraction(e)


def basis_vector(i: int, dim: int) -> Vector:
    """The i-th standard basis vector (1-based) in dimension dim."""
    if not 1 <= i <= dim:
        raise IndexError(f"index {i} out of range for dimension {dim}")
    return tuple(1 if j == i else 0 for j in range(1, dim + 1))


class SparseVector(Frozen):
    """A vector of dimension dim by its support: the 1-based indices of its
    nonzero entries, strictly increasing, and their values, both stored as
    tuples, so that equal vectors compare and hash equal.

    Certificates write their witness vectors in this form, as
    {"dim", "index", "value"}; nothing of size dim is made from it, so a
    reader can compare dim with the dimension it expects first.
    """

    dim: int
    index: tuple[int, ...]
    value: tuple[Rational, ...]

    def __init__(self, dim: int, index: Sequence[int],
                 value: Sequence[Rational]) -> None:
        index, value = tuple(index), tuple(value)
        if len(index) != len(value):
            raise ValueError("index and value differ in length")
        if any(not lo < hi for lo, hi in zip((0, *index), index)):
            raise ValueError("indices must be 1-based and strictly increasing")
        if index and index[-1] > dim:
            raise ValueError(f"index {index[-1]} exceeds dim {dim}")
        if 0 in value:
            raise ValueError("a support value is 0")
        self.__dict__.update(dim=dim, index=index, value=value)

    @staticmethod
    def of(x: Union["SparseVector", Sequence[Rational]]) -> "SparseVector":
        """x when it is a SparseVector, else the support of the dense x."""
        if isinstance(x, SparseVector):
            return x
        index = tuple(i for i, e in enumerate(x, start=1) if e)
        return SparseVector(len(x), index, tuple(x[i - 1] for i in index))

    def items(self) -> Iterable[tuple[int, Rational]]:
        """(index, value) of each support entry, in index order."""
        return zip(self.index, self.value)

    def json_dict(self) -> dict:
        """The sparse JSON form; values must be ints to be written."""
        return {"dim": self.dim, "index": list(self.index),
                "value": list(self.value)}


def scalar_product(x: Sequence[Rational], y: Sequence[Rational],
                   metric: MetricLike) -> Rational:
    """Signed scalar product sum(eps_i * x_i * y_i)."""
    signs = metric_signs(metric)
    if len(x) != len(signs) or len(y) != len(signs):
        raise ValueError(
            f"length mismatch: vectors of length {len(x)}, {len(y)} "
            f"against metric of length {len(signs)}")
    return sum(exact(xi) * exact(yi) if s > 0 else -exact(xi) * exact(yi)
               for xi, yi, s in zip(x, y, signs))


class MapClass(Enum):
    ISOMETRY = "ISOMETRY"
    ANTI_ISOMETRY = "ANTI_ISOMETRY"
    NEITHER = "NEITHER"


class ExactMatrix(Frozen):
    """Immutable integer matrix; from_rows refuses any entry that is not
    an int."""

    rows: int
    cols: int
    entries: tuple[tuple[int, ...], ...]

    def __init__(self, rows: int, cols: int,
                 entries: tuple[tuple[int, ...], ...]):
        self.__dict__.update(rows=rows, cols=cols, entries=entries)

    @staticmethod
    def from_rows(rows: Sequence[Sequence[int]]) -> "ExactMatrix":
        data = _int_rows(tuple(map(tuple, rows)))
        return ExactMatrix(len(data), len(data[0]) if data else 0, data)

    @staticmethod
    def identity(n: int) -> "ExactMatrix":
        return ExactMatrix.from_rows(
            [[1 if i == j else 0 for j in range(n)] for i in range(n)])


def clear_denominators(v: Sequence) -> tuple[list[int], int]:
    """The integer vector L*v and L, the lcm of the denominators of v.

    The boundary reader of the kernel: an int vector passes with L = 1,
    and any other entry is read through exact first, so a float, a string
    such as "1/2" or a Fraction gives the same result as its exact value.
    """
    if set(map(type, v)) <= {int}:
        return list(v), 1
    v = list(map(exact, v))
    lcm = math.lcm(*(e.denominator for e in v))
    return [e.numerator * (lcm // e.denominator) for e in v], lcm


def _int_rows(rows: Sequence[Sequence[int]]) -> Sequence[Sequence[int]]:
    """The rows unchanged, checked as kernel input: ValueError when they
    are ragged or an entry is not an int (a Fraction, bool, float or str,
    which clear_denominators reads at the boundary)."""
    width = len(rows[0]) if rows else 0
    for row in rows:
        if len(row) != width:
            raise ValueError("ragged rows")
        if not set(map(type, row)) <= {int}:
            raise ValueError("kernel entries must be ints; "
                             "clear denominators first")
    return rows


def _bareiss(rows: Sequence[Sequence[int]], jordan: bool = False
             ) -> tuple[list[list[int]], list[int], int]:
    """Fraction-free (Bareiss) elimination of an integer matrix.

    Returns the reduced rows, the pivot columns and the sign of the row
    permutation.  Row i of the result holds the pivot of column pivots[i];
    every division is exact.  In Jordan mode the rows above each pivot are
    cleared as well, after which every pivot equals the last one.
    """
    m = [list(row) for row in rows]
    nr = len(m)
    nc = len(m[0]) if nr else 0
    pivots: list[int] = []
    sign = 1
    prev = 1
    r = 0
    for col in range(nc):
        piv = r
        while piv < nr and m[piv][col] == 0:
            piv += 1
        if piv == nr:
            continue
        if piv != r:
            m[r], m[piv] = m[piv], m[r]
            sign = -sign
        mr = m[r]
        p = mr[col]
        for i in range(r + 1, nr):
            mi = m[i]
            f = mi[col]
            for j in range(col + 1, nc):
                mi[j] = (mi[j] * p - f * mr[j]) // prev
            mi[col] = 0
        if jordan:
            for i in range(r):
                mi = m[i]
                f = mi[col]
                for j in range(nc):
                    mi[j] = (mi[j] * p - f * mr[j]) // prev
        pivots.append(col)
        prev = p
        r += 1
        if r == nr:
            break
    return m, pivots, sign


def _support(rows: Sequence[Sequence[int]]) -> Optional[list[int]]:
    """The columns with a nonzero entry, or None when every column has one.

    A zero column holds no pivot, stays zero under elimination and adds
    nothing to a scalar product, so neither the rank nor M M^T sees it.
    """
    keep = [j for j, column in enumerate(zip(*rows)) if any(column)]
    return None if rows and len(keep) == len(rows[0]) else keep


def exact_rank(rows: Sequence[Sequence[int]]) -> int:
    """Rank of a matrix given as rows of ints, eliminated on its nonzero
    columns."""
    int_rows = _int_rows(rows)
    keep = _support(int_rows)
    if keep is not None:
        int_rows = [[row[j] for j in keep] for row in int_rows]
    return len(_bareiss(int_rows)[1])


def exact_det(rows: Sequence[Sequence[int]]) -> int:
    """Determinant of a square matrix given as rows of ints."""
    n = len(_int_rows(rows))
    if n and len(rows[0]) != n:
        raise ValueError("determinant of a non-square matrix")
    m, pivots, sign = _bareiss(rows)
    if len(pivots) < n:
        return 0
    return sign * m[n - 1][n - 1] if n else 1


def nullspace(rows: Sequence[Sequence[int]]) -> list[Vector]:
    """Integer basis of the right nullspace {x : Mx = 0}, exact.

    One vector per free column fc of the fraction-free reduced form, whose
    pivots all equal d: it has d at fc and, at each pivot column, minus
    the entry in column fc of that pivot's row.  A matrix with no rows has
    no column count and raises ValueError.
    """
    if not rows:
        raise ValueError("nullspace of a matrix with no rows")
    cols = len(rows[0])
    red, pivots, _ = _bareiss(_int_rows(rows), jordan=True)
    d = red[len(pivots) - 1][pivots[-1]] if pivots else 1
    pivot_set = set(pivots)
    basis = []
    for fc in range(cols):
        if fc in pivot_set:
            continue
        v = [0] * cols
        v[fc] = d
        for ri, pc in enumerate(pivots):
            v[pc] = -red[ri][fc]
        basis.append(tuple(v))
    return basis


def gram_matrix(vectors: Sequence[Sequence[int]],
                metric: MetricLike) -> list[list[int]]:
    """Rows of the pairwise scalar products of integer vectors.

    The matrix is symmetric: its upper triangle is filled from the vectors
    and their metric-signed copies, and mirrored.  The products run over
    the columns where some vector is nonzero.
    """
    signs = metric_signs(metric)
    if any(len(v) != len(signs) for v in vectors):
        raise ValueError(f"vectors must have the metric's length {len(signs)}")
    keep = _support(vectors)
    if keep is not None:
        vectors = [[v[j] for j in keep] for v in vectors]
        signs = [signs[j] for j in keep]
    signed = ([[s * e for s, e in zip(signs, v)] for v in vectors]
              if -1 in signs else vectors)
    n = len(vectors)
    gram = [[0] * n for _ in range(n)]
    for i, vi in enumerate(vectors):
        for j in range(i, n):
            gram[i][j] = gram[j][i] = sum(map(operator.mul, vi, signed[j]))
    return gram


def signed_permutation(rows: Sequence[Sequence[int]]
                       ) -> Optional[tuple[tuple[int, ...], tuple[int, ...]]]:
    """(image, sign) when the integer matrix with these rows is a signed
    permutation matrix, one +-1 in every row and every column, else None:
    column a holds sign[a - 1] in row image[a - 1], both 1-based.  Each
    row is scanned by count and index."""
    n = len(rows)
    image = [0] * n
    sign = [0] * n
    for b, row in enumerate(rows, start=1):
        if len(row) != n or row.count(0) != n - 1:
            return None
        if 1 in row:
            a, s = row.index(1), 1
        elif -1 in row:
            a, s = row.index(-1), -1
        else:
            return None
        if image[a]:
            return None
        image[a] = b
        sign[a] = s
    return tuple(image), tuple(sign)
