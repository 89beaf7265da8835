"""Exact rational linear algebra over signed scalar-product spaces.

Everything here is arbitrary-precision rational arithmetic; no floating
point anywhere.  Basis indices in the public API are 1-based, matching the
commutator-table conventions used throughout the package.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from enum import Enum
from fractions import Fraction
from typing import Sequence, Union

Rational = Union[int, Fraction]
Vector = tuple[Fraction, ...]


@dataclass(frozen=True)
class Signature:
    """Index pair (pos, neg) of a diagonal +-1 scalar product."""

    pos: int
    neg: int

    def __post_init__(self) -> None:
        if self.pos < 0 or self.neg < 0:
            raise ValueError("signature counts must be nonnegative")

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


def as_vector(entries: Sequence[Rational]) -> Vector:
    return tuple(Fraction(e) for e in entries)


def basis_vector(i: int, dim: int) -> Vector:
    """The i-th standard basis vector (1-based) in dimension dim."""
    if not 1 <= i <= dim:
        raise IndexError(f"index {i} out of range for dimension {dim}")
    return tuple(Fraction(1 if j == i else 0) for j in range(1, dim + 1))


def scalar_product(x: Sequence[Rational], y: Sequence[Rational],
                   metric: MetricLike) -> Fraction:
    """Signed scalar product sum(eps_i * x_i * y_i)."""
    signs = metric_signs(metric)
    if len(x) != len(signs) or len(y) != len(signs):
        raise ValueError(
            f"length mismatch: vectors of length {len(x)}, {len(y)} "
            f"against metric of length {len(signs)}")
    return sum((Fraction(xi) * Fraction(yi) if s > 0 else -Fraction(xi) * Fraction(yi)
                for xi, yi, s in zip(x, y, signs)), Fraction(0))


class MapClass(Enum):
    ISOMETRY = "ISOMETRY"
    ANTI_ISOMETRY = "ANTI_ISOMETRY"
    NEITHER = "NEITHER"


@dataclass(frozen=True)
class ExactMatrix:
    """Immutable rational matrix with exact rank and determinant."""

    rows: int
    cols: int
    entries: tuple[tuple[Fraction, ...], ...]

    @staticmethod
    def from_rows(rows: Sequence[Sequence[Rational]]) -> "ExactMatrix":
        data = tuple(tuple(Fraction(e) for e in row) for row in rows)
        n = len(data)
        m = len(data[0]) if n else 0
        if any(len(row) != m for row in data):
            raise ValueError("ragged rows")
        return ExactMatrix(n, m, data)

    @staticmethod
    def identity(n: int) -> "ExactMatrix":
        return ExactMatrix.from_rows(
            [[1 if i == j else 0 for j in range(n)] for i in range(n)])

    @staticmethod
    def zero(rows: int, cols: int) -> "ExactMatrix":
        return ExactMatrix.from_rows([[0] * cols for _ in range(rows)])

    def get(self, i: int, j: int) -> Fraction:
        """Entry at row i, column j, both 1-based."""
        return self.entries[i - 1][j - 1]

    def row(self, i: int) -> Vector:
        return self.entries[i - 1]

    def column(self, j: int) -> Vector:
        return tuple(row[j - 1] for row in self.entries)

    def transpose(self) -> "ExactMatrix":
        return ExactMatrix(self.cols, self.rows,
                           tuple(zip(*self.entries)) if self.rows else ())

    def mul(self, other: "ExactMatrix") -> "ExactMatrix":
        if self.cols != other.rows:
            raise ValueError("dimension mismatch in matrix product")
        ot = tuple(zip(*other.entries))
        data = tuple(
            tuple(sum((a * b for a, b in zip(row, col)), Fraction(0)) for col in ot)
            for row in self.entries)
        return ExactMatrix(self.rows, other.cols, data)

    def apply(self, x: Sequence[Rational]) -> Vector:
        if len(x) != self.cols:
            raise ValueError("dimension mismatch in matrix-vector product")
        xs = [Fraction(e) for e in x]
        return tuple(sum((a * b for a, b in zip(row, xs)), Fraction(0))
                     for row in self.entries)

    def scale(self, c: Rational) -> "ExactMatrix":
        f = Fraction(c)
        return ExactMatrix(self.rows, self.cols,
                           tuple(tuple(f * e for e in row) for row in self.entries))

    def is_zero(self) -> bool:
        return all(e == 0 for row in self.entries for e in row)


def _int_rows(m: ExactMatrix) -> tuple[list[list[int]], int]:
    """Clear denominators row by row; rank is unchanged.

    Returns the integer rows and the product of the row multipliers, by
    which the determinant is scaled.
    """
    out = []
    scale = 1
    for row in m.entries:
        lcm = math.lcm(*(e.denominator for e in row))
        scale *= lcm
        out.append([e.numerator * (lcm // e.denominator) for e in row])
    return out, scale


def _int_rank(rows: list[list[int]]) -> int:
    """Fraction-free (Bareiss-style) elimination rank of an integer matrix."""
    m = [row[:] for row in rows]
    nr = len(m)
    nc = len(m[0]) if nr else 0
    rank = 0
    prev = 1
    for col in range(nc):
        piv = None
        for i in range(rank, nr):
            if m[i][col] != 0:
                piv = i
                break
        if piv is None:
            continue
        if piv != rank:
            m[rank], m[piv] = m[piv], m[rank]
        p = m[rank][col]
        for i in range(rank + 1, nr):
            mi = m[i]
            f = mi[col]
            mr = m[rank]
            for j in range(col + 1, nc):
                mi[j] = (mi[j] * p - f * mr[j]) // prev
            mi[col] = 0
        prev = p
        rank += 1
        if rank == nr:
            break
    return rank


def _int_det(rows: list[list[int]]) -> int:
    """Bareiss determinant of a square integer matrix."""
    m = [row[:] for row in rows]
    n = len(m)
    if n == 0:
        return 1
    sign = 1
    prev = 1
    for k in range(n - 1):
        if m[k][k] == 0:
            piv = None
            for i in range(k + 1, n):
                if m[i][k] != 0:
                    piv = i
                    break
            if piv is None:
                return 0
            m[k], m[piv] = m[piv], m[k]
            sign = -sign
        p = m[k][k]
        for i in range(k + 1, n):
            mi = m[i]
            mk = m[k]
            f = mi[k]
            for j in range(k + 1, n):
                mi[j] = (mi[j] * p - f * mk[j]) // prev
            mi[k] = 0
        prev = p
    return sign * m[n - 1][n - 1]


def exact_rank(m: ExactMatrix) -> int:
    """Rank over the rationals."""
    if m.rows == 0 or m.cols == 0:
        return 0
    return _int_rank(_int_rows(m)[0])


def exact_det(m: ExactMatrix) -> Fraction:
    """Exact determinant of a square matrix."""
    if m.rows != m.cols:
        raise ValueError("determinant of a non-square matrix")
    int_rows, scale = _int_rows(m)
    return Fraction(_int_det(int_rows), scale)


def nullspace(m: ExactMatrix) -> list[Vector]:
    """Basis of the right nullspace {x : Mx = 0}, exact."""
    nr, nc = m.rows, m.cols
    a = [list(row) for row in m.entries]
    pivots: list[int] = []
    r = 0
    for c in range(nc):
        piv = None
        for i in range(r, nr):
            if a[i][c] != 0:
                piv = i
                break
        if piv is None:
            continue
        a[r], a[piv] = a[piv], a[r]
        p = a[r][c]
        a[r] = [e / p for e in a[r]]
        for i in range(nr):
            if i != r and a[i][c] != 0:
                f = a[i][c]
                a[i] = [e - f * g for e, g in zip(a[i], a[r])]
        pivots.append(c)
        r += 1
        if r == nr:
            break
    free = [c for c in range(nc) if c not in pivots]
    basis = []
    for fc in free:
        v = [Fraction(0)] * nc
        v[fc] = Fraction(1)
        for ri, pc in enumerate(pivots):
            v[pc] = -a[ri][fc]
        basis.append(tuple(v))
    return basis


def gram_matrix(vectors: Sequence[Sequence[Rational]],
                metric: MetricLike) -> ExactMatrix:
    """Pairwise scalar products of the given vectors."""
    return ExactMatrix.from_rows(
        [[scalar_product(u, v, metric) for v in vectors] for u in vectors])


def classify_map(m: ExactMatrix, metric_from: MetricLike,
                 metric_to: MetricLike) -> MapClass:
    """Decide whether M is an isometry or anti-isometry via its Gram matrix.

    Comparing M^T G_to M against +-G_from suffices because both sides are
    the bilinear forms <Mx,My> and <x,y> evaluated on all basis pairs.
    """
    signs_from = metric_signs(metric_from)
    signs_to = metric_signs(metric_to)
    if m.cols != len(signs_from) or m.rows != len(signs_to):
        raise ValueError("matrix shape does not match the given metrics")
    cols = [m.column(j) for j in range(1, m.cols + 1)]
    iso = True
    anti = True
    for i, ci in enumerate(cols):
        for j in range(i, len(cols)):
            got = scalar_product(ci, cols[j], signs_to)
            want = Fraction(signs_from[i]) if i == j else Fraction(0)
            if got != want:
                iso = False
            if got != -want:
                anti = False
            if not iso and not anti:
                return MapClass.NEITHER
    if iso:
        return MapClass.ISOMETRY
    return MapClass.ANTI_ISOMETRY
