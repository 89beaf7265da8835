"""Dense products, transposes and columns of ExactMatrix, for the tests.

The package reads a matrix as its rows and never multiplies two; these
helpers let a test build a product, a Gram matrix or a composed morphism
to compare the engine's answers with.  Entries keep their number type, as
ExactMatrix keeps them.  gram_class is the Gram reading of a map's class,
the reference for the engine's reading of a signed permutation's signs.
"""

from typing import Sequence

from pseudoht.core import ExactMatrix, MapClass, Rational, Vector, exact


def column(m: ExactMatrix, j: int) -> Vector:
    """Column j of m, 1-based."""
    return tuple(row[j - 1] for row in m.entries)


def transpose(m: ExactMatrix) -> ExactMatrix:
    return ExactMatrix(m.cols, m.rows,
                       tuple(zip(*m.entries)) if m.rows else ())


def mul(a: ExactMatrix, b: ExactMatrix) -> ExactMatrix:
    if a.cols != b.rows:
        raise ValueError("dimension mismatch in matrix product")
    cols = tuple(zip(*b.entries))
    return ExactMatrix(a.rows, b.cols, tuple(
        tuple(sum(x * y for x, y in zip(row, col)) for col in cols)
        for row in a.entries))


def apply(m: ExactMatrix, x: Sequence[Rational]) -> Vector:
    if len(x) != m.cols:
        raise ValueError("dimension mismatch in matrix-vector product")
    xs = [exact(e) for e in x]
    return tuple(sum(a * b for a, b in zip(row, xs)) for row in m.entries)


def gram_class(m: ExactMatrix, signs_from: Sequence[int],
               signs_to: Sequence[int]) -> MapClass:
    """ISOMETRY when M^T G_to M = G_from, ANTI_ISOMETRY when it is -G_from,
    NEITHER otherwise: both sides are the bilinear forms <Mx, My> and
    <x, y> on all basis pairs."""
    g_to = ExactMatrix.from_rows([[s if i == j else 0
                                   for j in range(len(signs_to))]
                                  for i, s in enumerate(signs_to)])
    got = mul(transpose(m), mul(g_to, m)).entries
    want = tuple(tuple(s if i == j else 0 for j in range(len(signs_from)))
                 for i, s in enumerate(signs_from))
    if got == want:
        return MapClass.ISOMETRY
    if got == tuple(tuple(-e for e in row) for row in want):
        return MapClass.ANTI_ISOMETRY
    return MapClass.NEITHER
