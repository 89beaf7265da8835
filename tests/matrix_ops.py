"""Dense products, transposes and columns of ExactMatrix, for the tests.

The package reads a matrix as its rows and never multiplies two; these
helpers let a test build a product, a Gram matrix or a composed morphism
to compare the engine's answers with.  Entries keep their number type, as
ExactMatrix keeps them.
"""

from typing import Sequence

from pseudoht.core import ExactMatrix, Rational, Vector, exact


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
