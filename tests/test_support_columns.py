"""Rank, determinant and Gram determinant on matrices with zero columns.

exact_rank and gram_matrix work on the columns where some row is nonzero,
and gram_det and adjoint_rank go through them; nullspace keeps every
column.  Each is compared here with a dense Gauss-Jordan elimination over
Fractions that sees every column, on seeded sparse integer matrices with
zero columns, all-zero rows and no rows, and on adjoint rows of catalog
algebras and extensions at sparse vectors.
"""

import random
from fractions import Fraction

import pytest

from pseudoht.catalog import BASE_IDS, base_algebra
from pseudoht.core import exact_det, exact_rank, gram_matrix, nullspace
from pseudoht.extension import ExtensionStep, extend
from pseudoht.obstruction import adjoint_rank, gram_det


def _gauss_jordan(rows):
    """(reduced rows, pivot columns, determinant) over Fractions, every
    column eliminated; the determinant is that of a square matrix."""
    a = [[Fraction(e) for e in row] for row in rows]
    cols = len(a[0]) if a else 0
    pivots = []
    det = Fraction(1)
    for c in range(cols):
        r = len(pivots)
        piv = next((i for i in range(r, len(a)) if a[i][c]), None)
        if piv is None:
            det = Fraction(0)
            continue
        if piv != r:
            a[r], a[piv] = a[piv], a[r]
            det = -det
        det *= a[r][c]
        a[r] = [e / a[r][c] for e in a[r]]
        for i in range(len(a)):
            if i != r and a[i][c]:
                f = a[i][c]
                a[i] = [x - f * y for x, y in zip(a[i], a[r])]
        pivots.append(c)
    return a, pivots, det


def _sparse_matrix(rng, rows, cols):
    """Entries in -3..3, mostly zero, with a third of the columns and a
    quarter of the rows zero throughout."""
    dead_cols = set(rng.sample(range(cols), cols // 3))
    dead_rows = set(rng.sample(range(rows), rows // 4))
    return [[0 if i in dead_rows or j in dead_cols or rng.random() < 0.6
             else rng.choice((-3, -2, -1, 1, 2, 3))
             for j in range(cols)] for i in range(rows)]


def _matrices():
    rng = random.Random(32)
    out = [_sparse_matrix(rng, rng.randint(1, 9), rng.randint(1, 12))
           for _ in range(300)]
    square = [[2, 0, 1], [1, 0, -1], [3, 0, 4]]      # a zero column: det 0
    out += [square, [[0, 0, 0], [0, 0, 0]], [[0, 5, 0, 0]], [[7]], [[0]]]
    return out


def test_rank_and_det_equal_the_dense_reference():
    for rows in _matrices():
        _red, pivots, det = _gauss_jordan(rows)
        assert exact_rank(rows) == len(pivots), rows
        fractions = [[Fraction(e, 2) for e in row] for row in rows]
        assert exact_rank(fractions) == len(pivots), rows
        if len(rows) == len(rows[0]):
            assert exact_det(rows) == det, rows
    assert exact_det([[2, 0, 1], [1, 0, -1], [3, 0, 4]]) == 0


def test_a_matrix_with_no_rows():
    assert exact_rank([]) == 0
    assert exact_det([]) == 1
    assert gram_matrix([], (1, -1)) == []
    with pytest.raises(ValueError):
        nullspace([])


def test_gram_matrix_equals_the_dense_products():
    rng = random.Random(33)
    for rows in _matrices():
        signs = [rng.choice((1, -1)) for _ in rows[0]]
        want = [[sum(s * x * y for s, x, y in zip(signs, u, v)) for v in rows]
                for u in rows]
        assert gram_matrix(rows, signs) == want


def test_nullspace_keeps_every_column():
    # one vector per free column, zero columns included, each the reduced
    # form's kernel vector times one common nonzero scale
    for rows in _matrices():
        red, pivots, _det = _gauss_jordan(rows)
        cols = len(rows[0])
        free = [c for c in range(cols) if c not in pivots]
        basis = nullspace(rows)
        assert [next(c for c in free if v[c]) for v in basis] == free
        scales = {v[c] for v, c in zip(basis, free)}
        assert len(scales) <= 1 and 0 not in scales
        for v, fc in zip(basis, free):
            want = [Fraction(0)] * cols
            want[fc] = Fraction(1)
            for ri, pc in enumerate(pivots):
                want[pc] = -red[ri][fc]
            assert [Fraction(e, v[fc]) for e in v] == want, rows


def _dense_adjoint(a, x):
    """Column b holds the center coordinates of [x, v_b], read off the
    tensor entries: [v_i, v_j] = s Z_k and [v_j, v_i] = -s Z_k."""
    m = [[Fraction(0)] * a.dim_module for _ in range(a.dim_center)]
    for i, j, k, s in a.tensor.entries:
        m[k - 1][j - 1] += s * Fraction(x[i - 1])
        m[k - 1][i - 1] -= s * Fraction(x[j - 1])
    return m


def _algebras():
    out = [base_algebra(*rs) for rs in BASE_IDS]
    out += [extend(base_algebra(3, 2), ExtensionStep.BY_8_0),
            extend(base_algebra(1, 1), ExtensionStep.BY_4_4)]
    return out


def test_gram_det_and_adjoint_rank_equal_the_dense_reference():
    rng = random.Random(34)
    for a in _algebras():
        for trial in range(8):
            # two to four nonzero coordinates, so that most columns of the
            # adjoint rows are zero; every other vector rational
            x = [0] * a.dim_module
            for i in rng.sample(range(a.dim_module), min(a.dim_module,
                                                         rng.randint(2, 4))):
                x[i] = rng.choice((-2, -1, 1, 3))
                if trial % 2:
                    x[i] = Fraction(x[i], rng.randint(1, 3))
            m = _dense_adjoint(a, x)
            gram = [[sum(p * q for p, q in zip(u, v)) for v in m] for u in m]
            assert gram_det(a, x) == _gauss_jordan(gram)[2], (a.name(), x)
            assert adjoint_rank(a, x) == len(_gauss_jordan(m)[1]), \
                (a.name(), x)
