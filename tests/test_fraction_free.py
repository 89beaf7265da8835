"""Integer input stays on integers: no Fraction is built on the way.

The guard counts calls of Fraction.__new__ while a routine runs on
integer input.  gram_det is the one exception: its result is a Fraction
(the determinant, divided by the scale of the input).
"""

from fractions import Fraction

import pytest

from pseudoht.algebra import verify_general_htype
from pseudoht.catalog import base_algebra
from pseudoht.core import ExactMatrix, exact_rank, nullspace
from pseudoht.obstruction import adjoint_rank, gram_det, verify_sbg_no_witness
from matrix_ops import apply
from test_algebra import sampled_general_htype  # criterion-8 oracle


@pytest.fixture
def fractions_built(monkeypatch):
    built = []
    new = Fraction.__new__

    def counting_new(cls, *args, **kwargs):
        built.append(args)
        return new(cls, *args, **kwargs)

    monkeypatch.setattr(Fraction, "__new__", counting_new)
    return built


def test_guard_counts_fractions(fractions_built):
    Fraction(1, 2)
    assert len(fractions_built) == 1


def test_matrix_kernel_builds_no_fraction(fractions_built):
    m = ExactMatrix.from_rows([[1, 2, 3, 4], [2, 4, 6, 8], [0, 1, 0, 1]])
    assert exact_rank(m.entries) == 2
    basis = nullspace(m.entries)
    assert len(basis) == 2
    assert all(e == 0 for v in basis for e in apply(m, v))
    assert fractions_built == []


def test_adjoint_rank_and_witness_check_build_no_fraction(fractions_built):
    a = base_algebra(3, 2)
    assert adjoint_rank(a, [1, 0, 0, 0, 0, 0, 0, 0]) == 5
    assert adjoint_rank(a, [1, 0, 0, 0, 1, 0, 0, 0]) < 5
    n11 = base_algebra(1, 1)
    assert verify_sbg_no_witness(n11, [1, 1], [0, 1, 1, 0]).ok
    assert not verify_sbg_no_witness(n11, [1, 1], [1, 0, 0, 0]).ok
    assert fractions_built == []


def test_general_htype_builds_no_fraction(fractions_built):
    # the proof's basis witnesses and the sampled oracle's integer vectors
    a = base_algebra(4, 4)
    assert verify_general_htype(a).ok
    assert sampled_general_htype(a, 20)
    assert fractions_built == []


def test_gram_det_builds_only_its_result(fractions_built):
    a = base_algebra(3, 2)
    assert gram_det(a, [1, 0, 0, 0, 0, 0, 0, 0]) == 1
    assert len(fractions_built) <= 2
