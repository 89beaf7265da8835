"""Cross-checks that run through independently transcribed data paths."""

from pseudoht.acceptance import PERMUTATION_TABLE_8_0, criterion_2_axioms
from pseudoht.algebra import SignedPermutationOp, j_operator
from pseudoht.catalog import base_algebra
from pseudoht.core import ExactMatrix, exact_rank
from pseudoht.morphism import canonical_isomorphism, verify_conjugation, verify_homomorphism
from pseudoht.obstruction import parity_certificate, solve_parity, parity_system
from pseudoht.sums import build_sum, swap_isomorphism

from test_obstruction import printed_m32  # printed-matrix oracle


def ops_from_permutation_table():
    """The eight operators read straight off the published permutation table."""
    rows = [line.split() for line in PERMUTATION_TABLE_8_0.strip().splitlines()]
    ops = []
    for k in range(8):
        image, sign = [], []
        for j in range(16):
            cell = rows[j][k]
            sign.append(-1 if cell.startswith("-") else 1)
            image.append(int(cell.lstrip("-")[1:]))
        ops.append(SignedPermutationOp(tuple(image), tuple(sign)))
    return ops


def test_table_ops_anticommute():
    ops = ops_from_permutation_table()
    j2, j5 = ops[1], ops[4]
    assert j2.compose(j5) == j5.compose(j2).negate()
    for k in range(8):
        assert ops[k].compose(ops[k]).scalar_action() == -1


def test_table_ops_equal_recovered_ops():
    eight = base_algebra(8, 0)
    for k, op in enumerate(ops_from_permutation_table(), start=1):
        assert op == j_operator(eight, k)


def test_printed_matrix_rank_at_basis_vector():
    # eliminating the printed rank-(3,2) adjoint matrix at the first basis
    # vector gives full rank five
    m = ExactMatrix.from_rows(printed_m32([1, 0, 0, 0, 0, 0, 0, 0]))
    assert exact_rank(m) == 5


def test_parity_soundness_against_canonical_maps():
    """Wherever a canonical map with anti-isometric center exists and the
    destination passes the surjectivity precondition, the parity system must
    be satisfiable.  (The precondition fails on all block-type destinations,
    so the guard is part of what is being tested.)"""
    pairs = [((1, 0), (0, 1)), ((2, 0), (0, 2)), ((4, 0), (0, 4)),
             ((1, 1), (1, 1)), ((2, 2), (2, 2)), ((4, 4), (4, 4))]
    for (r1, s1), (r2, s2) in pairs:
        if canonical_isomorphism(r1, s1) is None:
            continue
        out = parity_certificate(base_algebra(r1, s1), base_algebra(r2, s2))
        if out.precondition.equivalence_holds:
            assert out.feasible
        else:
            # the system itself is still satisfiable for these sources
            assert solve_parity(parity_system(base_algebra(r1, s1)),
                                base_algebra(r1, s1).dim_module).feasible


def test_conjugation_holds_for_independent_verified_morphisms():
    # the conjugation relation is a consequence for any verified isomorphism
    # with invertible module block; cross-check it on maps built elsewhere
    f = swap_isomorphism(build_sum(base_algebra(0, 1), 1, 1))
    assert verify_homomorphism(f).ok
    assert verify_conjugation(f).ok


def test_quick_mode_skips_the_double_extension():
    full = criterion_2_axioms(quick=False)
    quick = criterion_2_axioms(quick=True)
    assert full.passed and quick.passed
    assert full.checks == quick.checks + 1


def test_run_all_reports_every_criterion(paper_reports):
    assert [rep.number for rep in paper_reports] == list(range(1, 9))
    assert sum(0 if rep.passed else 1 for rep in paper_reports) == 1  # criterion 7
