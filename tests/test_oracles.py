"""Cross-checks that run through independently transcribed data paths."""

from functools import lru_cache

from hypothesis import example, given, settings
from hypothesis import strategies as st

import pseudoht.morphism as morphism
from pseudoht.acceptance import PERMUTATION_TABLE_8_0
from pseudoht.algebra import SignedPermutationOp, j_operator
from pseudoht.catalog import base_algebra
from pseudoht.core import ExactMatrix, exact_rank
from pseudoht.morphism import (
    LieMorphism,
    canonical_isomorphism,
    canonical_map,
    verify_conjugation,
    verify_homomorphism,
)
from pseudoht.obstruction import check_pair, parity_certificate, parity_system, solve_parity
from pseudoht.sums import build_sum, swap_isomorphism

from matrix_ops import column
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
    assert exact_rank(printed_m32([1, 0, 0, 0, 0, 0, 0, 0])) == 5


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


@lru_cache(maxsize=4)
def dense(op):
    """A signed-permutation module block as its matrix, built once per op."""
    return op.matrix()


def pair_brackets(f, alpha, beta):
    """([A v_alpha, A v_beta], C [v_alpha, v_beta]) as {index: coefficient}
    center vectors with zeros dropped, read straight off the two tensors."""
    def nonzero(entries):
        return [(i, e) for i, e in enumerate(entries, start=1) if e]

    a = dense(f.A)
    lhs, rhs = {}, {}
    for i, xi in nonzero(column(a, alpha)):
        for j, xj in nonzero(column(a, beta)):
            hit = f.dst.tensor.bracket_pair(i, j)
            if hit is not None:
                k, s = hit
                lhs[k] = lhs.get(k, 0) + s * xi * xj
    hit = f.src.tensor.bracket_pair(alpha, beta)
    if hit is not None:
        k, s = hit
        rhs = {i: s * c for i, c in nonzero(column(f.C, k))}
    return {k: c for k, c in lhs.items() if c}, rhs


def bracket_pair_defect(f):
    """The first basis pair alpha < beta with [A v_alpha, A v_beta] !=
    C [v_alpha, v_beta], or None: the homomorphism property checked pair by
    pair, the reference for the conjugation relation."""
    n = f.src.dim_module
    for alpha in range(1, n + 1):
        for beta in range(alpha + 1, n + 1):
            lhs, rhs = pair_brackets(f, alpha, beta)
            if lhs != rhs:
                return alpha, beta
    return None


def test_conjugation_holds_for_independent_verified_morphisms():
    # the conjugation relation is the homomorphism property read through
    # <J_Z x, y> = <Z, [x, y]>, with no condition on the blocks; cross-check
    # both against the pairwise reference on maps built elsewhere
    f = swap_isomorphism(build_sum(base_algebra(0, 1), 1, 1))
    assert bracket_pair_defect(f) is None
    assert verify_homomorphism(f).ok
    assert verify_conjugation(f).ok


# canonical maps with module dimension 4..64
ORACLE_FAMILY = [(2, 0), (4, 0), (8, 0), (9, 0), (10, 0), (1, 8), (8, 1),
                 (5, 4), (4, 5), (6, 4), (1, 1), (2, 2), (4, 4), (5, 5), (0, 2)]


@st.composite
def mutated_maps(draw):
    """A canonical map with signs flipped and images swapped in A, and C
    times c = +-1; A may be given as its dense matrix, which the morphism
    holds as its signed permutation again."""
    cmap = canonical_map(*draw(st.sampled_from(ORACLE_FAMILY)))
    n = cmap.src.dim_module
    index = st.integers(0, n - 1)
    sign = list(cmap.module.sign)
    for i in draw(st.lists(index, max_size=2)):
        sign[i] = -sign[i]
    image = list(cmap.module.image)
    for i, j in draw(st.lists(st.tuples(index, index), max_size=2)):
        image[i], image[j] = image[j], image[i]
    module = SignedPermutationOp(tuple(image), tuple(sign))
    c = draw(st.sampled_from((1, 1, -1)))
    center = cmap.center.matrix() if c == 1 else cmap.center.negate().matrix()
    if draw(st.booleans()):
        module = module.matrix()
    return LieMorphism(cmap.src, cmap.dst, module, center)


def _dense(rs):
    """phi_rs with its module block given as a dense matrix."""
    f = canonical_isomorphism(*rs)
    return LieMorphism(f.src, f.dst, f.A.matrix(), f.C)


@given(mutated_maps())
@example(_dense((5, 4)))
@settings(max_examples=40, deadline=None)
def test_one_relation_agrees_with_the_pairwise_reference(f):
    hom, con = verify_homomorphism(f), verify_conjugation(f)
    defect = bracket_pair_defect(f)
    assert hom.ok == con.ok == (defect is None)
    if not hom.ok:
        alpha, beta = hom.witness
        assert alpha < beta
        lhs, rhs = pair_brackets(f, alpha, beta)
        assert lhs != rhs


def test_each_center_index_is_checked():
    # negating the image of one center vector breaks the relation at one
    # index k only; both checks must see it, whichever k it is
    f = canonical_isomorphism(5, 4)
    for m in range(f.C.cols):
        c = [list(row) for row in f.C.entries]
        for row in c:
            row[m] = -row[m]
        bad = LieMorphism(f.src, f.dst, f.A, ExactMatrix.from_rows(c))
        k = next(i for i, row in enumerate(c, start=1) if row[m])
        assert verify_conjugation(bad).witness[0] == k
        lhs, rhs = pair_brackets(bad, *verify_homomorphism(bad).witness)
        assert lhs != rhs


def test_check_pair_runs_the_relation_once(cache, monkeypatch):
    calls = []
    inner = morphism._relation_defect
    monkeypatch.setattr(morphism, "_relation_defect",
                        lambda f: calls.append(f) or inner(f))
    assert check_pair(9, 8, 8, 9).kind == "ISO"
    assert len(calls) == 1
    # the map keeps its verdict, so a second certify relates nothing
    assert check_pair(9, 8, 8, 9).kind == "ISO"
    assert len(calls) == 1


def test_run_all_reports_every_criterion(paper_reports):
    assert [rep.number for rep in paper_reports] == list(range(1, 9))
    assert {rep.number for rep in paper_reports if not rep.passed} == {7}
