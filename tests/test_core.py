import random
from fractions import Fraction

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

import pseudoht.core as core
from pseudoht.catalog import min_module_dim
from pseudoht.algebra import (
    OpaqueProvenance,
    PseudoHTypeAlgebra,
    SignedPermutationOp,
    StructureTensor,
)
from pseudoht.core import (
    ExactMatrix,
    MapClass,
    Signature,
    basis_vector,
    epsilon,
    exact_det,
    exact_rank,
    gram_matrix,
    metric_signs,
    nullspace,
    scalar_product,
)
from pseudoht.extension import standard_chain
from pseudoht.morphism import LieMorphism, canonical_map, classify_morphism

from matrix_ops import apply, gram_class, mul, transpose

rationals = st.builds(
    Fraction,
    st.integers(min_value=-40, max_value=40),
    st.integers(min_value=1, max_value=12),
)


def test_epsilon_values():
    assert epsilon(1, Signature(1, 1)) == 1
    assert epsilon(2, Signature(1, 1)) == -1
    assert epsilon(5, Signature(4, 4)) == -1


@pytest.mark.parametrize("counts", [(1.5, 0), (True, 0), (1.0, 0), (0, 2.0)],
                         ids=["float", "bool", "integral-float",
                              "second-count"])
def test_signature_counts_are_ints_only(counts):
    with pytest.raises(ValueError, match="must be ints") as exc:
        Signature(*counts)
    assert str(counts) in str(exc.value)


def test_epsilon_out_of_range():
    with pytest.raises(IndexError):
        epsilon(0, Signature(2, 2))
    with pytest.raises(IndexError):
        epsilon(5, Signature(2, 2))


@given(st.integers(min_value=0, max_value=6), st.integers(min_value=0, max_value=6))
def test_epsilon_squares_to_one(r, s):
    sig = Signature(r, s)
    for i in range(1, sig.dim + 1):
        assert epsilon(i, sig) ** 2 == 1


def test_scalar_product_basis_vectors():
    sig = Signature(3, 2)
    e1 = basis_vector(1, 5)
    e4 = basis_vector(4, 5)
    assert scalar_product(e1, e1, sig) == 1
    assert scalar_product(e4, e4, sig) == -1
    null = tuple(a + b for a, b in zip(e1, e4))
    assert scalar_product(null, null, sig) == 0


def test_scalar_product_length_mismatch():
    with pytest.raises(ValueError):
        scalar_product([1, 2], [1, 2, 3], Signature(2, 1))


@settings(max_examples=60)
@given(st.lists(rationals, min_size=4, max_size=4),
       st.lists(rationals, min_size=4, max_size=4),
       st.lists(rationals, min_size=4, max_size=4),
       rationals)
def test_scalar_product_symmetric_bilinear(x, y, z, c):
    sig = Signature(2, 2)
    assert scalar_product(x, y, sig) == scalar_product(y, x, sig)
    xz = [a + c * b for a, b in zip(x, z)]
    assert (scalar_product(xz, y, sig)
            == scalar_product(x, y, sig) + c * scalar_product(z, y, sig))


def test_metric_signs_rejects_bad_entries():
    with pytest.raises(ValueError):
        metric_signs([1, 0, -1])


def test_rank_and_det_identity():
    for n in (0, 5):    # the empty matrix has rank 0 and determinant 1
        m = ExactMatrix.identity(n).entries
        assert exact_rank(m) == n
        assert exact_det(m) == 1


def test_rank_zero_matrix():
    assert exact_rank([[0] * 4 for _ in range(3)]) == 0


def test_det_known_values():
    assert exact_det([[1, 2], [3, 4]]) == -2
    assert exact_det([[Fraction(1, 2), 1], [1, Fraction(1, 2)]]) == Fraction(-3, 4)
    assert exact_det([[0, 1, 2], [0, 0, 3], [0, 0, 0]]) == 0


def test_rank_rectangular_with_dependent_rows():
    assert exact_rank([[1, 2, 3, 4], [2, 4, 6, 8], [0, 1, 0, 1]]) == 2


def test_rows_api_refuses_malformed_rows():
    for routine in (exact_rank, exact_det, nullspace):
        with pytest.raises(ValueError, match="ragged"):
            routine([[1, 2], [3]])
    with pytest.raises(ValueError, match="no rows"):
        nullspace([])    # no rows, so no column count
    with pytest.raises(ValueError, match="non-square"):
        exact_det([[1, 2, 3], [4, 5, 6]])


def test_fraction_rows_match_their_cleared_integer_rows():
    # rows of Fractions and of ints give the rank, kernel and determinant
    # of the same rational matrix
    half = Fraction(1, 2)
    rows = [[half, 1, Fraction(3, 2)], [1, 2, 3], [0, Fraction(1, 3), 1]]
    ints = [[1, 2, 3], [1, 2, 3], [0, 1, 3]]
    assert exact_rank(rows) == exact_rank(ints) == 2
    assert nullspace(rows) == nullspace(ints) == [(3, -3, 1)]
    assert exact_det(rows) == 0
    det = exact_det([[half, 1], [Fraction(1, 3), 2]])
    assert det == Fraction(2, 3) and type(det) is Fraction


def test_rank_equals_rank_of_gram():
    # 200 random integer matrices with entries in [-3, 3]
    rng = random.Random(20240)
    for _ in range(200):
        rows = rng.randint(1, 6)
        cols = rng.randint(1, 6)
        m = ExactMatrix.from_rows(
            [[rng.randint(-3, 3) for _ in range(cols)] for _ in range(rows)])
        mmT = mul(m, transpose(m))
        assert exact_rank(m.entries) == exact_rank(mmT.entries)


def test_rank_matches_fraction_gauss_reference():
    # cross-check the fraction-free elimination against plain Gauss over Q
    def gauss_rank(m):
        a = [list(r) for r in m.entries]
        nr, nc = m.rows, m.cols
        r = 0
        for c in range(nc):
            piv = next((i for i in range(r, nr) if a[i][c] != 0), None)
            if piv is None:
                continue
            a[r], a[piv] = a[piv], a[r]
            for i in range(nr):
                if i != r and a[i][c] != 0:
                    f = a[i][c] / a[r][c]
                    a[i] = [x - f * y for x, y in zip(a[i], a[r])]
            r += 1
        return r

    rng = random.Random(7)
    for _ in range(150):
        rows = rng.randint(1, 5)
        cols = rng.randint(1, 5)
        m = ExactMatrix.from_rows(
            [[Fraction(rng.randint(-6, 6), rng.randint(1, 4)) for _ in range(cols)]
             for _ in range(rows)])
        assert exact_rank(m.entries) == gauss_rank(m)


def test_det_multiplicative_on_random_int_matrices():
    rng = random.Random(99)
    for _ in range(60):
        n = rng.randint(1, 5)
        a = ExactMatrix.from_rows([[rng.randint(-4, 4) for _ in range(n)] for _ in range(n)])
        b = ExactMatrix.from_rows([[rng.randint(-4, 4) for _ in range(n)] for _ in range(n)])
        assert (exact_det(mul(a, b).entries)
                == exact_det(a.entries) * exact_det(b.entries))


def test_nullspace_basic():
    m = ExactMatrix.from_rows([[1, 1, 0], [0, 0, 1]])
    basis = nullspace(m.entries)
    assert len(basis) == 1
    v = basis[0]
    assert apply(m, v) == (0, 0)


def test_nullspace_dimension_theorem():
    # integer and rational matrices alike get an integer basis
    rng = random.Random(5)
    for trial in range(160):
        rows = rng.randint(1, 5)
        cols = rng.randint(1, 6)
        den = 1 if trial < 80 else 4
        m = ExactMatrix.from_rows(
            [[Fraction(rng.randint(-3, 3), rng.randint(1, den))
              for _ in range(cols)] for _ in range(rows)])
        basis = nullspace(m.entries)
        assert len(basis) == cols - exact_rank(m.entries)
        for v in basis:
            assert all(type(e) is int for e in v)
            assert all(e == 0 for e in apply(m, v))


def _classify(rows, src: Signature, dst: Signature) -> MapClass:
    """classify_morphism's center action for the center block with these
    rows, between algebras with the given centers and no module."""
    def empty(sig):
        return PseudoHTypeAlgebra(sig, (), StructureTensor(0, sig.dim, []),
                                  OpaqueProvenance({}))

    f = LieMorphism(empty(src), empty(dst), SignedPermutationOp((), ()),
                    ExactMatrix.from_rows(rows))
    return classify_morphism(f).center_action


def test_classify_identity_is_isometry():
    m = ExactMatrix.identity(4).entries
    assert _classify(m, Signature(2, 2), Signature(2, 2)) == MapClass.ISOMETRY


def test_classify_swap_on_1_1_is_anti_isometry():
    # Z_1 <-> Z_2 between the two basis directions of a (1,1) space
    m = [[0, 1], [1, 0]]
    assert _classify(m, Signature(1, 1), Signature(1, 1)) == MapClass.ANTI_ISOMETRY


def test_classify_isometry_closed_under_inverse():
    # signed permutations with an even number of sign flips per metric block
    rng = random.Random(31)
    sig = Signature(2, 2)
    for _ in range(40):
        perm = [1, 2, 3, 4]
        # permute within the positive and negative blocks so the map stays isometric
        rng.shuffle(perm[0:2])
        rng.shuffle(perm[2:4])
        flip = [rng.choice([1, -1]) for _ in range(4)]
        rows = [[0] * 4 for _ in range(4)]
        for col, (img, s) in enumerate(zip(perm, flip)):
            rows[img - 1][col] = s
        assert _classify(rows, sig, sig) == MapClass.ISOMETRY
        inv = list(zip(*rows))  # signed permutation matrices are orthogonal
        assert _classify(inv, sig, sig) == MapClass.ISOMETRY


def test_gram_matrix():
    g = gram_matrix([basis_vector(1, 3), basis_vector(3, 3)], Signature(1, 2))
    assert g == [[1, 0], [0, -1]]
    # the table of signed scalar products, for Fraction entries too
    rng = random.Random(11)
    for _ in range(40):
        signs = [rng.choice([1, -1]) for _ in range(4)]
        vecs = [[Fraction(rng.randint(-5, 5), rng.randint(1, 3)) for _ in range(4)]
                for _ in range(rng.randint(0, 4))]
        assert gram_matrix(vecs, signs) == [
            [scalar_product(u, v, signs) for v in vecs] for u in vecs]
    with pytest.raises(ValueError):
        gram_matrix([[1, 2]], Signature(2, 1))


# --- the reading of a center block's signs against the Gram reference ---

def _both_paths(rows, src: Signature, dst: Signature) -> MapClass:
    got = _classify(rows, src, dst)
    assert got == gram_class(ExactMatrix.from_rows(rows), src.signs(),
                             dst.signs())
    return got


def test_classify_reads_every_canonical_center_map_from_its_signs():
    seen = set()
    for r in range(13):
        for s in range(13):
            if standard_chain(r, s) is None or min_module_dim(r, s) > 512:
                continue
            cmap = canonical_map(r, s)
            if cmap is None:
                continue
            rows = cmap.center.matrix().entries
            assert core.signed_permutation(rows) is not None
            # every canonical map swaps the center's signs; read against
            # the source metric on both sides, the same rows give the
            # other outcomes
            assert _both_paths(rows, cmap.src.center_sig, cmap.dst.center_sig) \
                == MapClass.ANTI_ISOMETRY
            seen.add(_both_paths(rows, cmap.src.center_sig,
                                 cmap.src.center_sig))
    assert seen == set(MapClass)


def _permutation_rows(image, flips, one):
    """Rows of the signed permutation sending e_j to flips[j] * e_image[j],
    0-based, its entries one times +-1."""
    rows = [[0] * len(image) for _ in image]
    for col, (row, flip) in enumerate(zip(image, flips)):
        rows[row][col] = flip * one
    return rows


@given(st.integers(0, 6), st.permutations(range(6)),
       st.lists(st.sampled_from((1, -1)), min_size=6, max_size=6),
       st.sampled_from((1, Fraction(1))))
@settings(max_examples=200, deadline=None)
def test_classify_mixed_sign_permutations_on_both_paths(p, perm, flips, one):
    sig, swap = Signature(p, 6 - p), Signature(6 - p, p)
    for dst in (sig, swap):
        _both_paths(_permutation_rows(perm, flips, one), sig, dst)
    # images chosen so that each outcome is reached: the positive and
    # negative sources of sig go to targets of the same sign, or of the
    # opposite sign in swap
    pos, neg = [i for i in perm if i < p], [i for i in perm if i >= p]
    assert _both_paths(_permutation_rows(pos + neg, flips, one), sig, sig) \
        == MapClass.ISOMETRY
    anti = [6 - p + i for i in pos] + [i - p for i in neg]
    assert _both_paths(_permutation_rows(anti, flips, one), sig, swap) \
        == MapClass.ANTI_ISOMETRY
