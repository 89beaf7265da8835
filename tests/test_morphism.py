from fractions import Fraction

import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

import pseudoht.catalog as catalog
import pseudoht.morphism as morphism
from pseudoht.algebra import (
    OpaqueProvenance,
    PseudoHTypeAlgebra,
    SignedPermutationOp,
    StructureTensor,
)
from pseudoht.catalog import UnsupportedSignatureError, base_algebra, min_module_dim
from pseudoht.core import ExactMatrix, MapClass, Signature
from pseudoht.morphism import (
    LieMorphism,
    canonical_isomorphism,
    canonical_map,
    center_signature_obstruction,
    classify_morphism,
    morphism_to_dict,
    normalize_isomorphism,
    remark_isom_class_check,
    verify_conjugation,
    verify_homomorphism,
)

from matrix_ops import column, mul, transpose


def identity_morphism(a):
    return LieMorphism(a, a, ExactMatrix.identity(a.dim_module),
                       ExactMatrix.identity(a.dim_center))


def test_identity_is_a_homomorphism():
    f = identity_morphism(base_algebra(1, 0))
    assert verify_homomorphism(f).ok
    assert verify_conjugation(f).ok
    cls = classify_morphism(f)
    assert cls.center_action is MapClass.ISOMETRY and cls.integral


def test_center_negation_alone_is_not_a_homomorphism():
    a = base_algebra(1, 0)
    f = LieMorphism(a, a, ExactMatrix.identity(2),
                    ExactMatrix.from_rows([[-1]]))
    v = verify_homomorphism(f)
    assert not v.ok
    assert v.witness == (1, 2)


def test_published_automorphism_of_1_1():
    f = canonical_isomorphism(1, 1)
    assert verify_homomorphism(f).ok
    assert f.C.entries == ((0, 1), (1, 0))  # Z_1 <-> Z_2
    assert classify_morphism(f).center_action is MapClass.ANTI_ISOMETRY


def test_published_signs_of_definite_base_maps():
    four = canonical_map(4, 0)
    assert [four.module.sign[i - 1] for i in (1, 2, 3, 4, 5)] == [1, -1, -1, -1, 1]
    eight = canonical_map(8, 0)
    assert eight.module.apply_basis(2) == (2, -1)
    assert eight.module.apply_basis(9) == (9, 1)
    assert eight.center == SignedPermutationOp.identity(8)


def test_published_cells_of_4_4_automorphism():
    m = canonical_map(4, 4)
    assert m.module.apply_basis(8) == (8, -1)   # y_8 -> -y_8
    assert m.center.apply_basis(1) == (5, 1)    # Z_1 -> Z_5
    f = m.to_morphism()
    assert verify_homomorphism(f).ok and verify_conjugation(f).ok


FAMILY = ([(r, 0) for r in (1, 2, 4, 8, 9, 10, 12)]
          + [(r, 8) for r in (1, 2)] + [(8, 1), (5, 4), (4, 5), (6, 4),
                                        (1, 1), (2, 2), (4, 4), (5, 5), (0, 2)])


@pytest.mark.parametrize("rs", FAMILY)
def test_family_maps_verify(rs):
    f = canonical_isomorphism(*rs)
    assert f is not None
    assert verify_homomorphism(f).ok
    assert verify_conjugation(f).ok
    cls = classify_morphism(f)
    assert cls.integral and cls.center_action is MapClass.ANTI_ISOMETRY


@pytest.mark.parametrize("rs", [(1, 1), (2, 2), (4, 4), (1, 8), (5, 4), (5, 5)])
def test_family_maps_satisfy_block_class_constraints(rs):
    cmap = canonical_map(*rs)
    assert remark_isom_class_check(cmap).ok


@pytest.mark.parametrize("rs", [(3, 2), (2, 3), (3, 3), (7, 7), (3, 0), (6, 1)])
def test_no_canonical_map_outside_the_families(rs):
    assert canonical_isomorphism(*rs) is None


def test_every_matrix_entry_is_signed_unit():
    f = canonical_isomorphism(9, 0)
    assert isinstance(f.A, SignedPermutationOp)
    for m in (f.A.matrix(), f.C):
        for j in range(1, m.cols + 1):
            col = [e for e in column(m, j) if e]
            assert len(col) == 1 and col[0] in (-1, 1)


def _compose(g, f):
    """g after f as a LieMorphism, composed as dense matrices."""
    return LieMorphism(f.src, g.dst, mul(g.A.matrix(), f.A.matrix()),
                       mul(g.C, f.C))


@pytest.mark.parametrize("rs", [(1, 0), (4, 0), (1, 8), (5, 4)])
def test_round_trip_composition_is_isometric_automorphism(rs):
    r, s = rs
    fwd = canonical_isomorphism(r, s)
    back = canonical_isomorphism(s, r)
    auto = _compose(back, fwd)
    assert verify_homomorphism(auto).ok
    assert classify_morphism(auto).center_action is MapClass.ISOMETRY


def test_normalize_already_normalized():
    f = canonical_isomorphism(1, 0)
    g, sign = normalize_isomorphism(f)
    assert sign == -1
    assert g.A == f.A and g.C.entries == f.C.entries


def test_normalize_automorphism_of_2_2_has_anti_isometric_square():
    g, sign = normalize_isomorphism(canonical_isomorphism(2, 2))
    assert sign == -1


def test_normalize_rejects_singular_module_block():
    # a singular block is no signed permutation, so no morphism holds one
    a = base_algebra(1, 0)
    # the zero block, and one +-1 in every column but both in the same row
    for rows in ([[0, 0], [0, 0]], [[1, 1], [0, 0]]):
        with pytest.raises(ValueError, match="module block is not a signed "
                                             "permutation"):
            normalize_isomorphism(LieMorphism(
                a, a, ExactMatrix.from_rows(rows), ExactMatrix.identity(1)))


def test_normalize_refuses_a_non_square_center_block():
    # C sends Z_1, Z_2, Z_4, Z_5 of (3,2) to the orthonormal basis of
    # (2,2): C G_src C^T = G_dst, but a signed permutation is square, so
    # no morphism holds this C
    rows = [[1, 0, 0, 0, 0], [0, 1, 0, 0, 0], [0, 0, 0, 1, 0], [0, 0, 0, 0, 1]]
    with pytest.raises(ValueError, match="center block is not a signed "
                                         "permutation"):
        normalize_isomorphism(LieMorphism(
            base_algebra(3, 2), base_algebra(2, 2), ExactMatrix.identity(8),
            ExactMatrix.from_rows(rows)))


def test_conjugation_fails_for_wrong_center_block():
    # keep the module block of the (1,0) map but break the center block:
    # the homomorphism check fails, and so does the conjugation relation.
    f = canonical_isomorphism(1, 0)
    bad = LieMorphism(f.src, f.dst, f.A, ExactMatrix.from_rows(
        [[-e for e in row] for row in f.C.entries]))
    assert not verify_homomorphism(bad).ok
    assert not verify_conjugation(bad).ok


def test_the_relation_never_densifies_a_signed_block(monkeypatch):
    # phi_(9,8) (module dim 512) with one center image negated: the
    # relation reads A from its image and signs and J from the J table
    # rows, so no block is made a dense matrix
    f = canonical_isomorphism(9, 8)
    rows = [list(row) for row in f.C.entries]
    for row in rows:
        row[0] = -row[0]
    bad = LieMorphism(f.src, f.dst, f.A, ExactMatrix.from_rows(rows))
    k = next(i for i, row in enumerate(rows, start=1) if row[0])

    def refuse(*args):
        raise AssertionError("a block was densified")

    monkeypatch.setattr(SignedPermutationOp, "matrix", refuse)
    monkeypatch.setattr(ExactMatrix, "from_rows", refuse)
    assert verify_conjugation(f).ok
    assert verify_conjugation(bad).witness[0] == k


def test_center_signature_obstruction_cases():
    assert center_signature_obstruction(Signature(2, 0), Signature(1, 1))[0] \
        == "NOT_ISO_SIGNATURE"
    kind, reason = center_signature_obstruction(Signature(3, 0), Signature(0, 3))
    assert kind == "NOT_ISO_DIM" and "4 vs 8" in reason
    assert center_signature_obstruction(Signature(1, 0), Signature(0, 1)) is None
    kind, reason = center_signature_obstruction(Signature(2, 1), Signature(2, 2))
    assert kind == "NOT_ISO_DIM" and "dimensions differ" in reason
    # the identity answers unless the center block must be anti-isometric,
    # and an anti-isometry of an (r,s) center lands on (s,r)
    assert center_signature_obstruction(Signature(2, 3), Signature(2, 3)) \
        == ("ISO", "identity automorphism")
    kind, reason = center_signature_obstruction(Signature(2, 3), Signature(2, 3),
                                                anti_only=True)
    assert kind == "NOT_ISO_SIGNATURE" and "Sylvester" in reason
    assert center_signature_obstruction(Signature(3, 3), Signature(3, 3),
                                        anti_only=True) is None
    assert center_signature_obstruction(Signature(3, 2), Signature(2, 3),
                                        anti_only=True) is None
    assert center_signature_obstruction(Signature(2, 0), Signature(1, 1),
                                        anti_only=True)[0] == "NOT_ISO_SIGNATURE"


def test_morphism_json_shape():
    d = morphism_to_dict(canonical_isomorphism(2, 0))
    assert list(d) == ["src", "dst", "A", "C", "class"]
    assert d["class"] == {"center_action": "ANTI_ISOMETRY", "integral": True}
    # both blocks are signed permutations, each written as image and signs
    assert list(d["A"]) == ["image", "sign"]
    assert sorted(d["A"]["image"]) == [1, 2, 3, 4]
    assert {type(e) for e in d["A"]["sign"]} == {int}
    assert d["C"] == {"image": [1, 2], "sign": [1, 1]}
    # a dense A is held, and written, as its signed permutation, and a C
    # made from rows is written as the signs it is recognized as
    f = canonical_isomorphism(2, 0)
    dense = LieMorphism(f.src, f.dst, f.A.matrix(),
                        ExactMatrix.from_rows(f.C.entries))
    assert dense.A == f.A and morphism_to_dict(dense) == d


def test_block_shape_validation():
    a = base_algebra(1, 0)
    with pytest.raises(ValueError):
        LieMorphism(a, a, ExactMatrix.identity(3), ExactMatrix.identity(1))
    with pytest.raises(ValueError):
        LieMorphism(a, a, ExactMatrix.identity(2), ExactMatrix.identity(2))
    # blocks of the right shape that are no signed permutation
    with pytest.raises(ValueError, match="module block is not a signed"):
        LieMorphism(a, a, ExactMatrix.from_rows([[2, 0], [0, 2]]),
                    ExactMatrix.identity(1))
    for c in ([[2]], [[0]]):
        with pytest.raises(ValueError, match="center block is not a signed"):
            LieMorphism(a, a, ExactMatrix.identity(2), ExactMatrix.from_rows(c))
    # a block holds ints: a rational entry is refused before any morphism
    with pytest.raises(ValueError, match="must be ints"):
        ExactMatrix.from_rows([[Fraction(1, 2)]])


@pytest.mark.parametrize("r", [0, 3])
def test_the_relation_holds_on_an_empty_module(r):
    # the signed relation gathers each J row through one itemgetter, which
    # needs an index; an empty module has none and every side is empty
    a = PseudoHTypeAlgebra(
        Signature(r, 0), (), StructureTensor(0, r, []), OpaqueProvenance({}))
    f = LieMorphism(a, a, SignedPermutationOp((), ()),
                    SignedPermutationOp.identity(r).matrix())
    assert verify_homomorphism(f).ok and verify_conjugation(f).ok


# --- kept canonical maps and the signed normalization ------------------------

def _constructible(max_dim=512):
    """(r, s) with r, s <= 12 whose canonical map exists, up to max_dim."""
    out = []
    for r in range(13):
        for s in range(13):
            if (r, s) == (0, 0):
                continue
            try:
                if min_module_dim(r, s) > max_dim:
                    continue
            except UnsupportedSignatureError:
                continue
            if canonical_map(r, s) is not None:
                out.append((r, s))
    return out


def test_a_shared_source_keeps_one_canonical_map(cache):
    # an empty cache holds every source and destination at once; one that
    # earlier tests filled may evict a dim-512 source between two calls
    pairs = _constructible()
    assert len(pairs) == 40 and (12, 5) in pairs and (5, 12) in pairs
    shared = {rs: canonical_map(*rs) for rs in pairs}
    for rs, cmap in shared.items():
        assert canonical_map(*rs) is cmap, rs
    # with nothing shared every call builds anew, and gives an equal map
    with catalog.scope(0):
        for rs, cmap in shared.items():
            private = canonical_map(*rs)
            assert private is not cmap and private is not canonical_map(*rs)
            assert private == cmap, rs
            assert private.src is not cmap.src
            assert "_canonical_map" not in vars(private.src)


def test_a_source_above_the_cap_gets_a_new_map():
    # cap 8: n_(1,0) and n_(0,1) stay shared, their dim-32 steps do not
    with catalog.scope(64):
        one, again = canonical_map(1, 8), canonical_map(1, 8)
        assert one is not again and one == again
        assert one.src is not again.src
        assert "_canonical_map" not in vars(one.src)
        assert canonical_map(1, 0) is canonical_map(1, 0)


def test_an_inverse_is_kept_on_its_forward_map():
    fwd = canonical_map(9, 1)
    back = canonical_map(1, 9)
    assert canonical_map(1, 9) is back and vars(fwd)["_inverse"] is back
    assert back == fwd.inverse()


def test_the_kept_map_is_not_a_field():
    cmap = canonical_map(4, 4)
    assert "_canonical_map" in vars(cmap.src)
    fresh = morphism.CanonicalMap(cmap.src, cmap.dst, cmap.module,
                                  cmap.center)
    assert cmap == fresh and hash(cmap) == hash(fresh)
    assert repr(cmap) == repr(fresh)
    private = catalog._build_base(4, 4)
    assert cmap.src == private and hash(cmap.src) == hash(private)


def _normalized_sign(f, gram: bool):
    """t of normalize_isomorphism(f), or the ValueError's message; with
    gram, t is read off the Gram reference C G_src C^T G_dst = t Id,
    computed as a dense product, not from C's signs."""
    if gram:
        g_src, g_dst = (ExactMatrix.from_rows(
            [[e if i == j else 0 for j in range(len(signs))]
             for i, e in enumerate(signs)])
            for signs in (f.src.center_sig.signs(), f.dst.center_sig.signs()))
        product = mul(mul(mul(f.C, g_src), transpose(f.C)), g_dst).entries
        for t in (1, -1):
            if product == ExactMatrix.from_rows(
                    [[t if i == j else 0 for j in range(f.C.rows)]
                     for i in range(f.C.rows)]).entries:
                return t
        return "C C^tau is not +-identity"
    try:
        g, t = normalize_isomorphism(f)
    except ValueError as exc:
        return str(exc)
    assert g is f
    return t


def test_the_signed_normalization_agrees_with_the_gram_path():
    for rs in _constructible():
        f = canonical_map(*rs).to_morphism()
        assert _normalized_sign(f, gram=False) == \
            _normalized_sign(f, gram=True) == -1, rs


def test_a_signed_center_block_is_normalized_without_a_gram_matrix():
    # normalize_isomorphism reads C's signs: morphism holds no Gram, rank
    # or determinant routine, and returns the map as it is
    assert not {"gram_matrix", "exact_det", "exact_rank", "classify_map"} \
        & vars(morphism).keys()
    f = canonical_isomorphism(9, 8)
    assert normalize_isomorphism(f) == (f, -1)
    # a rescaled C with a signed A is no morphism
    f = canonical_isomorphism(1, 0)
    with pytest.raises(ValueError, match="center block is not a signed "
                                         "permutation"):
        LieMorphism(f.src, f.dst, f.A, ExactMatrix.from_rows([[4]]))


def _empty_module(sig: Signature) -> PseudoHTypeAlgebra:
    return PseudoHTypeAlgebra(
        sig, (), StructureTensor(0, sig.dim, []), OpaqueProvenance({}))


@st.composite
def _signed_centers(draw):
    n = draw(st.integers(0, 8))
    src = Signature(p := draw(st.integers(0, n)), n - p)
    dst = Signature(q := draw(st.integers(0, n)), n - q)
    image = draw(st.permutations(range(1, n + 1)))
    sign = draw(st.lists(st.sampled_from((1, -1)), min_size=n, max_size=n))
    return src, dst, SignedPermutationOp(tuple(image), tuple(sign))


@given(_signed_centers())
@settings(max_examples=300, deadline=None)
@example((Signature(1, 1), Signature(1, 1),
          SignedPermutationOp((1, 2), (1, -1))))      # C C^tau = +Id
@example((Signature(1, 1), Signature(1, 1),
          SignedPermutationOp((2, 1), (1, 1))))       # C C^tau = -Id
@example((Signature(1, 1), Signature(2, 0),
          SignedPermutationOp((1, 2), (1, 1))))       # diag(1, -1)
@example((Signature(0, 0), Signature(0, 0), SignedPermutationOp((), ())))
def test_signed_and_gram_normalizations_agree(case):
    src, dst, c = case
    f = LieMorphism(_empty_module(src), _empty_module(dst),
                    SignedPermutationOp((), ()), c.matrix())
    signed, gram = _normalized_sign(f, gram=False), \
        _normalized_sign(f, gram=True)
    assert signed == gram
    products = {a * dst.signs()[row - 1]
                for a, row in zip(src.signs(), c.image)}
    if len(products) > 1:
        assert signed == "C C^tau is not +-identity"
    else:
        assert signed == (products.pop() if products else 1)
