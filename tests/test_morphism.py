import hashlib

import pytest

from pseudoht import jsonout
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
from pseudoht.obstruction import check_pair

from dense_certificates import densify


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
    assert f.C.get(2, 1) == 1 and f.C.get(1, 2) == 1  # Z_1 <-> Z_2
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
            col = [e for e in m.column(j) if e]
            assert len(col) == 1 and col[0] in (-1, 1)


def _compose(g, f):
    """g after f as a LieMorphism, composed as dense matrices."""
    return LieMorphism(f.src, g.dst, g.A.matrix().mul(f.A.matrix()),
                       g.C.mul(f.C))


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


def test_normalize_rescales_scaled_map():
    f = canonical_isomorphism(1, 0)
    dense = f.A.matrix()
    scaled = LieMorphism(f.src, f.dst, dense.scale(2), f.C.scale(4))
    g, sign = normalize_isomorphism(scaled)
    assert sign == -1
    assert g.A.entries == dense.entries and g.C.entries == f.C.entries


def test_normalize_automorphism_of_2_2_has_anti_isometric_square():
    g, sign = normalize_isomorphism(canonical_isomorphism(2, 2))
    assert sign == -1


def test_normalize_rejects_singular_module_block():
    a = base_algebra(1, 0)
    f = LieMorphism(a, a, ExactMatrix.zero(2, 2), ExactMatrix.identity(1))
    with pytest.raises(ValueError):
        normalize_isomorphism(f)
    # one +-1 in every column, but both in the same row
    f = LieMorphism(a, a, ExactMatrix.from_rows([[1, 1], [0, 0]]),
                    ExactMatrix.identity(1))
    with pytest.raises(ValueError, match="module block is singular"):
        normalize_isomorphism(f)


def test_conjugation_fails_for_wrong_center_block():
    # keep the module block of the (1,0) map but break the center block:
    # the homomorphism check fails, and so does the conjugation relation.
    f = canonical_isomorphism(1, 0)
    bad = LieMorphism(f.src, f.dst, f.A, f.C.scale(-1))
    assert not verify_homomorphism(bad).ok
    assert not verify_conjugation(bad).ok


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
    # a signed-permutation A is its image and signs; C stays dense rows
    assert list(d["A"]) == ["image", "sign"]
    assert sorted(d["A"]["image"]) == [1, 2, 3, 4]
    assert {type(e) for e in d["A"]["sign"]} == {int}
    assert len(d["C"]) == 2 and all(len(row) == 2 for row in d["C"])


def test_morphism_json_writes_dense_rows_for_a_scaled_module_block():
    f = canonical_isomorphism(2, 0)
    d = morphism_to_dict(LieMorphism(f.src, f.dst, f.A.matrix().scale(2),
                                     f.C.scale(4)))
    assert d["A"] == [[2 * e for e in row] for row in f.A.matrix().entries]
    assert d["class"]["integral"] is False
    # a dense block that is a signed permutation is written compactly
    dense = morphism_to_dict(LieMorphism(f.src, f.dst, f.A.matrix(), f.C))
    assert dense == morphism_to_dict(f)


def test_block_shape_validation():
    a = base_algebra(1, 0)
    with pytest.raises(ValueError):
        LieMorphism(a, a, ExactMatrix.identity(3), ExactMatrix.identity(1))
    with pytest.raises(ValueError):
        LieMorphism(a, a, ExactMatrix.identity(2), ExactMatrix.identity(2))


# sha256 over every canonical ISO certificate with module dim <= 256 and
# r, s <= 16, with A as dense rows: a change to a published map or to
# _step_map shows here
ISO_FAMILY_DIGEST = \
    "2a212d6a2e10612427c9cb051f71d77eef2eff14ea1fdb2fb11342f74560c697"
# the same certificates as written, with A as {"image", "sign"}
ISO_FAMILY_COMPACT_DIGEST = \
    "310ed4e45b37e280097c3431640408dd192f0751522cab9271f087d9f050b40f"


def test_canonical_iso_certificates_are_pinned():
    digest = hashlib.sha256()
    compact = hashlib.sha256()
    pairs = 0
    for r in range(17):
        for s in range(17):
            if (r, s) == (0, 0):
                continue
            try:
                if min_module_dim(r, s) > 256:
                    continue
            except UnsupportedSignatureError:
                continue
            if canonical_map(r, s) is None:
                continue
            pairs += 1
            for anti in ((False, True) if r == s else (False,)):
                cert = check_pair(r, s, s, r, anti_only=anti).json_dict()
                compact.update(jsonout.dumps(cert).encode())
                digest.update(jsonout.dumps(densify(cert)).encode())
    assert pairs == 38
    assert digest.hexdigest() == ISO_FAMILY_DIGEST
    assert compact.hexdigest() == ISO_FAMILY_COMPACT_DIGEST


@pytest.mark.parametrize("r", [0, 3])
def test_the_relation_holds_on_an_empty_module(r):
    # the signed relation gathers each J row through one itemgetter, which
    # needs an index; an empty module has none and every side is empty
    a = PseudoHTypeAlgebra(
        Signature(r, 0), (), StructureTensor(0, r, []), (),
        tuple(f"Z{k}" for k in range(1, r + 1)), OpaqueProvenance({}))
    f = LieMorphism(a, a, SignedPermutationOp((), ()),
                    SignedPermutationOp.identity(r).matrix())
    assert verify_homomorphism(f).ok and verify_conjugation(f).ok
