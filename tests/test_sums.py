import json

import pytest

from pseudoht.algebra import (
    SignedPermutationOp,
    algebra_from_json,
    algebra_json,
    algebra_to_dict,
    bracket,
    j_operator,
    verify_admissible,
    verify_clifford,
    verify_integral_basis,
)
from pseudoht.catalog import UnsupportedSignatureError, base_algebra, scope
from pseudoht.core import ExactMatrix, MapClass, SparseVector, basis_vector
from pseudoht.morphism import classify_morphism, verify_homomorphism
from pseudoht.obstruction import sbg_decision, verify_sbg_no_witness
from pseudoht.recheck import recheck_certificate
from pseudoht.sums import (
    block_volume_element,
    build_sum,
    sum_sbg,
    swap_isomorphism,
)

from matrix_ops import mul


def test_cross_block_brackets_vanish():
    a = build_sum(base_algebra(1, 0), 2, 0)
    n = a.dim_module
    for i in range(1, 3):             # first block
        for j in range(3, 5):         # second block
            assert not any(bracket(a, basis_vector(i, n), basis_vector(j, n)))


def test_single_block_sum_is_the_base():
    s = build_sum(base_algebra(2, 3), 1, 0)
    assert s.tensor == base_algebra(2, 3).tensor


def test_type2_block_negates_the_operators():
    base = base_algebra(0, 1)
    s = build_sum(base, 1, 1)
    per = base.dim_module
    j1 = j_operator(s, 1)
    j1_type1 = list(zip(j1.image[:per], j1.sign[:per]))
    j1_type2 = [(b - per, sg) for b, sg in zip(j1.image[per:], j1.sign[per:])]
    base_j1 = j_operator(base, 1)
    assert j1_type1 == list(zip(base_j1.image, base_j1.sign))
    assert j1_type2 == [(b, -sg) for b, sg in j1_type1]


@pytest.mark.parametrize("mu,nu", [(1, 0), (1, 1), (2, 1)])
def test_sums_pass_axioms(mu, nu):
    for rs in ((0, 1), (2, 3)):
        s = build_sum(base_algebra(*rs), mu, nu)
        assert verify_integral_basis(s).ok
        assert verify_clifford(s).ok
        assert verify_admissible(s).ok


def test_volume_elements_differ_by_global_sign():
    for rs in ((0, 1), (2, 3)):
        s = build_sum(base_algebra(*rs), 1, 1)
        s1, op1 = block_volume_element(s, 0)
        s2, op2 = block_volume_element(s, 1)
        assert op2 == op1.negate()
        # r+s = 1 mod 4 here: the volume element is an anti-isometric
        # involution of trace 0, so it cannot be a scalar on a module with a
        # non-degenerate metric
        signs = base_algebra(*rs).module_signs
        assert op1.compose(op1) == SignedPermutationOp.identity(op1.dim)
        assert all(signs[op1.image[a] - 1] == -signs[a]
                   for a in range(op1.dim))
        assert sum(sg for a, (b, sg) in enumerate(zip(op1.image, op1.sign), 1)
                   if a == b) == 0
        assert s1 is None and s2 is None


def test_volume_element_of_0_1_is_the_generator_swap():
    s = build_sum(base_algebra(0, 1), 1, 0)
    scalar, op = block_volume_element(s, 0)
    assert scalar is None
    assert op.apply_basis(1) == (2, 1) and op.apply_basis(2) == (1, 1)
    assert op.compose(op).scalar_action() == 1


@pytest.mark.parametrize("mu,nu", [(1, 0), (1, 1), (2, 1)])
@pytest.mark.parametrize("rs", [(0, 1), (2, 3)])
def test_swap_isomorphism_verifies(rs, mu, nu):
    s = build_sum(base_algebra(*rs), mu, nu)
    f = swap_isomorphism(s)
    assert verify_homomorphism(f).ok
    assert (f.dst.provenance.mu, f.dst.provenance.nu) == (nu, mu)
    sig = s.center_sig
    assert classify_morphism(f).center_action is MapClass.ISOMETRY  # -Id preserves
    assert all(f.C.entries[k][k] == -1 for k in range(sig.dim))


def test_swap_squared_is_identity_on_center():
    s = build_sum(base_algebra(2, 3), 2, 1)
    f = swap_isomorphism(s)
    g = swap_isomorphism(build_sum(base_algebra(2, 3), 1, 2))
    cc = mul(g.C, f.C)
    assert cc == ExactMatrix.identity(5)
    aa = mul(g.A.matrix(), f.A.matrix())
    assert aa == ExactMatrix.identity(s.dim_module)


def test_swap_rejected_outside_two_type_signatures():
    s = build_sum(base_algebra(2, 2), 2, 0)
    with pytest.raises(ValueError):
        swap_isomorphism(s)


def test_sum_validation():
    with pytest.raises(ValueError):
        build_sum(base_algebra(2, 2), 1, 1)   # r - s != 3 mod 4
    with pytest.raises(ValueError):
        build_sum(base_algebra(1, 0), 0, 0)
    with pytest.raises(UnsupportedSignatureError):
        from pseudoht.extension import standard_algebra
        build_sum(standard_algebra(9, 0), 2, 0)  # not a catalog base


def test_sum_sbg_cases():
    assert sum_sbg(build_sum(base_algebra(2, 0), 3, 0)).kind == "SBG_YES"
    assert sum_sbg(build_sum(base_algebra(0, 1), 1, 1)).kind == "SBG_YES"
    s = build_sum(base_algebra(2, 3), 2, 1)
    cert = sum_sbg(s)
    assert cert.kind == "SBG_NO"
    z0, v = (SparseVector(d["dim"], tuple(d["index"]), tuple(d["value"]))
             for d in (cert.payload["z0"], cert.payload["witness_v"]))
    assert verify_sbg_no_witness(s, z0, v).ok
    # sbg_decision on the sum finds the base algebra's witness in the first
    # block, of type 1 here: the base's support, in the sum's dimension
    base = sbg_decision(base_algebra(2, 3)).payload
    assert cert.payload["z0"] == base["z0"]
    assert v.dim == s.dim_module == 3 * base["witness_v"]["dim"]
    assert cert.payload["witness_v"] == {**base["witness_v"], "dim": v.dim}
    assert v.index[-1] <= base_algebra(2, 3).dim_module


@pytest.mark.parametrize("nu", [1, 2, 3])
def test_a_type_2_only_sum_rechecks_with_either_witness(nu):
    s = build_sum(base_algebra(2, 3), 0, nu)
    cert = sum_sbg(s).json_dict()
    assert list(cert) == ["kind", "signature", "sum", "z0", "witness_v"]
    base = sbg_decision(base_algebra(2, 3)).payload
    # every J of a type-2 block is negated, so the sum's own witness is
    # the negative of the padded base witness older certificates carried
    padded = {**cert, "witness_v": {**base["witness_v"], "dim": s.dim_module}}
    assert cert["witness_v"] == {**padded["witness_v"], "value": [
        -e for e in base["witness_v"]["value"]]}
    with scope():
        assert recheck_certificate(cert).ok
        assert recheck_certificate(padded).ok


def test_sum_json_blocks_field():
    a = build_sum(base_algebra(0, 1), 1, 1)
    d = algebra_to_dict(a)
    assert d["blocks"] == [{"type": 1, "count": 1}, {"type": 2, "count": 1}]
    assert d["provenance"]["kind"] == "sum"
    # the top-level record repeats the one the provenance holds
    assert d["provenance"]["blocks"] == d["blocks"]
    assert d["blocks"] == a.provenance.json_dict()["blocks"]
    assert list(d)[-1] == "blocks"
    assert algebra_json(a) == json.dumps(d, indent=2)


@pytest.mark.parametrize("rs, mu, nu", [
    ((0, 1), 1, 1), ((2, 3), 2, 1), ((0, 1), 0, 3)])
def test_sum_json_survives_parse_and_reemit(rs, mu, nu):
    text = algebra_json(build_sum(base_algebra(*rs), mu, nu))
    # a parsed sum keeps its top-level blocks though it lost its SumProvenance
    assert algebra_json(algebra_from_json(text)) == text


@pytest.mark.parametrize("block", [2, -1, 5])
def test_block_volume_element_refuses_a_block_out_of_range(block):
    s = build_sum(base_algebra(2, 3), 1, 1)
    with pytest.raises(ValueError, match=r"block .* not in 0\.\.1"):
        block_volume_element(s, block)


@pytest.mark.parametrize("call", [
    lambda a: block_volume_element(a, 0),
    swap_isomorphism,
    sum_sbg,
])
def test_sum_functions_refuse_an_algebra_that_is_not_a_sum(call):
    with pytest.raises(ValueError, match="not a direct sum"):
        call(base_algebra(2, 3))
