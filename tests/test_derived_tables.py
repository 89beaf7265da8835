"""The J operators each algebra derives once, and the verifiers on them.

The axiom verifiers run on the image and sign tables of j_operators(a).
A reference written here with SignedPermutationOp.compose and apply_basis
pins their verdicts, witnesses and details on corrupted algebras; the
counting fixture shows the operators are derived lazily, once per object,
and that keeping them changes neither equality, hashing nor the JSON form.
"""

import dataclasses
import sys

import pytest

import pseudoht.algebra as algebra
from pseudoht.algebra import (
    PseudoHTypeAlgebra,
    SignedPermutationOp,
    StructureTensor,
    Verdict,
    algebra_from_json,
    algebra_to_dict,
    algebra_to_json,
    j_operator,
    j_operators,
    verify_admissible,
    verify_clifford,
    verify_htype,
)
from pseudoht.catalog import BASE_IDS, base_algebra
from pseudoht.extension import ExtensionStep, extend
from pseudoht.obstruction import sbg_decision


# --- reference verifiers on composed operators -------------------------------
# They derive through the module attribute, so a test can substitute a
# corrupted operator for both sides at once.

def _ops(a: PseudoHTypeAlgebra):
    return [algebra.j_operator(a, k) for k in range(1, a.dim_center + 1)]


def _ref_clifford(a: PseudoHTypeAlgebra) -> Verdict:
    ops = _ops(a)
    n = len(ops)
    for k in range(n):
        for m in range(k, n):
            km = ops[k].compose(ops[m])
            if k == m:
                want = -a.center_sign(k + 1)
                for alpha in range(1, a.dim_module + 1):
                    beta, s = km.apply_basis(alpha)
                    if beta != alpha or s != want:
                        return Verdict(False, (k + 1, m + 1, alpha),
                                       "J_k^2 is not -<Z_k,Z_k> Id")
            else:
                mk = ops[m].compose(ops[k])
                for alpha in range(1, a.dim_module + 1):
                    b1, s1 = km.apply_basis(alpha)
                    b2, s2 = mk.apply_basis(alpha)
                    if b1 != b2 or s1 != -s2:
                        return Verdict(False, (k + 1, m + 1, alpha),
                                       "J_k J_m + J_m J_k does not vanish")
    return Verdict(True)


def _ref_admissible(a: PseudoHTypeAlgebra) -> Verdict:
    for k, op in enumerate(_ops(a), start=1):
        for alpha in range(1, a.dim_module + 1):
            beta, s = op.apply_basis(alpha)
            back, s_back = op.apply_basis(beta)
            if back != alpha:
                return Verdict(False, (k, alpha, beta),
                               "skew-adjointness fails: orbit does not return")
            if s * a.module_sign(beta) != -s_back * a.module_sign(alpha):
                return Verdict(False, (k, alpha, beta),
                               "skew-adjointness fails on this pair")
    return Verdict(True)


def _ref_htype(a: PseudoHTypeAlgebra) -> Verdict:
    ops = _ops(a)
    n = len(ops)
    for k in range(n):
        for m in range(k, n):
            for alpha in range(1, a.dim_module + 1):
                bk, sk = ops[k].apply_basis(alpha)
                bm, sm = ops[m].apply_basis(alpha)
                lhs = sk * sm * a.module_sign(bk) if bk == bm else 0
                want = (a.center_sign(k + 1) * a.module_sign(alpha)
                        if k == m else 0)
                if lhs != want:
                    return Verdict(False, (k + 1, m + 1, alpha),
                                   "composition identity fails")
    return Verdict(True)


PAIRS = ((verify_clifford, _ref_clifford), (verify_admissible, _ref_admissible),
         (verify_htype, _ref_htype))


def _compare(a: PseudoHTypeAlgebra, seen: set) -> None:
    for check, ref in PAIRS:
        got, want = check(a), ref(a)
        assert (got.ok, got.witness, got.detail) == \
            (want.ok, want.witness, want.detail), (a, check.__name__)
        seen.add((check.__name__, got.detail))


def _entry_flips(a: PseudoHTypeAlgebra):
    entries = a.tensor.entries
    for i, (p, q, k, s) in enumerate(entries):
        flipped = entries[:i] + ((p, q, k, -s),) + entries[i + 1:]
        tensor = StructureTensor(a.dim_module, a.dim_center, flipped)
        yield dataclasses.replace(a, tensor=tensor)


def _metric_flips(a: PseudoHTypeAlgebra):
    signs = a.module_signs
    for i in range(a.dim_module):
        flipped = signs[:i] + (-signs[i],) + signs[i + 1:]
        yield dataclasses.replace(a, module_signs=flipped)


def test_verifiers_match_the_reference_on_the_catalog():
    for rs in BASE_IDS:
        seen = set()
        _compare(base_algebra(*rs), seen)
        assert {detail for _name, detail in seen} == {""}


def test_verifiers_match_the_reference_on_entry_sign_flips():
    seen = set()
    cases = 0
    for rs in BASE_IDS:
        for bad in _entry_flips(base_algebra(*rs)):
            cases += 1
            _compare(bad, seen)
    assert cases == 318
    assert ("verify_clifford", "J_k J_m + J_m J_k does not vanish") in seen


def test_verifiers_match_the_reference_on_module_metric_flips():
    seen = set()
    cases = 0
    for rs in BASE_IDS:
        for bad in _metric_flips(base_algebra(*rs)):
            cases += 1
            _compare(bad, seen)
    assert cases == 112
    assert ("verify_clifford", "J_k^2 is not -<Z_k,Z_k> Id") in seen
    assert ("verify_htype", "composition identity fails") in seen


def test_verifiers_match_the_reference_on_corrupted_operators(monkeypatch):
    # A tensor-derived J_k is always skew-adjoint, so the admissibility
    # failures need an operator changed after derivation.
    derive = algebra.j_operator
    seen = set()
    for rs in BASE_IDS:
        a = base_algebra(*rs)
        for k in range(1, a.dim_center + 1):
            op = derive(a, k)
            image, sign = list(op.image), list(op.sign)
            sign[0] = -sign[0]
            flipped = SignedPermutationOp(op.image, tuple(sign))
            if a.dim_module > 2:
                other = next(b for b in range(1, a.dim_module + 1)
                             if b not in (1, image[0]))
                image[0], image[other - 1] = image[other - 1], image[0]
            swapped = SignedPermutationOp(tuple(image), op.sign)
            for bad in (flipped, swapped):
                monkeypatch.setattr(
                    algebra, "j_operator",
                    lambda alg, kk, k=k, bad=bad: bad if kk == k else derive(alg, kk))
                _compare(base_algebra(*rs), seen)
    assert ("verify_admissible", "skew-adjointness fails on this pair") in seen
    assert ("verify_admissible",
            "skew-adjointness fails: orbit does not return") in seen


# --- laziness ----------------------------------------------------------------

@pytest.fixture
def derivations(monkeypatch):
    """Every j_operator call, through any pseudoht module that holds it."""
    calls = []
    original = algebra.j_operator

    def counting(a, k):
        calls.append((id(a), k))
        return original(a, k)

    for name, module in list(sys.modules.items()):
        if (name == "pseudoht" or name.startswith("pseudoht.")) \
                and getattr(module, "j_operator", None) is original:
            monkeypatch.setattr(module, "j_operator", counting)
    return calls


def test_construction_derives_nothing(derivations):
    a = base_algebra(4, 4)
    big = extend(base_algebra(1, 0), ExtensionStep.BY_8_0)
    back = algebra_from_json(algebra_to_json(big))
    assert back.tensor == big.tensor and a.dim_center == 8
    assert derivations == []


def test_verifiers_and_sbg_derive_each_operator_once(derivations):
    a = base_algebra(3, 2)
    for _round in range(2):
        assert verify_clifford(a).ok
        assert verify_admissible(a).ok
        assert verify_htype(a).ok
        assert sbg_decision(a).kind == "SBG_NO"
    assert sorted(k for _id, k in derivations) == list(range(1, a.dim_center + 1))
    assert j_operators(a) is j_operators(a)
    assert list(j_operators(a)) == [j_operator(a, k)
                                    for k in range(1, a.dim_center + 1)]


def test_derived_tables_leave_identity_alone():
    a = base_algebra(2, 3)
    assert verify_clifford(a).ok and sbg_decision(a).kind == "SBG_NO"
    fresh = base_algebra(2, 3)
    assert a == fresh and hash(a) == hash(fresh)
    assert repr(a) == repr(fresh)
    assert algebra_to_dict(a) == algebra_to_dict(fresh)
    assert algebra_to_json(a) == algebra_to_json(fresh)
