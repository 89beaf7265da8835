"""The J table each algebra derives once, and the verifiers on it.

The axiom verifiers run on the signed-index rows of the algebra's J table,
and its J operators are made from those rows on demand.  A reference
written here with SignedPermutationOp.compose and apply_basis pins their
verdicts, witnesses and details on corrupted algebras; the counting
fixture shows the table is derived lazily, once per object, and that
keeping it changes neither equality, hashing nor the JSON form.
A structure tensor stores its entries only (an extension's tensor keeps
its recipe too, and its entries once read); its pair lookup bisects them,
and the adjoint routines read the algebra's J table.  A morphism keeps
both blocks as signed permutations from construction to recheck, so none
is recognized; a dense block of an older certificate is recognized once,
and nothing is kept on a matrix.  A kept
canonical map keeps criterion 3's outcome the same way, so a later
verify-paper relates none of its 22 maps again, and a replaced copy is
checked afresh.  Criteria 1, 5, 6 and 7 keep their outcomes on the
algebras they check, so a later verify-paper renders no table, runs no
elimination, decides no SBG question, relates no block swap, and rechecks
only criterion 4's five certificates.

base_algebra shares one object per catalog id in a process, so a test
that counts derivations or corrupts an operator builds private algebras
with the uncached catalog constructor.
"""

import functools
import json
import sys
from array import array

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

import pseudoht.algebra as algebra
from pseudoht.algebra import (
    IntegralBasisError,
    PseudoHTypeAlgebra,
    SignedPermutationOp,
    StructureTensor,
    SumProvenance,
    Verdict,
    algebra_from_json,
    algebra_json,
    algebra_to_dict,
    j_operator,
    j_operators,
    signed_lookups,
    signed_row,
    verify_admissible,
    verify_axioms,
    verify_clifford,
    verify_htype,
    verify_general_htype,
    verify_integral_basis,
)
import pseudoht.acceptance as acceptance
import pseudoht.catalog as catalog
import pseudoht.morphism as morphism
import pseudoht.obstruction as obstruction
from pseudoht.acceptance import criterion_3_isomorphisms, run_all
from pseudoht.catalog import BASE_IDS, _build_base, base_algebra
from pseudoht.core import ExactMatrix, SparseVector, basis_vector
from pseudoht.extension import ExtensionStep, extend, standard_algebra
from pseudoht.jsonout import dumps
from pseudoht.morphism import (
    LieMorphism,
    canonical_map,
    classify_morphism,
    morphism_to_dict,
    verified_morphism,
    verify_conjugation,
    verify_homomorphism,
)
from pseudoht.obstruction import check_pair, sbg_decision, verify_sbg_no_witness
from pseudoht.recheck import recheck_certificate
from pseudoht.sums import build_sum, swap_isomorphism

from dense_certificates import dense_center, densify


# --- reference verifiers on composed operators -------------------------------
# They derive through j_operator, which reads the algebra's J table, so a
# test can substitute a corrupted row for both sides at once.

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
        yield a._replace(tensor=tensor)


def _metric_flips(a: PseudoHTypeAlgebra):
    signs = a.module_signs
    for i in range(a.dim_module):
        flipped = signs[:i] + (-signs[i],) + signs[i + 1:]
        yield a._replace(module_signs=flipped)


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


def _with_row(a: PseudoHTypeAlgebra, k: int,
              op: SignedPermutationOp) -> PseudoHTypeAlgebra:
    """a with row k of its J table replaced by op's, where the verifiers,
    j_operator and the reference all read it."""
    table = algebra._j_table(a)
    rows = list(table.rows)
    rows[k - 1] = array("i", signed_lookup(op))
    object.__setattr__(a, "_j_table", table._replace(rows=tuple(rows)))
    return a


def _caught(a: PseudoHTypeAlgebra) -> bool:
    return not all(check(a).ok for check, _ref in PAIRS)


def test_verifiers_match_the_reference_on_corrupted_operators():
    # A tensor-derived J_k is always skew-adjoint, so the admissibility
    # failures need a row changed after derivation.
    seen = set()
    for rs in BASE_IDS:
        a = _build_base(*rs)
        for k in range(1, a.dim_center + 1):
            op = j_operator(a, k)
            image, sign = list(op.image), list(op.sign)
            sign[0] = -sign[0]
            flipped = SignedPermutationOp(op.image, tuple(sign))
            if a.dim_module > 2:
                other = next(b for b in range(1, a.dim_module + 1)
                             if b not in (1, image[0]))
                image[0], image[other - 1] = image[other - 1], image[0]
            swapped = SignedPermutationOp(tuple(image), op.sign)
            for bad in (flipped, swapped):
                b = _with_row(_build_base(*rs), k, bad)
                assert j_operator(b, k) == bad
                assert _caught(b) or bad == op  # no swap at dim 2
                _compare(b, seen)
    assert ("verify_admissible", "skew-adjointness fails on this pair") in seen
    assert ("verify_admissible",
            "skew-adjointness fails: orbit does not return") in seen


def test_coinciding_j_images_give_the_reference_off_diagonal_witness():
    # J_2 changed after derivation so that J_1 v_alpha and J_2 v_alpha are
    # the same basis vector up to sign: <J_1 v_alpha, J_2 v_alpha> != 0, a
    # k != m composition identity the one-pass column test must send to the
    # pair scan
    seen = set()
    witnesses = []
    for rs in BASE_IDS:
        a = _build_base(*rs)
        if a.dim_center < 2:
            continue
        for alpha in (1, a.dim_module // 2 + 1, a.dim_module):
            j1, j2 = j_operator(a, 1), j_operator(a, 2)
            image = list(j2.image)
            beta = image.index(j1.image[alpha - 1]) + 1
            image[alpha - 1], image[beta - 1] = image[beta - 1], image[alpha - 1]
            bad = SignedPermutationOp(tuple(image), j2.sign)
            b = _with_row(_build_base(*rs), 2, bad)
            assert _caught(b)
            _compare(b, seen)
            got = verify_htype(b)
            assert got == _ref_htype(b)
            witnesses.append(got.witness)
    assert ("verify_htype", "composition identity fails") in seen
    assert len(witnesses) == 36
    # J_1 is untouched, so its diagonal holds and (1, 2) fails first
    assert all(w[:2] == (1, 2) for w in witnesses)


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


# an extension's tensor holds its recipe for its life, and its entries
# once they are read
STORED = ("dim_module", "dim_center", "entries", "_recipe")


def _derived_on(a: PseudoHTypeAlgebra) -> list[str]:
    """Names of everything the algebra and its tensor hold beyond their
    fields."""
    fields = set(a._fields)
    return sorted([name for name in vars(a) if name not in fields]
                  + [name for name in vars(a.tensor) if name not in STORED])


def test_construction_derives_nothing(derivations):
    a = _build_base(4, 4)
    big = extend(_build_base(1, 0), ExtensionStep.BY_8_0)
    back = algebra_from_json(algebra_json(big))
    summed = build_sum(_build_base(2, 3), 2, 1)
    # rows as lists, flipped and in reverse order: the same sorted tensor
    rows = _with_entries(a, [[q, p, k, -s]
                             for (p, q, k, s) in reversed(a.tensor.entries)])
    assert back.tensor == big.tensor and a.dim_center == 8
    assert rows.tensor == a.tensor
    for built in (a, big, back, summed, rows):
        assert _derived_on(built) == []
    assert derivations == []


def test_lookups_are_derived_once_on_the_tensor():
    # the pair lookup bisects the entries and derives nothing; the adjoint
    # routines read the J table, derived once on the algebra
    a = _build_base(3, 2)
    assert a.tensor.bracket_pair(1, 2) is not None
    assert _derived_on(a) == []
    algebra.adjoint_rows(a, basis_vector(1, a.dim_module))
    algebra.two_point_rank(a, 1, 2)
    assert _derived_on(a) == ["_j_table"]
    j_table = algebra._j_table(a)
    for check in (verify_integral_basis, verify_clifford, verify_admissible,
                  verify_htype):
        assert check(a).ok
    # the verifiers read the table's rows, and the J operators are made
    # from them; nothing else is kept
    assert _derived_on(a) == ["_j_table"]
    assert algebra._j_table(a) is j_table
    assert signed_lookups(a) is j_table.rows
    # kept as arrays, whose values are signed_lookup's list
    assert [row.tolist() for row in j_table.rows] == [
        signed_lookup(op) for op in j_operators(a)]
    assert _derived_on(a) == ["_j_table"]


def test_signed_lookups_are_built_once_per_shared_algebra(cache, monkeypatch):
    # the verifiers and certify plus recheck of one ISO question compose
    # the rows each algebra derived once
    built = []
    inner = algebra._j_table

    def counting(alg):
        if "_j_table" not in vars(alg):
            built.append(alg)
        return inner(alg)

    monkeypatch.setattr(algebra, "_j_table", counting)
    a = _build_base(3, 2)
    rows = signed_lookups(a)
    for check in (verify_clifford, verify_admissible, verify_htype):
        assert check(a).ok
    assert signed_lookups(a) is rows and built == [a]
    built.clear()
    cert = check_pair(9, 1, 1, 9)
    assert cert.kind == "ISO"
    src, dst = standard_algebra(9, 1), standard_algebra(1, 9)
    src_rows, dst_rows = signed_lookups(src), signed_lookups(dst)
    assert src in built and dst in built
    count = len(built)
    assert recheck_certificate(json.loads(json.dumps(cert.json_dict()))).ok
    assert signed_lookups(src) is src_rows and signed_lookups(dst) is dst_rows
    assert len(built) == count == len(set(map(id, built)))


# --- the lazy lookups against the entries ------------------------------------

ALGEBRAS = [(rs, None) for rs in BASE_IDS] + [
    (rs, step) for rs in BASE_IDS for step in ExtensionStep]


@functools.lru_cache(maxsize=None)
def _catalog_algebra(rs, step) -> PseudoHTypeAlgebra:
    base = base_algebra(*rs)
    return base if step is None else extend(base, step)


def _scan(t: StructureTensor, a: int, b: int):
    lo, hi = min(a, b), max(a, b)
    for (i, j, k, s) in t.entries:
        if (i, j) == (lo, hi):
            return k, s if a < b else -s
    return None


@given(st.sampled_from(ALGEBRAS), st.data())
@settings(max_examples=150, deadline=None)
def test_bracket_pair_agrees_with_a_scan_of_the_entries(which, data):
    t = _catalog_algebra(*which).tensor
    index = st.integers(min_value=1, max_value=t.dim_module)
    a = data.draw(index)
    b = data.draw(st.one_of(index, st.just(a)))
    assert t.bracket_pair(a, b) == _scan(t, a, b)
    assert t.bracket_pair(a, a) is None


def _j_outcomes(a: PseudoHTypeAlgebra) -> list:
    out = []
    for k in range(1, a.dim_center + 1):
        try:
            out.append(j_operator(a, k).image[:3])
        except IntegralBasisError as exc:
            out.append(str(exc))
    return out


def _with_entries(a: PseudoHTypeAlgebra, entries) -> PseudoHTypeAlgebra:
    return a._replace(
        tensor=StructureTensor(a.dim_module, a.dim_center, entries))


def test_one_removed_entry_leaves_its_pairs_without_partners():
    # the first missing partner in center-major order
    a = base_algebra(3, 2)
    e = a.tensor.entries
    cases = {0: ((2, 1), 2, "no partner for center 2, vector 1"),
             10: ((5, 3), 5, "no partner for center 5, vector 3"),
             19: ((1, 7), 1, "no partner for center 1, vector 7")}
    for i, (witness, k, message) in cases.items():
        bad = _with_entries(a, e[:i] + e[i + 1:])
        assert verify_integral_basis(bad) == Verdict(
            False, witness, "no partner for this (center, vector) pair")
        outcomes = _j_outcomes(bad)
        assert outcomes[k - 1] == message
        assert [o for o in outcomes if isinstance(o, str)] == [message]
        # the shared rows are refused at the first empty slot
        with pytest.raises(IntegralBasisError, match=f"^{message}$"):
            signed_lookups(bad)
    assert _j_outcomes(_with_entries(a, e[1:]))[0] == (4, 3, 2)
    big = base_algebra(4, 4)
    e = big.tensor.entries
    assert verify_integral_basis(_with_entries(big, e[:32] + e[33:])).witness \
        == (7, 5)
    assert verify_integral_basis(_with_entries(big, e[:63])).witness == (1, 12)


def test_a_doubled_partner_is_reported_in_entries_order():
    a = base_algebra(3, 2)
    e = a.tensor.entries
    for extra, conflicts in (((1, 7, 2, 1), ((2, 1), (2, 7))),
                             ((1, 8, 5, -1), ((5, 1), (5, 8)))):
        bad = _with_entries(a, e + (extra,))
        assert verify_integral_basis(bad) == Verdict(
            False, conflicts[0], "a (center, vector) pair has several partners")
        assert _j_outcomes(bad) == [
            f"multiple partners for (k, a) pairs {conflicts}"] * 5
        with pytest.raises(IntegralBasisError, match="multiple partners"):
            signed_lookups(bad)
    big = base_algebra(4, 4)
    bad = _with_entries(big, big.tensor.entries + ((1, 16, 8, -1),))
    assert verify_integral_basis(bad).witness == (8, 1)
    assert _j_outcomes(bad)[0] == \
        "multiple partners for (k, a) pairs ((8, 1), (8, 16))"


def signed_lookup(op: SignedPermutationOp) -> list[int]:
    """op in signed_row form, t[b] = sign[b] * image[b], read from the op:
    the reference for the rows of a J table."""
    return signed_row([s * b for b, s in zip(op.image, op.sign)])


def per_entry_j_table(a: PseudoHTypeAlgebra) -> tuple:
    """(rows, conflicts, missing) from the loop that tested every entry
    for a conflict while filling the table: each row a list of 2n + 1
    signed indices, written at b and at -b."""
    n, g, ez = a.dim_module, a.module_signs, a.center_sig.signs()
    rows = [[0] * (2 * n + 1) for _ in ez]
    conflicts = []
    for (p, q, k, s) in a.tensor.entries:
        row, e = rows[k - 1], ez[k - 1] * s
        if row[p]:
            conflicts.append((k, p))
        if row[q]:
            conflicts.append((k, q))
        row[p] = e * g[q - 1] * q
        row[q] = -e * g[p - 1] * p
        row[-p], row[-q] = -row[p], -row[q]
    missing = next(((k, b) for k, row in enumerate(rows, start=1)
                    for b in range(1, n + 1) if not row[b]), None)
    return rows, tuple(conflicts), missing


def table_values(table) -> tuple:
    """A _JTable as per_entry_j_table gives it, each row a list."""
    return [row.tolist() for row in table.rows], table.conflicts, table.missing


def test_a_doubled_and_an_empty_slot_at_the_full_entry_count():
    # as many entries as an integral basis has, n dim z / 2, so the count
    # alone cannot tell; the empty slot sends the table to its conflict pass
    a = base_algebra(3, 2)
    e = a.tensor.entries
    assert e[10] == (3, 7, 5, 1)
    bad = _with_entries(a, e[:10] + e[11:] + ((1, 8, 5, -1),))
    assert 2 * len(bad.tensor.entries) == bad.dim_module * bad.dim_center
    table = algebra._j_table(bad)
    assert table_values(table) == per_entry_j_table(bad)
    assert table.conflicts == ((5, 1), (5, 8)) and table.missing == (5, 3)
    assert table.rows[4][3] == table.rows[4][7] == 0
    assert verify_integral_basis(bad) == Verdict(
        False, (5, 1), "a (center, vector) pair has several partners")
    assert _j_outcomes(bad) == [
        "multiple partners for (k, a) pairs ((5, 1), (5, 8))"] * 5


@given(st.sampled_from(BASE_IDS), st.data())
@settings(max_examples=200, deadline=None)
def test_j_table_equals_the_per_entry_loop(rs, data):
    # entries dropped and added at random; any tensor the constructor takes
    a = _build_base(*rs)
    e = list(a.tensor.entries)
    dropped = data.draw(st.sets(st.integers(0, len(e) - 1), max_size=3))
    index = st.integers(1, a.dim_module)
    extra = data.draw(st.lists(st.tuples(
        index, index, st.integers(1, a.dim_center), st.sampled_from((1, -1))),
        max_size=3))
    entries = [x for i, x in enumerate(e) if i not in dropped] + [
        x for x in extra if x[0] != x[1]]
    try:
        bad = _with_entries(a, entries)
    except IntegralBasisError:
        return
    assert table_values(algebra._j_table(bad)) == per_entry_j_table(bad)


def _removed_entry(rs, i):
    a = _build_base(*rs)
    e = a.tensor.entries
    return _with_entries(a, e[:i] + e[i + 1:])


ROW_ORACLE_ALGEBRAS = {
    **{f"{rs}": lambda rs=rs: _build_base(*rs) for rs in BASE_IDS},
    "sum": lambda: build_sum(_build_base(2, 3), 2, 1),
    "parsed": lambda: algebra_from_json(algebra_json(
        extend(_build_base(1, 1), ExtensionStep.BY_4_4))),
    "empty-slots": lambda: _removed_entry((3, 2), 10),
    "empty-slots-4-4": lambda: _removed_entry((4, 4), 32),
    "doubled": lambda: _with_entries(
        _build_base(3, 2), _build_base(3, 2).tensor.entries + ((1, 8, 5, -1),)),
}


@pytest.mark.parametrize("name", ROW_ORACLE_ALGEBRAS)
def test_j_table_rows_equal_the_per_entry_rows(name):
    a = ROW_ORACLE_ALGEBRAS[name]()
    table = algebra._j_table(a)
    assert all(type(row) is array and row.typecode == "i"
               for row in table.rows)
    assert table_values(table) == per_entry_j_table(a)
    if not (table.conflicts or table.missing):
        for op in j_operators(a):
            assert _checked_copy(op) == op


def test_verify_axioms_keeps_one_j_table_on_a_fresh_extension():
    ext = extend(_build_base(3, 2), ExtensionStep.BY_4_4)
    assert verify_axioms(ext).ok
    assert _derived_on(ext) == ["_axioms", "_j_table"]
    assert algebra.adjoint_rows(ext, basis_vector(1, ext.dim_module))
    assert _derived_on(ext) == ["_axioms", "_j_table"]


def _checked_copy(op: SignedPermutationOp) -> SignedPermutationOp:
    """op rebuilt by the constructor that checks, with tuple-of-int rows."""
    for row in (op.image, op.sign):
        assert type(row) is tuple and {type(x) for x in row} <= {int}
    return SignedPermutationOp(op.image, op.sign)


def test_derived_j_operators_are_what_the_checking_constructor_builds():
    n_9_8 = standard_algebra(9, 8)
    assert n_9_8.dim_module == 512
    algebras = [_catalog_algebra(*which) for which in ALGEBRAS] + [n_9_8]
    assert len(algebras) == 14 + 42 + 1
    for a in algebras:
        for op in j_operators(a):
            again = _checked_copy(op)
            assert again == op and hash(again) == hash(op)
            assert repr(again) == repr(op)


@st.composite
def _signed_permutations(draw, n):
    image = draw(st.permutations(range(1, n + 1)))
    sign = draw(st.lists(st.sampled_from((1, -1)), min_size=n, max_size=n))
    return SignedPermutationOp(tuple(image), tuple(sign))


@given(st.integers(0, 12).flatmap(
    lambda n: st.tuples(_signed_permutations(n), _signed_permutations(n))))
@settings(max_examples=200, deadline=None)
def test_compose_inverse_and_negate_build_checked_ops(pair):
    f, h = pair
    fh, inv, neg = f.compose(h), f.inverse(), f.negate()
    for op in (fh, inv, neg):
        assert _checked_copy(op) == op
    for a in range(1, f.dim + 1):
        b, s = h.apply_basis(a)
        c, t = f.apply_basis(b)
        assert fh.apply_basis(a) == (c, s * t)
        assert inv.apply_basis(f.image[a - 1]) == (a, f.sign[a - 1])
        assert neg.apply_basis(a) == (f.image[a - 1], -f.sign[a - 1])
    identity = SignedPermutationOp.identity(f.dim)
    assert f.compose(inv) == identity == inv.compose(f)


def test_verifiers_and_sbg_derive_each_operator_once(derivations):
    # Clifford, admissibility and the SBG decision read the J table's rows;
    # verify_htype makes each operator from its row, once per call
    a = _build_base(3, 2)
    for _round in range(2):
        assert verify_clifford(a).ok
        assert verify_admissible(a).ok
        assert verify_htype(a).ok
        assert sbg_decision(a).kind == "SBG_NO"
    assert sorted(k for _id, k in derivations) == sorted(
        [*range(1, a.dim_center + 1)] * 2)
    assert _derived_on(a) == ["_j_table"]
    assert j_operators(a) == j_operators(a)
    assert list(j_operators(a)) == [j_operator(a, k)
                                    for k in range(1, a.dim_center + 1)]


def test_sbg_no_and_its_recheck_derive_no_operator(derivations):
    # a private n_(9,1): the witness is read off the J table's rows at its
    # support, so the table is the one value kept, and no J operator is made
    a = extend(_build_base(1, 1), ExtensionStep.BY_8_0)
    cert = sbg_decision(a)
    assert cert.kind == "SBG_NO"
    z0, v = (SparseVector(d["dim"], tuple(d["index"]), tuple(d["value"]))
             for d in (cert.payload["z0"], cert.payload["witness_v"]))
    assert verify_sbg_no_witness(a, z0, v).ok
    assert _derived_on(a) == ["_j_table"] and derivations == []


def test_derived_tables_leave_identity_alone():
    a = base_algebra(2, 3)
    assert verify_clifford(a).ok and sbg_decision(a).kind == "SBG_NO"
    fresh = _build_base(2, 3)
    assert a is not fresh and _derived_on(fresh) == []
    assert a == fresh and hash(a) == hash(fresh)
    assert repr(a) == repr(fresh)
    assert algebra_to_dict(a) == algebra_to_dict(fresh)
    assert algebra_json(a) == algebra_json(fresh)


# --- signed-permutation recognition, once per matrix -------------------------

# (rows, the op of the per-entry scan that recognized matrices before)
RECOGNITION_CASES = [
    ([[1, 0, 0], [0, 1, 0]], None),                  # not square
    ([[1, 1], [0, 1]], None),                        # two nonzeros in a row
    ([[2, 0], [0, 1]], None),                        # an entry 2
    ([[0, -1], [1, 0]], SignedPermutationOp((2, 1), (1, -1))),
    ([[0, 0, -1], [1, 0, 0], [0, 1, 0]],
     SignedPermutationOp((2, 3, 1), (1, 1, -1))),    # a signed 3-cycle
    ([[0, 1], [0, -1]], None),                       # a repeated column
    ([[1, 0], [0, 0]], None),                        # a zero row
    ([[0, 0], [0, 0]], None),
    ([], SignedPermutationOp((), ())),
]


@pytest.mark.parametrize("rows, want", RECOGNITION_CASES)
def test_from_matrix_edge_cases_keep_their_results(rows, want):
    m = ExactMatrix.from_rows(rows)
    assert SignedPermutationOp.from_matrix(m) == want
    # nothing is kept on the matrix: a morphism keeps its center's op
    assert set(vars(m)) == set(m._fields)
    if want is not None:
        assert set(vars(want.matrix())) == set(m._fields)


def test_certify_and_recheck_recognize_each_block_once(cache, monkeypatch):
    seen = []
    inner = algebra.signed_permutation
    monkeypatch.setattr(algebra, "signed_permutation",
                        lambda rows: seen.append(rows) or inner(rows))
    cert = check_pair(9, 1, 1, 9)
    assert cert.kind == "ISO"
    # both blocks are signed permutations from construction to recheck:
    # the morphism keeps C's op beside the matrix, so nothing is recognized
    assert check_pair(9, 1, 1, 9).json_dict() == cert.json_dict()
    assert recheck_certificate(json.loads(json.dumps(cert.json_dict()))).ok
    assert seen == []
    # the dense rows of older certificates are recognized once a block
    assert recheck_certificate(dense_center(cert.json_dict())).ok
    assert [(len(rows), len(rows[0])) for rows in seen] == [(10, 10)]
    seen.clear()
    assert recheck_certificate(densify(cert.json_dict())).ok
    assert [(len(rows), len(rows[0])) for rows in seen] == [(64, 64), (10, 10)]


def _morphisms():
    """Kept canonical maps, a block swap, and a map that is no morphism:
    the (2,2) automorphism with C negated, still an anti-isometry, breaks
    the relation."""
    for rs in ((9, 1), (1, 9), (4, 4)):
        cmap = canonical_map(*rs)
        yield cmap.src, cmap.dst, cmap.module, cmap.center
    f = swap_isomorphism(build_sum(base_algebra(2, 3), 2, 1))
    yield f.src, f.dst, f.A, SignedPermutationOp.from_matrix(f.C)
    cmap = canonical_map(2, 2)
    yield cmap.src, cmap.dst, cmap.module, cmap.center.negate()


@pytest.mark.parametrize("case", range(5),
                         ids=["9,1", "1,9", "4,4", "swap", "not-a-morphism"])
def test_a_morphism_of_ops_equals_one_of_their_matrices(case):
    src, dst, a, c = list(_morphisms())[case]  # built here, not at collection
    signed = LieMorphism(src, dst, a, c)
    dense = LieMorphism(src, dst, a.matrix(), c.matrix())
    assert signed == dense and hash(signed) == hash(dense)
    assert repr(signed) == repr(dense) and signed.C == c.matrix()
    assert classify_morphism(signed) == classify_morphism(dense)
    assert morphism_to_dict(signed) == morphism_to_dict(dense)
    for verify in (verify_homomorphism, verify_conjugation):
        assert verify(signed) == verify(dense)


# --- the kept axiom verdict and the compact rows -----------------------------

def _criterion_2_algebras():
    """The 57 algebras of verify-paper's axiom suite, shared: the catalog,
    its single steps and n_(9,8)."""
    for rs in BASE_IDS:
        yield base_algebra(*rs)
        for step in ExtensionStep:
            yield extend(base_algebra(*rs), step)
    yield extend(extend(base_algebra(1, 0), ExtensionStep.BY_0_8),
                 ExtensionStep.BY_8_0)


def test_stored_rows_are_signed_lookup_for_every_criterion_2_algebra():
    algebras = list(_criterion_2_algebras())
    assert len(algebras) == 57
    for a in algebras:
        rows = signed_lookups(a)
        assert all(type(row) is array and row.typecode == "i" for row in rows)
        for row, op in zip(rows, j_operators(a), strict=True):
            want = signed_lookup(op)
            assert type(want) is list and len(row) == len(want)
            assert all(x == y for x, y in zip(row, want)), (a, op)


def test_a_second_verify_paper_verifies_no_shared_algebra(cache, monkeypatch):
    first = [rep.json_dict() for rep in run_all()]
    seen = []
    inner = algebra.verify_clifford
    monkeypatch.setattr(algebra, "verify_clifford",
                        lambda a: seen.append(a) or inner(a))
    scanned = []
    inner_scan = algebra._check_general_at
    monkeypatch.setattr(algebra, "_check_general_at",
                        lambda a, v: scanned.append(a) or inner_scan(a, v))
    related = []
    inner_defect = morphism._relation_defect
    monkeypatch.setattr(morphism, "_relation_defect",
                        lambda f: related.append(f.src) or inner_defect(f))
    calls = {}

    def counting(name):
        inner_call = getattr(acceptance, name)
        calls[name] = []
        return lambda *args: (calls.setdefault(name, []).append(args)
                              or inner_call(*args))

    for name in ("render_table", "gram_det", "adjoint_rank", "sbg_decision",
                 "sum_sbg", "swap_isomorphism", "block_volume_element",
                 "recheck_certificate"):
        monkeypatch.setattr(acceptance, name, counting(name))
    second = [rep.json_dict() for rep in run_all()]
    rechecked = calls.pop("recheck_certificate")
    # every algebra the axiom suite checks, criterion 7's direct sum among
    # them, is shared and keeps its verdict
    assert seen == []
    # criterion 8's four catalog algebras keep their general verdict
    assert scanned == []
    # criterion 3's 22 maps and criterion 7's six block swaps keep their
    # outcomes, so no map is related again
    assert related == []
    # criteria 1, 5, 6 and 7 read the outcomes kept on their algebras
    assert calls == dict.fromkeys(calls, [])
    # criterion 4 re-derives and rechecks its five certificates on every run
    assert [(d["kind"], d["src"], d["dst"], d["anti_isometric_center_only"])
            for (d,) in rechecked] == [
        ("NOT_ISO_PARITY", [3, 2], [2, 3], False),
        ("NOT_ISO_PARITY", [3, 3], [3, 3], True),
        ("INCONCLUSIVE", [11, 2], [2, 11], False),
        ("NOT_ISO_DIM", [3, 0], [0, 3], False),
        ("NOT_ISO_SIGNATURE", [2, 0], [1, 1], False)]
    third = [rep.json_dict() for rep in run_all()]
    for report in first + second + third:
        del report["elapsed_s"]
    assert second == first and third == first


# --- the kept criterion-3 outcome --------------------------------------------

def test_a_replaced_canonical_map_is_checked_afresh(monkeypatch):
    kept = canonical_map(5, 4)
    assert criterion_3_isomorphisms().passed
    assert vars(kept)["_canonical_failures"] == ()
    sign = (-kept.module.sign[0],) + kept.module.sign[1:]
    bad = kept._replace(module=SignedPermutationOp(
        kept.module.image, sign))
    assert bad is not kept and "_canonical_failures" not in vars(bad)
    shared = acceptance.canonical_map
    monkeypatch.setattr(acceptance, "canonical_map", lambda r, s: (
        bad if (r, s) == (5, 4) else shared(r, s)))
    # the criterion asks for phi_(5,4) twice, as phi_(r+4,4) and on its own
    for _ in range(2):  # the first run, and a later one that reads it back
        rep = criterion_3_isomorphisms()
        assert not rep.passed
        assert rep.failures == ["phi_(5,4) fails the conjugation relation"] * 2
    assert vars(bad)["_canonical_failures"] == tuple(rep.failures[:1])
    monkeypatch.undo()
    assert canonical_map(5, 4) is kept and criterion_3_isomorphisms().passed


def test_a_map_that_fails_to_build_keeps_no_outcome(monkeypatch):
    cmap = canonical_map(4, 0)
    copy = cmap._replace()
    monkeypatch.setattr(acceptance, "canonical_map", lambda r, s: copy)
    monkeypatch.setattr(acceptance, "normalize_isomorphism",
                        lambda f: 1 / 0)
    with pytest.raises(ZeroDivisionError):
        criterion_3_isomorphisms()
    assert "_canonical_failures" not in vars(copy)
    monkeypatch.undo()
    monkeypatch.setattr(acceptance, "canonical_map", lambda r, s: copy)
    assert criterion_3_isomorphisms().passed
    assert vars(copy)["_canonical_failures"] == ()


def test_the_kept_outcome_is_not_a_field():
    kept = canonical_map(1, 8)
    criterion_3_isomorphisms()
    assert vars(kept)["_canonical_failures"] == ()
    fresh = kept._replace()
    assert "_canonical_failures" not in vars(fresh)
    assert kept == fresh and hash(kept) == hash(fresh)
    assert repr(kept) == repr(fresh)


# --- the kept morphism and verdict of a canonical map ------------------------

def _count_relations(monkeypatch) -> list:
    related = []
    inner = morphism._relation_defect
    monkeypatch.setattr(morphism, "_relation_defect",
                        lambda f: related.append(f) or inner(f))
    return related


def test_certify_relates_a_kept_map_once_and_recheck_every_time(
        cache, monkeypatch):
    related = _count_relations(monkeypatch)
    first = check_pair(9, 8, 8, 9)
    assert first.kind == "ISO" and len(related) == 1
    second = check_pair(9, 8, 8, 9)
    assert second.json_dict() == first.json_dict() and len(related) == 1
    # recheck builds its own morphism from the JSON and relates it each time
    text = json.dumps(second.json_dict())
    for n in (2, 3):
        assert recheck_certificate(json.loads(text)).ok
        assert len(related) == n
        assert related[-1] is not related[0]
    assert related[0] is verified_morphism(canonical_map(9, 8))[0]


def test_a_copied_or_unshared_map_is_related_afresh(cache, monkeypatch):
    related = _count_relations(monkeypatch)
    kept = canonical_map(9, 8)
    want = check_pair(9, 8, 8, 9).json_dict()
    assert len(related) == 1
    with monkeypatch.context() as patch:
        patch.setattr(obstruction, "canonical_map",
                      lambda r, s: kept._replace())
        for n in (2, 3):
            assert check_pair(9, 8, 8, 9).json_dict() == want
            assert len(related) == n
    # a cap of 128 leaves the dim-512 source unshared: a new map every call
    with catalog.scope(budget=1024):
        assert canonical_map(9, 8) is not canonical_map(9, 8)
        for n in (4, 5):
            assert check_pair(9, 8, 8, 9).json_dict() == want
            assert len(related) == n
    assert check_pair(9, 8, 8, 9).json_dict() == want and len(related) == 5


def test_a_certificate_is_never_shared_state(cache):
    cert = check_pair(10, 2, 2, 10)
    cert.payload["morphism"]["A"]["image"].reverse()
    out = cert.json_dict()
    out["morphism"]["A"]["image"].append(0)
    out["morphism"]["C"]["sign"][0] = 7
    out["morphism"]["src"]["provenance"]["steps"].clear()
    out["morphism"]["class"]["integral"] = False
    again = dumps(check_pair(10, 2, 2, 10).json_dict())
    with catalog.scope():
        assert again == dumps(check_pair(10, 2, 2, 10).json_dict())


@pytest.mark.parametrize("corrupt", [
    lambda a: next(_entry_flips(a)),
    lambda a: next(_metric_flips(a)),
], ids=["tensor", "metric"])
def test_a_replaced_copy_gets_its_own_verdict(corrupt):
    shared = standard_algebra(9, 1)
    assert verify_axioms(shared).ok
    bad = corrupt(shared)
    assert bad is not shared and "_axioms" not in vars(bad)
    verdict = verify_axioms(bad)
    assert not verdict.ok and verify_axioms(bad) is verdict
    assert verify_axioms(shared).ok and vars(shared)["_axioms"].ok


def test_the_kept_verdict_is_not_a_field():
    a, fresh = _build_base(3, 3), _build_base(3, 3)
    verdict = verify_axioms(a)
    assert verdict.ok and verify_axioms(a) is verdict
    assert a == fresh and hash(a) == hash(fresh)
    assert algebra_json(a) == algebra_json(fresh) and repr(a) == repr(fresh)


# --- the kept general H-type verdict -----------------------------------------

@pytest.mark.parametrize("corrupt", [
    lambda a: next(_entry_flips(a)),
    lambda a: next(_metric_flips(a)),
], ids=["tensor", "metric"])
def test_a_replaced_copy_gets_its_own_general_verdict(corrupt):
    shared = base_algebra(3, 2)
    assert verify_general_htype(shared).ok
    bad = corrupt(shared)
    assert bad is not shared and "_general_htype" not in vars(bad)
    verdict = verify_general_htype(bad)
    assert not verdict.ok and verify_general_htype(bad) is verdict
    assert verdict == verify_axioms(bad)
    assert verify_general_htype(shared).ok
    assert vars(shared)["_general_htype"].ok


def test_the_kept_general_verdict_is_not_a_field():
    a, fresh = _build_base(1, 1), _build_base(1, 1)
    verdict = verify_general_htype(a)
    assert verdict.ok and verify_general_htype(a) is verdict
    assert "_general_htype" in vars(a) and "_general_htype" not in vars(fresh)
    assert a == fresh and hash(a) == hash(fresh)
    assert algebra_json(a) == algebra_json(fresh) and repr(a) == repr(fresh)
    assert algebra_to_dict(a) == algebra_to_dict(fresh)


def test_a_degenerate_kernel_is_raised_and_never_kept(monkeypatch):
    a = _build_base(1, 1)
    scanned = []

    def degenerate(alg, v):
        scanned.append(v)
        raise algebra.DegenerateKernelError(v)

    monkeypatch.setattr(algebra, "_check_general_at", degenerate)
    for _round in range(2):
        with pytest.raises(algebra.DegenerateKernelError):
            verify_general_htype(a)
        assert "_general_htype" not in vars(a)
    assert len(scanned) == 2
    monkeypatch.undo()
    assert verify_general_htype(a).ok and vars(a)["_general_htype"].ok


def test_each_algebra_is_scanned_once(monkeypatch):
    scanned = []
    inner = algebra._check_general_at
    monkeypatch.setattr(algebra, "_check_general_at",
                        lambda a, v: scanned.append(a) or inner(a, v))
    a = _build_base(3, 2)
    for _round in range(3):
        assert verify_general_htype(a).ok
    assert len(scanned) == a.dim_module
    # a private copy and a parsed algebra are new objects, scanned afresh
    for other in (_build_base(3, 2), algebra_from_json(algebra_json(a))):
        scanned.clear()
        assert verify_general_htype(other).ok
        assert len(scanned) == a.dim_module
