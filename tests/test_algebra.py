import json
import random
import re
import tracemalloc
from fractions import Fraction

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from pseudoht.algebra import (
    MAX_CENTER_DIM,
    MAX_MODULE_DIM,
    BlockSets,
    DegenerateKernelError,
    IntegralBasisError,
    OpaqueProvenance,
    PseudoHTypeAlgebra,
    SignedPermutationOp,
    StructureTensor,
    adjoint_rows,
    algebra_from_json,
    algebra_json,
    algebra_to_dict,
    bd_decomposition,
    block_decomposition,
    bracket,
    j_image,
    j_operator,
    signed_incidence_rank,
    two_coloring,
    verify_admissible,
    verify_clifford,
    verify_general_htype,
    verify_htype,
    verify_integral_basis,
)
from pseudoht.algebra import _check_general_at
from pseudoht.catalog import BASE_IDS, aligned_factor_0_8, base_algebra
from pseudoht.core import (ExactMatrix, Signature, SparseVector, basis_vector, exact_rank,
                           scalar_product)
from pseudoht.obstruction import adjoint_rank, gram_det

from object_entries import object_entries
from test_derived_tables import signed_lookup  # J table row reference

small_ints = st.integers(min_value=-4, max_value=4)


def test_j_operator_published_cells():
    eight = base_algebra(8, 0)
    assert j_operator(eight, 1).apply_basis(1) == (9, 1)
    assert j_operator(eight, 3).apply_basis(5) == (16, 1)
    v08 = base_algebra(0, 8)
    assert j_operator(v08, 1).apply_basis(1) == (9, 1)


def test_j_operator_out_of_range():
    with pytest.raises(IndexError):
        j_operator(base_algebra(1, 0), 2)


def test_clifford_squares_on_1_1():
    a = base_algebra(1, 1)
    j1 = j_operator(a, 1)
    j2 = j_operator(a, 2)
    assert j1.compose(j1).scalar_action() == -1   # <Z_1,Z_1> = +1
    assert j2.compose(j2).scalar_action() == 1    # <Z_2,Z_2> = -1


def test_anticommutation_on_8_0():
    a = base_algebra(8, 0)
    j2, j5 = j_operator(a, 2), j_operator(a, 5)
    left = j2.compose(j5)
    right = j5.compose(j2)
    assert left == right.negate()


def test_structure_tensor_rejects_double_center_assignment():
    with pytest.raises(IntegralBasisError):
        StructureTensor(2, 2, [(1, 2, 1, 1), (1, 2, 2, 1)])


def test_structure_tensor_rejects_diagonal_and_bad_signs():
    # equal by value is not enough: a bool or float index or sign is refused
    for entry in ((1, 1, 1, 1), (1, 2, 1, 2),
                  (1, 2, 1, True), (True, 2, 1, 1),
                  (1.0, 2, 1, 1), (1, 2, 1.0, 1), (1, 2, 1, -1.0)):
        with pytest.raises(ValueError):
            StructureTensor(2, 1, [entry])


def _corrupt_one_sign(a: PseudoHTypeAlgebra) -> PseudoHTypeAlgebra:
    entries = list(a.tensor.entries)
    i, j, k, s = entries[0]
    entries[0] = (i, j, k, -s)
    return PseudoHTypeAlgebra(
        center_sig=a.center_sig,
        module_signs=a.module_signs,
        tensor=StructureTensor(a.dim_module, a.dim_center, entries),
        provenance=a.provenance,
    )


def test_corrupted_tensor_fails_a_verifier():
    bad = _corrupt_one_sign(base_algebra(2, 0))
    assert not (verify_clifford(bad).ok and verify_admissible(bad).ok
                and verify_htype(bad).ok)


def test_verifier_reports_witness():
    bad = _corrupt_one_sign(base_algebra(2, 0))
    for check in (verify_clifford, verify_htype):
        v = check(bad)
        if not v.ok:
            assert v.witness is not None
            return
    pytest.fail("no verifier produced a witness")


def test_j_roundtrip_rebuilds_structure_constants():
    # A^k_{ab} = eps^z_k * B^k_{ab} * eps^v_b recovers the tensor exactly
    for rs in BASE_IDS:
        a = base_algebra(*rs)
        rebuilt = []
        for k in range(1, a.dim_center + 1):
            op = j_operator(a, k)
            ez = a.center_sign(k)
            for alpha in range(1, a.dim_module + 1):
                beta, sgn = op.apply_basis(alpha)
                if alpha < beta:
                    rebuilt.append((alpha, beta, k, ez * sgn * a.module_sign(beta)))
        assert StructureTensor(a.dim_module, a.dim_center, rebuilt) == a.tensor


@settings(max_examples=40)
@given(st.lists(small_ints, min_size=4, max_size=4),
       st.lists(small_ints, min_size=4, max_size=4),
       st.lists(small_ints, min_size=4, max_size=4),
       st.integers(min_value=-3, max_value=3))
def test_bracket_bilinear_antisymmetric(x, y, z, c):
    a = base_algebra(1, 1)
    bxy = bracket(a, x, y)
    byx = bracket(a, y, x)
    assert all(p == -q for p, q in zip(bxy, byx))
    xz = [u + c * v for u, v in zip(x, z)]
    together = bracket(a, xz, y)
    split = [p + c * q for p, q in zip(bxy, bracket(a, z, y))]
    assert list(together) == split


def test_bracket_length_mismatch():
    with pytest.raises(ValueError):
        bracket(base_algebra(1, 0), [1, 0, 0], [0, 1, 0])


def test_two_step_nilpotency_is_structural():
    # brackets land in the center by construction, and center coordinate
    # vectors have no bracket: feeding one back in is a type error
    a = base_algebra(2, 0)
    z = bracket(a, basis_vector(1, 4), basis_vector(3, 4))
    assert len(z) == a.dim_center
    with pytest.raises(ValueError):
        bracket(a, list(z), basis_vector(1, 4))


def _published(a_plus, a_minus, b_plus, b_minus) -> BlockSets:
    return BlockSets(frozenset(a_plus), frozenset(a_minus),
                     frozenset(b_plus), frozenset(b_minus))


# the paper's quarter sets A+, A-, B+, B- of the eleven bases that have them
PUBLISHED_BLOCKS = {
    (1, 0): _published({1}, (), {2}, ()),
    (0, 1): _published({1}, (), (), {2}),
    (2, 0): _published({1, 2}, (), {3, 4}, ()),
    (0, 2): _published({1, 2}, (), (), {3, 4}),
    (4, 0): _published({1, 2, 3, 4}, (), {5, 6, 7, 8}, ()),
    (0, 4): _published({1, 2, 3, 4}, (), (), {5, 6, 7, 8}),
    (8, 0): _published(set(range(1, 9)), (), set(range(9, 17)), ()),
    (0, 8): _published(set(range(1, 9)), (), (), set(range(9, 17))),
    (1, 1): _published({1}, {4}, {2}, {3}),
    (2, 2): _published({1, 4}, {7, 8}, {2, 3}, {5, 6}),
    (4, 4): _published({1, 6, 7, 8}, {13, 14, 15, 16},
                       {2, 3, 4, 5}, {9, 10, 11, 12}),
}


def test_block_decomposition_matches_published_sets():
    eight = base_algebra(8, 0)
    split = block_decomposition(eight)
    assert split == (frozenset(range(1, 9)), frozenset(range(9, 17)))
    four4 = base_algebra(4, 4)
    split = block_decomposition(four4)
    assert split == (frozenset({1, 6, 7, 8, 13, 14, 15, 16}),
                     frozenset({2, 3, 4, 5, 9, 10, 11, 12}))
    # the kept quarter sets, read off the J table, are the published ones
    for rs, published in PUBLISHED_BLOCKS.items():
        assert base_algebra(*rs).blocks == published, rs
    for rs in ((3, 2), (2, 3), (3, 3)):
        assert base_algebra(*rs).blocks is None, rs
    assert set(PUBLISHED_BLOCKS) | {(3, 2), (2, 3), (3, 3)} == set(BASE_IDS)
    assert aligned_factor_0_8().blocks == PUBLISHED_BLOCKS[(0, 8)]


def test_block_decomposition_none_for_3_2():
    assert block_decomposition(base_algebra(3, 2)) is None


def test_block_decomposition_none_off_an_integral_basis():
    # one bracket on dim 4: the graph is not regular, so the halves {1,3,4}
    # and {2} differ in size
    a = PseudoHTypeAlgebra(
        center_sig=Signature(1, 0), module_signs=(1, 1, 1, 1),
        tensor=StructureTensor(4, 1, [(1, 2, 1, 1)]),
        provenance=OpaqueProvenance({}))
    assert not verify_integral_basis(a).ok
    assert block_decomposition(a) is None


def test_two_coloring_odd_triangle_cycle():
    edges = [(1, 2, -1), (2, 3, -1), (1, 3, -1)]
    # edge 1 clashes; the tree path runs from its first end 2 up to 1
    # (edge 0), down to its second end 3 (edge 2), then edge 1 itself
    assert two_coloring(3, edges) == (None, [0, 2, 1])


def test_two_coloring_cycle_with_unequal_tree_depths():
    # the odd square 1-2-3-4: edge 3 clashes from 4 (depth 1) to 3 (depth
    # 2), so the cycle is 4 up to 1, then 1 down through 2 to 3, then edge 3
    edges = [(1, 2, -1), (2, 3, -1), (1, 4, -1), (4, 3, 1)]
    assert two_coloring(4, edges) == (None, [2, 0, 1, 3])


def test_two_coloring_components_start_at_their_lowest_index():
    # vertex 1 alone, then components {2, 3} and {4, 5, 6}
    edges = [(5, 4, -1), (3, 2, -1), (5, 6, -1)]
    signs, cycle = two_coloring(6, edges)
    assert cycle is None
    assert signs[1:] == [1, 1, -1, 1, -1, 1]


def test_two_coloring_honours_rhs_plus_one():
    edges = [(1, 2, 1), (2, 3, -1), (3, 4, 1), (4, 1, -1)]
    signs, cycle = two_coloring(4, edges)
    assert cycle is None
    assert all(signs[a] * signs[b] == rhs for a, b, rhs in edges)
    assert signs[1:] == [1, 1, -1, -1]
    assert two_coloring(2, [(1, 2, 1), (2, 1, -1)]) == (None, [0, 1])


def test_two_coloring_reports_each_components_balance():
    # {1, 2, 3} an odd triangle, {4} alone, {5, 6} with a negative loop,
    # {7, 8} consistent, {9} with a positive loop
    edges = [(1, 2, -1), (2, 3, -1), (1, 3, -1), (5, 6, 1), (6, 6, -1),
             (7, 8, -1), (9, 9, 1)]
    signs, balanced = two_coloring(9, edges, every_component=True)
    assert balanced == [False, True, False, True, True]
    assert signs[7] * signs[8] == -1 and signs[9] == 1
    # without the flag the same walk stops at the triangle's clash
    assert two_coloring(9, edges) == (None, [0, 2, 1])
    assert two_coloring(3, [], every_component=True) == ([0, 1, 1, 1],
                                                         [True] * 3)


@pytest.mark.parametrize("columns,rank", [
    ([], 0),                                    # three isolated rows
    ([[(1, 1)]], 1),                            # a half-edge
    ([[(2, -1), (2, -1)]], 1),                  # -2 e_2, a half-edge too
    ([[(2, 1), (2, -1)]], 0),                   # a cancelling pair
    ([[(1, 1), (2, 1)], [(1, 1), (2, -1)]], 2),             # odd digon
    ([[(1, 1), (2, 1)], [(2, 1), (3, -1)], [(1, 1), (3, 1)]], 2),  # even
    ([[(1, 1), (2, 1)], [(2, 1), (3, 1)], [(1, 1), (3, 1)]], 3),   # odd
])
def test_signed_incidence_rank_examples(columns, rank):
    assert signed_incidence_rank(3, columns) == rank


def _dense(n, columns):
    rows = [[0] * len(columns) for _ in range(n)]
    for c, column in enumerate(columns):
        for row, sign in column:
            rows[row - 1][c] += sign
    return rows


signed_terms = st.tuples(st.integers(min_value=1, max_value=6),
                         st.sampled_from((1, -1)))


@settings(max_examples=300, deadline=None)
@given(st.lists(st.lists(signed_terms, max_size=2), max_size=9))
def test_signed_incidence_rank_is_the_exact_rank(columns):
    # six rows and at most nine columns: isolated rows, half-edges, equal
    # and cancelling pairs on one row all turn up
    assert signed_incidence_rank(6, columns) == exact_rank(_dense(6, columns))


def test_block_decomposition_parts_commute():
    for rs in BASE_IDS:
        a = base_algebra(*rs)
        split = block_decomposition(a)
        if split is None:
            continue
        for part in split:
            for i in part:
                for j in part:
                    assert not any(bracket(a, basis_vector(i, a.dim_module),
                                           basis_vector(j, a.dim_module)))


def test_bd_decomposition_published_cases():
    one1 = bd_decomposition(base_algebra(1, 1))
    assert (one1.a_plus, one1.a_minus) == (frozenset({1}), frozenset({4}))
    assert (one1.b_plus, one1.b_minus) == (frozenset({2}), frozenset({3}))
    two2 = bd_decomposition(base_algebra(2, 2))
    assert two2.a_plus == frozenset({1, 4})
    assert two2.a_minus == frozenset({7, 8})
    assert two2.b_plus == frozenset({2, 3})
    assert two2.b_minus == frozenset({5, 6})


def test_bd_decomposition_none_for_definite_and_one_sided():
    assert bd_decomposition(base_algebra(4, 0)) is None
    assert bd_decomposition(base_algebra(0, 8)) is None


# the algebras of verify-paper's criterion 8
GENERAL_HTYPE = ((1, 0), (1, 1), (3, 2), (4, 4))


def sampled_general_htype(a, samples, seed=0):
    """The former criterion-8 sampler, kept as the oracle of the theorem:
    True when the characterization holds at `samples` random non-null
    integer vectors with entries in [-5, 5]."""
    rng = random.Random(seed)
    checked = 0
    while checked < samples:
        v = tuple(rng.randint(-5, 5) for _ in range(a.dim_module))
        if scalar_product(v, v, a.module_signs) != 0:
            if not _check_general_at(a, v).ok:
                return False
            checked += 1
    return True


def test_general_htype_on_basis_vector_of_1_0():
    a = base_algebra(1, 0)
    assert verify_general_htype(a).ok
    assert _check_general_at(a, basis_vector(2, 2)).ok


def test_general_htype_scaled_gram_factor():
    # v = w_3 in the (1,1) algebra has <v,v> = -1; the identity holds with
    # that factor, and a doubled vector scales it by 4.  The check runs on
    # integer vectors and refuses Fraction entries.
    a = base_algebra(1, 1)
    w3 = (0, 0, 1, 0)
    assert scalar_product(w3, w3, a.module_signs) == -1
    assert _check_general_at(a, w3).ok
    doubled = tuple(2 * e for e in basis_vector(1, 4))
    assert scalar_product(doubled, doubled, a.module_signs) == 4
    assert _check_general_at(a, doubled).ok
    with pytest.raises(ValueError, match="ints"):
        _check_general_at(a, tuple(map(Fraction, w3)))


@pytest.mark.parametrize("rs", GENERAL_HTYPE)
def test_general_htype_sampled(rs):
    # the proof and its oracle: 100 seeded non-null vectors agree
    a = base_algebra(*rs)
    assert verify_general_htype(a).ok
    assert sampled_general_htype(a, 100)


def _flipped(a, n):
    """a with the sign of its n-th tensor entry flipped."""
    entries = a.tensor.entries
    i, j, k, s = entries[n]
    return a._replace(tensor=StructureTensor(
        a.dim_module, a.dim_center, entries[:n] + ((i, j, k, -s),)
        + entries[n + 1:]))


@pytest.mark.parametrize("rs", [rs for rs in GENERAL_HTYPE if sum(rs) > 1])
def test_general_htype_refused_after_one_flipped_sign(rs):
    # with dim z >= 2 each entry's (a, b) pair is swapped by one J_k only,
    # so flipping its sign breaks the anticommutation with every other J_m
    a = base_algebra(*rs)
    for n in range(len(a.tensor.entries)):
        verdict = verify_general_htype(_flipped(a, n))
        assert not verdict.ok and verdict.detail.startswith("verify_clifford")


def test_general_htype_accepts_the_flipped_1_0():
    # n_(1,0) has one entry; its flip is the image under v_2 -> -v_2
    flipped = _flipped(base_algebra(1, 0), 0)
    assert verify_general_htype(flipped).ok
    assert sampled_general_htype(flipped, 100)


def test_degenerate_kernel_is_reported_not_interpreted():
    # null vectors can have a kernel on which the metric degenerates; the
    # theorem says nothing there, and a direct query must surface the
    # witness instead of guessing
    a = base_algebra(1, 1)
    v = (1, 0, 1, 0)  # null: metric (+,+,-,-)
    with pytest.raises(DegenerateKernelError) as exc:
        _check_general_at(a, v)
    assert exc.value.v == v


def test_json_round_trip_preserves_tensor():
    for rs in ((1, 0), (3, 2), (4, 4)):
        a = base_algebra(*rs)
        back = algebra_from_json(algebra_json(a))
        assert back.tensor == a.tensor
        assert back.module_signs == a.module_signs
        assert back.center_sig == a.center_sig


@pytest.mark.parametrize("edit", [
    lambda d: d["structure"][0].update(i=1.7),
    lambda d: d["structure"][0].update(sign=True),
    lambda d: d["structure"][0].update(k="1"),
    lambda d: d.update(r=3.0),
    lambda d: d.update(s=False),
    lambda d: d.update(dim_v="8"),
    lambda d: d["module_metric"].__setitem__(0, 1.0),
    # integers, but no metric sign: extend would misplace the pair basis
    lambda d: d["module_metric"].__setitem__(0, 0),
    lambda d: d["module_metric"].__setitem__(0, 2),
])
def test_json_with_non_integer_fields_is_refused(edit):
    # structure entries in the object form older versions wrote
    data = object_entries(algebra_to_dict(base_algebra(3, 2)))
    edit(data)
    with pytest.raises(ValueError):
        algebra_from_json(json.dumps(data))


def _set(key, value):
    return lambda d: d.__setitem__(key, value)


def _set_entry(value):
    return lambda d: d["structure"].__setitem__(0, value)


def _set_in_row(position, value):
    return lambda d: d["structure"][0].__setitem__(position, value)


# each a ValueError naming the field, never a TypeError or KeyError
MALFORMED_ALGEBRAS = {
    "entry a number": (_set_entry(5), "structure entry"),
    "object entry without k": (
        _set_entry({"i": 1, "j": 2, "sign": 1}), "structure entry"),
    "structure null": (_set("structure", None), "structure"),
    "structure an object": (_set("structure", {}), "structure"),
    "structure missing": (lambda d: d.pop("structure"), "'structure'"),
    "r missing": (lambda d: d.pop("r"), "'r'"),
    "module_metric null": (_set("module_metric", None), "module_metric"),
    "module_metric a string": (_set("module_metric", "11"), "module_metric"),
    "provenance a list": (_set("provenance", [1]), "provenance"),
    "provenance null": (_set("provenance", None), "provenance"),
    "row of 3": (lambda d: d["structure"][0].pop(), "structure entry"),
    "row of 5": (lambda d: d["structure"][0].append(1), "structure entry"),
    "row null": (_set_entry(None), "structure entry"),
    # the row twins of the object-entry edits above, then null and 1.0
    "row i 1.7": (_set_in_row(0, 1.7), "entry"),
    "row sign true": (_set_in_row(3, True), "entry"),
    "row k a string": (_set_in_row(2, "1"), "entry"),
    "row i null": (_set_in_row(0, None), "entry"),
    "row sign 1.0": (_set_in_row(3, 1.0), "entry"),
}


@pytest.mark.parametrize("edit, field", MALFORMED_ALGEBRAS.values(),
                         ids=MALFORMED_ALGEBRAS)
def test_malformed_algebra_json_raises_value_error_naming_the_field(edit, field):
    data = algebra_to_dict(base_algebra(3, 2))
    edit(data)
    with pytest.raises(ValueError, match=re.escape(field)):
        algebra_from_json(json.dumps(data))


@pytest.mark.parametrize("text", ["[1]", "1", "null", '"r"'])
def test_algebra_json_that_is_no_object_is_refused(text):
    with pytest.raises(ValueError, match="no 'r'"):
        algebra_from_json(text)


# a few bytes of text may name a center or module of any size, so each field
# above its budget is refused before anything of that size is made
OVERSIZED_ALGEBRAS = {
    "r 10**9": ((10 ** 9, 0, 0), "r + s 1000000000"),
    "s MAX_CENTER_DIM": ((1, MAX_CENTER_DIM, 0), f"r + s {MAX_CENTER_DIM + 1}"),
    "dim_v MAX_MODULE_DIM + 1": ((0, 1, MAX_MODULE_DIM + 1),
                                 f"dim_v {MAX_MODULE_DIM + 1}"),
}


@pytest.mark.parametrize("rsn, message", OVERSIZED_ALGEBRAS.values(),
                         ids=OVERSIZED_ALGEBRAS)
def test_algebra_json_above_a_budget_is_refused_before_it_is_built(rsn,
                                                                   message):
    r, s, n = rsn
    text = json.dumps({"r": r, "s": s, "dim_v": n, "module_metric": [],
                       "structure": []})
    tracemalloc.start()
    try:
        with pytest.raises(ValueError, match=re.escape(message)):
            algebra_from_json(text)
        _, peak = tracemalloc.get_traced_memory()
    finally:
        tracemalloc.stop()
    assert peak < 100_000


def test_algebra_json_at_the_budgets_parses():
    a = algebra_from_json(json.dumps({
        "r": 0, "s": MAX_CENTER_DIM, "dim_v": 0, "module_metric": [],
        "structure": []}))
    assert (a.dim_center, a.dim_module) == (MAX_CENTER_DIM, 0)


def test_json_key_order_is_deterministic():
    a = base_algebra(2, 0)
    keys = list(algebra_to_dict(a).keys())
    assert keys == ["r", "s", "dim_v", "module_metric", "structure",
                    "provenance"]
    assert algebra_json(a) == algebra_json(base_algebra(2, 0))


def test_signed_permutation_basics():
    op = SignedPermutationOp((2, 1), (1, -1))
    assert op.apply_basis(1) == (2, 1)
    assert op.apply_basis(2) == (1, -1)
    assert op.compose(op.inverse()) == SignedPermutationOp.identity(2)
    m = op.matrix()
    assert m.entries == ((0, -1), (1, 0))
    assert SignedPermutationOp.from_matrix(m) == op
    for rows in ([[1, 1], [0, 0]], [[1, 0], [1, 0]], [[2, 0], [0, 1]],
                 [[1, 0]], [[0, 0], [0, 1]]):
        assert SignedPermutationOp.from_matrix(ExactMatrix.from_rows(rows)) is None
    for image, sign in (((1, 1), (1, 1)), ((True, 2), (1, 1)),
                        ((1, 2), (1, True)), ((1.0, 2), (1, 1)),
                        ((1, 2), (1, -1.0))):
        with pytest.raises(ValueError):
            SignedPermutationOp(image, sign)


def test_list_and_tuple_ops_are_equal_and_hash_equal():
    lists = SignedPermutationOp([2, 1], [1, -1])
    tuples = SignedPermutationOp((2, 1), (1, -1))
    assert lists == tuples and hash(lists) == hash(tuples)
    assert type(lists.image) is tuple and type(lists.sign) is tuple
    assert lists.negate() == tuples.negate()
    assert {lists, tuples} == {tuples}
    # a list is checked as its tuple is
    for image, sign in (([1, 1], [1, 1]), ([True, 2], [1, 1]),
                        ([1, 2], [1, -1.0])):
        with pytest.raises(ValueError):
            SignedPermutationOp(image, sign)


def test_compose_refuses_a_dimension_mismatch_both_ways():
    three = SignedPermutationOp((2, 3, 1), (1, -1, 1))
    for other in (SignedPermutationOp.identity(2),
                  SignedPermutationOp.identity(4)):
        for first, second in ((three, other), (other, three)):
            with pytest.raises(ValueError, match="cannot compose a dim-"):
                first.compose(second)


@pytest.mark.parametrize("metric", [
    (1.0, 1, -1, -1), (True, 1, -1, -1), (1, 1, Fraction(-1), -1),
    (1.0, 1.0, -1.0, -1.0),
])
def test_module_metric_entries_must_be_integers(metric):
    # 1.0, True and Fraction(-1) equal +-1, so only the type refuses them;
    # the J operators take their signs from the metric unchecked
    a = base_algebra(1, 1)
    assert a.module_signs == (1, 1, -1, -1)
    bad = next(e for e in metric if type(e) is not int)
    with pytest.raises(ValueError, match=re.escape(
            f"module metric entries must be integers, got {bad!r}")):
        a._replace(module_signs=metric)


@pytest.mark.parametrize("t", [
    (1,), (-1,), (2, -1),
    (1, 9, 10, 12, 11, 6, 7, -8, 2, 3, 5, 4, 13, 14, -15, 16),  # (4,4) auto
])
def test_signed_index_form_round_trips(t):
    op = SignedPermutationOp.from_signed(t)
    assert signed_lookup(op)[1:len(t) + 1] == list(t)


@pytest.mark.parametrize("t", [(0,), (1, 0), (1, -1), (2, 2, 1),
                               (True,), (1.0,)])
def test_signed_index_form_refuses_zero_repeats_and_non_integers(t):
    with pytest.raises(ValueError):
        SignedPermutationOp.from_signed(t)


def test_all_verifiers_quantify_over_every_center_index():
    # exercised on the widest catalog entry to touch all k, m pairs
    a = base_algebra(4, 4)
    assert verify_clifford(a).ok and verify_htype(a).ok


def test_adjoint_rows_keep_the_number_type():
    a = base_algebra(3, 2)
    x = [1, 0, -2, 0, 0, 1, 0, 0]
    rows = adjoint_rows(a, x)
    assert all(type(e) is int for row in rows for e in row)
    half = adjoint_rows(a, [Fraction(e, 2) for e in x])
    assert half == [[Fraction(e, 2) for e in row] for row in rows]
    # column b holds the center coordinates of [x, v_b]
    for b in range(1, a.dim_module + 1):
        column = tuple(row[b - 1] for row in rows)
        assert column == bracket(a, x, basis_vector(b, 8))


@pytest.mark.parametrize("x", [[1], [1, 0, 5], []])
def test_adjoint_rows_refuses_wrong_lengths(x):
    # a short or long x would otherwise be cut to the module or padded
    with pytest.raises(ValueError, match="^x must have module length$"):
        adjoint_rows(base_algebra(1, 0), x)
    # the obstruction routines on it keep their own message
    for call in (gram_det, adjoint_rank):
        with pytest.raises(ValueError, match="^X must have module length$"):
            call(base_algebra(1, 0), x)


def test_center_pairing_lowers_j_of_the_center_vector():
    # <Z, [x, v_b]> = <J_Z x, v_b> = eps_b (J_Z x)_b, with J_Z x read off
    # the J operators and, by its support, off the J table by j_image
    a = base_algebra(2, 2)
    z, x = [1, 0, 2, 0], [0, 0, 0, 0, 1, 0, -3, 0]
    want = [0] * a.dim_module
    for k, zk in enumerate(z, start=1):
        for alpha, xa in enumerate(x, start=1):
            if zk and xa:
                b, s = j_operator(a, k).apply_basis(alpha)
                want[b - 1] += zk * xa * s * a.module_sign(b)
    got = j_image(a, SparseVector.of(z), SparseVector.of(x))
    pairing = [a.module_sign(b) * got.get(b, 0)
               for b in range(1, a.dim_module + 1)]
    assert pairing == want and got
    assert pairing == [scalar_product(z, bracket(a, x, basis_vector(b, 8)),
                                      a.center_sig)
                       for b in range(1, a.dim_module + 1)]
    assert all(type(c) is int for c in got.values())
    assert j_image(a, SparseVector(4, (), ()), SparseVector.of(x)) == {}
    half = j_image(a, SparseVector.of(z),
                   SparseVector.of([Fraction(e, 2) for e in x]))
    assert half == {b: Fraction(c, 2) for b, c in got.items()}


def _first_basis_vector(dim):
    return SparseVector(dim, (1,), (1,))


@pytest.mark.parametrize("z,x", [
    (_first_basis_vector(z), _first_basis_vector(x))
    for z, x in ((3, 8), (5, 8), (4, 7), (4, 9))])
def test_center_pairing_refuses_wrong_lengths(z, x):
    # a Z or x of another dimension would otherwise be read at indices
    # the algebra does not have, or answer silently
    with pytest.raises(ValueError):
        j_image(base_algebra(2, 2), z, x)
