import itertools
import time

import pytest

import pseudoht.algebra as algebra
from pseudoht.algebra import (
    BlockSets,
    SignedPermutationOp,
    StructureTensor,
    block_decomposition,
    bracket,
    j_operator,
    j_operators,
    verify_admissible,
    verify_clifford,
    verify_htype,
    verify_integral_basis,
)
from pseudoht.catalog import BASE_IDS, _build_base, aligned_factor_0_8, base_algebra
from pseudoht.core import basis_vector
from pseudoht.extension import (
    ExtensionStep,
    extend,
    extension_chain,
    pair_index,
    standard_algebra,
    standard_chain,
    volume_involution,
)
from pseudoht.sums import build_sum
from test_algebra import PUBLISHED_BLOCKS
from test_derived_tables import per_entry_j_table, table_values


def test_step_parsing():
    assert ExtensionStep.parse("8,0") is ExtensionStep.BY_8_0
    assert ExtensionStep.parse(" 0,8 ") is ExtensionStep.BY_0_8
    assert ExtensionStep.parse("44") is ExtensionStep.BY_4_4
    with pytest.raises(ValueError):
        ExtensionStep.parse("2,2")


def test_volume_involution_of_definite_factor():
    """E = J_1...J_8 acts diagonally as -eps_j(8,8) on the integral basis."""
    e = volume_involution(base_algebra(8, 0))
    for j in range(1, 17):
        want = -1 if j <= 8 else 1
        assert e.apply_basis(j) == (j, want)
    assert e.compose(e).scalar_action() == 1
    # E anticommutes with every generator operator
    a8 = base_algebra(8, 0)
    for k in range(1, 9):
        jk = j_operator(a8, k)
        assert e.compose(jk) == jk.compose(e).negate()


def test_volume_involution_of_other_factors():
    e08 = volume_involution(aligned_factor_0_8())
    for j in range(1, 17):
        assert e08.apply_basis(j) == (j, -1 if j <= 8 else 1)
    e44 = volume_involution(base_algebra(4, 4))
    plus = {2, 3, 4, 5, 9, 10, 11, 12}
    for j in range(1, 17):
        assert e44.apply_basis(j) == (j, 1 if j in plus else -1)


def test_dimension_law():
    for rs in ((1, 0), (1, 1), (3, 2)):
        a = base_algebra(*rs)
        for step in ExtensionStep:
            ext = extend(a, step)
            assert ext.dim_module == 16 * a.dim_module
            assert ext.dim_center == a.dim_center + 8
            dp, dq = step.delta
            assert (ext.r, ext.s) == (a.r + dp, a.s + dq)


def test_extended_metric_is_sign_sorted():
    for rs in ((1, 0), (2, 2), (0, 4)):
        a = base_algebra(*rs)
        for step in ExtensionStep:
            ext = extend(a, step)
            signs = ext.module_signs
            assert list(signs) == sorted(signs, reverse=True)
            if ext.s > 0:
                half = ext.dim_module // 2
                assert signs == (1,) * half + (-1,) * half


@pytest.mark.parametrize("rs", BASE_IDS)
@pytest.mark.parametrize("step", list(ExtensionStep))
def test_every_single_step_extension_passes_axioms(rs, step):
    ext = extend(base_algebra(*rs), step)
    assert verify_integral_basis(ext).ok
    assert verify_clifford(ext).ok
    assert verify_admissible(ext).ok
    assert verify_htype(ext).ok


def _operator_route_tensor(parent, step):
    """Independent derivation of the extended structure constants.

    Build the new J operators directly: parent center generators act as
    J (x) E with E the factor's volume involution, factor generators act as
    Id (x) J-bar.  Then read the structure constants back through
    eps^v_b B = eps^z A.  This never touches the case-by-case sign tables
    that extend() uses.
    """
    from pseudoht.extension import _center_layout, _factor

    factor = _factor(step)
    e_op = volume_involution(factor)
    sig, parent_center, factor_center = _center_layout(step, parent.r, parent.s)
    ext = extend(parent, step)  # only for the pair -> final permutation
    prov = ext.provenance
    two_l = parent.dim_module

    def final(i, j):
        return prov.pair_to_final[16 * (i - 1) + j - 1]

    entries = []
    for m in range(1, sig.dim + 1):
        if m in parent_center:
            k = parent_center.index(m) + 1
            jk = j_operator(parent, k)
            for i in range(1, two_l + 1):
                pi, si = jk.apply_basis(i)
                for j in range(1, 17):
                    fj, sj = e_op.apply_basis(j)
                    a, b = final(i, j), final(pi, fj)
                    sign_b = si * sj
                    # A^m_{ab} = eps^z_m * B^m_{ab} * eps^v_b
                    ez = 1 if m <= sig.pos else -1
                    s = ez * sign_b * ext.module_sign(b)
                    if a < b:
                        entries.append((a, b, m, s))
        else:
            kf = factor_center.index(m) + 1
            jf = j_operator(factor, kf)
            for j in range(1, 17):
                fj, sj = jf.apply_basis(j)
                for i in range(1, two_l + 1):
                    a, b = final(i, j), final(i, fj)
                    ez = 1 if m <= sig.pos else -1
                    s = ez * sj * ext.module_sign(b)
                    if a < b:
                        entries.append((a, b, m, s))
    return StructureTensor(ext.dim_module, sig.dim, entries)


def _agrees_with_operator_construction(parent, step):
    """extend's entries equal the operator route's, its J table, made from
    the parent's and factor's rows before any entry is read, equals the
    per-entry table, and its J operators equal those of the same algebra
    built on the checking constructor, and the checking op constructor's."""
    ext = extend(parent, step)
    table = algebra._j_table(ext)
    ops = j_operators(ext)
    assert "entries" not in vars(ext.tensor)  # no entry read yet
    assert _operator_route_tensor(parent, step) == ext.tensor
    assert table_values(table) == per_entry_j_table(ext)
    checked = ext._replace(tensor=StructureTensor(
        ext.dim_module, ext.dim_center, ext.tensor.entries))
    assert checked.tensor.entries == ext.tensor.entries
    assert j_operators(checked) == ops
    assert [SignedPermutationOp(op.image, op.sign) for op in ops] == list(ops)


# the first six are the ids this test has always had; private parents, so
# that each extension is fresh
ORACLE_BASES = [(1, 0), (0, 1), (1, 1), (3, 2), (2, 3), (4, 4)] + [
    rs for rs in BASE_IDS
    if rs not in ((1, 0), (0, 1), (1, 1), (3, 2), (2, 3), (4, 4))]


@pytest.mark.parametrize("rs", ORACLE_BASES)
@pytest.mark.parametrize("step", list(ExtensionStep))
def test_case_tables_agree_with_operator_construction(rs, step):
    _agrees_with_operator_construction(_build_base(*rs), step)


def _two_step_chains(max_dim):
    for rs in BASE_IDS:
        if base_algebra(*rs).dim_module * 256 <= max_dim:
            for first, second in itertools.product(ExtensionStep, repeat=2):
                yield rs, first, second


@pytest.mark.parametrize(
    "rs, first, step",
    [*_two_step_chains(1024),
     ((8, 0), ExtensionStep.BY_8_0, ExtensionStep.BY_8_0)],  # n_(24,0), 4096
    ids=lambda x: x.value if isinstance(x, ExtensionStep) else str(x))
def test_chain_tables_agree_with_operator_construction(rs, first, step):
    _agrees_with_operator_construction(extend(_build_base(*rs), first), step)


@pytest.mark.parametrize("step", list(ExtensionStep))
def test_sum_extension_agrees_with_operator_construction(step):
    _agrees_with_operator_construction(build_sum(base_algebra(2, 3), 1, 1),
                                       step)


# n_(3,2) without its entry (3, 7, 5, 1): empty slots; with (1, 8, 5, -1)
# added as well: a conflict at the full entry count
FAULTY_PARENT_WITNESSES = {
    ("empty", ExtensionStep.BY_8_0): (13, 33),
    ("empty", ExtensionStep.BY_0_8): (5, 17),
    ("empty", ExtensionStep.BY_4_4): (13, 17),
    ("doubled", ExtensionStep.BY_8_0): (13, 1),
    ("doubled", ExtensionStep.BY_0_8): (5, 1),
    ("doubled", ExtensionStep.BY_4_4): (13, 1),
}


@pytest.mark.parametrize("fault, step", list(FAULTY_PARENT_WITNESSES),
                         ids=lambda x: getattr(x, "value", x))
def test_a_faulty_parent_table_gives_the_entries_witness(fault, step):
    # the extension's table falls back to the one-pass build from entries,
    # so verify_integral_basis names the slot it always named
    a = _build_base(3, 2)
    e = a.tensor.entries
    assert e[10] == (3, 7, 5, 1)
    entries = e[:10] + e[11:] + (((1, 8, 5, -1),) if fault == "doubled" else ())
    parent = a._replace(tensor=StructureTensor(
        a.dim_module, a.dim_center, entries))
    ext = extend(parent, step)
    got = verify_integral_basis(ext)
    assert table_values(algebra._j_table(ext)) == per_entry_j_table(ext)
    checked = ext._replace(tensor=StructureTensor(
        ext.dim_module, ext.dim_center, ext.tensor.entries))
    assert got == verify_integral_basis(checked)
    assert not got.ok and got.witness == FAULTY_PARENT_WITNESSES[fault, step]
    assert got.detail == ("a (center, vector) pair has several partners"
                          if fault == "doubled" else
                          "no partner for this (center, vector) pair")


def test_a_rebuilt_algebra_takes_its_table_from_its_own_metric():
    # _replace() keeps the tensor and its recipe; with another metric the
    # rows of the parent and factor do not apply, and the entries decide
    ext = extend(_build_base(1, 1), ExtensionStep.BY_8_0)
    flipped = (-ext.module_signs[0],) + ext.module_signs[1:]
    other = ext._replace(module_signs=flipped)
    recipe = ext.tensor._recipe
    assert recipe is not None
    got = j_operators(other)
    assert "entries" in vars(ext.tensor)  # the entries were read
    assert ext.tensor._recipe is recipe  # and the recipe is kept
    checked = other._replace(tensor=StructureTensor(
        ext.dim_module, ext.dim_center, ext.tensor.entries))
    assert got == j_operators(checked) != j_operators(ext)


def test_an_extension_read_first_takes_its_table_from_the_rows(monkeypatch):
    # the recipe is kept, so reading the entries first changes nothing: the
    # J table still comes from the parent's and factor's rows
    made = []
    inner = algebra._product_j_table
    monkeypatch.setattr(algebra, "_product_j_table",
                        lambda a, recipe: made.append(inner(a, recipe))
                        or made[-1])
    ext = extend(_build_base(3, 2), ExtensionStep.BY_4_4)
    entries = ext.tensor.entries
    table = algebra._j_table(ext)
    assert ext.tensor._recipe is not None
    assert len(made) == 1 and made[0] is table
    checked = ext._replace(tensor=StructureTensor(
        ext.dim_module, ext.dim_center, entries))
    assert algebra._j_table(checked) == table


def test_extension_bracket_examples():
    n90 = extend(base_algebra(1, 0), ExtensionStep.BY_8_0)

    def bk(a, i, j):
        b = bracket(a, basis_vector(i, a.dim_module), basis_vector(j, a.dim_module))
        return [(k, int(v)) for k, v in enumerate(b, start=1) if v]

    assert bk(n90, pair_index(n90, 1, 1), pair_index(n90, 1, 9)) == [(2, 1)]
    assert bk(n90, pair_index(n90, 1, 1), pair_index(n90, 2, 1)) == [(1, -1)]
    n18 = extend(base_algebra(1, 0), ExtensionStep.BY_0_8)
    assert bk(n18, pair_index(n18, 1, 1), pair_index(n18, 2, 1)) == [(1, -1)]


def test_definite_by_8_0_extension_is_block_form():
    """Brackets with equal parent index and both factor indices in the same
    half of the rank-8 basis vanish."""
    ext = extend(base_algebra(2, 0), ExtensionStep.BY_8_0)
    for i in range(1, 5):
        for j in range(1, 17):
            for q in range(1, 17):
                if j == q:
                    continue
                same_half = (j <= 8) == (q <= 8)
                if same_half:
                    a = pair_index(ext, i, j)
                    b = pair_index(ext, i, q)
                    assert ext.tensor.bracket_pair(a, b) is None


def test_extended_block_sets_commute():
    for rs in ((1, 1), (2, 2), (8, 0), (0, 8)):
        parent = base_algebra(*rs)
        for step in ExtensionStep:
            ext = extend(parent, step)
            assert ext.blocks is not None
            half = ext.dim_module // 2
            assert len(ext.blocks.a_side) == half
            assert len(ext.blocks.b_side) == half
            for side in (ext.blocks.a_side, ext.blocks.b_side):
                for i in side:
                    for j in side:
                        assert ext.tensor.bracket_pair(i, j) is None
            for part, sign in ((ext.blocks.a_plus, 1), (ext.blocks.a_minus, -1),
                               (ext.blocks.b_plus, 1), (ext.blocks.b_minus, -1)):
                assert all(ext.module_sign(i) == sign for i in part)


def _one_step_blocks(parent: BlockSets, factor: BlockSets, ext) -> BlockSets:
    """The one-step rule: w_i (x) u_j is on the A side exactly when w_i and
    u_j are on like sides, found through pair_index, and the extension's
    metric sign splits each side."""
    parts: tuple[list[int], ...] = ([], [], [], [])  # A+, A-, B+, B-
    for i in range(1, ext.dim_module // 16 + 1):
        for j in range(1, 17):
            f = pair_index(ext, i, j)
            like = (i in parent.a_side) == (j in factor.a_side)
            parts[2 * (not like) + (ext.module_sign(f) < 0)].append(f)
    return BlockSets(*map(frozenset, parts))


def _chains_up_to(base, dim):
    steps = list(ExtensionStep)
    for n in (1, 2):
        for chain in itertools.product(steps, repeat=n):
            if base_algebra(*base).dim_module * 16 ** n <= dim:
                yield chain


def test_extended_blocks_follow_the_commutation_graph():
    # the sets read off each extension's J table are the published base
    # sets pushed through the chain by the one-step rule, oriented alike;
    # the factor of the (0,8) step is aligned, with the published A side
    checked = 0
    for rs, published in PUBLISHED_BLOCKS.items():
        for chain in _chains_up_to(rs, 512):
            ext, want = base_algebra(*rs), published
            for step in chain:
                ext = extend(ext, step)
                want = _one_step_blocks(want, PUBLISHED_BLOCKS[step.delta],
                                        ext)
            assert ext.blocks == want, (rs, chain)
            checked += 1
    assert checked == 51


def test_block_split_reads_no_tensor_entries(cache):
    # the split is read off the J table, which an extension makes from its
    # parent's and factor's rows: no entry list is materialized
    a = extend(base_algebra(4, 4), ExtensionStep.BY_8_0)
    assert "entries" not in vars(a.tensor)
    assert block_decomposition(a) is not None
    assert a.blocks is not None
    assert "entries" not in vars(a.tensor)


def test_extension_chain_examples():
    nine0 = extension_chain((1, 0), [ExtensionStep.BY_8_0])
    assert (nine0.r, nine0.s, nine0.dim_module) == (9, 0, 32)
    five5 = extension_chain((1, 1), [ExtensionStep.BY_4_4])
    assert (five5.r, five5.s, five5.dim_center) == (5, 5, 10)
    nine8 = extension_chain((1, 0), [ExtensionStep.BY_0_8, ExtensionStep.BY_8_0])
    assert (nine8.r, nine8.s, nine8.dim_module) == (9, 8, 512)


def test_standard_chain_policy():
    assert standard_chain(8, 0) == ((8, 0), [])
    base, steps = standard_chain(9, 8)
    assert base == (1, 0)
    assert [s.value for s in steps] == ["0,8", "8,0"]
    assert standard_chain(5, 1) is None
    assert standard_chain(3, 0) is None


def test_standard_chain_refuses_unreachable_signatures_at_once():
    # every dead end is explored once; the unmemoized search is exponential
    # in r + s here and did not finish (45, 46) in under a second
    start = time.perf_counter()
    assert standard_chain(45, 46) is None
    assert standard_chain(101, 103) is None
    assert time.perf_counter() - start < 1.0


def test_standard_algebra_provenance_serialization():
    from pseudoht.algebra import algebra_to_dict

    prov = algebra_to_dict(standard_algebra(9, 8))["provenance"]
    assert prov == {"kind": "extended", "base": [1, 0],
                    "steps": [[0, 8], [8, 0]]}


def test_pair_index_requires_extension():
    with pytest.raises(ValueError):
        pair_index(base_algebra(1, 0), 1, 1)
