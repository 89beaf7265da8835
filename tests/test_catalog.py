import functools
import hashlib
import itertools
import json
from pathlib import Path

import pytest

import pseudoht.catalog as catalog
from pseudoht.algebra import (
    PseudoHTypeAlgebra,
    algebra_from_json,
    algebra_json,
    bracket,
    verify_admissible,
    verify_clifford,
    verify_htype,
    verify_integral_basis,
)
from pseudoht.catalog import (
    BASE_IDS,
    TableLayout,
    UnsupportedSignatureError,
    aligned_factor_0_8,
    base_algebra,
    base_table_entries,
    basis_labels,
    min_module_dim,
    render_table,
    standard_chain,
    table_layout,
    table_text,
)
from pseudoht.core import basis_vector
from pseudoht.extension import ExtensionStep, extension_chain
from pseudoht.sums import build_sum


def coords(a, x, y):
    """Nonzero center coordinates of [v_x, v_y] as (k, sign) pairs."""
    b = bracket(a, basis_vector(x, a.dim_module), basis_vector(y, a.dim_module))
    return [(k, int(v)) for k, v in enumerate(b, start=1) if v]


@pytest.mark.parametrize("rs", BASE_IDS)
def test_catalog_algebra_passes_all_axioms(rs):
    a = base_algebra(*rs)
    assert verify_integral_basis(a).ok
    assert verify_clifford(a).ok
    assert verify_admissible(a).ok
    assert verify_htype(a).ok


def test_published_bracket_cells():
    assert coords(base_algebra(1, 0), 1, 2) == [(1, 1)]
    assert coords(base_algebra(4, 0), 2, 7) == [(4, -1)]
    # the (3,2) center is labelled Z0..Z4; internal index 1 is Z0
    assert coords(base_algebra(3, 2), 1, 4) == [(1, -1)]
    assert coords(base_algebra(2, 3), 1, 8) == [(5, 1)]
    assert coords(base_algebra(3, 3), 5, 3) == [(5, 1)]
    assert coords(base_algebra(4, 4), 13, 3) == [(6, -1)]
    assert coords(base_algebra(0, 8), 5, 11) == [(8, 1)]


def test_bracket_of_vector_with_itself_vanishes():
    a = base_algebra(2, 2)
    x = [1, -2, 3, 0, 5, 1, 0, -1]
    assert not any(bracket(a, x, x))


def test_transport_equates_the_two_rank8_tables():
    """The definite and anti-definite rank-8 tensors agree after the signed
    relabeling u_i -> sigma_i v_i with sigma = -1 exactly on i = 2..8."""
    t80 = {(i, j): (k, s) for (i, j, k, s) in base_table_entries((8, 0))}
    t08 = base_table_entries((0, 8))
    sigma = [1] + [-1] * 7 + [1] * 8
    transported = {}
    for (i, j, k, s) in t08:
        transported[(i, j)] = (k, s * sigma[i - 1] * sigma[j - 1])
    assert transported == t80


def test_aligned_factor_equals_definite_tensor():
    assert aligned_factor_0_8().tensor == base_algebra(8, 0).tensor


def test_min_module_dims_match_catalog():
    for r, s in BASE_IDS:
        assert min_module_dim(r, s) == base_algebra(r, s).dim_module


def test_min_module_dim_values():
    assert min_module_dim(3, 0) == 4
    assert min_module_dim(0, 3) == 8
    assert min_module_dim(8, 0) == 16
    assert min_module_dim(9, 8) == 512
    assert min_module_dim(11, 2) == 128
    assert min_module_dim(16, 0) == 256
    assert min_module_dim(5, 5) == 64


def test_min_module_dim_periodicity_law():
    for r, s in ((1, 0), (3, 2), (4, 4), (0, 3)):
        d = min_module_dim(r, s)
        assert min_module_dim(r + 8, s) == 16 * d
        assert min_module_dim(r, s + 8) == 16 * d
        assert min_module_dim(r + 4, s + 4) == 16 * d


def test_unknown_dimension_reported():
    with pytest.raises(UnsupportedSignatureError):
        min_module_dim(5, 1)


# sha256 of json.dumps of [r, s, min_module_dim or None, standard_chain as
# [base, step values] or None] for 0 <= r, s <= 64, made by the two
# separate searches the one reduction replaced
REDUCTION_TABLE_SHA256 = \
    "5a55f75e35e17d8cccac4e6319323754437471b55e26d78fd842837860759092"


def test_reduction_table_is_pinned():
    rows = []
    for r, s in itertools.product(range(65), repeat=2):
        try:
            d = min_module_dim(r, s)
        except UnsupportedSignatureError:
            d = None
        c = standard_chain(r, s)
        if c is not None:
            c = [list(c[0]), [st.value for st in c[1]]]
        rows.append([r, s, d, c])
    assert sum(row[2] is not None for row in rows) == 2513
    assert sum(row[3] is not None for row in rows) == 1472
    digest = hashlib.sha256(json.dumps(rows).encode()).hexdigest()
    assert digest == REDUCTION_TABLE_SHA256


def test_every_route_to_a_seed_gives_one_dimension():
    # min_module_dim follows one route; the seeds are constant data, so that
    # every route agrees is checked here, on all of them, past seeds too
    @functools.cache
    def dims(r, s):
        """16**k times the seed's dimension, for every k-step route."""
        if r < 0 or s < 0:
            return frozenset()
        found = {16 * d for step in ExtensionStep
                 for d in dims(r - step.delta[0], s - step.delta[1])}
        if (r, s) in catalog._BASE_DIMS:
            found.add(catalog._BASE_DIMS[(r, s)])
        return frozenset(found)

    for r, s in itertools.product(range(41), repeat=2):
        if r + s > 40:
            continue
        if dims(r, s):
            assert dims(r, s) == {min_module_dim(r, s)}, (r, s)
        else:
            with pytest.raises(UnsupportedSignatureError):
                min_module_dim(r, s)


# name: (lookup of a catalog id or signature, its result at (1, 0), the
# error for a non-int one); a reduction refuses the signature with a plain
# ValueError rather than report an unknown dimension or chain
INT_ONLY = {
    "table_layout": (table_layout, TableLayout((1, 2), "w", False, False, 1),
                     UnsupportedSignatureError),
    "table_text": (table_text, "\n.    Z1\n-Z1  .\n",
                   UnsupportedSignatureError),
    "base_table_entries": (base_table_entries, [(1, 2, 1, 1)],
                           UnsupportedSignatureError),
    "base_algebra": (lambda rs: base_algebra(*rs).dim_module, 2,
                     UnsupportedSignatureError),
    "min_module_dim": (lambda rs: min_module_dim(*rs), 2, ValueError),
    "standard_chain": (lambda rs: standard_chain(*rs), ((1, 0), []),
                       ValueError),
}


@pytest.mark.parametrize("bad", [(1.0, 0), (True, 0)], ids=["float", "bool"])
@pytest.mark.parametrize("name", INT_ONLY)
def test_catalog_ids_and_signature_counts_are_ints_only(name, bad):
    lookup, want, error = INT_ONLY[name]
    assert lookup((1, 0)) == want  # read first, so a cached (1, 0) is there
    with pytest.raises(error) as exc:
        lookup(bad)
    assert (type(exc.value) is ValueError) == (error is ValueError)


@pytest.mark.parametrize("bad", [(1, 2, 3), (1,), [1, 0], "10"])
def test_a_catalog_id_that_is_no_pair_is_a_plain_value_error(bad):
    with pytest.raises(ValueError) as exc:
        table_layout(bad)
    assert type(exc.value) is ValueError and repr(bad) in str(exc.value)


def test_a_pair_outside_the_catalog_is_unsupported():
    with pytest.raises(UnsupportedSignatureError, match=r"\(5,5\)"):
        table_layout((5, 5))


def test_unsupported_signature_names_the_catalog():
    with pytest.raises(UnsupportedSignatureError) as exc:
        base_algebra(3, 0)
    assert "(3,2)" in str(exc.value) and "(8,0)" in str(exc.value)


def test_checksum_guards_transcriptions(monkeypatch):
    import pseudoht.catalog as cat

    monkeypatch.setitem(cat._CHECKSUMS, (1, 0), "0" * 64)
    with pytest.raises(RuntimeError, match="checksum"):
        base_table_entries((1, 0))


def test_module_metric_follows_signature_convention():
    # definite signatures get an all-positive metric, the rest are neutral
    for r, s in BASE_IDS:
        a = base_algebra(r, s)
        if s == 0:
            assert all(e == 1 for e in a.module_signs)
        else:
            half = a.dim_module // 2
            assert a.module_signs == (1,) * half + (-1,) * half


def test_catalog_blocks_commute_where_present():
    for r, s in BASE_IDS:
        a = base_algebra(r, s)
        if a.blocks is None:
            continue
        for side in (a.blocks.a_side, a.blocks.b_side):
            for i in side:
                for j in side:
                    assert a.tensor.bracket_pair(i, j) is None


def _cell_by_cell(a, order):
    """render_table's rows, one bracket_pair lookup per cell."""
    module, center = basis_labels(a)

    def cell(i, j):
        hit = a.tensor.bracket_pair(i, j)
        if hit is None:
            return "0"
        k, s = hit
        return ("-" if s < 0 else "") + center[k - 1]
    return [[module[i - 1]] + [cell(i, j) for j in order] for i in order]


def test_render_table_matches_a_lookup_per_cell():
    for r, s in BASE_IDS:
        a = base_algebra(r, s)
        for order in (table_layout((r, s)).display_order,
                      (a.dim_module, 1, a.dim_module, 2), (2,)):
            body = render_table(a, "csv", order).splitlines()[1:]
            assert body == [",".join(row) for row in _cell_by_cell(a, order)]


# sha256 of json.dumps([module labels, center labels]) for each algebra
# below, taken while every algebra still stored its labels as two fields
STORED_LABELS = json.loads(
    (Path(__file__).resolve().parent / "golden_labels.json").read_text())


def _labelled_algebras():
    """(name, algebra) for each catalog base, the aligned (0,8) factor,
    every chain of one or two steps, every direct sum of up to three copies
    of each type, and one parsed algebra."""
    for r, s in BASE_IDS:
        yield f"base {r} {s}", base_algebra(r, s)
    yield "aligned 0,8", aligned_factor_0_8()
    for n in (1, 2):
        for r, s in BASE_IDS:
            for chain in itertools.product(ExtensionStep, repeat=n):
                yield (" ".join(["extend", str(r), str(s),
                                 *(st.value for st in chain)]),
                       extension_chain((r, s), list(chain)))
    for r, s in BASE_IDS:
        types = 4 if (r - s) % 4 == 3 else 1
        for mu, nu in itertools.product(range(4), range(types)):
            if mu + nu:
                yield f"sum {r} {s} {mu} {nu}", build_sum(base_algebra(r, s),
                                                          mu, nu)
    yield "parsed base 3 2", algebra_from_json(algebra_json(base_algebra(3, 2)))


def test_basis_labels_are_the_labels_algebras_stored():
    seen = {}
    for name, a in _labelled_algebras():
        module, center = basis_labels(a)
        assert (len(module), len(center)) == (a.dim_module, a.dim_center)
        seen[name] = hashlib.sha256(
            json.dumps([module, center]).encode()).hexdigest()
    assert seen == STORED_LABELS


def test_basis_labels_follow_the_provenance():
    assert basis_labels(base_algebra(1, 1)) == (("w1", "w2", "w3", "w4"),
                                                ("Z1", "Z2"))
    assert basis_labels(base_algebra(3, 2))[1] == ("Z0", "Z1", "Z2", "Z3", "Z4")
    assert basis_labels(aligned_factor_0_8()) == \
        basis_labels(base_algebra(0, 8))
    module, center = basis_labels(build_sum(base_algebra(0, 1), 1, 1))
    assert module == ("w1~.1", "w2~.1", "w1~.2", "w2~.2")
    assert center == ("Z1~",)
    module, center = basis_labels(
        extension_chain((1, 0), [ExtensionStep.BY_4_4]))
    # the positive pairs first: y1..y8 are the factor's positive vectors
    assert module[7:9] == ("w1*y8", "w2*y1") and module[16] == "w1*y9"
    assert center == tuple(f"Z{k}" for k in range(1, 10))
    parsed = algebra_from_json(algebra_json(base_algebra(1, 0)))
    assert basis_labels(parsed) == (("v1", "v2"), ("Z1",))


def test_an_algebra_holds_only_its_mathematics():
    assert list(PseudoHTypeAlgebra._fields) == [
        "center_sig", "module_signs", "tensor", "provenance"]
