import itertools
import math
import random
import sys
import tracemalloc
from collections import Counter
from fractions import Fraction

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

import pseudoht.algebra as algebra
import pseudoht.obstruction as obstruction
from pseudoht.algebra import (
    IntegralBasisError,
    OpaqueProvenance,
    PseudoHTypeAlgebra,
    StructureTensor,
    adjoint_rows,
    bracket,
    two_point_rank,
    verify_axioms,
)
from pseudoht.catalog import BASE_IDS, _build_base, base_algebra
from pseudoht.core import (
    Signature,
    SparseVector,
    basis_vector,
    clear_denominators,
    exact_rank,
    scalar_product,
)
from pseudoht.extension import (
    ExtensionStep,
    extend,
    pair_index,
    standard_algebra,
)
from pseudoht.obstruction import (
    ParityConstraint,
    WittBound,
    adjoint_rank,
    gram_det,
    null_direction_witness,
    parity_certificate,
    parity_system,
    sbg_decision,
    solve_parity,
    surjectivity_scan,
    verify_parity_cycle,
    verify_sbg_no_witness,
    witt_bound,
)
from pseudoht.sums import build_sum, sum_sbg

from dense_certificates import dense_vector

# ---------------------------------------------------------------------------
# the printed adjoint matrices, used as independent oracles.  Columns follow
# the table display order; rows follow the center order of each algebra.
# ---------------------------------------------------------------------------

DISPLAY_32 = (1, 4, 7, 8, 2, 3, 5, 6)
DISPLAY_33 = (1, 2, 5, 6, 3, 4, 7, 8)


def printed_m32(l):
    _, l1, l2, l3, l4, l5, l6, l7, l8 = [0] + list(l)
    return [
        [l4, -l1, l8, -l7, l3, -l2, -l6, l5],
        [-l2, l3, -l5, -l6, l1, -l4, l7, l8],
        [-l3, -l2, l6, -l5, l4, l1, l8, -l7],
        [-l5, l6, -l2, -l3, l7, l8, l1, -l4],
        [-l6, -l5, l3, -l2, l8, -l7, l4, l1],
    ]


def printed_m23(l):
    _, l1, l2, l3, l4, l5, l6, l7, l8 = [0] + list(l)
    return [
        [-l2, l3, -l5, -l6, l1, -l4, l7, l8],
        [-l3, -l2, l6, -l5, l4, l1, l8, -l7],
        [-l5, l6, -l2, -l3, l7, l8, l1, -l4],
        [-l6, -l5, l3, -l2, l8, -l7, l4, l1],
        [-l8, l7, -l4, l1, -l6, -l5, l3, l2],
    ]


def printed_m33(l):
    _, l1, l2, l3, l4, l5, l6, l7, l8 = [0] + list(l)
    return [
        [-l2, l1, -l6, l5, l4, -l3, -l8, l7],
        [-l3, -l4, -l8, -l7, l1, l2, l6, l5],
        [-l4, l3, -l7, l8, -l2, l1, l5, -l6],
        [-l7, -l8, -l4, -l3, l6, l5, l1, l2],
        [-l8, l7, -l3, l4, l5, -l6, -l2, l1],
        [-l6, l5, -l2, l1, -l7, l8, l3, -l4],
    ]


def poly32(l):
    _, l1, l2, l3, l4, l5, l6, l7, l8 = [0] + list(l)
    n = l1 * l1 + l2 * l2 + l3 * l3 + l4 * l4 - l5 * l5 - l6 * l6 - l7 * l7 - l8 * l8
    s = l1 * l1 + l4 * l4 + l7 * l7 + l8 * l8 + l2 * l2 + l3 * l3 + l5 * l5 + l6 * l6
    q = (l1 ** 4 + l4 ** 4 + l7 ** 4 + 2 * l7 * l7 * l8 * l8 + l8 ** 4
         + 2 * l7 * l7 * l2 * l2 + 2 * l8 * l8 * l2 * l2 + l2 ** 4
         + 2 * l7 * l7 * l3 * l3 + 2 * l8 * l8 * l3 * l3
         + 2 * l2 * l2 * l3 * l3 + l3 ** 4
         + 2 * l7 * l7 * l5 * l5 + 2 * l8 * l8 * l5 * l5
         - 2 * l2 * l2 * l5 * l5 - 2 * l3 * l3 * l5 * l5 + l5 ** 4
         + 2 * (l7 * l7 + l8 * l8 - l2 * l2 - l3 * l3 + l5 * l5) * l6 * l6
         + l6 ** 4
         - 8 * l1 * (l7 * l2 * l5 + l8 * l3 * l5 + l8 * l2 * l6 - l7 * l3 * l6)
         + 8 * l4 * (-l8 * l2 * l5 + l7 * l3 * l5 + l7 * l2 * l6 + l8 * l3 * l6)
         + 2 * l4 * l4 * (-l7 * l7 - l8 * l8 + l2 * l2 + l3 * l3 + l5 * l5 + l6 * l6)
         + 2 * l1 * l1 * (l4 * l4 - l7 * l7 - l8 * l8 + l2 * l2 + l3 * l3
                          + l5 * l5 + l6 * l6))
    return n * n * s * q


def poly33(l):
    _, l1, l2, l3, l4, l5, l6, l7, l8 = [0] + list(l)
    n = l1 * l1 + l2 * l2 + l3 * l3 + l4 * l4 - l5 * l5 - l6 * l6 - l7 * l7 - l8 * l8
    f1 = (l1 - l5) ** 2 + (l2 - l6) ** 2 + (l4 - l7) ** 2 + (l3 - l8) ** 2
    f2 = (l1 + l5) ** 2 + (l2 + l6) ** 2 + (l4 + l7) ** 2 + (l3 + l8) ** 2
    return n ** 4 * f1 * f2


@pytest.mark.parametrize("rs,display,printed", [
    ((3, 2), DISPLAY_32, printed_m32),
    ((2, 3), DISPLAY_32, printed_m23),
    ((3, 3), DISPLAY_33, printed_m33),
])
def test_adjoint_matrix_matches_printed_matrix(rs, display, printed):
    a = base_algebra(*rs)
    rng = random.Random(17)
    for _ in range(25):
        lam = [rng.randint(-5, 5) for _ in range(8)]
        ours = adjoint_rows(a, lam)
        want = printed(lam)
        got = [[row[c - 1] for c in display] for row in ours]
        assert got == [[Fraction(e) for e in row] for row in want]


def test_adjoint_matrix_column_example():
    rows = adjoint_rows(base_algebra(3, 2), basis_vector(1, 8))
    assert [row[1] for row in rows] == [0, 1, 0, 0, 0]


def test_adjoint_of_zero_vector():
    assert adjoint_rows(base_algebra(3, 2), [0] * 8) == [[0] * 8] * 5


def test_gram_det_examples():
    n32 = base_algebra(3, 2)
    assert gram_det(n32, [1, 0, 0, 0, 0, 0, 0, 0]) == 1
    assert gram_det(n32, [1, 0, 0, 0, 1, 0, 0, 0]) == 0
    n33 = base_algebra(3, 3)
    assert gram_det(n33, [1, 0, 0, 0, 1, 0, 0, 0]) == 0


@pytest.mark.parametrize("rs,poly", [((3, 2), poly32), ((3, 3), poly33)])
def test_gram_det_matches_printed_polynomial(rs, poly):
    a = base_algebra(*rs)
    rng = random.Random(4)
    for _ in range(60):
        lam = [Fraction(rng.randint(-8, 8), rng.randint(1, 3))
               for _ in range(8)]
        assert gram_det(a, lam) == poly(lam)


@pytest.mark.parametrize("rs", [(3, 2), (2, 3), (3, 3)])
def test_gram_rank_norm_equivalence_on_samples(rs):
    # 500 rational samples per algebra: gram_det = 0 iff null iff rank
    # deficient, the sampled half of what the Witt-index bound proves
    a = base_algebra(*rs)
    rng = random.Random(0)
    for _ in range(500):
        x = [Fraction(rng.randint(-6, 6), rng.randint(1, 3))
             for _ in range(a.dim_module)]
        if not any(x):
            x[0] = Fraction(1)
        norm = scalar_product(x, x, a.module_signs)
        g = gram_det(a, x)
        full = adjoint_rank(a, x) == a.dim_center
        assert (g == 0) == (norm == 0), x
        assert full == (g != 0), x


def _grid_disagreements(a):
    """Every point of the {-1,0,1}^8 grid where gram_det = 0 and the null
    test disagree."""
    return [x for x in itertools.product((-1, 0, 1), repeat=8)
            if (gram_det(a, x) == 0)
            != (scalar_product(x, x, a.module_signs) == 0)]


def test_exhaustive_grid_equivalence_on_3_2():
    a = base_algebra(3, 2)
    rep = surjectivity_scan(a)
    assert rep == obstruction.ScanReport(a.name(), 4 * 4)
    assert witt_bound(a).equivalence_holds   # 5 > 4
    # the 3^8 grid through the Gram determinant
    assert _grid_disagreements(a) == []


@pytest.mark.parametrize("rs", [(2, 3), (3, 3)])
def test_witt_bound_proves_what_the_exhaustive_scan_sees(rs):
    a = base_algebra(*rs)
    bound = witt_bound(a)
    assert bound == WittBound(a.name(), a.dim_center, (4, 4))
    assert bound.equivalence_holds            # dim z = 5, 6 > 4
    assert bound.json_dict() == {
        "algebra": a.name(), "proof": "witt-index",
        "dim_center": a.dim_center, "module_signature": [4, 4],
        "equivalence_holds": True}
    assert surjectivity_scan(a) == obstruction.ScanReport(a.name(), 4 * 4)
    # the 3^8 grid through the Gram determinant
    assert _grid_disagreements(a) == []


@pytest.mark.parametrize("rs", [(11, 2), (7, 6), (7, 7), (11, 3),
                                (2, 11), (6, 7), (3, 11)])
def test_witt_bound_does_not_reach_the_open_pairs(rs):
    a = standard_algebra(*rs)
    bound = witt_bound(a)
    assert bound.module_signature == (64, 64)
    assert bound.dim_center in (13, 14)
    assert not bound.equivalence_holds


@pytest.mark.parametrize("rs", [(2, 11), (6, 7), (7, 7), (3, 11)])
def test_scan_stops_at_the_first_null_pair_on_the_open_destinations(rs):
    a = standard_algebra(*rs)
    x = SparseVector(a.dim_module, (1, 65), (1, 1))     # v_1 + v_65
    assert (a.module_signs[0], a.module_signs[64]) == (1, -1)
    rep = surjectivity_scan(a)
    assert rep == obstruction.ScanReport(a.name(), 1, x)
    # JSON writes the violation by its support
    assert rep.json_dict() == {
        "algebra": a.name(), "points": 1, "equivalence_holds": False,
        "violation": {"dim": a.dim_module, "index": [1, 65],
                      "value": [1, 1]}}


def _two_point_oracle(a, i, j):
    """exact_rank of ad_x for x = v_i + v_j, on the transpose without its
    zero rows (they leave the rank alone and slow the elimination)."""
    x = [0] * a.dim_module
    x[i - 1] = x[j - 1] = 1
    return exact_rank([c for c in zip(*adjoint_rows(a, x)) if any(c)])


@pytest.mark.parametrize("rs", [(2, 11), (6, 7), (7, 7), (3, 11)])
def test_two_point_rank_agrees_on_every_null_pair_of_the_open_destinations(rs):
    # every point the scan would visit past its first, 64 x 64 per algebra
    a = standard_algebra(*rs)
    signs = a.module_signs
    ranks = Counter()
    for i in range(1, a.dim_module + 1):
        for j in range(1, a.dim_module + 1):
            if signs[i - 1] > 0 > signs[j - 1]:
                rank = two_point_rank(a, i, j)
                assert rank == _two_point_oracle(a, i, j), (i, j)
                ranks[rank] += 1
    assert sum(ranks.values()) == 64 * 64
    # onto and rank-deficient null points both occur
    assert ranks[a.dim_center] and len(ranks) >= 3


def _free_two_step(n_pos: int, n_neg: int) -> PseudoHTypeAlgebra:
    """The free 2-step nilpotent algebra on n_pos + n_neg generators: each
    pair brackets to its own center direction.  Not of H-type; ad_x of a
    two-point x has rank dim v - 1, far below dim z."""
    n = n_pos + n_neg
    pairs = [(a, b) for a in range(1, n + 1) for b in range(a + 1, n + 1)]
    sig = Signature(len(pairs) - n, n)
    return PseudoHTypeAlgebra(
        center_sig=sig, module_signs=(1,) * n_pos + (-1,) * n_neg,
        tensor=StructureTensor(n, sig.dim, [
            (a, b, k, (-1) ** k) for k, (a, b) in enumerate(pairs, start=1)]),
        provenance=OpaqueProvenance({}))


@pytest.mark.parametrize("alpha, beta", [(0, 3), (9, 3), (1, 16), (1, 17)])
def test_two_point_rank_refuses_an_index_outside_the_module(alpha, beta):
    # the J table's rows also hold the mirror half, t[-b] = -t[b], so an
    # index past dim v would read it as a basis vector
    with pytest.raises(IndexError, match="module index out of range"):
        two_point_rank(base_algebra(3, 2), alpha, beta)


def test_two_point_rank_and_scan_off_the_catalog():
    free = _free_two_step(5, 5)
    summed = build_sum(base_algebra(2, 3), 2, 1)
    for a in (free, summed):
        n = a.dim_module
        for i in range(1, n + 1):
            for j in range(i + 1, n + 1):
                assert two_point_rank(a, i, j) == _two_point_oracle(a, i, j)
    # 45 center directions, so nine per point leave 36 isolated indices
    assert {two_point_rank(free, i, j)
            for i in range(1, 11) for j in range(i + 1, 11)} == {9}
    assert surjectivity_scan(free) == obstruction.ScanReport(free.name(), 25)
    assert surjectivity_scan(summed).points == 5


# --- the J-table readers against the entries ---------------------------------

def _entry_adjoint_rows(a, x):
    """ad_x from the entries alone: the entry (p, q, k, s) puts s x_p in
    row k, column q, and -s x_q in row k, column p."""
    rows = [[0] * a.dim_module for _ in range(a.dim_center)]
    for (p, q, k, s) in a.tensor.entries:
        rows[k - 1][q - 1] += s * x[p - 1]
        rows[k - 1][p - 1] -= s * x[q - 1]
    return rows


def _entry_bracket(a, x, y):
    return tuple(sum(e * yb for e, yb in zip(row, y))
                 for row in _entry_adjoint_rows(a, x))


def _flipped_metric_copy():
    """An extension rebuilt around its tensor with one metric sign
    flipped: its J table comes from the entries, with other signs."""
    ext = extend(base_algebra(1, 1), ExtensionStep.BY_8_0)
    return ext._replace(
        module_signs=(-ext.module_signs[0],) + ext.module_signs[1:])


READER_ALGEBRAS = {
    **{f"{rs}": lambda rs=rs: base_algebra(*rs) for rs in BASE_IDS},
    **{f"{rs}+{step.value}": lambda rs=rs, step=step: extend(
        base_algebra(*rs), step) for rs in BASE_IDS for step in ExtensionStep},
    "sum": lambda: build_sum(base_algebra(2, 3), 2, 1),
    "free": lambda: _free_two_step(5, 5),  # empty J-table slots
    "flipped-metric": _flipped_metric_copy,
}


@pytest.mark.parametrize("name", READER_ALGEBRAS)
def test_j_table_readers_agree_with_the_entries(name):
    a = READER_ALGEBRAS[name]()
    n = a.dim_module
    pairs = {}
    for (p, q, k, s) in a.tensor.entries:
        pairs[p, q], pairs[q, p] = (k, s), (k, -s)
    sample = sorted({1, 2, n // 2, n - 1, n})
    x = [i % 5 - 2 for i in range(n)]
    y = [i % 3 - 1 for i in range(n)]
    assert adjoint_rows(a, x) == _entry_adjoint_rows(a, x)
    assert bracket(a, x, y) == _entry_bracket(a, x, y)
    for alpha in sample:
        assert adjoint_rows(a, basis_vector(alpha, n)) == \
            _entry_adjoint_rows(a, basis_vector(alpha, n))
        for beta in range(1, n + 1):
            assert a.tensor.bracket_pair(alpha, beta) == pairs.get((alpha, beta))
        for beta in sample:
            if beta != alpha:
                assert two_point_rank(a, alpha, beta) == \
                    _two_point_oracle(a, alpha, beta)


def _doubled_3_2():
    """n_(3,2) without its entry (3, 7, 5, 1) and with (1, 8, 5, -1): as
    many entries as an integral basis has, but Z_5 gives v_1 two
    partners, so its J table keeps one of them."""
    a = _build_base(3, 2)
    e = a.tensor.entries
    assert e[10] == (3, 7, 5, 1)
    return a._replace(tensor=StructureTensor(
        a.dim_module, a.dim_center, e[:10] + e[11:] + ((1, 8, 5, -1),)))


def test_a_j_table_with_a_conflict_is_refused_by_the_adjoint_routines():
    a = _doubled_3_2()
    n = a.dim_module
    x = [1] + [0] * (n - 2) + [1]
    for call in (lambda: adjoint_rows(a, x), lambda: two_point_rank(a, 1, 8),
                 lambda: gram_det(a, x), lambda: adjoint_rank(a, x),
                 lambda: surjectivity_scan(a)):
        with pytest.raises(IntegralBasisError, match="multiple partners"):
            call()
    # bracket reads the entries, so it still answers
    for alpha in range(1, n + 1):
        for beta in range(1, n + 1):
            u, v = basis_vector(alpha, n), basis_vector(beta, n)
            assert bracket(a, u, v) == _entry_bracket(a, u, v)
    y = [i % 3 - 1 for i in range(n)]
    assert bracket(a, x, y) == _entry_bracket(a, x, y)


def _brute_force_scan(a):
    """The scan's null pairs in its order, each ranked by exact_rank."""
    signs = a.module_signs
    pairs = [(i, j) for i in range(a.dim_module) if signs[i] > 0
             for j in range(a.dim_module) if signs[j] < 0]
    for points, (i, j) in enumerate(pairs, start=1):
        x = [0] * a.dim_module
        x[i] = x[j] = 1
        assert scalar_product(x, x, signs) == 0
        if exact_rank(adjoint_rows(a, x)) == a.dim_center:
            return points, SparseVector.of(x)
    return len(pairs), None


@pytest.mark.parametrize("build", [
    *(lambda rs=rs: base_algebra(*rs) for rs in BASE_IDS),
    lambda: _free_two_step(5, 5),
    lambda: build_sum(base_algebra(2, 3), 2, 1),
], ids=[*(f"n_{rs}" for rs in BASE_IDS), "free_5_5", "sum_2_3_x2_1"])
def test_scan_matches_a_brute_force_over_its_null_pairs(build):
    a = build()
    rep = surjectivity_scan(a)
    assert (rep.points, rep.violation) == _brute_force_scan(a)
    if verify_axioms(a).ok:
        assert rep.equivalence_holds == witt_bound(a).equivalence_holds


def test_check_pair_draws_no_random_numbers(monkeypatch):
    monkeypatch.setattr(random, "Random", lambda *a: pytest.fail(
        "check_pair drew random numbers"))
    for args in ((11, 2, 2, 11), (7, 6, 6, 7), (11, 3, 3, 11), (3, 2, 2, 3),
                 (2, 3, 3, 2)):
        obstruction.check_pair(*args)
    obstruction.check_pair(7, 7, 7, 7, anti_only=True)
    obstruction.check_pair(3, 3, 3, 3, anti_only=True)


def test_parity_refutations_run_no_scan(monkeypatch):
    scans = []
    real = obstruction.surjectivity_scan
    monkeypatch.setattr(obstruction, "surjectivity_scan",
                        lambda a: scans.append(a.name()) or real(a))
    assert obstruction.check_pair(3, 2, 2, 3).kind == "NOT_ISO_PARITY"
    assert obstruction.check_pair(3, 3, 3, 3, anti_only=True).kind \
        == "NOT_ISO_PARITY"
    assert scans == []
    # where the bound fails the scan still runs, and finds the violation
    cert = obstruction.check_pair(11, 2, 2, 11)
    assert scans == ["n_(2,11)"]
    assert cert.kind == "INCONCLUSIVE"
    assert cert.payload["precondition"]["violation"]


def test_a_scan_without_violation_is_inconclusive(monkeypatch):
    # no constructible pair reaches this branch: fake a bound that fails on
    # n_(2,3), whose scan then finds nothing
    monkeypatch.setattr(obstruction, "witt_bound", lambda a: WittBound(
        a.name(), a.dim_center, (a.dim_center, a.dim_center)))
    monkeypatch.setattr(obstruction, "surjectivity_scan",
                        lambda a: obstruction.ScanReport(a.name(), 7))
    cert = obstruction.check_pair(3, 2, 2, 3)
    assert cert.kind == "INCONCLUSIVE"
    assert cert.payload["reason"].startswith("parity precondition unproved")
    assert cert.payload["precondition"]["equivalence_holds"] is True


def test_null_vectors_in_1_1():
    a = base_algebra(1, 1)
    # w_1 + w_4 is null (metric +,+,-,-) and its adjoint misses a direction
    assert scalar_product([1, 0, 0, 1], [1, 0, 0, 1], a.module_signs) == 0
    assert adjoint_rank(a, [1, 0, 0, 1]) < 2
    # w_1 + w_3 is null too but surjective: the block-type phenomenon
    assert scalar_product([1, 0, 1, 0], [1, 0, 1, 0], a.module_signs) == 0
    assert adjoint_rank(a, [1, 0, 1, 0]) == 2


def test_extended_algebra_has_null_surjective_vector():
    big = extend(base_algebra(3, 2), ExtensionStep.BY_8_0)
    x = [0] * big.dim_module
    x[pair_index(big, 1, 1) - 1] = 1
    x[pair_index(big, 7, 2) - 1] = 1
    assert scalar_product(x, x, big.module_signs) == 0
    assert adjoint_rank(big, x) == 13


DEFINITE = ((1, 0), (2, 0), (4, 0), (8, 0), (0, 1), (0, 2), (0, 4), (0, 8))


def sampled_full_rank(a, samples):
    """The former SBG_YES sampler, kept as the oracle of the theorem: True
    when ad_x is onto for `samples` random nonzero integer vectors x."""
    rng = random.Random(0)
    checked = 0
    while checked < samples:
        x = tuple(rng.randint(-5, 5) for _ in range(a.dim_module))
        if any(x):
            if adjoint_rank(a, x) != a.dim_center:
                return False
            checked += 1
    return True


def test_sbg_yes_cases():
    for rs in DEFINITE:
        a = base_algebra(*rs)
        assert sbg_decision(a).json_dict() == {"kind": "SBG_YES",
                                               "signature": list(rs)}
        assert sampled_full_rank(a, 100)
    big = standard_algebra(16, 0)
    assert sbg_decision(big).kind == "SBG_YES"
    assert sampled_full_rank(big, 5)
    summed = build_sum(base_algebra(0, 1), 3, 2)
    assert sum_sbg(summed).json_dict() == {"kind": "SBG_YES",
                                           "signature": [0, 1], "sum": [3, 2]}
    assert sampled_full_rank(summed, 20)


def test_definite_sbg_samples_nothing(monkeypatch):
    def refuse(*_args, **_kwargs):
        raise AssertionError("the definite SBG path sampled or ranked")

    monkeypatch.setattr(random, "Random", refuse)
    monkeypatch.setattr(obstruction, "adjoint_rows", refuse)
    monkeypatch.setattr(algebra, "adjoint_rows", refuse)
    assert sbg_decision(base_algebra(8, 0)).kind == "SBG_YES"
    assert sbg_decision(standard_algebra(0, 9)).kind == "SBG_YES"


@pytest.mark.parametrize("rs", [rs for rs in DEFINITE if sum(rs) > 1])
def test_sbg_yes_refused_after_one_flipped_sign(rs):
    # with dim z >= 2 each entry's (a, b) pair is swapped by one J_k only,
    # so flipping its sign breaks the anticommutation with every other J_m
    a = base_algebra(*rs)
    entries = a.tensor.entries
    for n, (i, j, k, s) in enumerate(entries):
        flipped = entries[:n] + ((i, j, k, -s),) + entries[n + 1:]
        bad = a._replace(tensor=StructureTensor(
            a.dim_module, a.dim_center, flipped))
        with pytest.raises(ValueError, match="verify_clifford"):
            sbg_decision(bad)


def test_definite_sbg_reads_the_kept_axiom_verdict(monkeypatch):
    # the first call proves the axioms and keeps the verdict on the
    # algebra; the second reads it and runs verify_clifford no more
    calls = []
    real = algebra.verify_clifford

    def counting(a):
        calls.append(a)
        return real(a)

    monkeypatch.setattr(algebra, "verify_clifford", counting)
    monkeypatch.setattr(obstruction, "verify_clifford", counting,
                        raising=False)
    a = _build_base(8, 0)
    assert [sbg_decision(a).kind for _ in range(2)] == ["SBG_YES"] * 2
    assert calls == [a]


def test_null_vectors_stay_surjective_in_anti_definite_algebras():
    # the substance of the r = 0 bracket-generating claim: even null module
    # vectors have adjoint maps onto the whole center
    for rs in ((0, 2), (0, 4), (0, 8)):
        a = base_algebra(*rs)
        half = a.dim_module // 2
        v = [0] * a.dim_module
        v[0] = 1
        v[half] = 1
        assert scalar_product(v, v, a.module_signs) == 0
        assert adjoint_rank(a, v) == a.dim_center


def _support(vector: dict) -> SparseVector:
    """A certificate's {"dim", "index", "value"} vector as a SparseVector."""
    return SparseVector(vector["dim"], tuple(vector["index"]),
                        tuple(vector["value"]))


def test_sbg_no_with_witness_on_1_1():
    a = base_algebra(1, 1)
    cert = sbg_decision(a)
    assert cert.kind == "SBG_NO"
    z0, v = cert.payload["z0"], cert.payload["witness_v"]
    assert z0 == {"dim": 2, "index": [1, 2], "value": [1, 1]}
    # J_{Z_1+Z_2} w_1 = w_2 + w_3
    assert v == {"dim": 4, "index": [2, 3], "value": [1, 1]}
    assert verify_sbg_no_witness(a, _support(z0), _support(v)).ok
    # the same vectors, dense, are reduced to that support
    assert verify_sbg_no_witness(a, [1, 1], [0, 1, 1, 0]).ok


@pytest.mark.parametrize("rs", [(2, 2), (3, 2), (2, 3), (3, 3), (4, 4)])
def test_sbg_no_witnesses_reverify(rs):
    a = base_algebra(*rs)
    cert = sbg_decision(a)
    assert cert.kind == "SBG_NO"
    z0, v = (_support(cert.payload[key]) for key in ("z0", "witness_v"))
    # the engine's witnesses are two-point: a lookup per pair of entries
    assert len(z0.index) == len(v.index) == 2
    assert verify_sbg_no_witness(a, z0, v).ok


def _sbg_witness_by_adjoint_rows(a, z0, v):
    """The first column of the dense ad_v that pairs nonzero with Z_0, as
    verify_sbg_no_witness found it before it read only the entries Z_0
    touches; None when there is none."""
    z0i, _ = clear_denominators(z0)
    vi, _ = clear_denominators(v)
    for beta, img in enumerate(zip(*adjoint_rows(a, vi)), start=1):
        if scalar_product(z0i, img, a.center_sig) != 0:
            return (beta,)
    return None


@pytest.mark.parametrize("rs", [(1, 1), (3, 2), (2, 3), (11, 2), (9, 8)])
def test_sbg_witness_verdicts_match_the_dense_adjoint(rs):
    a = standard_algebra(*rs)
    z0, v = null_direction_witness(a)
    assert isinstance(z0, SparseVector) and isinstance(v, SparseVector)
    rng = random.Random(a.dim_module)
    dense = [Fraction(rng.randint(-5, 5), rng.randint(1, 4))
             for _ in range(a.dim_module)]
    z0_dense, v_dense = (dense_vector(x.json_dict()) for x in (z0, v))
    shifted = [e + (b == 0) for b, e in enumerate(v_dense)]
    candidates = [v, SparseVector(v.dim, v.index,
                                  tuple(Fraction(e, 3) for e in v.value)),
                  dense, shifted,
                  basis_vector(1, a.dim_module),
                  basis_vector(a.dim_module, a.dim_module)]
    verdicts = []
    for cand in candidates:
        got = verify_sbg_no_witness(a, z0, cand)
        if isinstance(cand, SparseVector):
            cand = dense_vector(cand.json_dict())
        want = _sbg_witness_by_adjoint_rows(a, z0_dense, cand)
        assert (got.ok, got.witness) == (want is None, want)
        verdicts.append(got.ok)
    assert verdicts == [True, True, False, False, False, False]


def test_the_witness_search_makes_nothing_of_module_size():
    # J_{Z_0} v_alpha is read off the J table, a lookup per alpha and
    # entry of Z_0: no dense vector, pairing or ad_v of dim v is made
    a = standard_algebra(9, 8)
    dense_size = sys.getsizeof([0] * a.dim_module)
    for call in (null_direction_witness, sbg_decision):
        call(a)                                 # the J table is kept
        tracemalloc.start()
        try:
            call(a)
            _, peak = tracemalloc.get_traced_memory()
        finally:
            tracemalloc.stop()
        assert peak < dense_size, (call.__name__, peak, dense_size)


def test_sbg_witness_verifier_rejects_bad_data():
    a = base_algebra(1, 1)
    assert not verify_sbg_no_witness(a, [1, 0], [0, 1, 1, 0]).ok  # not null
    assert not verify_sbg_no_witness(a, [1, 1], [1, 0, 0, 0]).ok  # wrong v
    assert not verify_sbg_no_witness(a, [0, 0], [0, 1, 1, 0]).ok  # zero Z_0


def _hand_made(module_signs, center_sig, entries) -> PseudoHTypeAlgebra:
    n = len(module_signs)
    return PseudoHTypeAlgebra(
        center_sig=center_sig, module_signs=module_signs,
        tensor=StructureTensor(n, center_sig.dim, entries),
        provenance=OpaqueProvenance({}))


def test_sbg_witness_verifier_tests_that_z0_is_null():
    # with no brackets every v is in the kernel of every J_Z, so only the
    # null test refuses a Z_0 off the null cone (on an H-type algebra J_Z
    # is invertible there, and the image test refuses it too)
    a = _hand_made((1, -1), Signature(1, 1), [])
    assert verify_sbg_no_witness(a, [1, 1], [1, 0]).ok
    verdict = verify_sbg_no_witness(a, [1, 0], [1, 0])
    assert not verdict.ok and verdict.detail == "Z_0 is not a null vector"


def test_sbg_witness_verifier_refuses_a_j_table_with_conflicts():
    # (k, a) = (1, 1) has the partners v_2 and v_3: J_{Z_1} is no signed
    # permutation, and the J table keeps only one of them
    a = _hand_made((1, 1, -1), Signature(1, 1), [(1, 2, 1, 1), (1, 3, 1, 1)])
    for v in ([0, 1, 0], [0, 0, 1]):
        verdict = verify_sbg_no_witness(a, [1, 1], v)
        assert not verdict.ok and "multiple partners" in verdict.detail


def test_sbg_witness_verifier_refuses_wrong_lengths():
    a = base_algebra(1, 1)
    assert verify_sbg_no_witness(a, [1, 1], [0, 1, 1, 0]).ok
    assert not verify_sbg_no_witness(a, [1, 1, 0], [0, 1, 1, 0]).ok
    assert not verify_sbg_no_witness(a, [1, 1], [0, 1, 1]).ok
    assert not verify_sbg_no_witness(a, [1, 1], [0, 1, 1, 0, 0]).ok


def test_sbg_witness_verifier_accepts_rational_multiples():
    a = base_algebra(1, 1)
    half, third = Fraction(1, 2), Fraction(-1, 3)
    assert verify_sbg_no_witness(a, [half, half], [0, third, third, 0]).ok
    assert not verify_sbg_no_witness(a, [half, half], [third, 0, 0, 0]).ok


rationals = st.builds(Fraction, st.integers(min_value=-9, max_value=9),
                      st.integers(min_value=1, max_value=6))


@settings(max_examples=60, deadline=None)
@given(st.sampled_from([(3, 2), (2, 3), (3, 3), (1, 1)]),
       st.lists(rationals, min_size=8, max_size=8))
def test_gram_det_and_rank_under_clearing_denominators(rs, x):
    a = base_algebra(*rs)
    x = x[:a.dim_module]
    lcm = math.lcm(*(e.denominator for e in x))
    lx = [int(lcm * e) for e in x]
    assert gram_det(a, x) * lcm ** (2 * a.dim_center) == gram_det(a, lx)
    assert adjoint_rank(a, x) == adjoint_rank(a, lx)


def test_parity_system_shape():
    sys32 = parity_system(base_algebra(3, 2))
    # 8 vertices of degree 5 -> 20 edges
    assert len(sys32) == 20
    assert all(c.rhs in (-1, 1) for c in sys32)


def test_parity_infeasible_between_3_2_and_2_3():
    src = base_algebra(3, 2)
    out = parity_certificate(src, base_algebra(2, 3))
    assert out.precondition.equivalence_holds
    assert not out.feasible
    assert verify_parity_cycle(src, out.cycle).ok
    # the witness cycle lives in the first commuting quadruple
    assert set().union(*[{c.a, c.b} for c in out.cycle]) <= {1, 2, 3, 4}


def test_parity_infeasible_for_3_3_automorphism():
    a = base_algebra(3, 3)
    out = parity_certificate(a, a)
    assert out.precondition.equivalence_holds
    assert not out.feasible
    assert verify_parity_cycle(a, out.cycle).ok


def test_parity_feasible_for_2_2_and_matches_published_automorphism():
    a = base_algebra(2, 2)
    out = solve_parity(parity_system(a), a.dim_module)
    assert out.feasible
    # the map of the published (2,2) automorphism induces the signs
    # s = <phi(w_i), phi(w_i)>; both assignments must satisfy the system
    phi_signs = {1: 1, 2: -1, 3: -1, 4: 1, 5: 1, 6: 1, 7: -1, 8: -1}
    for c in parity_system(a):
        assert out.assignment[c.a] * out.assignment[c.b] == c.rhs
        assert phi_signs[c.a] * phi_signs[c.b] == c.rhs


def test_parity_feasible_for_other_published_automorphism_sources():
    for rs in ((1, 1), (4, 4)):
        a = base_algebra(*rs)
        assert solve_parity(parity_system(a), a.dim_module).feasible


def test_parity_precondition_fails_on_block_type_destination():
    a = base_algebra(2, 2)
    out = parity_certificate(a, a)
    assert out.precondition == WittBound("n_(2,2)", 4, (4, 4))
    assert not out.precondition.equivalence_holds   # dim z = 4 = Witt index
    # and the precondition is false there, not only unproved
    assert surjectivity_scan(a).violation is not None


def test_cycle_verifier_rejects_fabrications():
    a = base_algebra(3, 2)
    assert not verify_parity_cycle(a, []).ok
    assert not verify_parity_cycle(
        a, [ParityConstraint(1, 5, -1)] * 2).ok          # not a graph edge
    assert not verify_parity_cycle(
        a, [ParityConstraint(1, 2, 1)] * 2).ok           # wrong sign
    good_edge = ParityConstraint(1, 2, -1)
    assert not verify_parity_cycle(a, [good_edge, good_edge]).ok  # even product


def test_solve_parity_tiny_cases():
    feasible = solve_parity([ParityConstraint(1, 2, -1),
                             ParityConstraint(2, 3, 1)], 3)
    assert feasible.feasible
    assert feasible.assignment[1] * feasible.assignment[2] == -1
    clash = solve_parity([ParityConstraint(1, 2, 1),
                          ParityConstraint(2, 3, 1),
                          ParityConstraint(1, 3, -1)], 3)
    assert not clash.feasible
    assert len(clash.cycle) == 3


def test_solve_parity_gives_plus_one_to_each_components_lowest_index():
    out = solve_parity([ParityConstraint(2, 3, -1), ParityConstraint(1, 2, -1),
                        ParityConstraint(5, 4, 1)], 5)
    assert out.assignment == {1: 1, 2: -1, 3: 1, 4: 1, 5: 1}


def test_solve_parity_cycle_is_the_clashing_constraints_in_cycle_order():
    system = [ParityConstraint(1, 2, -1), ParityConstraint(2, 3, -1),
              ParityConstraint(1, 3, -1)]
    out = solve_parity(system, 3)
    assert out.cycle == (system[0], system[2], system[1])
