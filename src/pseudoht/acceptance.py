"""The reproduction and property suite behind `pseudoht verify-paper`.

Each criterion function returns a CriterionReport; everything is exact
arithmetic, so "tolerance" always means equality.  The table expectations
are assembled from the stored transcriptions independently of the renderer,
which regenerates its cells from the structure tensor.

The first run in a process does every check.  Criteria 1-3 and 5-8 keep
each outcome on the shared algebra or canonical map it checks
(algebra.derived_value), so a later run in the same process looks those
objects up and reports from their kept outcomes; a new or replaced object
is checked afresh.  Criterion 4 asks about pairs of signatures, which no
one kept object owns, so it re-derives and rechecks its five certificates
on every run.  A one-shot CLI run is a first run and proves everything.
"""

from __future__ import annotations

import functools
import time
from dataclasses import dataclass, field

from .algebra import (
    Verdict,
    derived_value,
    j_operators,
    verify_axioms,
    verify_general_htype,
)
from .catalog import (
    BASE_IDS,
    base_algebra,
    render_table,
    table_layout,
    table_text,
)
from .core import MapClass
from .extension import ExtensionStep, extend, pair_index, standard_algebra
from .morphism import (
    CanonicalMap,
    canonical_map,
    classify_morphism,
    normalize_isomorphism,
    remark_isom_class_check,
    verify_conjugation,
    verify_homomorphism,
)
from .obstruction import (
    adjoint_rank,
    check_pair,
    gram_det,
    sbg_decision,
    witt_bound,
)
from .recheck import recheck_certificate
from .sums import block_volume_element, build_sum, sum_sbg, swap_isomorphism


@dataclass
class CriterionReport:
    number: int
    name: str
    passed: bool
    failures: list[str] = field(default_factory=list)
    elapsed: float = 0.0
    checks: int = 0

    def json_dict(self) -> dict:
        return {"number": self.number, "name": self.name,
                "passed": self.passed, "checks": self.checks,
                "elapsed_s": round(self.elapsed, 3),
                "failures": self.failures}


def _report(number: int, name: str):
    rep = CriterionReport(number=number, name=name, passed=True)
    start = time.perf_counter()

    def fail(msg: str) -> None:
        rep.passed = False
        rep.failures.append(msg)

    def done() -> CriterionReport:
        rep.elapsed = time.perf_counter() - start
        return rep

    return rep, fail, done


# The sixteen-by-eight permutation table of the rank-8 definite algebra:
# row u_j, column J_k, entries +-u_i.
PERMUTATION_TABLE_8_0 = """
u9   u10  u11  u12  u13  u14  u15  u16
-u10 u9   u12  -u11 u14  -u13 u16  -u15
-u11 -u12 u9   u10  -u16 -u15 u14  u13
-u12 u11  -u10 u9   -u15 u16  u13  -u14
-u13 -u14 u16  u15  u9   u10  -u12 -u11
-u14 u13  u15  -u16 -u10 u9   -u11 u12
-u15 -u16 -u14 -u13 u12  u11  u9   u10
-u16 u15  -u13 u14  u11  -u12 -u10 u9
-u1  -u2  -u3  -u4  -u5  -u6  -u7  -u8
u2   -u1  u4   -u3  u6   -u5  u8   -u7
u3   -u4  -u1  u2   -u8  -u7  u6   u5
u4   u3   -u2  -u1  -u7  u8   u5   -u6
u5   -u6  u8   u7   -u1  u2   -u4  -u3
u6   u5   u7   -u8  -u2  -u1  -u3  u4
u7   -u8  -u6  -u5  u4   u3   -u1  u2
u8   u7   -u5  u6   u3   -u4  -u2  -u1
"""


@functools.cache
def _expected_table_md(table_id) -> str:
    """Markdown assembled straight from the stored transcription text, once
    per process: the text and the labels are constant catalog data."""
    lay = table_layout(table_id)
    a = base_algebra(*table_id)
    order = lay.display_order
    deco = "~" if lay.center_tilde else ""
    rows_text = [line.split()
                 for line in table_text(table_id).strip().splitlines()]
    header = ["[r,c]"] + [a.module_labels[i - 1] for i in order]
    lines = ["| " + " | ".join(header) + " |",
             "|" + "|".join([" --- "] * len(header)) + "|"]
    for rpos, row in enumerate(rows_text):
        cells = []
        for cell in row:
            if cell == ".":
                cells.append("0")
            else:
                sign = "-" if cell.startswith("-") else ""
                idx = cell.lstrip("-")[1:]
                cells.append(f"{sign}Z{idx}{deco}")
        lines.append("| " + " | ".join([a.module_labels[order[rpos] - 1]] + cells) + " |")
    return "\n".join(lines) + "\n"


def _table_matches(a) -> bool:
    """Whether a's rendered commutator table is its stored transcription.
    Kept on the algebra (criterion_1_tables)."""
    return render_table(a) == _expected_table_md((a.r, a.s))


def _permutation_table_failures(eight) -> tuple[str, ...]:
    """Criterion 1's failure messages for the 128 cells of the permutation
    table of n_(8,0), from its J operators.  Kept on the algebra."""
    ops = j_operators(eight)
    rows = [line.split() for line in PERMUTATION_TABLE_8_0.strip().splitlines()]
    out = []
    for j in range(1, 17):
        for k in range(1, 9):
            cell = rows[j - 1][k - 1]
            want_sign = -1 if cell.startswith("-") else 1
            want_img = int(cell.lstrip("-")[1:])
            img, sign = ops[k - 1].apply_basis(j)
            if (img, sign) != (want_img, want_sign):
                out.append(f"J_{k} u_{j} is {sign}*u_{img}, "
                           f"table says {want_sign}*u_{want_img}")
    return tuple(out)


def criterion_1_tables() -> CriterionReport:
    """Commutator tables cell-for-cell plus the derived permutation table.
    Each outcome is kept on the shared algebra it checks, so a later run
    only looks the algebras up."""
    rep, fail, done = _report(1, "table-reproduction")
    shown = [(1, 0), (2, 0), (4, 0), (0, 4), (1, 1), (2, 2), (3, 2), (2, 3),
             (3, 3), (8, 0), (0, 8), (4, 4)]
    for tid in shown:
        rep.checks += 1
        if not derived_value(standard_algebra(*tid), "_table_matches",
                             _table_matches):
            fail(f"table {tid} deviates from the transcription")
    rep.checks += 16 * 8   # one check per cell of the permutation table
    for msg in derived_value(base_algebra(8, 0), "_permutation_table_failures",
                             _permutation_table_failures):
        fail(msg)
    return done()


def _axiom_suite(a) -> list[str]:
    v = verify_axioms(a)
    return [] if v.ok else [f"{a.name()} fails {v.detail} at {v.witness}"]


def criterion_2_axioms() -> CriterionReport:
    """Axioms on every catalog algebra, every single-step extension, and one
    double extension."""
    rep, fail, done = _report(2, "axiom-suite")
    for rs in BASE_IDS:
        rep.checks += 1
        for msg in _axiom_suite(base_algebra(*rs)):
            fail(msg)
        for step in ExtensionStep:
            rep.checks += 1
            for msg in _axiom_suite(extend(base_algebra(*rs), step)):
                fail(f"extension by {step.value}: {msg}")
    rep.checks += 1
    nine_eight = extend(extend(base_algebra(1, 0), ExtensionStep.BY_0_8),
                        ExtensionStep.BY_8_0)
    if (nine_eight.r, nine_eight.s, nine_eight.dim_module) != (9, 8, 512):
        fail("double extension has wrong dimensions")
    for msg in _axiom_suite(nine_eight):
        fail(f"double extension: {msg}")
    return done()


def _canonical_failures(cmap: CanonicalMap) -> tuple[str, ...]:
    """Criterion 3's failure messages for one canonical map, with (r, s)
    read from its source: the conjugation relation, then the integral
    anti-isometric class, the block-class constraints off the definite
    line, and C C^tau = -Id.  Kept on the map (_check_canonical)."""
    r, s = cmap.src.r, cmap.src.s
    f = cmap.to_morphism()
    if not verify_conjugation(f).ok:
        return (f"phi_({r},{s}) fails the conjugation relation",)
    out = []
    cls = classify_morphism(f)
    if not cls.integral or cls.center_action is not MapClass.ANTI_ISOMETRY:
        out.append(f"phi_({r},{s}) has class {cls}")
    if r != 0 and s != 0:
        ric = remark_isom_class_check(cmap)
        if not ric.ok:
            out.append(f"phi_({r},{s}) violates the block-class constraints: "
                       f"{ric.detail}")
    _g, ccsign = normalize_isomorphism(f)
    if ccsign != -1:
        out.append(f"phi_({r},{s}): C C^tau = {ccsign} Id, expected -1 Id")
    return tuple(out)


def _check_canonical(r: int, s: int, fail) -> None:
    """Criterion 3 on phi_(r,s).  canonical_map returns one kept object per
    shared source, and its outcome is kept on it, so a later run only looks
    the map up; a new or replaced map is checked afresh."""
    cmap = canonical_map(r, s)
    if cmap is None:
        fail(f"no canonical isomorphism for ({r},{s})")
        return
    for msg in derived_value(cmap, "_canonical_failures", _canonical_failures):
        fail(msg)


def criterion_3_isomorphisms() -> CriterionReport:
    rep, fail, done = _report(3, "canonical-isomorphisms")
    definite = (1, 2, 4, 8, 9, 10, 12, 16)
    for r in definite:
        rep.checks += 1
        _check_canonical(r, 0, fail)
    for r in (1, 2, 4, 8):
        rep.checks += 2
        _check_canonical(r, 8, fail)
        _check_canonical(8, r, fail)
    for r in (1, 2, 4, 8):
        rep.checks += 1
        _check_canonical(r + 4, 4, fail)
    for r in (1, 2, 4):
        rep.checks += 1
        _check_canonical(r, r, fail)
    rep.checks += 2
    _check_canonical(5, 4, fail)   # one instance beyond the base families
    _check_canonical(5, 5, fail)   # (1,1) extended by (4,4): automorphism
    return done()


def _certified(cert) -> tuple[str, Verdict]:
    """cert's kind and its recheck_certificate verdict from its JSON alone,
    the check a user runs."""
    return cert.kind, recheck_certificate(cert.json_dict())


def _expect(outcome: tuple[str, Verdict], kind: str, what: str,
            fail) -> bool:
    """Whether a certificate's outcome (_certified) has the expected kind
    and rechecks; fail names the first of the two that does not hold."""
    got, verdict = outcome
    if got != kind:
        fail(f"{what}: expected {kind}, got {got}")
        return False
    if not verdict.ok:
        fail(f"{what}: {kind} certificate does not recheck: {verdict.detail}")
    return verdict.ok


def criterion_4_nonisomorphism() -> CriterionReport:
    """Five questions on pairs of signatures; each certificate is derived
    and rechecked on every run."""
    rep, fail, done = _report(4, "non-isomorphism")
    rep.checks += 1
    _expect(_certified(check_pair(3, 2, 2, 3)), "NOT_ISO_PARITY",
            "(3,2) vs (2,3)", fail)
    rep.checks += 1
    _expect(_certified(check_pair(3, 3, 3, 3, anti_only=True)),
            "NOT_ISO_PARITY", "(3,3) anti-isometric automorphism", fail)
    # the other side of the Witt-index bound: dim z = 13 does not exceed the
    # Witt index 64 of n_(2,11), the scan's first point, the null
    # v_1 + v_65, has a surjective adjoint, and the pair stays open
    rep.checks += 1
    _expect(_certified(check_pair(11, 2, 2, 11)), "INCONCLUSIVE",
            "(11,2) vs (2,11)", fail)
    rep.checks += 1
    cert = check_pair(3, 0, 0, 3)
    if (_expect(_certified(cert), "NOT_ISO_DIM", "(3,0) vs (0,3)", fail)
            and "4 vs 8" not in cert.payload["reason"]):
        fail(f"(3,0) vs (0,3): reason {cert.payload['reason']!r}")
    rep.checks += 1
    _expect(_certified(check_pair(2, 0, 1, 1)), "NOT_ISO_SIGNATURE",
            "(2,0) vs (1,1)", fail)
    return done()


def _null_witness_failures(big) -> tuple[str, ...]:
    """Criterion 5's failure messages for its witness in n_(11,2), the null
    X = w_1 (x) alpha_1 + w_7 (x) alpha_2: gram_det != 0 and rank ad_X =
    dim z.  Kept on the algebra."""
    x = [0] * big.dim_module
    x[pair_index(big, 1, 1) - 1] = 1
    x[pair_index(big, 7, 2) - 1] = 1
    out = []
    if sum(s * e * e for s, e in zip(big.module_signs, x)) != 0:
        out.append("witness in n_(11,2) is not null")
    if gram_det(big, x) == 0 or adjoint_rank(big, x) != big.dim_center:
        out.append("null witness in n_(11,2) is not surjective")
    return tuple(out)


def criterion_5_surjectivity() -> CriterionReport:
    """ad_X is onto exactly off the null cone of n_(3,2), n_(2,3), n_(3,3),
    and not of n_(11,2).

    On the first three the axioms hold and dim z exceeds the module Witt
    index, which proves the equivalence for every X (WittBound).  In the
    (8,0)-extension of (3,2) a null X still has gram_det != 0 and
    rank ad_X = dim z; that outcome is kept on the shared extension.
    """
    rep, fail, done = _report(5, "surjectivity")
    for rs in ((3, 2), (2, 3), (3, 3)):
        rep.checks += 1
        a = base_algebra(*rs)
        axioms = _axiom_suite(a)
        for msg in axioms:
            fail(msg)
        if not axioms and not witt_bound(a).equivalence_holds:
            fail(f"{a.name()}: dim z does not exceed the module Witt index")
    rep.checks += 1
    big = extend(base_algebra(3, 2), ExtensionStep.BY_8_0)
    for msg in derived_value(big, "_null_witness_failures",
                             _null_witness_failures):
        fail(msg)
    return done()


def _check_sbg(a, decide, kind: str, what: str, fail) -> None:
    """Criterion 6 on a: the kind and recheck verdict of decide(a) are kept
    on a, and the expected kind is compared on every run."""
    outcome = derived_value(a, "_sbg_outcome",
                            lambda a: _certified(decide(a)))
    _expect(outcome, kind, what, fail)


def criterion_6_sbg() -> CriterionReport:
    rep, fail, done = _report(6, "strongly-bracket-generating")
    for rs in ((1, 0), (2, 0), (4, 0), (8, 0), (0, 1), (0, 2), (0, 4), (0, 8)):
        rep.checks += 1
        _check_sbg(base_algebra(*rs), sbg_decision, "SBG_YES", f"n_{rs}", fail)
    for rs in ((1, 1), (2, 2), (3, 2), (2, 3), (3, 3), (4, 4)):
        rep.checks += 1
        _check_sbg(base_algebra(*rs), sbg_decision, "SBG_NO", f"n_{rs}", fail)
    rep.checks += 1
    _check_sbg(build_sum(base_algebra(2, 3), 2, 1), sum_sbg, "SBG_NO",
               "n_(2,3)(2,1)", fail)
    return done()


def _volume_elements(s) -> tuple[int, int, bool]:
    """The scalars of the two block volume elements of the sum s (0 for one
    that is not a scalar) and whether the two differ by a global sign.
    Kept on the sum (criterion_7_sums)."""
    scalar1, op1 = block_volume_element(s, 0)
    scalar2, op2 = block_volume_element(s, 1)
    return scalar1, scalar2, op2 == op1.negate()


def _swap_verdict(s) -> Verdict:
    """Whether the block swap of the sum s is a homomorphism.  Kept on the
    sum (criterion_7_sums)."""
    return verify_homomorphism(swap_isomorphism(s))


def criterion_7_sums() -> CriterionReport:
    """Axioms, block volume elements and block swaps of direct sums; each
    outcome is kept on the shared sum it checks, and the failures are
    reported from it on every run."""
    rep, fail, done = _report(7, "direct-sums")
    s23 = build_sum(base_algebra(2, 3), 1, 1)
    rep.checks += 1
    for msg in _axiom_suite(s23):
        fail(msg)
    # stated expectation: the two block volume elements are exactly +-Id.
    # On any admissible module with r+s = 1 mod 4 the volume element is an
    # anti-isometry, so a scalar action would force a degenerate metric;
    # this check is therefore expected to fail (see the package README).
    rep.checks += 2
    scalar1, scalar2, global_sign = derived_value(s23, "_volume_elements",
                                                  _volume_elements)
    if scalar1 != 1:
        fail(f"n_(2,3)(1,1) type-1 volume element is "
             f"{'%+d Id' % scalar1 if scalar1 else 'not a scalar'}, stated +Id "
             f"(unattainable for r+s = 1 mod 4; ledger entry)")
    if scalar2 != -1:
        fail(f"n_(2,3)(1,1) type-2 volume element is "
             f"{'%+d Id' % scalar2 if scalar2 else 'not a scalar'}, stated -Id "
             f"(unattainable for r+s = 1 mod 4; ledger entry)")
    rep.checks += 1
    if not global_sign:
        fail("the two block volume elements do not differ by a global sign")
    for base in ((0, 1), (2, 3)):
        for mu, nu in ((1, 0), (1, 1), (2, 1)):
            rep.checks += 1
            summed = build_sum(base_algebra(*base), mu, nu)
            if not derived_value(summed, "_swap_verdict", _swap_verdict).ok:
                fail(f"block swap on n_{base}({mu},{nu}) is not a homomorphism")
    return done()


def criterion_8_general_htype() -> CriterionReport:
    """The surjective-(anti-)isometry characterization on n_(1,0), n_(1,1),
    n_(3,2) and n_(4,4), proved from the axioms by verify_general_htype."""
    rep, fail, done = _report(8, "general-h-type")
    for rs in ((1, 0), (1, 1), (3, 2), (4, 4)):
        rep.checks += 1
        v = verify_general_htype(base_algebra(*rs))
        if not v.ok:
            fail(f"n_{rs}: {v.detail} at {v.witness}")
    return done()


CRITERIA = (
    criterion_1_tables,
    criterion_2_axioms,
    criterion_3_isomorphisms,
    criterion_4_nonisomorphism,
    criterion_5_surjectivity,
    criterion_6_sbg,
    criterion_7_sums,
    criterion_8_general_htype,
)


def run_all() -> list[CriterionReport]:
    return [crit() for crit in CRITERIA]
