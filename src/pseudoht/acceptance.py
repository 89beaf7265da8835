"""The reproduction and property suite behind `pseudoht verify-paper`.

Each criterion is a generator of claims, (weight, failure messages); one
driver, _criterion, times it and reports the weights' sum as its checks
and the messages, in claim order, as its failures.  Everything is exact
arithmetic, so "tolerance" always means equality.  The table expectations
are assembled from the stored transcriptions independently of the
renderer, which regenerates its cells from the structure tensor.

The first run in a process does every check.  Each outcome of criteria
1-3 and 5-8 is kept on the shared algebra, canonical map or direct sum it
checks (algebra.derived_value): the table failures, the failures of each
canonical map and of the null witness, the SBG certificate kinds and
recheck verdicts, the block volume scalars and block-swap verdicts, and
the axiom and general H-type verdicts.  A later run in the same process
reports from them; a new or replaced object is checked afresh.  Criterion
4 asks about pairs of signatures, which no one kept object owns, so it
re-derives and rechecks its five certificates on every run.  A one-shot
CLI run is a first run and proves everything.
"""

from __future__ import annotations

import functools
import time
from typing import NamedTuple

from .algebra import (Verdict, derived_value, j_operators, verify_axioms,
                      verify_general_htype)
from .catalog import (BASE_IDS, base_algebra, basis_labels, render_table,
                      table_layout, table_text)
from .core import MapClass
from .extension import ExtensionStep, extend, pair_index, standard_algebra
from .morphism import (CanonicalMap, canonical_map, classify_morphism,
                       normalize_isomorphism, remark_isom_class_check,
                       verify_conjugation, verify_homomorphism)
from .obstruction import (adjoint_rank, check_pair, gram_det, sbg_decision,
                          witt_bound)
from .recheck import recheck_certificate
from .sums import block_volume_element, build_sum, sum_sbg, swap_isomorphism


class CriterionReport(NamedTuple):
    number: int
    name: str
    passed: bool
    failures: list[str]
    elapsed: float
    checks: int

    def json_dict(self) -> dict:
        return {"number": self.number, "name": self.name,
                "passed": self.passed, "checks": self.checks,
                "elapsed_s": round(self.elapsed, 3),
                "failures": self.failures}


def _unless(holds: bool, message: str) -> tuple[str, ...]:
    """A claim's failure messages: none if it holds, else message."""
    return () if holds else (message,)


def _criterion(number: int, name: str):
    """The driver: the decorated generator's claims, timed and counted into
    one CriterionReport."""
    def driver(claims):
        @functools.wraps(claims)
        def criterion() -> CriterionReport:
            start = time.perf_counter()
            checks, failures = 0, []
            for weight, messages in claims():
                checks += weight
                failures += messages
            return CriterionReport(number, name, not failures, failures,
                                   time.perf_counter() - start, checks)
        return criterion
    return driver


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
    module, _ = basis_labels(base_algebra(*table_id))
    order = lay.display_order
    deco = "~" if lay.center_tilde else ""
    header = ["[r,c]"] + [module[i - 1] for i in order]
    lines = ["| " + " | ".join(header) + " |",
             "|" + "|".join([" --- "] * len(header)) + "|"]
    for pos, row in zip(order, table_text(table_id).strip().splitlines()):
        cells = ["0" if c == "." else
                 "-" * c.startswith("-") + "Z" + c.lstrip("-")[1:] + deco
                 for c in row.split()]
        lines.append("| " + " | ".join([module[pos - 1]] + cells) + " |")
    return "\n".join(lines) + "\n"


def _table_failures(a) -> tuple[str, ...]:
    """Criterion 1 on a's rendered commutator table: it is the stored
    transcription.  Kept on the algebra."""
    return _unless(render_table(a) == _expected_table_md((a.r, a.s)),
                   f"table {(a.r, a.s)} deviates from the transcription")


def _permutation_table_failures(eight) -> tuple[str, ...]:
    """Criterion 1's failure messages for the 128 cells of the permutation
    table of n_(8,0), from its J operators.  Kept on the algebra."""
    ops = j_operators(eight)
    out = []
    for pos, cell in enumerate(PERMUTATION_TABLE_8_0.split()):
        j, k = divmod(pos, 8)
        want_sign = -1 if cell.startswith("-") else 1
        want_img = int(cell.lstrip("-")[1:])
        img, sign = ops[k].apply_basis(j + 1)
        if (img, sign) != (want_img, want_sign):
            out.append(f"J_{k + 1} u_{j + 1} is {sign}*u_{img}, "
                       f"table says {want_sign}*u_{want_img}")
    return tuple(out)


@_criterion(1, "table-reproduction")
def criterion_1_tables():
    """Commutator tables cell-for-cell plus the derived permutation table,
    one check per cell."""
    shown = [(1, 0), (2, 0), (4, 0), (0, 4), (1, 1), (2, 2), (3, 2), (2, 3),
             (3, 3), (8, 0), (0, 8), (4, 4)]
    for tid in shown:
        yield 1, derived_value(standard_algebra(*tid), "_table_failures",
                               _table_failures)
    yield 16 * 8, derived_value(base_algebra(8, 0),
                                "_permutation_table_failures",
                                _permutation_table_failures)


def _axiom_suite(a, what: str = "") -> tuple[str, ...]:
    v = verify_axioms(a)
    return () if v.ok else (f"{what}{a.name()} fails {v.detail} at {v.witness}",)


@_criterion(2, "axiom-suite")
def criterion_2_axioms():
    """Axioms on every catalog algebra, every single-step extension, and one
    double extension."""
    for rs in BASE_IDS:
        yield 1, _axiom_suite(base_algebra(*rs))
        for step in ExtensionStep:
            yield 1, _axiom_suite(extend(base_algebra(*rs), step),
                                  f"extension by {step.value}: ")
    nine_eight = extend(extend(base_algebra(1, 0), ExtensionStep.BY_0_8),
                        ExtensionStep.BY_8_0)
    dims = (nine_eight.r, nine_eight.s, nine_eight.dim_module)
    yield 1, (_unless(dims == (9, 8, 512), "double extension has wrong dimensions")
              + _axiom_suite(nine_eight, "double extension: "))


def _canonical_failures(cmap: CanonicalMap) -> tuple[str, ...]:
    """Criterion 3's failure messages for one canonical map, with (r, s)
    read from its source: the conjugation relation, then the integral
    anti-isometric class, the block-class constraints off the definite
    line, and C C^tau = -Id.  Kept on the map."""
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


@_criterion(3, "canonical-isomorphisms")
def criterion_3_isomorphisms():
    """canonical_map returns one kept object per shared source, so a later
    run only looks each map up; a new or replaced map is checked afresh."""
    signatures = ([(r, 0) for r in (1, 2, 4, 8, 9, 10, 12, 16)]
                  + [rs for r in (1, 2, 4, 8) for rs in ((r, 8), (8, r))]
                  + [(r + 4, 4) for r in (1, 2, 4, 8)]
                  + [(r, r) for r in (1, 2, 4)]
                  + [(5, 4),    # one instance beyond the base families
                     (5, 5)])   # (1,1) extended by (4,4): automorphism
    for r, s in signatures:
        cmap = canonical_map(r, s)
        yield 1, ((f"no canonical isomorphism for ({r},{s})",) if cmap is None
                  else derived_value(cmap, "_canonical_failures",
                                     _canonical_failures))


def _certified(cert) -> tuple[str, Verdict]:
    """cert's kind and its recheck_certificate verdict from its JSON alone,
    the check a user runs."""
    return cert.kind, recheck_certificate(cert.json_dict())


def _expect(outcome: tuple[str, Verdict], kind: str,
            what: str) -> tuple[str, ...]:
    """The failure, if any, of a certificate's outcome (_certified): the
    first of "has the expected kind" and "rechecks" that does not hold."""
    got, verdict = outcome
    if got != kind:
        return (f"{what}: expected {kind}, got {got}",)
    if not verdict.ok:
        return (f"{what}: {kind} certificate does not recheck: "
                f"{verdict.detail}",)
    return ()


@_criterion(4, "non-isomorphism")
def criterion_4_nonisomorphism():
    """Five questions on pairs of signatures; each certificate is derived
    and rechecked on every run."""
    yield 1, _expect(_certified(check_pair(3, 2, 2, 3)), "NOT_ISO_PARITY",
                     "(3,2) vs (2,3)")
    yield 1, _expect(_certified(check_pair(3, 3, 3, 3, anti_only=True)),
                     "NOT_ISO_PARITY", "(3,3) anti-isometric automorphism")
    # the other side of the Witt-index bound: dim z = 13 does not exceed the
    # Witt index 64 of n_(2,11), the scan's first point, the null
    # v_1 + v_65, has a surjective adjoint, and the pair stays open
    yield 1, _expect(_certified(check_pair(11, 2, 2, 11)), "INCONCLUSIVE",
                     "(11,2) vs (2,11)")
    cert = check_pair(3, 0, 0, 3)
    yield 1, (_expect(_certified(cert), "NOT_ISO_DIM", "(3,0) vs (0,3)") or
              _unless("4 vs 8" in cert.payload["reason"],
                      f"(3,0) vs (0,3): reason {cert.payload['reason']!r}"))
    yield 1, _expect(_certified(check_pair(2, 0, 1, 1)), "NOT_ISO_SIGNATURE",
                     "(2,0) vs (1,1)")


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


@_criterion(5, "surjectivity")
def criterion_5_surjectivity():
    """ad_X is onto exactly off the null cone of n_(3,2), n_(2,3), n_(3,3),
    and not of n_(11,2).

    On the first three the axioms hold and dim z exceeds the module Witt
    index, which proves the equivalence for every X (WittBound).  In the
    (8,0)-extension of (3,2) a null X still has gram_det != 0 and
    rank ad_X = dim z.
    """
    for rs in ((3, 2), (2, 3), (3, 3)):
        a = base_algebra(*rs)
        yield 1, (_axiom_suite(a) or _unless(
            witt_bound(a).equivalence_holds,
            f"{a.name()}: dim z does not exceed the module Witt index"))
    yield 1, derived_value(extend(base_algebra(3, 2), ExtensionStep.BY_8_0),
                           "_null_witness_failures", _null_witness_failures)


def _sbg_outcome(a, decide) -> tuple[str, Verdict]:
    """The kind and recheck verdict of decide(a), kept on a (criterion 6)."""
    return derived_value(a, "_sbg_outcome", lambda a: _certified(decide(a)))


@_criterion(6, "strongly-bracket-generating")
def criterion_6_sbg():
    """SBG on the definite catalog algebras, not on the indefinite ones nor
    on a direct sum; the expected kind is compared on every run."""
    yes = ((1, 0), (2, 0), (4, 0), (8, 0), (0, 1), (0, 2), (0, 4), (0, 8))
    for rs in yes + ((1, 1), (2, 2), (3, 2), (2, 3), (3, 3), (4, 4)):
        yield 1, _expect(_sbg_outcome(base_algebra(*rs), sbg_decision),
                         "SBG_YES" if rs in yes else "SBG_NO", f"n_{rs}")
    summed = build_sum(base_algebra(2, 3), 2, 1)
    yield 1, _expect(_sbg_outcome(summed, sum_sbg), "SBG_NO", "n_(2,3)(2,1)")


def _volume_elements(s) -> tuple[int, int, bool]:
    """The scalars of the two block volume elements of the sum s (0 for one
    that is not a scalar) and whether the two differ by a global sign.
    Kept on the sum."""
    scalar1, op1 = block_volume_element(s, 0)
    scalar2, op2 = block_volume_element(s, 1)
    return scalar1, scalar2, op2 == op1.negate()


@_criterion(7, "direct-sums")
def criterion_7_sums():
    """Axioms, block volume elements and block swaps of direct sums; each
    outcome is kept on the shared sum it checks."""
    s23 = build_sum(base_algebra(2, 3), 1, 1)
    yield 1, _axiom_suite(s23)
    # stated expectation: the two block volume elements are exactly +-Id.
    # On any admissible module with r+s = 1 mod 4 the volume element is an
    # anti-isometry, so a scalar action would force a degenerate metric;
    # this check is therefore expected to fail (see the package README).
    scalar1, scalar2, global_sign = derived_value(s23, "_volume_elements",
                                                  _volume_elements)
    yield 2, tuple(
        f"n_(2,3)(1,1) type-{n} volume element is "
        f"{'%+d Id' % got if got else 'not a scalar'}, stated {stated} "
        f"(unattainable for r+s = 1 mod 4; ledger entry)"
        for n, got, want, stated in ((1, scalar1, 1, "+Id"),
                                     (2, scalar2, -1, "-Id"))
        if got != want)
    yield 1, _unless(global_sign, "the two block volume elements do not "
                     "differ by a global sign")
    for base in ((0, 1), (2, 3)):
        for mu, nu in ((1, 0), (1, 1), (2, 1)):
            swap = derived_value(
                build_sum(base_algebra(*base), mu, nu), "_swap_verdict",
                lambda s: verify_homomorphism(swap_isomorphism(s)))
            yield 1, _unless(swap.ok, f"block swap on n_{base}({mu},{nu}) "
                                      f"is not a homomorphism")


@_criterion(8, "general-h-type")
def criterion_8_general_htype():
    """The surjective-(anti-)isometry characterization on n_(1,0), n_(1,1),
    n_(3,2) and n_(4,4), proved from the axioms by verify_general_htype."""
    for rs in ((1, 0), (1, 1), (3, 2), (4, 4)):
        v = verify_general_htype(base_algebra(*rs))
        yield 1, _unless(v.ok, f"n_{rs}: {v.detail} at {v.witness}")


CRITERIA = (criterion_1_tables, criterion_2_axioms, criterion_3_isomorphisms,
            criterion_4_nonisomorphism, criterion_5_surjectivity,
            criterion_6_sbg, criterion_7_sums, criterion_8_general_htype)


def run_all() -> list[CriterionReport]:
    return [crit() for crit in CRITERIA]
