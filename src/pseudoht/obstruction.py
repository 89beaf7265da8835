"""ad_X analysis, bracket-generating decisions, and parity certificates.

check_pair combines them with the canonical isomorphisms into one
certificate per signature pair.  Everything returns re-checkable evidence:
SBG_NO carries explicit witness vectors, SBG_YES rests on the verified
Clifford relations of a definite center, parity infeasibility carries an
odd cycle whose constraint product can be multiplied out independently of
the solver, and the parity precondition is the Witt-index bound, whose
record recheck re-derives from the destination algebra.
"""

from __future__ import annotations

import itertools
from fractions import Fraction
from typing import NamedTuple, Optional, Sequence

from .algebra import (
    IntegralBasisError,
    PseudoHTypeAlgebra,
    Verdict,
    adjoint_rows,
    j_image,
    two_coloring,
    two_point_rank,
    verify_axioms,
)
from .core import (
    Rational,
    Signature,
    SparseVector,
    clear_denominators,
    exact_det,
    exact_rank,
    gram_matrix,
)
from .extension import (UnsupportedSignatureError, standard_algebra,
                         standard_chain)
from .morphism import (
    canonical_map,
    center_signature_obstruction,
    morphism_to_dict,
    verified_morphism,
)


def gram_det(a: PseudoHTypeAlgebra, x: Sequence[Rational]) -> Fraction:
    """Exact det(M_X M_X^T) for the adjoint matrix of X.

    Computed on the integer vector L*X, whose adjoint matrix is L*M_X, so
    the determinant of its Gram matrix carries a factor L^(2 dim z).
    """
    if len(x) != a.dim_module:
        raise ValueError("X must have module length")
    ints, lcm = clear_denominators(x)
    gram = gram_matrix(adjoint_rows(a, ints), (1,) * a.dim_module)
    return Fraction(exact_det(gram), lcm ** (2 * a.dim_center))


def adjoint_rank(a: PseudoHTypeAlgebra, x: Sequence[Rational]) -> int:
    """Rank of ad_X, computed on the integer vector L*X of equal rank."""
    if len(x) != a.dim_module:
        raise ValueError("X must have module length")
    ints, _ = clear_denominators(x)
    return exact_rank(adjoint_rows(a, ints))


class ScanReport(NamedTuple):
    """Outcome of a surjectivity scan: the points visited and the first
    counterexample, if any."""

    algebra: str
    points: int
    violation: Optional[SparseVector] = None

    @property
    def equivalence_holds(self) -> bool:
        """True when no point contradicts "ad_X is onto exactly off the
        null cone"."""
        return self.violation is None

    def json_dict(self) -> dict:
        return {
            "algebra": self.algebra,
            "points": self.points,
            "equivalence_holds": self.equivalence_holds,
            "violation": None if self.violation is None
            else self.violation.json_dict(),
        }


class WittBound(NamedTuple):
    """The parity precondition as a theorem about the module metric.

    The composition identity ad_X ad_X^tau = <X,X> Id_z makes ad_X onto for
    every non-null X.  For a null X, <J_Z X, J_W X> = <Z,W> <X,X> = 0, so
    the image of ad_X^tau is totally isotropic and rank ad_X is at most the
    Witt index w = min(p, q) of the module metric of signature (p, q).
    Hence ad_X is surjective exactly off the null cone whenever dim z > w.
    """

    algebra: str
    dim_center: int
    module_signature: tuple[int, int]

    @property
    def equivalence_holds(self) -> bool:
        return self.dim_center > min(self.module_signature)

    def json_dict(self) -> dict:
        return {
            "algebra": self.algebra,
            "proof": "witt-index",
            "dim_center": self.dim_center,
            "module_signature": list(self.module_signature),
            "equivalence_holds": self.equivalence_holds,
        }


def witt_bound(a: PseudoHTypeAlgebra) -> WittBound:
    """The Witt-index precondition record of a; a theorem only for an
    algebra that passes verify_clifford, verify_admissible and verify_htype."""
    p = a.module_signs.count(1)
    return WittBound(a.name(), a.dim_center, (p, a.dim_module - p))


def surjectivity_scan(a: PseudoHTypeAlgebra) -> ScanReport:
    """Test rank ad_X = dim z exactly off the null cone, up to the first
    counterexample, over every null v_i + v_j with eps_i = +1 and
    eps_j = -1, in index order, ranked by two_point_rank.  Every point is
    null, so a counterexample is one of full rank.  Finding nothing proves
    nothing.
    """
    signs = a.module_signs
    pos = [i for i, e in enumerate(signs, start=1) if e > 0]
    neg = [j for j, e in enumerate(signs, start=1) if e < 0]
    for points, (i, j) in enumerate(itertools.product(pos, neg), start=1):
        if two_point_rank(a, i, j) == a.dim_center:
            return ScanReport(a.name(), points,
                              SparseVector(a.dim_module, (i, j), (1, 1)))
    return ScanReport(a.name(), len(pos) * len(neg))


# ---------------------------------------------------------------------------
# certificates
# ---------------------------------------------------------------------------

class Certificate(NamedTuple):
    """Verifiable outcome of an isomorphism or bracket-generating question."""

    kind: str  # ISO | NOT_ISO_DIM | NOT_ISO_SIGNATURE | NOT_ISO_PARITY |
    #            SBG_YES | SBG_NO | INCONCLUSIVE
    payload: dict

    def json_dict(self) -> dict:
        return {"kind": self.kind, **self.payload}


def check_pair(r1: int, s1: int, r2: int, s2: int,
               anti_only: bool = False) -> Certificate:
    """Certificate for "is n_{r1,s1} isomorphic to n_{r2,s2}".

    With anti_only the question is restricted to maps whose center block is
    an anti-isometry (the interesting automorphism class).  Where the
    signatures leave the question open, (r2, s2) is the swap (s1, r1).
    Every answer but a morphism names the question: src, dst and the flag.
    An ISO answer writes the canonical map's kept morphism and reads its
    kept conjugation verdict (morphism.verified_morphism), so a kept map is
    related once; the payload is built afresh on every call.  A (0,0) side
    is refused in both modes, as build refuses it.
    """
    if (r1, s1) == (0, 0) or (r2, s2) == (0, 0):
        raise UnsupportedSignatureError(0, 0, what="construction")
    question = {"src": [r1, s1], "dst": [r2, s2],
                "anti_isometric_center_only": anti_only}

    def answer(kind: str, reason: str, **evidence) -> Certificate:
        return Certificate(kind, {"reason": reason, **question, **evidence})

    settled = center_signature_obstruction(Signature(r1, s1), Signature(r2, s2),
                                           anti_only)
    if settled is not None:
        return answer(*settled)

    cmap = canonical_map(r1, s1)
    if cmap is not None:
        f, con = verified_morphism(cmap)
        if con.ok:
            return Certificate("ISO", {"morphism": morphism_to_dict(f)})
        raise RuntimeError(f"canonical map failed verification: {con.detail}")

    if standard_chain(r1, s1) is None or standard_chain(r2, s2) is None:
        return answer("INCONCLUSIVE", "no canonical isomorphism and a side "
                                      "is not constructible")
    dst = standard_algebra(r2, s2)
    if not witt_bound(dst).equivalence_holds:
        scan = surjectivity_scan(dst)
        return answer("INCONCLUSIVE",
                      "parity argument does not apply: destination has "
                      "null vectors with surjective adjoint"
                      if not scan.equivalence_holds else
                      "parity precondition unproved: dim z does not exceed "
                      "the Witt index, and a scan is no proof",
                      precondition=scan.json_dict())
    src = standard_algebra(r1, s1)
    outcome = parity_certificate(src, dst)
    if outcome.feasible:
        return answer("INCONCLUSIVE",
                      "parity system is satisfiable; no refutation",
                      parity=outcome.json_dict())
    recheck = verify_parity_cycle(src, outcome.cycle)
    if not recheck.ok:
        raise RuntimeError(f"solver produced a bad cycle: {recheck.detail}")
    steps = [
        "center dimensions and minimal module dimensions agree",
        "destination signature is the swap (or equal), the only candidate",
        "any isomorphism can be rescaled to an anti-isometric center block",
        "destination ad_X is onto exactly off the null cone: dim z exceeds "
        "the module Witt index",
        "the induced sign-parity system on the source basis is infeasible; "
        "odd cycle attached and re-verified",
    ]
    return Certificate("NOT_ISO_PARITY", {
        **question,
        "steps": steps,
        "parity": outcome.json_dict(),
        "cycle_reverified": recheck.ok,
    })


def sbg_decision(a: PseudoHTypeAlgebra) -> Certificate:
    """Decide the strongly-bracket-generating property with a proof.

    Definite center: the algebra's kept verify_axioms verdict includes
    verify_clifford, so J_Z^2 = -<Z,Z> Id with <Z,Z> != 0 for Z != 0, and
    ad_v^tau Z = J_Z v vanishes only at Z = 0: every ad_v with v != 0 is
    onto.  An algebra failing an axiom raises ValueError.  Indefinite
    center: the null direction Z_0 = Z_1 + Z_{r+1} gives J_{Z_0}^2 = 0, and
    any nonzero v in its image has image(ad_v) inside the orthogonal
    complement of Z_0.
    """
    r, s = a.r, a.s
    if r == 0 or s == 0:
        axioms = verify_axioms(a)
        if not axioms.ok:
            raise ValueError(f"{a.name()} fails {axioms.detail} at "
                             f"{axioms.witness}")
        return Certificate("SBG_YES", {"signature": [r, s]})

    z0, v = null_direction_witness(a)
    verdict = verify_sbg_no_witness(a, z0, v)
    if not verdict.ok:
        raise RuntimeError(f"witness failed verification: {verdict.detail}")
    return Certificate("SBG_NO", {
        "signature": [r, s],
        "z0": z0.json_dict(),
        "witness_v": v.json_dict(),
    })


def null_direction_witness(a: PseudoHTypeAlgebra
                           ) -> tuple[SparseVector, SparseVector]:
    """Integer (Z_0, v) on an indefinite center: the null Z_0 = Z_1 + Z_{r+1}
    and v = J_{Z_0} v_alpha for the first v_alpha it does not annihilate,
    read off the J table by j_image."""
    z0 = SparseVector(a.dim_center, (1, a.r + 1), (1, 1))
    for alpha in range(1, a.dim_module + 1):
        image = j_image(a, z0, SparseVector(a.dim_module, (alpha,), (1,)))
        if image:
            return z0, SparseVector(a.dim_module, tuple(image),
                                    tuple(image.values()))
    # would contradict the nonzero kernel of J_{Z_0}
    raise RuntimeError("no witness found; J_{Z_0} vanished identically")


def verify_sbg_no_witness(a: PseudoHTypeAlgebra,
                          z0: SparseVector | Sequence[Rational],
                          v: SparseVector | Sequence[Rational]) -> Verdict:
    """Re-check an SBG_NO certificate: image(ad_v) misses the dual of Z_0.

    z0 and v are SparseVectors, or dense sequences, which are reduced to
    their support first.  Z_0 must be null: a sum over its support.
    Column beta of ad_v holds [v, v_beta], and <Z_0, [v, v_beta]> =
    <J_{Z_0} v, v_beta>, so the image misses the dual of Z_0 exactly when
    J_{Z_0} v = 0, which j_image reads off the J rows of z0's support at
    v's support.  Rational entries need no clearing: the arithmetic is
    exact, and both conditions are homogeneous.
    """
    z0, v = SparseVector.of(z0), SparseVector.of(v)
    if z0.dim != a.dim_center or v.dim != a.dim_module:
        return Verdict(False, None, "certificate vectors have the wrong length")
    if not z0.index or not v.index:
        return Verdict(False, None, "certificate vectors must be nonzero")
    if sum(a.center_sign(k) * c * c for k, c in z0.items()) != 0:
        return Verdict(False, None, "Z_0 is not a null vector")
    try:
        image = j_image(a, z0, v)
    except IntegralBasisError as exc:  # a (k, a) with two partners
        return Verdict(False, None, str(exc))
    if image:
        return Verdict(False, (next(iter(image)),),
                       "image of ad_v leaves the complement of Z_0")
    return Verdict(True)


# ---------------------------------------------------------------------------
# sign-parity system
# ---------------------------------------------------------------------------

class ParityConstraint(NamedTuple):
    a: int
    b: int
    rhs: int  # s_a * s_b must equal rhs


class ParityOutcome(NamedTuple):
    feasible: bool
    assignment: Optional[dict[int, int]] = None
    cycle: Optional[tuple[ParityConstraint, ...]] = None
    precondition: Optional[WittBound] = None

    def json_dict(self) -> dict:
        out: dict = {"feasible": self.feasible}
        if self.assignment is not None:
            out["assignment"] = {str(k): v for k, v in sorted(self.assignment.items())}
        if self.cycle is not None:
            out["cycle"] = [{"a": c.a, "b": c.b, "rhs": c.rhs} for c in self.cycle]
        if self.precondition is not None:
            out["precondition"] = self.precondition.json_dict()
        return out


def parity_system(src: PseudoHTypeAlgebra) -> list[ParityConstraint]:
    """One constraint s_a s_b = -eps_a eps_b per commutation-graph edge."""
    return [ParityConstraint(i, j, -src.module_sign(i) * src.module_sign(j))
            for (i, j, _k, _s) in src.tensor.entries]


def solve_parity(constraints: Sequence[ParityConstraint],
                 n: int) -> ParityOutcome:
    """The system's two_coloring: an assignment giving +1 to the lowest
    index of each component, or an explicit odd cycle of constraints."""
    signs, cycle = two_coloring(n, [(c.a, c.b, c.rhs) for c in constraints])
    if signs is None:
        return ParityOutcome(feasible=False,
                             cycle=tuple(constraints[p] for p in cycle))
    return ParityOutcome(feasible=True,
                         assignment={v: signs[v] for v in range(1, n + 1)})


def verify_parity_cycle(src: PseudoHTypeAlgebra,
                        cycle: Sequence[ParityConstraint]) -> Verdict:
    """Re-check an odd cycle independently of the solver.

    The edges must close a cycle, each constraint must match the commutation
    graph and metric of src, and the product of the right-hand sides around
    the cycle must be -1.
    """
    if not cycle:
        return Verdict(False, None, "empty cycle")
    product = 1
    for c in cycle:
        if src.tensor.bracket_pair(c.a, c.b) is None:
            return Verdict(False, (c.a, c.b), "edge not in the commutation graph")
        if c.rhs != -src.module_sign(c.a) * src.module_sign(c.b):
            return Verdict(False, (c.a, c.b), "constraint has the wrong sign")
        product *= c.rhs
    def chains_from(start: int) -> bool:
        node = start
        for c in cycle:
            if node == c.a:
                node = c.b
            elif node == c.b:
                node = c.a
            else:
                return False
        return node == start

    if not (chains_from(cycle[0].a) or chains_from(cycle[0].b)):
        return Verdict(False, None, "edges do not chain into a closed cycle")
    if product != -1:
        return Verdict(False, None, "cycle product is +1; not a witness")
    return Verdict(True)


def parity_certificate(src: PseudoHTypeAlgebra,
                       dst: PseudoHTypeAlgebra) -> ParityOutcome:
    """Sign-parity system for an isomorphism src -> dst with anti-isometric
    center action.

    The system itself only sees src; dst enters through the precondition
    that ad_X be surjective exactly off the null cone, attached as the
    Witt-index record of dst.  An INFEASIBLE outcome refutes such an
    isomorphism only where that record holds.
    """
    outcome = solve_parity(parity_system(src), src.dim_module)
    return outcome._replace(precondition=witt_bound(dst))
