"""Independent re-verification of serialized certificates.

A certificate is only worth its payload: everything needed to re-check it
is embedded, and this module replays those checks from the JSON form alone,
reconstructing the algebras from their provenance records.  The solver or
search that produced a certificate is never consulted.
"""

from __future__ import annotations

from fractions import Fraction
from typing import Mapping

from .algebra import PseudoHTypeAlgebra, Verdict
from .catalog import base_algebra, min_module_dim
from .core import ExactMatrix, exact_rank
from .extension import ExtensionStep, extend, standard_algebra
from .morphism import LieMorphism, classify_morphism, verify_homomorphism
from .obstruction import (
    ParityConstraint,
    verify_parity_cycle,
    verify_sbg_no_witness,
)
from .sums import build_sum


def rebuild_from_provenance(prov: Mapping) -> PseudoHTypeAlgebra:
    """Reconstruct an algebra from its serialized provenance record."""
    kind = prov.get("kind")
    if kind == "base":
        r, s = prov["id"]
        return base_algebra(int(r), int(s))
    if kind == "extended":
        r0, s0 = prov["base"]
        a = base_algebra(int(r0), int(s0))
        for p, q in prov["steps"]:
            a = extend(a, ExtensionStep.parse(f"{p},{q}"))
        return a
    if kind == "sum":
        r, s = prov["base"]
        counts = {b["type"]: b["count"] for b in prov["blocks"]}
        return build_sum(base_algebra(int(r), int(s)),
                         counts.get(1, 0), counts.get(2, 0)).algebra
    raise ValueError(f"cannot rebuild an algebra from provenance {prov!r}")


def _recheck_iso(payload: Mapping) -> Verdict:
    m = payload["morphism"]
    src = rebuild_from_provenance(m["src"]["provenance"])
    dst = rebuild_from_provenance(m["dst"]["provenance"])
    f = LieMorphism(src, dst, ExactMatrix.from_rows(m["A"]),
                    ExactMatrix.from_rows(m["C"]), ExactMatrix.from_rows(m["B"]))
    hom = verify_homomorphism(f)
    if not hom.ok:
        return Verdict(False, hom.witness, "embedded map is not a homomorphism")
    cls = classify_morphism(f)
    stated = m.get("class", {})
    if stated and stated.get("center_action") != cls.center_action.value:
        return Verdict(False, None, "stated center action does not match")
    # invertibility of the blocks makes the homomorphism an isomorphism; an
    # integral A has one +-1 per row and column, a signed permutation
    c_invertible = exact_rank(f.C) == f.C.rows
    a_invertible = cls.integral or exact_rank(f.A) == f.A.rows
    if not (a_invertible and c_invertible):
        return Verdict(False, None, "a block of the embedded map is singular")
    return Verdict(True)


def _recheck_dims(payload: Mapping) -> Verdict:
    r1, s1 = payload["src"]
    r2, s2 = payload["dst"]
    if r1 + s1 != r2 + s2:
        return Verdict(True)
    try:
        if min_module_dim(r1, s1) != min_module_dim(r2, s2):
            return Verdict(True)
    except ValueError:
        pass
    return Verdict(False, None, "dimensions do not actually differ")


def _recheck_signature(payload: Mapping) -> Verdict:
    r1, s1 = payload["src"]
    r2, s2 = payload["dst"]
    if (r2, s2) in {(r1, s1), (s1, r1)}:
        return Verdict(False, None, "destination signature is a candidate")
    return Verdict(True)


def _recheck_parity(payload: Mapping) -> Verdict:
    r1, s1 = payload["src"]
    src = standard_algebra(int(r1), int(s1))
    cycle = [ParityConstraint(int(c["a"]), int(c["b"]), int(c["rhs"]))
             for c in payload["parity"]["cycle"]]
    verdict = verify_parity_cycle(src, cycle)
    if not verdict.ok:
        return verdict
    pre = payload["parity"].get("precondition", {})
    if not pre.get("equivalence_holds", False):
        return Verdict(False, None,
                       "recorded precondition scan did not hold; the parity "
                       "argument does not refute anything here")
    return Verdict(True)


def _recheck_sbg_no(payload: Mapping) -> Verdict:
    r, s = payload["signature"]
    if "sum" in payload:
        mu, nu = payload["sum"]
        a = build_sum(base_algebra(int(r), int(s)), int(mu), int(nu)).algebra
    else:
        a = standard_algebra(int(r), int(s))
    z0 = [Fraction(e) for e in payload["z0"]]
    v = [Fraction(e) for e in payload["witness_v"]]
    return verify_sbg_no_witness(a, z0, v)


def recheck_certificate(cert: Mapping) -> Verdict:
    """Replay the checks behind a serialized certificate.

    ISO certificates re-verify the embedded morphism; NOT_ISO_* certificates
    re-establish the obstruction; SBG_NO re-checks the witness pair.
    SBG_YES and INCONCLUSIVE carry sampling records rather than proofs and
    are accepted as such.
    """
    kind = cert.get("kind")
    if kind == "ISO":
        return _recheck_iso(cert)
    if kind == "NOT_ISO_DIM":
        return _recheck_dims(cert)
    if kind == "NOT_ISO_SIGNATURE":
        return _recheck_signature(cert)
    if kind == "NOT_ISO_PARITY":
        return _recheck_parity(cert)
    if kind == "SBG_NO":
        return _recheck_sbg_no(cert)
    if kind in ("SBG_YES", "INCONCLUSIVE"):
        return Verdict(True, None, "evidence record; nothing to refute")
    return Verdict(False, None, f"unknown certificate kind {kind!r}")
