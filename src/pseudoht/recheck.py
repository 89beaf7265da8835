"""Independent re-verification of serialized certificates.

A certificate is only worth its payload: everything needed to re-check it
is embedded, and this module replays those checks from the JSON form alone,
reconstructing the algebras from their provenance records.  The solver or
search that produced a certificate is never consulted.  The fields a check
reads are parsed first; a payload that does not fit is refused with
Verdict(False), never with an exception.
"""

from __future__ import annotations

import re
from collections.abc import Mapping
from fractions import Fraction
from typing import Optional

from .algebra import (
    PseudoHTypeAlgebra,
    SignedPermutationOp,
    SumProvenance,
    Verdict,
    verify_axioms,
)
from .catalog import MAX_CENTER_DIM, base_algebra, min_module_dim
from .core import ExactMatrix, Rational, Signature, SparseVector, exact_rank
from .extension import (
    ExtensionStep,
    extension_chain,
    standard_algebra,
    standard_chain,
)
from .morphism import (
    LieMorphism,
    center_signature_obstruction,
    classify_morphism,
    verify_homomorphism,
)
from .obstruction import (
    ParityConstraint,
    verify_parity_cycle,
    verify_sbg_no_witness,
    witt_bound,
)
from .sums import build_sum, require_sum_counts


class _Malformed(ValueError):
    """A certificate field is missing or does not have its required shape."""


def _field(payload, key: str):
    if not isinstance(payload, Mapping) or key not in payload:
        raise _Malformed(f"missing field {key!r}")
    return payload[key]


def _ints(value, n: int, what: str) -> tuple[int, ...]:
    """value as n JSON integers; strings, floats and booleans are refused."""
    if (not isinstance(value, list) or len(value) != n
            or any(type(e) is not int for e in value)):
        raise _Malformed(f"{what} must be a list of {n} integers")
    return tuple(value)


def _signature(payload, key: str) -> tuple[int, int]:
    r, s = _ints(_field(payload, key), 2, key)
    if r < 0 or s < 0 or not 0 < r + s <= MAX_CENTER_DIM:
        raise _Malformed(f"{key} must be two counts with r + s from 1 to "
                         f"{MAX_CENTER_DIM}")
    return r, s


def _list(payload, key: str) -> list:
    value = _field(payload, key)
    if not isinstance(value, list):
        raise _Malformed(f"{key} must be a list")
    return value


# the form str(Fraction) writes; an exponent form such as "1e2000000" would
# make Fraction expand it digit by digit
_RATIONAL = re.compile(r"-?[0-9]+(/[0-9]+)?")


def _parse_rational(e, key: str) -> Rational:
    """An integer string as an int, and a Fraction only for a string with
    a denominator."""
    if isinstance(e, str) and (m := _RATIONAL.fullmatch(e)):
        try:
            return Fraction(e) if m[1] else int(e)
        except (ValueError, ZeroDivisionError):  # "1/0", too many digits
            pass
    raise _Malformed(f"{key} must hold rational numbers")


def _rational_list(values: list, key: str) -> list:
    """values as rationals: each a JSON integer, or a string matching
    _RATIONAL; floats, booleans and exponent forms are refused."""
    if set(map(type, values)) <= {int}:
        return values
    return [e if type(e) is int else _parse_rational(e, key) for e in values]


def _matrix(payload, key: str, rows: int, cols: int) -> ExactMatrix:
    """A block of a morphism as rows of JSON integers: a signed
    permutation has no other entries."""
    value = _list(payload, key)
    if len(value) != rows:
        raise _Malformed(f"{key} must be a {rows} x {cols} list of rows")
    return ExactMatrix.from_rows([_ints(row, cols, f"a row of {key}")
                                  for row in value])


def _block(m, key: str, rows: int, cols: int):
    """Block A or C as morphism_to_dict writes it: {"image", "sign"} read
    as a SignedPermutationOp, or dense rows, the form of older
    certificates, read as an ExactMatrix."""
    value = _field(m, key)
    if isinstance(value, list):
        return _matrix(m, key, rows, cols)
    if not isinstance(value, Mapping):
        raise _Malformed(f"{key} must be {{image, sign}} or a list of rows")
    if rows != cols:
        raise _Malformed(f"a signed-permutation {key} needs equal dimensions "
                         f"on both sides")
    image = _ints(_field(value, "image"), cols, f"{key} image")
    sign = _ints(_field(value, "sign"), cols, f"{key} sign")
    try:
        return SignedPermutationOp(image, sign)
    except ValueError as exc:  # a repeated or out-of-range index, a sign 2
        raise _Malformed(f"{key}: {exc}") from None


def _vector(payload, key: str) -> SparseVector:
    """payload[key] as a SparseVector: the sparse form {"dim", "index",
    "value"} that certificates write, with JSON integers only, or a dense
    list of rationals, the form of older and foreign certificates.  Both
    SBG_NO conditions are homogeneous, so an integer form of every witness
    exists.  The sparse form makes nothing of size dim: the verifier
    compares dim with the algebra's first."""
    value = _field(payload, key)
    if isinstance(value, list):
        return SparseVector.of(_rational_list(value, key))
    if not isinstance(value, Mapping):
        raise _Malformed(f"{key} must be {{dim, index, value}} or a list")
    dim = _field(value, "dim")
    index, entries = _list(value, "index"), _list(value, "value")
    if any(type(e) is not int for e in (dim, *index, *entries)):
        raise _Malformed(f"{key} must hold JSON integers")
    try:
        return SparseVector(dim, tuple(index), tuple(entries))
    except ValueError as exc:  # an index out of range or repeated, a value 0
        raise _Malformed(f"{key}: {exc}") from None


def rebuild_from_provenance(prov: Mapping) -> PseudoHTypeAlgebra:
    """Reconstruct an algebra from its serialized provenance record; a
    record of the wrong shape raises ValueError."""
    kind = _field(prov, "kind")
    if kind == "base":
        return base_algebra(*_ints(_field(prov, "id"), 2, "id"))
    if kind == "extended":
        steps = [ExtensionStep.parse("{},{}".format(*_ints(st, 2, "a step")))
                 for st in _list(prov, "steps")]
        return extension_chain(_ints(_field(prov, "base"), 2, "base"), steps)
    if kind == "sum":
        # exactly the records SumProvenance writes: type 1, then type 2
        blocks = _list(prov, "blocks")
        types = _ints([_field(b, "type") for b in blocks], 2, "block types")
        mu, nu = _ints([_field(b, "count") for b in blocks], 2, "block counts")
        if types != (1, 2) or any(len(b) != 2 for b in blocks):
            raise _Malformed("sum blocks must be type 1, then type 2")
        return build_sum(base_algebra(*_ints(_field(prov, "base"), 2, "base")),
                         mu, nu)
    raise _Malformed(f"cannot rebuild an algebra from provenance {prov!r}")


def _recheck_iso(payload: Mapping) -> Verdict:
    m = payload["morphism"]
    try:
        src, dst = [rebuild_from_provenance(_field(_field(m, side), "provenance"))
                    for side in ("src", "dst")]
    except ValueError as exc:  # also a record naming no buildable algebra
        raise _Malformed(str(exc)) from None
    for side, algebra in (("src", src), ("dst", dst)):
        stated_sig = _ints([_field(m[side], "r"), _field(m[side], "s")], 2,
                           f"{side} r and s")
        if stated_sig != (algebra.r, algebra.s):
            return Verdict(False, None, f"stated {side} signature {stated_sig} "
                                        f"is not the rebuilt {algebra.name()}")
        refused = _rebuilt_defect(algebra)
        if refused is not None:
            return Verdict(False, refused.witness, f"{side} {refused.detail}")
    a = _block(m, "A", dst.dim_module, src.dim_module)
    c = _block(m, "C", dst.dim_center, src.dim_center)
    try:
        f = LieMorphism(src, dst, a, c)
    except ValueError as exc:  # a block that is no signed permutation
        return Verdict(False, None, str(exc))
    stated = m.get("class", {})  # absent: not stated
    if not isinstance(stated, Mapping):
        raise _Malformed("class must be an object")
    hom = verify_homomorphism(f)
    if not hom.ok:
        return Verdict(False, hom.witness, "embedded map is not a homomorphism")
    cls = classify_morphism(f)
    if stated and stated.get("center_action") != cls.center_action.value:
        return Verdict(False, None, "stated center action does not match")
    # LieMorphism refuses any block that is no signed permutation, so this
    # rank cannot fail; it stays as perfbench's coverage check counts it as
    # the core.exact_rank work of iso-roundtrip (ROADMAP item 1, step A1).
    if exact_rank(f.C.entries) != f.C.rows:
        return Verdict(False, None, "a block of the embedded map is singular")
    if stated and _flag(stated, "integral") != cls.integral:
        return Verdict(False, None, "stated integral class does not match")
    return Verdict(True)


def _rebuilt_defect(a: PseudoHTypeAlgebra) -> Optional[Verdict]:
    """Why an algebra rebuilt from a provenance record cannot carry an ISO
    certificate, or None: it fails an axiom, or its module is not the
    minimal one of its signature (for a direct sum, mu + nu copies of it).
    The map is checked on the rebuilt algebras, so a fault in extend or
    the catalog that made a wrong algebra would otherwise let certify and
    recheck agree on a map between algebras that are not pseudo H-type.
    The axiom verdict is kept on a shared algebra, so a warm recheck does
    not pay for it again."""
    axioms = verify_axioms(a)
    if not axioms.ok:
        return Verdict(False, axioms.witness, f"fails {axioms.detail}")
    prov = a.provenance
    copies = prov.mu + prov.nu if isinstance(prov, SumProvenance) else 1
    want = copies * min_module_dim(a.r, a.s)
    if a.dim_module != want:
        return Verdict(False, None, f"module has dimension {a.dim_module}, "
                                    f"not {want}")
    return None


def _flag(payload, key: str, default: Optional[bool] = None) -> bool:
    """payload[key] as a JSON boolean; a missing key reads a given default."""
    value = _field(payload, key) if default is None else payload.get(key, default)
    if type(value) is not bool:
        raise _Malformed(f"{key} must be a boolean")
    return value


def _recheck_signatures(payload: Mapping) -> Verdict:
    """NOT_ISO_DIM and NOT_ISO_SIGNATURE: re-derive the answer from the two
    signatures and the anti flag (false where an older certificate has
    none), and accept only the stated kind with the reason it gives."""
    src = _signature(payload, "src")
    dst = _signature(payload, "dst")
    anti_only = _flag(payload, "anti_isometric_center_only", False)
    reason = _field(payload, "reason")
    settled = center_signature_obstruction(Signature(*src), Signature(*dst),
                                           anti_only)
    kind = payload["kind"]
    got = settled[0] if settled else "an open question"
    if got != kind:
        return Verdict(False, None, f"the signatures give {got}, not {kind}")
    if reason != settled[1]:
        return Verdict(False, None, f"the stated reason is not the one the "
                                    f"signatures give: {settled[1]}")
    return Verdict(True)


def _recheck_parity(payload: Mapping) -> Verdict:
    """Re-derive the whole refutation: the pair is a parity question, the
    destination satisfies the axioms the Witt-index bound rests on, the
    recorded precondition is that bound and it holds, and the odd cycle
    re-verifies on the source.  The stated outcome must be the one a
    refutation has: an infeasible system and a re-verified cycle."""
    src = _signature(payload, "src")
    dst = _signature(payload, "dst")
    anti_only = _flag(payload, "anti_isometric_center_only")
    parity = _field(payload, "parity")
    if _field(parity, "feasible") is not False:
        return Verdict(False, None, "a refutation states an infeasible "
                                    "parity system")
    if _field(payload, "cycle_reverified") is not True:
        return Verdict(False, None, "a refutation states a re-verified cycle")
    cycle = [ParityConstraint(*_ints([_field(e, k) for k in ("a", "b", "rhs")],
                                     3, "a cycle edge"))
             for e in _list(parity, "cycle")]
    recorded = _field(parity, "precondition")

    # an open question also means that dst is the swap of src
    settled = center_signature_obstruction(Signature(*src), Signature(*dst),
                                           anti_only)
    if settled is not None:
        return Verdict(False, None, f"not a parity question: {settled[1]}")
    try:
        src_algebra = standard_algebra(*src)
        dst_algebra = standard_algebra(*dst)
    except ValueError as exc:
        return Verdict(False, None, str(exc))
    axioms = verify_axioms(dst_algebra)
    if not axioms.ok:
        return Verdict(False, axioms.witness,
                       f"destination fails {axioms.detail}")
    bound = witt_bound(dst_algebra)
    if not _same_json(recorded, bound.json_dict()):
        return Verdict(False, None, "recorded precondition is not the "
                                    "Witt-index record of the destination")
    if not bound.equivalence_holds:
        return Verdict(False, None, "dim z does not exceed the Witt index; "
                                    "the parity argument refutes nothing here")
    return verify_parity_cycle(src_algebra, cycle)


def _same_json(got, want) -> bool:
    """got == want with JSON types told apart (true is not 1, 5.0 is not
    5); the walk follows want's nesting, so it never raises."""
    if type(got) is not type(want):
        return False
    if isinstance(want, dict):
        return got.keys() == want.keys() and all(
            _same_json(got[k], want[k]) for k in want)
    if isinstance(want, list):
        return len(got) == len(want) and all(map(_same_json, got, want))
    return got == want


def _recheck_sbg_yes(payload: Mapping) -> Verdict:
    """On a definite center J_Z^2 = -<Z,Z> Id with <Z,Z> != 0 for Z != 0,
    so ad_v^tau Z = J_Z v vanishes only at Z = 0 and every ad_v with v != 0
    is onto.  The signature only has to be definite and constructible; no
    algebra is built."""
    r, s = _signature(payload, "signature")
    if r != 0 and s != 0:
        return Verdict(False, None, "SBG_YES needs a definite center")
    if "sum" in payload:
        mu, nu = _ints(payload["sum"], 2, "sum")
        try:
            require_sum_counts(base_algebra(r, s), mu, nu)
        except ValueError as exc:
            return Verdict(False, None, str(exc))
    elif standard_chain(r, s) is None:
        return Verdict(False, None, f"n_({r},{s}) is not constructible")
    return Verdict(True)


def _recheck_sbg_no(payload: Mapping) -> Verdict:
    r, s = _signature(payload, "signature")
    z0 = _vector(payload, "z0")
    v = _vector(payload, "witness_v")
    try:
        if "sum" in payload:
            mu, nu = _ints(payload["sum"], 2, "sum")
            a = build_sum(base_algebra(r, s), mu, nu)
        else:
            a = standard_algebra(r, s)
    except ValueError as exc:
        return Verdict(False, None, str(exc))
    return verify_sbg_no_witness(a, z0, v)


_RECHECKS = {
    "ISO": _recheck_iso,
    "NOT_ISO_DIM": _recheck_signatures,
    "NOT_ISO_SIGNATURE": _recheck_signatures,
    "NOT_ISO_PARITY": _recheck_parity,
    "SBG_YES": _recheck_sbg_yes,
    "SBG_NO": _recheck_sbg_no,
}


def recheck_certificate(cert: Mapping) -> Verdict:
    """Replay the checks behind a serialized certificate.

    ISO certificates re-verify the embedded morphism; NOT_ISO_* certificates
    re-establish the obstruction, NOT_ISO_PARITY with the Witt-index bound
    re-derived from the rebuilt destination; SBG_NO re-checks the witness
    pair (Z_0, v) on its support, read from the sparse {"dim", "index",
    "value"} form or the dense list of older certificates, which
    verify_sbg_no_witness refuses unless dim is the algebra's; SBG_YES
    holds for every definite constructible signature.  INCONCLUSIVE
    claims nothing and is accepted as an evidence record: its scan
    violation is not read.  An in-process recheck reads the current
    scope's kept verdicts (_rebuilt_defect); in a fresh catalog.scope()
    it reads the certificate's JSON alone.
    """
    if not isinstance(cert, Mapping):
        return Verdict(False, None, "a certificate is a JSON object")
    kind = cert.get("kind")
    if kind == "INCONCLUSIVE":
        return Verdict(True, None, "evidence record; nothing to refute")
    if not isinstance(kind, str) or kind not in _RECHECKS:
        return Verdict(False, None, f"unknown certificate kind {kind!r}")
    try:
        return _RECHECKS[kind](cert)
    except _Malformed as exc:
        return Verdict(False, None, f"malformed {kind} certificate: {exc}")
