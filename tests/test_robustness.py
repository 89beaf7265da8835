"""Sensitivity of the verifiers and the deeper recursion branches, and
recheck's refusal of malformed signature counts."""

import json

import pytest

from pseudoht.algebra import (
    PseudoHTypeAlgebra,
    StructureTensor,
    Verdict,
    bd_decomposition,
    verify_admissible,
    verify_clifford,
    verify_htype,
)
from pseudoht.catalog import BASE_IDS, base_algebra
from pseudoht.cli import main
from pseudoht.extension import ExtensionStep, extend
from pseudoht.morphism import (
    canonical_map,
    remark_isom_class_check,
    verify_conjugation,
    verify_homomorphism,
)
from pseudoht.obstruction import check_pair, sbg_decision
from pseudoht.recheck import recheck_certificate


def _flip_entry(a: PseudoHTypeAlgebra, idx: int) -> PseudoHTypeAlgebra:
    entries = list(a.tensor.entries)
    i, j, k, s = entries[idx]
    entries[idx] = (i, j, k, -s)
    return PseudoHTypeAlgebra(
        a.center_sig, a.module_signs,
        StructureTensor(a.dim_module, a.dim_center, entries), a.provenance)


def test_single_pair_sign_flips_are_detected():
    """Every single-pair sign corruption of a stored table breaks an axiom,
    except in the rank-one-center algebras where the flip is the legitimate
    relabeling w_2 -> -w_2 and genuinely nothing is wrong.

    Skew-adjointness alone cannot see such flips (the antisymmetric storage
    flips both orientations together); the Clifford and composition checks
    are the detectors.
    """
    for rs in BASE_IDS:
        a = base_algebra(*rs)
        for idx in range(len(a.tensor.entries)):
            b = _flip_entry(a, idx)
            caught = not (verify_clifford(b).ok and verify_admissible(b).ok
                          and verify_htype(b).ok)
            if rs in ((1, 0), (0, 1)):
                assert not caught  # valid relabeling, axioms must hold
            else:
                assert caught, f"undetected corruption in {rs} entry {idx}"


@pytest.mark.parametrize("rs", [(9, 1), (10, 2), (6, 6)])
def test_recursive_maps_from_automorphism_bases(rs):
    """The induction steps applied to the diagonal automorphisms, covering
    the branch of the dispatcher that the named families never reach."""
    cmap = canonical_map(*rs)
    assert cmap is not None
    f = cmap.to_morphism()
    assert verify_homomorphism(f).ok
    assert verify_conjugation(f).ok
    assert remark_isom_class_check(cmap).ok


@pytest.mark.slow
def test_deep_automorphism_of_9_9():
    """Two stacked induction steps: the 1024-dimensional automorphism."""
    cmap = canonical_map(9, 9)
    assert cmap is not None
    assert (cmap.src.r, cmap.src.s, cmap.src.dim_module) == (9, 9, 1024)
    f = cmap.to_morphism()
    assert verify_homomorphism(f).ok
    assert remark_isom_class_check(cmap).ok


def test_bd_search_succeeds_on_extended_algebras():
    """Extensions of algebras with the quarter decomposition admit one too,
    findable by the search (not only by the carried canonical sets)."""
    for rs, step in (((1, 1), ExtensionStep.BY_4_4),
                     ((2, 2), ExtensionStep.BY_8_0),
                     ((1, 1), ExtensionStep.BY_0_8)):
        ext = extend(base_algebra(*rs), step)
        found = bd_decomposition(ext)
        assert found is not None
        quarter = ext.dim_module // 4
        for part in (found.a_plus, found.a_minus, found.b_plus, found.b_minus):
            assert len(part) == quarter


def test_cli_rejects_bad_extension_step(capsys):
    code = main(["build", "1", "0", "--extend", "2,2"])
    assert code == 3
    assert "extension step" in capsys.readouterr().err


def test_cli_check_deep_pair(capsys):
    code = main(["check", "9", "8", "8", "9"])
    assert code == 0
    out = capsys.readouterr().out
    assert '"kind": "ISO"' in out



# name: (how certify writes the certificate, the path to a signature count)
SIGNATURE_SITES = {
    "NOT_ISO_DIM src": (lambda: check_pair(3, 0, 0, 3), ("src", 0)),
    "NOT_ISO_PARITY dst": (lambda: check_pair(3, 2, 2, 3), ("dst", 1)),
    "ISO morphism src": (lambda: check_pair(1, 8, 8, 1),
                         ("morphism", "src", "r")),
    "SBG_YES": (lambda: sbg_decision(base_algebra(8, 0)), ("signature", 0)),
    "SBG_NO": (lambda: sbg_decision(base_algebra(1, 1)), ("signature", 1)),
}


@pytest.mark.parametrize("value", [1.5, True, 1.0], ids=["float", "bool",
                                                          "integral-float"])
@pytest.mark.parametrize("site", SIGNATURE_SITES)
def test_recheck_refuses_a_signature_count_that_is_no_int(site, value):
    certify, path = SIGNATURE_SITES[site]
    forged = json.loads(json.dumps(certify().json_dict()))
    assert recheck_certificate(forged).ok
    holder = forged
    for key in path[:-1]:
        holder = holder[key]
    holder[path[-1]] = value
    verdict = recheck_certificate(forged)
    assert type(verdict) is Verdict and verdict.ok is False, verdict
