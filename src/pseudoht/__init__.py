"""Exact-arithmetic toolkit for pseudo H-type Lie algebras.

Constructs the algebras n_{r,s} from their published integral bases,
extends them along the three Bott-periodicity tensor steps, builds and
verifies the canonical isomorphisms between n_{r,s} and n_{s,r}, and
produces machine-checkable certificates: isomorphisms, dimension and
signature obstructions, sign-parity refutations, and strongly-bracket-
generating decisions.  All arithmetic is exact rational.
"""

from .algebra import (
    PseudoHTypeAlgebra,
    SignedPermutationOp,
    StructureTensor,
    algebra_from_json,
    bd_decomposition,
    block_decomposition,
    bracket,
    j_operator,
    verify_admissible,
    verify_axioms,
    verify_clifford,
    verify_general_htype,
    verify_htype,
    verify_integral_basis,
)
from .catalog import BASE_IDS, base_algebra, min_module_dim
from .core import ExactMatrix, MapClass, Signature, epsilon, scalar_product
from .extension import (
    ExtensionStep,
    extend,
    extension_chain,
    standard_algebra,
    volume_involution,
)
from .morphism import (
    LieMorphism,
    canonical_isomorphism,
    center_signature_obstruction,
    normalize_isomorphism,
    verify_conjugation,
    verify_homomorphism,
)
from .recheck import rebuild_from_provenance, recheck_certificate
from .obstruction import (
    Certificate,
    gram_det,
    parity_certificate,
    sbg_decision,
    surjectivity_scan,
)
from .sums import build_sum, block_volume_element, sum_sbg, swap_isomorphism

__version__ = "0.1.0"

__all__ = [
    "BASE_IDS",
    "Certificate",
    "ExactMatrix",
    "ExtensionStep",
    "LieMorphism",
    "MapClass",
    "PseudoHTypeAlgebra",
    "Signature",
    "SignedPermutationOp",
    "StructureTensor",
    "algebra_from_json",
    "base_algebra",
    "bd_decomposition",
    "block_decomposition",
    "block_volume_element",
    "bracket",
    "build_sum",
    "canonical_isomorphism",
    "center_signature_obstruction",
    "epsilon",
    "extend",
    "extension_chain",
    "gram_det",
    "j_operator",
    "min_module_dim",
    "normalize_isomorphism",
    "parity_certificate",
    "rebuild_from_provenance",
    "recheck_certificate",
    "sbg_decision",
    "scalar_product",
    "standard_algebra",
    "sum_sbg",
    "surjectivity_scan",
    "swap_isomorphism",
    "verify_admissible",
    "verify_axioms",
    "verify_clifford",
    "verify_conjugation",
    "verify_general_htype",
    "verify_homomorphism",
    "verify_htype",
    "verify_integral_basis",
    "volume_involution",
]
