"""Non-minimal algebras built from direct sums of minimal modules.

A sum carries mu copies of the base module and nu copies of a second,
non-equivalent one.  The second type is realized concretely on the same
vector space with every J negated; when the center rank is odd this flips
the volume element, which is exactly what distinguishes the two module
types.  Brackets between distinct copies vanish.
"""

from __future__ import annotations

from typing import Optional

from .algebra import (
    PseudoHTypeAlgebra,
    SignedPermutationOp,
    SumProvenance,
    StructureTensor,
    require_module_budget,
)
from .catalog import (
    BASE_IDS,
    UnsupportedSignatureError,
    base_algebra,
    min_module_dim,
    shared_step,
)
from .extension import volume_involution
from .morphism import LieMorphism
from .obstruction import Certificate, sbg_decision


def require_sum_counts(base: PseudoHTypeAlgebra, mu: int, nu: int) -> None:
    """Raise ValueError unless build_sum(base, mu, nu) is a valid sum of a
    minimal base module within the module budget; builds nothing."""
    r, s = base.r, base.s
    if (r, s) not in BASE_IDS:
        raise UnsupportedSignatureError(r, s, what="direct-sum base")
    if mu < 0 or nu < 0 or mu + nu == 0:
        raise ValueError("need a positive number of blocks")
    if nu > 0 and (r - s) % 4 != 3:
        raise ValueError(
            f"two non-equivalent module types require r - s = 3 mod 4; "
            f"got ({r},{s})")
    minimal = min_module_dim(r, s)
    if base.dim_module != minimal:
        raise ValueError(f"a direct-sum base needs the minimal module of "
                         f"({r},{s}), dim {minimal}; got dim {base.dim_module}")
    require_module_budget(base.dim_module * (mu + nu))


def build_sum(base: PseudoHTypeAlgebra, mu: int, nu: int) -> PseudoHTypeAlgebra:
    """mu copies of the base block plus nu copies of the negated-J block;
    the sum's SumProvenance records (base, mu, nu).

    The sum of a shared parent is shared too, one object per parent and
    counts, under the parent's catalog key plus the step "sum mu,nu", which
    no extension step equals; any other base gets a new sum.  The counts are
    refused before any lookup.
    """
    require_sum_counts(base, mu, nu)
    return shared_step(base, f"sum {mu},{nu}",
                       lambda: _build_sum(base, mu, nu))


def _build_sum(base: PseudoHTypeAlgebra, mu: int, nu: int
               ) -> PseudoHTypeAlgebra:
    """build_sum(), built."""
    per = base.dim_module
    # copy b sits at offset b * per, its J negated from type 2 (b >= mu) on
    entries = [(i + b * per, j + b * per, k, sg if b < mu else -sg)
               for b in range(mu + nu) for (i, j, k, sg) in base.tensor.entries]
    return PseudoHTypeAlgebra(
        center_sig=base.center_sig,
        module_signs=base.module_signs * (mu + nu),
        tensor=StructureTensor(per * (mu + nu), base.dim_center, entries),
        provenance=SumProvenance(base.r, base.s, mu, nu),
    )


def _sum_provenance(a: PseudoHTypeAlgebra) -> SumProvenance:
    """The record of (base, mu, nu) that build_sum gave a; ValueError for
    an algebra that is not a direct sum."""
    if not isinstance(a.provenance, SumProvenance):
        raise ValueError(f"{a.name()} is not a direct sum")
    return a.provenance


def block_volume_element(a: PseudoHTypeAlgebra, block: int
                         ) -> tuple[Optional[int], SignedPermutationOp]:
    """Compose all center operators on one block; (+1, -1, or None) plus op.

    The operators are the sum's own, read off its tensor; brackets between
    copies vanish, so each maps every block to itself, and the composite
    is restricted to the block (0-based).  None means the composition is
    not a scalar multiple of the identity, which happens when the minimal
    module is reducible.  ValueError for a block outside 0..mu+nu-1.
    """
    prov = _sum_provenance(a)
    if not 0 <= block < prov.mu + prov.nu:
        raise ValueError(f"block {block} is not in 0..{prov.mu + prov.nu - 1}")
    per = a.dim_module // (prov.mu + prov.nu)
    off = block * per
    whole = volume_involution(a)
    op = SignedPermutationOp(tuple(b - off for b in whole.image[off:off + per]),
                             whole.sign[off:off + per])
    return op.scalar_action(), op


def swap_isomorphism(a: PseudoHTypeAlgebra) -> LieMorphism:
    """Block swap n_{r,s}(mu,nu) -> n_{r,s}(nu,mu) negating the center.

    Type-1 copy j goes to type-2 copy j of the target and vice versa; since
    both block types share the same coordinate space, the per-block map is
    the identity, and the module block is a signed permutation.
    """
    prov = _sum_provenance(a)
    if (a.r - a.s) % 4 != 3:
        raise ValueError("block swap needs two module types: r - s = 3 mod 4")
    mu, nu = prov.mu, prov.nu
    target = build_sum(base_algebra(prov.base_r, prov.base_s), nu, mu)
    per = a.dim_module // (mu + nu)
    # type-1 source j -> target block nu + j; type-2 source q -> block q
    targets = [nu + j for j in range(mu)] + list(range(nu))
    image = tuple(t * per + i for t in targets for i in range(1, per + 1))
    module = SignedPermutationOp(image, (1,) * len(image))
    center = SignedPermutationOp.identity(a.dim_center).negate()
    return LieMorphism(a, target, module, center.matrix())


def sum_sbg(a: PseudoHTypeAlgebra) -> Certificate:
    """Strongly-bracket-generating decision for a direct sum: sbg_decision
    on the sum itself, its block counts written after the signature."""
    prov = _sum_provenance(a)
    cert = sbg_decision(a)
    return Certificate(cert.kind, {"signature": cert.payload["signature"],
                                   "sum": [prov.mu, prov.nu], **cert.payload})
