"""Tensor-product extensions n_{r,s} -> n_{r+8,s}, n_{r,s+8}, n_{r+4,s+4}.

Each extension tensors the module with a fixed 16-dimensional factor and
fills in structure constants case by case: brackets diagonal in the factor
index inherit the parent constant times a factor-dependent sign table, and
brackets diagonal in the parent index inherit the factor constant times the
parent metric sign.  extend() states this as an algebra.ExtensionRecipe:
the entries are made from it on their first read, and the J table from
the parent's and the factor's rows.  The new center is ordered
positive-first, and the flattened pair basis is stably split by sign so
the module metric reads (+...+, -...-); the permutation is recorded in the
provenance so canonical isomorphisms can keep speaking in pair
coordinates.  The steps and standard_chain are defined in catalog.
"""

from __future__ import annotations

from typing import Sequence

from .algebra import (
    ExtensionProvenance,
    ExtensionRecipe,
    PseudoHTypeAlgebra,
    SignedPermutationOp,
    StructureTensor,
    j_operators,
    require_module_budget,
)
from .catalog import (
    ExtensionStep,
    UnsupportedSignatureError,
    aligned_factor_0_8,
    base_algebra,
    shared_step,
    standard_chain,
)
from .core import Signature


def volume_involution(factor: PseudoHTypeAlgebra) -> SignedPermutationOp:
    """Product of all center operators J_1 ... J_n of a rank-8 factor.

    For the three 16-dimensional factors this is diagonal +-1 on the
    integral basis, squares to the identity and anticommutes with each J_k.
    """
    op, *rest = j_operators(factor)
    for jk in rest:
        op = op.compose(jk)
    return op


def _factor(step: ExtensionStep) -> PseudoHTypeAlgebra:
    if step is ExtensionStep.BY_8_0:
        return base_algebra(8, 0)
    if step is ExtensionStep.BY_0_8:
        return aligned_factor_0_8()
    return base_algebra(4, 4)


# Sign picked up by a parent structure constant when the factor indices are
# equal: the lemma case lists, organized as one +-1 per factor basis vector.
_PARENT_SIGN = {
    ExtensionStep.BY_8_0: tuple(-1 if j <= 8 else 1 for j in range(1, 17)),
    ExtensionStep.BY_0_8: (-1,) * 16,
    ExtensionStep.BY_4_4: tuple(
        1 if j in (2, 3, 4, 5, 13, 14, 15, 16) else -1 for j in range(1, 17)),
}

def _center_layout(step: ExtensionStep, r: int, s: int
                   ) -> tuple[Signature, tuple[int, ...], tuple[int, ...]]:
    """New signature plus final positions of parent and factor center vectors.

    Positive directions always come first: the factor block slots in right
    after the parent's positive part, except for the all-negative (0,8)
    factor whose block is appended at the end.
    """
    dr, ds = step.delta
    sig = Signature(r + dr, s + ds)
    if step is ExtensionStep.BY_0_8:
        return (sig, tuple(range(1, r + s + 1)),
                tuple(r + s + k for k in range(1, 9)))
    return (sig, tuple(k if k <= r else k + 8 for k in range(1, r + s + 1)),
            tuple(r + k for k in range(1, 9)))


def extend(a: PseudoHTypeAlgebra, step: ExtensionStep) -> PseudoHTypeAlgebra:
    """Extend an algebra by one Bott-periodicity step.

    The extension of a shared catalog algebra is shared too, under its
    parent's catalog key plus the step; any other parent gets a new one.
    """
    return shared_step(a, step.value, lambda: _extend(a, step))


def _extend(a: PseudoHTypeAlgebra, step: ExtensionStep) -> PseudoHTypeAlgebra:
    """extend(), built: the pair w_i (x) u_j has flat index 16(i-1) + (j-1),
    and the final basis lists the positive pairs, then the negative ones,
    each in flat order."""
    require_module_budget(16 * a.dim_module)
    factor = _factor(step)
    sig, parent_center, factor_center = _center_layout(step, a.r, a.s)

    signs = [p * q for p in a.module_signs for q in factor.module_signs]
    positive = [f for f, e in enumerate(signs) if e > 0]
    negative = [f for f, e in enumerate(signs) if e < 0]
    order = positive + negative
    metric = (1,) * len(positive) + (-1,) * len(negative)
    pair_to_final = [0] * len(order)
    for pos, f in enumerate(order, start=1):
        pair_to_final[f] = pos

    provenance = ExtensionProvenance(
        parent=a, step=step.value,
        pair_to_final=tuple(pair_to_final),
        parent_center_to_final=parent_center,
        factor_center_to_final=factor_center)
    tensor = StructureTensor.from_recipe(ExtensionRecipe(
        provenance, factor, _PARENT_SIGN[step], metric, sig))
    return PseudoHTypeAlgebra(
        center_sig=sig,
        module_signs=metric,
        tensor=tensor,
        provenance=provenance,
    )


def extension_chain(base_id: tuple[int, int],
                    steps: Sequence[ExtensionStep]) -> PseudoHTypeAlgebra:
    """Fold extend() over a step list starting from a catalog base."""
    algebra = base_algebra(*base_id)
    require_module_budget(algebra.dim_module * 16 ** len(steps))
    for step in steps:
        algebra = extend(algebra, step)
    return algebra


def standard_algebra(r: int, s: int) -> PseudoHTypeAlgebra:
    """The catalog algebra or its canonical extension chain for (r, s)."""
    chain = standard_chain(r, s)
    if chain is None:
        raise UnsupportedSignatureError(r, s, what="construction")
    base, steps = chain
    return extension_chain(base, steps)


def pair_index(a: PseudoHTypeAlgebra, i: int, j: int) -> int:
    """Final basis index of w_i (x) alpha_j in an extended algebra."""
    prov = a.provenance
    if not isinstance(prov, ExtensionProvenance):
        raise ValueError("algebra is not an extension")
    return prov.pair_to_final[16 * (i - 1) + j - 1]
