"""Lie algebra morphisms in block form and the canonical isomorphism family.

A morphism n -> n' is a block matrix (A 0 // B C): A acts on modules, C on
centers.  The lower-left block B maps the module into the center, which is
central, so it enters no bracket and no invertibility test and is not
stored.  The canonical isomorphisms between n_{r,s} and n_{s,r} are built
recursively: pinned base maps for the published low signatures, then
`_step_map`, the one tensor-step constructor.  It extends the source of a
smaller map by a step and the target by the mirror step ((8,0) and (0,8)
swap, (4,4) stays), twisting the 16-dimensional factor by the (4,4)
automorphism on a (4,4) step and by the identity otherwise.  phi_{r,8},
phi_{r+4,4}, phi_{r+8,s} and phi_{r+4,s+4} are all this step.  Every
morphism is integral: both blocks are signed permutations, and a block of
any other form is refused.  Verification never trusts the construction:
it checks the conjugation relation A^tau J_Z A = J_{C^tau Z}, which is
the homomorphism property read through the scalar products, on signed
indices.
"""

from __future__ import annotations

import operator
from typing import NamedTuple, Optional, Union

from .algebra import (
    PseudoHTypeAlgebra,
    SignedPermutationOp,
    Verdict,
    derived_value,
    j_operator,  # perfbench's self-test reads morphism.j_operator
    signed_lookups,
    signed_row,
)
from .catalog import base_algebra, catalog_key, min_module_dim
from .core import ExactMatrix, Frozen, MapClass, Signature
from .extension import (
    ExtensionStep,
    UnsupportedSignatureError,
    extend,
)


class LieMorphism(Frozen):
    """The blocks A (modules) and C (centers) of a morphism src -> dst,
    both signed permutations, each given as a SignedPermutationOp or a
    dense ExactMatrix, which is recognized once, here; a block of any
    other form raises ValueError.  A is held as its op.  C's op is kept
    beside the fields, unseen by ==, hash, repr and JSON, for the readers
    of its signs; the field C stays dense, as perfbench's coverage check
    counts it as core.from_rows work (ROADMAP item 1, step A1)."""

    src: PseudoHTypeAlgebra
    dst: PseudoHTypeAlgebra
    A: SignedPermutationOp
    C: ExactMatrix

    def __init__(self, src: PseudoHTypeAlgebra, dst: PseudoHTypeAlgebra,
                 A: Union[SignedPermutationOp, ExactMatrix],
                 C: Union[SignedPermutationOp, ExactMatrix]):
        a_op = _signed(A, (dst.dim_module, src.dim_module), "module")
        c_op = _signed(C, (dst.dim_center, src.dim_center), "center")
        self.__dict__.update(src=src, dst=dst, A=a_op,
                             C=c_op.matrix() if c_op is C else C, _c_op=c_op)


def _signed(block: Union[SignedPermutationOp, ExactMatrix],
            shape: tuple[int, int], what: str) -> SignedPermutationOp:
    """block as its op, a dense one recognized; else ValueError."""
    dense = isinstance(block, ExactMatrix)
    if ((block.rows, block.cols) if dense else (block.dim,) * 2) != shape:
        raise ValueError(f"{what} block shape mismatch")
    op = SignedPermutationOp.from_matrix(block) if dense else block
    if op is None:
        raise ValueError(f"{what} block is not a signed permutation")
    return op


class MorphismClass(NamedTuple):
    center_action: MapClass
    integral: bool


def classify_morphism(f: LieMorphism) -> MorphismClass:
    """The center action read off C's signs: C sends Z_j to +-Z_b, so it
    is an isometry exactly when eps_dst[b] eps_src[j] = +1 for every j,
    and an anti-isometry when that product is -1 for every j.  Every
    morphism is integral."""
    gz_dst = f.dst.center_sig.signs()
    products = {gz_dst[b - 1] * e
                for b, e in zip(f._c_op.image, f.src.center_sig.signs())}
    if products <= {1}:
        action = MapClass.ISOMETRY
    elif products == {-1}:
        action = MapClass.ANTI_ISOMETRY
    else:
        action = MapClass.NEITHER
    return MorphismClass(center_action=action, integral=True)


def _relation_defect(f: LieMorphism) -> Optional[tuple[int, int, int]]:
    """First (k, alpha, beta) with A^tau J_{Z_k} A v_alpha and
    J_{C^tau Z_k} v_alpha differing in coordinate beta, or None.

    The adjoints are taken with respect to the module and center scalar
    products, so A^tau = G_src A^T G_dst and likewise for C.  Pairing with
    v_beta through <J_Z x, y> = <Z, [x, y]> turns that coordinate into the
    Z_k coordinate of [A v_alpha, A v_beta] - C [v_alpha, v_beta]: the
    relation holds exactly when f preserves brackets, and a defect has
    beta != alpha.

    Both sides send v_alpha to one signed basis vector, so for each k
    they are signed-index lists (see signed_row), compared whole: the
    left side composes A, J_{Z_k} of dst and A^tau, the right side is
    J_{Z_m} of src times the sign e of C^tau Z_k = e Z_m, a slice of its
    row.  Where the images +-v_p and +-v_q of v_alpha differ, the first
    coordinate that differs is min(p, q), which is p when p = q.
    """
    src, dst, a_op = f.src, f.dst, f.A
    g_src, g_dst = src.module_signs, dst.module_signs
    gz_src, gz_dst = src.center_sig.signs(), dst.center_sig.signs()
    n = src.dim_module
    tau = [0] * n
    for alpha, (b, s) in enumerate(zip(a_op.image, a_op.sign), start=1):
        tau[b - 1] = g_dst[b - 1] * s * g_src[alpha - 1] * alpha
    a_tau = signed_row(tau)
    src_rows, dst_rows = signed_lookups(src), signed_lookups(dst)
    if not n:  # an empty module: both sides are empty for every k
        return None
    # a J row read at every A v_alpha by one gather; a J row on a nonempty
    # module is a fixed-point-free involution, so n >= 2 where there is one
    # and itemgetter gives a tuple
    at_a_fwd = operator.itemgetter(*map(operator.mul, a_op.sign, a_op.image))
    # C^T Z_k = c Z_m
    c_inv = f._c_op.inverse()
    for k, (jk, m, c) in enumerate(zip(dst_rows, c_inv.image, c_inv.sign),
                                   start=1):
        got = list(map(a_tau.__getitem__, at_a_fwd(jk)))
        row = src_rows[m - 1]
        e = gz_src[m - 1] * c * gz_dst[k - 1]
        want = (row[1:n + 1] if e > 0 else row[:n:-1]).tolist()
        if got != want:
            alpha = next(i for i, (p, q) in enumerate(zip(got, want), start=1)
                         if p != q)
            return k, alpha, min(abs(got[alpha - 1]), abs(want[alpha - 1]))
    return None


def verify_homomorphism(f: LieMorphism) -> Verdict:
    """C([x,y]) = [Ax, Ay] for all x, y: the conjugation relation read
    through the scalar products; a failure names a basis pair."""
    defect = _relation_defect(f)
    if defect is None:
        return Verdict(True)
    _k, alpha, beta = defect
    return Verdict(False, (min(alpha, beta), max(alpha, beta)),
                   "bracket not preserved on this basis pair")


def verify_conjugation(f: LieMorphism) -> Verdict:
    """A^tau J_Z A = J_{C^tau Z} for every center basis vector Z of dst."""
    defect = _relation_defect(f)
    if defect is None:
        return Verdict(True)
    return Verdict(False, defect[:2],
                   "conjugation relation fails at this center index")


def normalize_isomorphism(f: LieMorphism) -> tuple[LieMorphism, int]:
    """f and the sign t with C C^tau = t * Id.

    A signed-permutation A has |det(A^tau A)| = 1, so f is already
    normalized and is returned as it is.  C C^tau = C G_src C^T G_dst is
    t * Id exactly when C^T G_dst C = t * G_src, so t is +1 for an
    isometry and -1 for an anti-isometry of the center, as
    classify_morphism finds it; any other center block raises ValueError.
    """
    t = {MapClass.ISOMETRY: 1, MapClass.ANTI_ISOMETRY: -1}.get(
        classify_morphism(f).center_action)
    if t is None:
        raise ValueError("C C^tau is not +-identity")
    return f, t


# ---------------------------------------------------------------------------
# canonical isomorphisms
# ---------------------------------------------------------------------------

class CanonicalMap(Frozen):
    """Integral morphism in signed-permutation form: module and center are
    signed permutations, and every center sign is +1."""

    src: PseudoHTypeAlgebra
    dst: PseudoHTypeAlgebra
    module: SignedPermutationOp
    center: SignedPermutationOp

    def __init__(self, src: PseudoHTypeAlgebra, dst: PseudoHTypeAlgebra,
                 module: SignedPermutationOp, center: SignedPermutationOp):
        self.__dict__.update(src=src, dst=dst, module=module, center=center)

    def to_morphism(self) -> LieMorphism:
        """The map as a new LieMorphism on every call; verified_morphism
        keeps one per map."""
        return LieMorphism(self.src, self.dst, self.module, self.center)

    def inverse(self) -> "CanonicalMap":
        return CanonicalMap(self.dst, self.src, self.module.inverse(),
                            self.center.inverse())


def verified_morphism(cmap: CanonicalMap) -> tuple[LieMorphism, Verdict]:
    """cmap.to_morphism() and its verify_conjugation verdict, kept together
    on cmap, so a map is related once for as long as it is kept.  A new
    map, a _replace copy among them, is related afresh."""
    def build(m: CanonicalMap) -> tuple[LieMorphism, Verdict]:
        f = m.to_morphism()
        return f, verify_conjugation(f)

    return derived_value(cmap, "_verified_morphism", build)


def _kept_map(src: PseudoHTypeAlgebra, build) -> CanonicalMap:
    """build(src), the forward canonical map out of src, kept on src when
    the cache shares src.

    Each algebra is the source of at most one forward map, so a shared
    source keeps its map for as long as the cache keeps it, and the map
    keeps its destination alive with it.  A source the cache does not
    share (above its cap, or private) gets a new map on every call, and
    nothing ties the two into a reference cycle.
    """
    if catalog_key(src) is None:
        return build(src)
    return derived_value(src, "_canonical_map", build)


def _base_definite_map(r: int) -> CanonicalMap:
    """The published integral isomorphisms n_{r,0} -> n_{0,r}, r = 1,2,4,8."""
    flips = {4: range(2, 5), 8: range(2, 9)}.get(r, ())

    def build(src: PseudoHTypeAlgebra) -> CanonicalMap:
        module = [-a if a in flips else a
                  for a in range(1, src.dim_module + 1)]
        return CanonicalMap(src, base_algebra(0, r),
                            SignedPermutationOp.from_signed(module),
                            SignedPermutationOp.identity(r))

    return _kept_map(base_algebra(r, 0), build)


# The published automorphisms of n_{r,r}, r = 1, 2, 4, in signed-index form
# (module, center): entry a is t when v_a goes to sign(t) * v_|t|.
_AUTOMORPHISMS = {
    1: ((1, 3, 2, 4), (2, 1)),
    2: ((1, 5, 6, 4, 2, 3, 7, 8), (3, 4, 1, 2)),
    4: ((1, 9, 10, 12, 11, 6, 7, -8, 2, 3, 5, 4, 13, 14, -15, 16),
        (5, 6, 8, 7, 1, 2, 4, 3)),
}


def _automorphism(r: int) -> CanonicalMap:
    module, center = _AUTOMORPHISMS[r]
    return _kept_map(base_algebra(r, r), lambda a: CanonicalMap(
        a, a, SignedPermutationOp.from_signed(module),
        SignedPermutationOp.from_signed(center)))


# The target side of a tensor step: (8,0) and (0,8) swap, (4,4) stays.
_MIRROR = {ExtensionStep.BY_8_0: ExtensionStep.BY_0_8,
           ExtensionStep.BY_0_8: ExtensionStep.BY_8_0,
           ExtensionStep.BY_4_4: ExtensionStep.BY_4_4}


def _step_map(sub: CanonicalMap, step: ExtensionStep) -> CanonicalMap:
    """One tensor induction step applied to a canonical map.

    Extends the source by `step` and the target by its mirror, and sends
    x_i (x) u_a to +-(phi(x_i) (x) phi_f(u_a)).  The factor map phi_f is
    the (4,4) automorphism on a (4,4) step and the identity otherwise.  The
    extra minus appears exactly when x_i lies in the B part of the source
    parent and u_a in the B part of the source factor.  Center indices
    follow the parent and factor permutations through the recorded
    extension layouts.  The map is kept on its source (_kept_map).
    """
    return _kept_map(extend(sub.src, step),
                     lambda src: _build_step_map(sub, step, src))


def _build_step_map(sub: CanonicalMap, step: ExtensionStep,
                    src: PseudoHTypeAlgebra) -> CanonicalMap:
    """_step_map(sub, step), whose source extend(sub.src, step) is src."""
    dst = extend(sub.dst, _MIRROR[step])
    sprov = src.provenance
    dprov = dst.provenance
    if step is ExtensionStep.BY_4_4:
        twist = _automorphism(4)
        f_module, f_center = twist.module, twist.center
    else:
        f_module = SignedPermutationOp.identity(16)
        f_center = SignedPermutationOp.identity(8)
    b_factor = base_algebra(*step.delta).blocks.b_side
    b_parent = sub.src.blocks.b_side if sub.src.blocks else frozenset()

    module = [0] * src.dim_module
    for i, (pi, psign) in enumerate(zip(sub.module.image, sub.module.sign),
                                    start=1):
        in_b_parent = i in b_parent
        for j, (fj, fsign) in enumerate(zip(f_module.image, f_module.sign),
                                        start=1):
            src_idx = sprov.pair_to_final[16 * (i - 1) + j - 1]
            dst_idx = dprov.pair_to_final[16 * (pi - 1) + fj - 1]
            tau = -1 if (in_b_parent and j in b_factor) else 1
            module[src_idx - 1] = tau * psign * fsign * dst_idx

    center = [0] * src.dim_center
    for k, k2 in enumerate(sub.center.image, start=1):
        pos = sprov.parent_center_to_final[k - 1]
        center[pos - 1] = dprov.parent_center_to_final[k2 - 1]
    for kf, kf2 in enumerate(f_center.image, start=1):
        pos = sprov.factor_center_to_final[kf - 1]
        center[pos - 1] = dprov.factor_center_to_final[kf2 - 1]
    return CanonicalMap(src, dst, SignedPermutationOp.from_signed(module),
                        SignedPermutationOp.from_signed(center))


def _map_definite(r: int) -> Optional[CanonicalMap]:
    """phi_{r,0}: n_{r,0} -> n_{0,r} for r = 0,1,2,4 mod 8 (r >= 1)."""
    if r in (1, 2, 4, 8):
        return _base_definite_map(r)
    if r > 8 and r % 8 in (0, 1, 2, 4):
        sub = _map_definite(r - 8)
        if sub is not None:
            return _step_map(sub, ExtensionStep.BY_8_0)
    return None


def _forward_map(r: int, s: int) -> Optional[CanonicalMap]:
    """phi_{r,s} when the families build it from n_{r,s}'s side."""
    if r < 0 or s < 0 or (r, s) == (0, 0):
        return None
    if s == 0:
        return _map_definite(r)
    if r == s and r in _AUTOMORPHISMS:
        return _automorphism(r)
    # phi_{r,8} and phi_{r+4,4}: one step on top of a definite base map
    for step in (ExtensionStep.BY_0_8, ExtensionStep.BY_4_4):
        dr, ds = step.delta
        if s == ds:
            base = _map_definite(r - dr)
            if base is not None:
                return _step_map(base, step)
    # phi_{r+8,s} and phi_{r+4,s+4}: one step on top of a smaller map
    for step in (ExtensionStep.BY_8_0, ExtensionStep.BY_4_4):
        dr, ds = step.delta
        if r > dr and s > ds:
            sub = canonical_map(r - dr, s - ds)
            if sub is not None and sub.src.blocks is not None:
                return _step_map(sub, step)
    return None


def canonical_map(r: int, s: int) -> Optional[CanonicalMap]:
    """phi_{r,s}: n_{r,s} -> n_{s,r} in signed-permutation form, built
    forward or as the inverse of phi_{s,r}; None outside the families.

    A forward map is kept on its source algebra and an inverse on the
    forward map, so a shared source gives one object per process."""
    fwd = _forward_map(r, s)
    if fwd is not None:
        return fwd
    rev = _forward_map(s, r)
    if rev is None:
        return None
    return derived_value(rev, "_inverse", CanonicalMap.inverse)


def canonical_isomorphism(r: int, s: int) -> Optional[LieMorphism]:
    """The published isomorphism n_{r,s} -> n_{s,r}, when one is constructed.

    None means the pair lies outside the constructible families; that is
    never a non-isomorphism claim.
    """
    cmap = canonical_map(r, s)
    return cmap.to_morphism() if cmap is not None else None


def remark_isom_class_check(cmap: CanonicalMap) -> Verdict:
    """Check the structural constraints on a swap isomorphism's class.

    The map must send A-parts to A-parts and B-parts to the opposite-sign
    B-parts, and restrict to an anti-isometric permutation of the center
    whose positive block lands on the negative one and vice versa.
    """
    src_b, dst_b = cmap.src.blocks, cmap.dst.blocks
    if src_b is None or dst_b is None:
        return Verdict(False, None, "missing canonical block sets")

    def img(part: frozenset[int]) -> frozenset[int]:
        return frozenset(cmap.module.image[a - 1] for a in part)

    pairs = [(img(src_b.a_plus), dst_b.a_plus), (img(src_b.a_minus), dst_b.a_minus),
             (img(src_b.b_plus), dst_b.b_minus), (img(src_b.b_minus), dst_b.b_plus)]
    for got, want in pairs:
        if got != want:
            return Verdict(False, (sorted(got), sorted(want)),
                           "block sets are not mapped as required")
    r, s = cmap.src.r, cmap.src.s
    want_pos = set(range(s + 1, s + r + 1))
    want_neg = set(range(1, s + 1))
    got_pos = set(cmap.center.image[:r])
    got_neg = set(cmap.center.image[r:])
    if got_pos != want_pos or got_neg != want_neg:
        return Verdict(False, (sorted(got_pos), sorted(got_neg)),
                       "center permutation does not swap the sign blocks")
    return Verdict(True)


def center_signature_obstruction(src_sig: Signature, dst_sig: Signature,
                                 anti_only: bool = False
                                 ) -> Optional[tuple[str, str]]:
    """The answer the center signatures settle alone, as (kind, reason), or
    None when the question stays open.

    NOT_ISO_DIM: the center dimensions or the minimal module dimensions
    differ.  NOT_ISO_SIGNATURE: dst is neither src nor its swap, or
    anti_only asks for an anti-isometric center block and dst is not the
    swap (Sylvester's law of inertia: an anti-isometry of an (r, s) center
    lands on (s, r), so an automorphism has one only when r = s).  ISO: dst
    is src and any center action will do, so the identity answers.
    """
    try:
        dim_src = min_module_dim(src_sig.pos, src_sig.neg)
        dim_dst = min_module_dim(dst_sig.pos, dst_sig.neg)
    except UnsupportedSignatureError:
        dim_src = dim_dst = None
    if src_sig.dim != dst_sig.dim:
        return "NOT_ISO_DIM", (f"center dimensions differ: "
                               f"{src_sig.dim} vs {dst_sig.dim}")
    if dim_src is not None and dim_src != dim_dst:
        return "NOT_ISO_DIM", (f"minimal module dimensions differ: "
                               f"{dim_src} vs {dim_dst}")
    swap = Signature(src_sig.neg, src_sig.pos)
    if dst_sig not in (src_sig, swap):
        return "NOT_ISO_SIGNATURE", (f"center signature {dst_sig} is neither "
                                     f"{src_sig} nor its swap")
    if anti_only and dst_sig != swap:
        return "NOT_ISO_SIGNATURE", (f"by Sylvester's law of inertia an "
                                     f"anti-isometry of {src_sig} lands on "
                                     f"{swap}, not on {dst_sig}")
    if dst_sig == src_sig and not anti_only:
        return "ISO", "identity automorphism"
    return None


def _signed_block(op: SignedPermutationOp) -> dict:
    """A block as {"image", "sign"}: column a holds sign[a] in row
    image[a], both 1-based."""
    return {"image": list(op.image), "sign": list(op.sign)}


def morphism_to_dict(f: LieMorphism) -> dict:
    """The JSON form: both blocks are signed permutations and are written
    alike, A and C each as {"image", "sign"}.  Certificates written before
    C took this form hold it as dense rows of integers; recheck reads
    both."""
    cls = classify_morphism(f)
    return {
        "src": {"r": f.src.r, "s": f.src.s,
                "provenance": f.src.provenance.json_dict()},
        "dst": {"r": f.dst.r, "s": f.dst.s,
                "provenance": f.dst.provenance.json_dict()},
        "A": _signed_block(f.A),
        "C": _signed_block(f._c_op),
        "class": {"center_action": cls.center_action.value,
                  "integral": cls.integral},
    }
