"""Seeded workload generation and ground-truth expectations.

Stdlib only, and it never imports pseudoht: the program under test sees
nothing but the argv lists generated here.  Every expectation is derived
from the paper's results (canonical isomorphisms, parity refutations, the
definite/indefinite SBG dichotomy, Bott-periodic module dimensions), not
from a run of the program.

A run is a sequence of rounds.  Every round of a workload has the same
composition (the seed only shuffles the order and picks among equal-cost
alternatives), so percentiles and rates compare across seeds and commits.
"""

from __future__ import annotations

import itertools
import random
from dataclasses import dataclass, field
from typing import Iterator, Optional

WORKLOADS = ("iso-roundtrip", "refute-sbg", "paper-suite", "construct")

# Module dimension of each published base table (the number of rows of its
# commutator table).
BASE_DIMS = {
    (1, 0): 2, (0, 1): 2, (2, 0): 4, (0, 2): 4, (4, 0): 8, (0, 4): 8,
    (8, 0): 16, (0, 8): 16, (1, 1): 4, (2, 2): 8, (3, 2): 8, (2, 3): 8,
    (3, 3): 8, (4, 4): 16,
}
STEPS = {"8,0": (8, 0), "0,8": (0, 8), "4,4": (4, 4)}
# Each Bott-periodicity step tensors the module with a 16-dimensional factor.
STEP_FACTOR = 16

# Minimal admissible module dimensions of the signatures used below.
MODULE_DIMS = {
    (0, 1): 2, (0, 2): 4, (0, 4): 8, (0, 8): 16, (0, 9): 32, (0, 10): 64,
    (0, 12): 128, (1, 0): 2, (1, 1): 4, (1, 8): 32, (1, 9): 64, (2, 0): 4,
    (2, 2): 8, (2, 3): 8, (2, 8): 64, (2, 10): 128, (2, 11): 128, (3, 0): 4,
    (0, 3): 8, (3, 2): 8, (3, 3): 8, (3, 10): 128, (3, 11): 128, (4, 0): 8,
    (4, 4): 16, (4, 5): 32, (4, 6): 64, (4, 8): 128, (5, 4): 32, (5, 5): 64,
    (6, 4): 64, (6, 6): 128, (6, 7): 128, (7, 6): 128, (7, 7): 128,
    (8, 0): 16, (8, 1): 32, (8, 2): 64, (8, 4): 128, (8, 8): 256,
    (8, 9): 512, (9, 0): 32, (9, 1): 64, (9, 8): 512, (10, 0): 64,
    (10, 2): 128, (10, 3): 128, (11, 2): 128, (11, 3): 128, (12, 0): 128,
    (12, 4): 256, (16, 0): 256, (17, 0): 512,
}

KNOWN_DEFECT_IDENTITY = (
    "identity ISO certificate carries no morphism; recheck raises "
    "KeyError: 'morphism' (ROADMAP item 4)")
KNOWN_DEFECT_CSV = (
    "the CSV header cell [r,c] is not quoted, so the header row has one "
    "field more than every data row")


@dataclass(frozen=True)
class Op:
    """One request: the argv handed to ``pseudoht.cli.main`` plus what the
    paper says its outcome must be."""

    argv: tuple[str, ...]
    check: str                      # "cert", "build", "table" or "paper"
    dim: Optional[int] = None       # module dimension the request touches
    kinds: Optional[frozenset[str]] = None   # allowed certificate kinds
    expect: dict = field(default_factory=dict, compare=False)
    known_defect: Optional[str] = None


def exit_for_kind(kind: str) -> int:
    """Exit code the CLI documents for a certificate kind."""
    if kind == "ISO" or kind.startswith("SBG_"):
        return 0
    if kind.startswith("NOT_ISO"):
        return 1
    return 2


def _check(r1, s1, r2, s2, kinds, cli_seed, anti=False,
           known_defect=None) -> Op:
    argv = ["check", str(r1), str(s1), str(r2), str(s2)]
    if anti:
        argv.append("--anti")
    argv += ["--seed", str(cli_seed)]
    return Op(tuple(argv), "cert", dim=MODULE_DIMS.get((r1, s1)),
              kinds=frozenset(kinds), known_defect=known_defect)


def _sbg(r, s, cli_seed, total_dim=None, sum_counts=None) -> Op:
    argv = ["sbg", str(r), str(s)]
    if sum_counts:
        argv += ["--sum", str(sum_counts[0]), str(sum_counts[1])]
    argv += ["--seed", str(cli_seed)]
    # definite center: every J_Z is invertible, so every ad_v is onto (SBG);
    # indefinite center: a null Z0 has nilpotent J_Z0, a witness exists.
    kind = "SBG_YES" if r == 0 or s == 0 else "SBG_NO"
    dim = total_dim if total_dim is not None else MODULE_DIMS[(r, s)]
    return Op(tuple(argv), "cert", dim=dim, kinds=frozenset({kind}))


# --- iso-roundtrip ----------------------------------------------------------

# (pair, copies per round); every pair (r,s) -> (s,r) is a canonical
# isomorphism of the paper's constructible families.
# Sorted by latency a round is 10 identity requests (about 2 ms, they fail
# at the recheck), 24 of dim 32, 48 of dim 64, 16 of dim 128 and 3 bigger
# ones.  The median (op 51 of 101) lies 16 ops inside the dim-64 cluster
# and p90 (op 91) 8 ops inside the dim-128 one, away from a cluster edge,
# so that neither jumps between clusters from run to run.
ISO_PAIRS = (((1, 8), 12), ((8, 1), 12), ((9, 1), 16), ((10, 0), 16),
             ((10, 2), 8), ((8, 4), 8), ((12, 4), 1), ((16, 0), 1))
ANTI_PER_ROUND = 16
ISO_HEAVY = ((9, 8), (8, 9), (17, 0))       # dim 512, one per round
IDENTITY_SIGS = ((1, 1), (2, 2), (3, 3), (4, 4), (8, 8), (5, 5), (9, 1))
IDENTITY_PER_ROUND = 10


def iso_round(rng: random.Random, index: int) -> list[Op]:
    # An ISO certificate does not depend on --seed, so every request passes
    # --seed 0 and signatures repeat as they would for a caching client.
    ops = []
    for (r, s), copies in ISO_PAIRS:
        ops += [_check(r, s, s, r, {"ISO"}, 0) for _ in range(copies)]
    r, s = ISO_HEAVY[index % len(ISO_HEAVY)]
    ops.append(_check(r, s, s, r, {"ISO"}, 0))
    # the anti-isometric automorphism of n_{5,5} ((1,1) extended by (4,4))
    ops += [_check(5, 5, 5, 5, {"ISO"}, 0, anti=True)
            for _ in range(ANTI_PER_ROUND)]
    for _ in range(IDENTITY_PER_ROUND):
        r, s = rng.choice(IDENTITY_SIGS)
        ops.append(_check(r, s, r, s, {"ISO"}, 0,
                          known_defect=KNOWN_DEFECT_IDENTITY))
    rng.shuffle(ops)
    return ops


# --- refute-sbg -------------------------------------------------------------

PARITY = (((3, 2, 2, 3), False), ((2, 3, 3, 2), False), ((3, 3, 3, 3), True))
# pairs the paper leaves open: the parity precondition fails there
OPEN = (((11, 2, 2, 11), False), ((7, 6, 6, 7), False),
        ((7, 7, 7, 7), True), ((11, 3, 3, 11), False))
OPEN_KINDS = frozenset({"ISO", "NOT_ISO_DIM", "NOT_ISO_SIGNATURE",
                        "NOT_ISO_PARITY", "INCONCLUSIVE"})
SBG_LIGHT = ((8, 0), (0, 9), (3, 2), (11, 2))
SBG_HEAVY = ((16, 0), (9, 8))
SBG_SUMS = (((2, 3), (2, 1)), ((0, 1), (3, 2)))
OPEN_COPIES = 12


def refute_round(rng: random.Random, index: int) -> list[Op]:
    # --seed k on the k-th copy: the scan and the SBG samples, and so the
    # work, are the same in every round.  Sorted by latency a round is 13
    # ops under 6 ms (obstructions, sbg 3 2, sums), 3 x sbg 8 0 (14 ms),
    # 48 open pairs (17-18 ms), 6 SBG requests of 36-57 ms, 6 parity
    # refutations (0.34 s), 3 anti parity refutations (0.385 s) and the two
    # heavy SBG requests: the median lies in the middle of the open pairs
    # and p90 inside the six parity refutations, away from a cluster edge.
    ops = []
    for k in range(3):
        ops += [_check(*p, {"NOT_ISO_PARITY"}, k, anti=anti)
                for p, anti in PARITY]
        ops += [_sbg(r, s, k) for r, s in SBG_LIGHT]
        # different center dimensions, then equal center and minimal module
        # dimension but a non-candidate signature
        ops.append(_check(3, 0, 0, 3, {"NOT_ISO_DIM"}, k))
        ops.append(_check(2, 0, 1, 1, {"NOT_ISO_SIGNATURE"}, k))
    for k in range(OPEN_COPIES):
        ops += [_check(*p, OPEN_KINDS, k, anti=anti) for p, anti in OPEN]
    ops += [_sbg(r, s, 0) for r, s in SBG_HEAVY]
    for k in range(2):
        ops += [_sbg(*base, k, total_dim=BASE_DIMS[base] * sum(counts),
                     sum_counts=counts) for base, counts in SBG_SUMS]
    rng.shuffle(ops)
    return ops


# --- paper-suite ------------------------------------------------------------

PAPER_FAILING = frozenset({7})      # the documented criterion-7 ledger entry
PAPER_CRITERIA = range(1, 9)


def paper_round(rng: random.Random, index: int) -> list[Op]:
    return [Op(("verify-paper", "--seed", str(rng.randrange(10 ** 6))),
               "paper")]


# --- construct --------------------------------------------------------------

def _build_ops() -> list[Op]:
    ops = []
    for base in sorted(BASE_DIMS):
        for n in range(3):
            for chain in itertools.product(sorted(STEPS), repeat=n):
                r = base[0] + sum(STEPS[c][0] for c in chain)
                s = base[1] + sum(STEPS[c][1] for c in chain)
                dim = BASE_DIMS[base] * STEP_FACTOR ** n
                argv = ("build", str(base[0]), str(base[1]))
                if chain:
                    argv += ("--extend",) + chain
                ops.append(Op(argv, "build", dim=dim, expect={
                    "r": r, "s": s, "dim_v": dim, "cost": dim * (r + s),
                    "provenance": "extended" if chain else "base"}))
    for base in sorted(BASE_DIMS):
        # two module types exist only for r - s = 3 mod 4
        two_types = (base[0] - base[1]) % 4 == 3
        for mu, nu in itertools.product(range(4), range(4 if two_types else 1)):
            if mu + nu == 0:
                continue
            dim = BASE_DIMS[base] * (mu + nu)
            ops.append(Op(("build", str(base[0]), str(base[1]), "--sum",
                           str(mu), str(nu)), "build", dim=dim, expect={
                "r": base[0], "s": base[1], "dim_v": dim,
                "cost": dim * sum(base), "provenance": "sum",
                "blocks": [{"type": 1, "count": mu},
                           {"type": 2, "count": nu}]}))
    for (r, s), dim in sorted(MODULE_DIMS.items()):
        if dim > 128 or (r, s) in ((3, 0), (0, 3)):
            continue
        for fmt in ("md", "csv"):
            ops.append(Op(("table", str(r), str(s), "--format", fmt), "table",
                          dim=dim, expect={"dim_v": dim, "format": fmt,
                                          "cost": dim * dim},
                          known_defect=KNOWN_DEFECT_CSV if fmt == "csv"
                          else None))
    return ops


CONSTRUCT_POOL = tuple(_build_ops())
HEAVY_DIM = 2048
HEAVY_GROUP = 7


def _split(ops: list[Op], size: int) -> list[list[Op]]:
    """Cost-ordered ops cut into len(ops) // size groups of >= size."""
    ranked = sorted(ops, key=lambda op: (op.expect["cost"], op.argv))
    n = max(1, len(ranked) // size)
    return [ranked[i * len(ranked) // n:(i + 1) * len(ranked) // n]
            for i in range(n)]


def construct_rounds(rng: random.Random) -> Iterator[list[Op]]:
    """A single round: every request below dim 2048, and one build of dim
    2048-4096 drawn from each group of similar cost, in seeded order.

    The big builds take 55 s all together, so a run samples them; the
    grouping keeps the sample's cost and size nearly the same for every
    seed.  Nothing repeats, and there is no second round.
    """
    light = [op for op in CONSTRUCT_POOL if op.dim < HEAVY_DIM]
    heavy = [op for op in CONSTRUCT_POOL if op.dim >= HEAVY_DIM]
    ops = light + [rng.choice(group) for group in _split(heavy, HEAVY_GROUP)]
    rng.shuffle(ops)
    yield ops


# --- entry point ------------------------------------------------------------

# Smallest op count per timed run, so that p90 has ten samples beyond it.
MIN_OPS = {"iso-roundtrip": 100, "refute-sbg": 100, "construct": 100,
           "paper-suite": 1}
_ROUNDS = {"iso-roundtrip": iso_round, "refute-sbg": refute_round,
           "paper-suite": paper_round}


def rounds(workload: str, seed: int) -> Iterator[list[Op]]:
    """The seeded, possibly finite stream of rounds of one workload."""
    if workload not in WORKLOADS:
        raise ValueError(f"unknown workload {workload!r}")
    rng = random.Random(f"{workload}:{seed}")
    if workload == "construct":
        yield from construct_rounds(rng)
        return
    make = _ROUNDS[workload]
    for index in itertools.count():
        yield make(rng, index)
