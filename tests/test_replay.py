"""Kept state never changes an answer: the golden commands, replayed in
seeded random orders in one process, each replay under a fresh algebra
cache whose budget ranges from 16 module dimensions (nearly nothing is
stored, so most algebras are built anew) to the default.  Each replay runs
`verify-paper` twice, so where the cache keeps its algebras the second run
reports from the outcomes the first one kept.  Every exit code and stdout
sha256 must match tests/golden.json.
"""

import random

import pytest

import golden
import pseudoht.catalog as catalog

MANIFEST = golden.load()
VERIFY_PAPER = next(e for e in MANIFEST if e["argv"][0] == "verify-paper")
REPLAY_LENGTH = 200


@pytest.mark.parametrize("seed, budget", [(1, 16), (2, 64),
                                          (3, catalog.ALGEBRA_CACHE_DIM)])
def test_a_replay_in_any_order_gives_the_golden_outputs(monkeypatch, seed,
                                                        budget):
    monkeypatch.setattr(catalog, "_CACHE", catalog.AlgebraCache(budget))
    rng = random.Random(seed)
    order = rng.sample(MANIFEST, REPLAY_LENGTH)
    for _run in range(2):
        order.insert(rng.randrange(len(order) + 1), VERIFY_PAPER)
    mismatches = [" ".join(e["argv"]) for e in order
                  if golden.run(e["argv"]) != e]
    assert mismatches == []
