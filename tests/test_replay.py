"""Kept state never changes an answer: the golden commands, replayed in
seeded random orders in one process, each replay under a fresh algebra
cache whose budget ranges from 16 module dimensions (nearly nothing is
stored, so most algebras are built anew) to the default.  Each replay runs
`verify-paper` twice, so where the cache keeps its algebras the second run
reports from the outcomes the first one kept.  Every exit code and stdout
sha256 must match tests/golden.json, and every `check` and `sbg`
certificate is rechecked where it was made, with the outcome it has under
a fresh cache.
"""

import functools
import json
import random

import pytest

import golden
import pseudoht.catalog as catalog
from pseudoht.recheck import recheck_certificate

MANIFEST = golden.load()
VERIFY_PAPER = next(e for e in MANIFEST if e["argv"][0] == "verify-paper")
REPLAY_LENGTH = 200


def _recheck_outcome(text: str):
    """recheck_certificate(...).ok of a certificate's text, or the type of
    the exception it raises: the identity certificate's KeyError is a known
    defect, which a replay must neither mend nor spread."""
    try:
        return recheck_certificate(json.loads(text)).ok
    except Exception as exc:
        return type(exc).__name__


@functools.cache
def _fresh_outcome(text: str):
    """_recheck_outcome under a fresh algebra cache, which nothing kept."""
    with catalog.scope():
        return _recheck_outcome(text)


@pytest.mark.parametrize("seed, budget", [(1, 16), (2, 64),
                                          (3, catalog.ALGEBRA_CACHE_DIM)])
def test_a_replay_in_any_order_gives_the_golden_outputs(seed, budget):
    with catalog.scope(budget):
        rng = random.Random(seed)
        order = rng.sample(MANIFEST, REPLAY_LENGTH)
        for _run in range(2):
            order.insert(rng.randrange(len(order) + 1), VERIFY_PAPER)
        mismatches, rechecks = [], 0
        for e in order:
            argv = e["argv"]
            code, text = golden.output(argv)
            if golden.record(argv, code, text) != e:
                mismatches.append(" ".join(argv))
            elif argv[0] in ("check", "sbg") and text:
                rechecks += 1
                got, fresh = _recheck_outcome(text), _fresh_outcome(text)
                if got != fresh:
                    mismatches.append(f"{' '.join(argv)}: recheck {got}, "
                                      f"{fresh} under a fresh cache")
    assert mismatches == []
    assert rechecks > REPLAY_LENGTH // 2
