"""Verifiers are pure and algebras immutable: concurrent use is safe."""

from concurrent.futures import ThreadPoolExecutor

from pseudoht.algebra import verify_admissible, verify_clifford, verify_htype
from pseudoht.catalog import BASE_IDS, base_algebra
from pseudoht.obstruction import gram_det, sbg_decision


def test_shared_algebras_verify_concurrently():
    algebras = [base_algebra(*rs) for rs in BASE_IDS]

    def run(a):
        return (verify_clifford(a).ok and verify_admissible(a).ok
                and verify_htype(a).ok
                and sbg_decision(a).kind in ("SBG_YES", "SBG_NO"))

    with ThreadPoolExecutor(max_workers=8) as pool:
        results = list(pool.map(run, algebras * 3))
    assert all(results)


def test_concurrent_reads_of_one_algebra_agree():
    a = base_algebra(3, 2)
    x = [1, 2, 0, -1, 1, 0, 3, -2]
    with ThreadPoolExecutor(max_workers=8) as pool:
        dets = list(pool.map(lambda _i: gram_det(a, x), range(32)))
    assert len(set(dets)) == 1
