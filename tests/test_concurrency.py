"""Verifiers are pure and algebras immutable: concurrent use is safe."""

import contextvars
import sys
import threading
from concurrent.futures import ThreadPoolExecutor

import pseudoht.catalog as catalog
from pseudoht.algebra import (
    Verdict,
    j_operators,
    verify_admissible,
    verify_axioms,
    verify_clifford,
    verify_general_htype,
    verify_htype,
)
from pseudoht.catalog import BASE_IDS, _build_base, base_algebra, catalog_key
from pseudoht.extension import ExtensionStep, extend
from pseudoht.morphism import canonical_map
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


def test_threads_reading_a_fresh_extension_get_one_tensor():
    # the entries and the J table of an extension are made on first read
    # and stored on the shared tensor and algebra; threads that race to
    # make them must all see the same values and no missing attribute
    want = extend(_build_base(3, 2), ExtensionStep.BY_4_4)
    want_entries, want_ops = want.tensor.entries, j_operators(want)
    old = sys.getswitchinterval()
    sys.setswitchinterval(1e-6)
    try:
        for _round in range(20):
            ext = extend(_build_base(3, 2), ExtensionStep.BY_4_4)
            barrier = threading.Barrier(8, timeout=10)

            def read(i):
                barrier.wait()
                if i % 2:
                    return ext.tensor.entries
                return j_operators(ext)

            with ThreadPoolExecutor(max_workers=8) as pool:
                got = [f.result(timeout=30)
                       for f in [pool.submit(read, i) for i in range(8)]]
            assert got[1::2] == [want_entries] * 4
            assert got[0::2] == [want_ops] * 4
            assert ext.tensor._recipe is not None  # kept after the read
    finally:
        sys.setswitchinterval(old)


def test_threads_verifying_a_fresh_extension_get_equal_verdicts():
    # the axiom verdict is kept on the algebra; threads that race to make
    # it each run the verifiers or read the kept one, and all agree
    old = sys.getswitchinterval()
    sys.setswitchinterval(1e-6)
    try:
        for _round in range(10):
            ext = extend(_build_base(2, 3), ExtensionStep.BY_8_0)
            barrier = threading.Barrier(8, timeout=10)

            def check(_i):
                barrier.wait()
                return verify_axioms(ext)

            with ThreadPoolExecutor(max_workers=8) as pool:
                got = [f.result(timeout=30)
                       for f in [pool.submit(check, i) for i in range(8)]]
            assert got == [Verdict(True)] * 8
            assert verify_axioms(ext) in got
    finally:
        sys.setswitchinterval(old)


def test_threads_building_one_canonical_map_get_equal_maps():
    # in a fresh scope the threads race to build the shared algebras of
    # phi_(9,8) and the map kept on its source; either copy may be kept.
    # A worker starts in the process cache, where phi_(9,8) is built, so
    # each task runs in a copy of the scope's context
    want = canonical_map(9, 8)
    old = sys.getswitchinterval()
    sys.setswitchinterval(1e-6)
    try:
        for _round in range(3):
            barrier = threading.Barrier(8, timeout=10)

            def build(_i):
                barrier.wait()
                return canonical_map(9, 8)

            with catalog.scope(), ThreadPoolExecutor(max_workers=8) as pool:
                got = [f.result(timeout=60) for f in [
                    pool.submit(contextvars.copy_context().run, build, i)
                    for i in range(8)]]
                assert all(catalog_key(f.src) is not None for f in got)
                assert canonical_map(9, 8) in got
            assert got == [want] * 8
    finally:
        sys.setswitchinterval(old)


def test_threads_scanning_a_fresh_extension_get_equal_verdicts():
    # the general H-type verdict is kept on the algebra like the axioms'
    old = sys.getswitchinterval()
    sys.setswitchinterval(1e-6)
    try:
        for _round in range(2):
            ext = extend(_build_base(1, 0), ExtensionStep.BY_0_8)
            barrier = threading.Barrier(8, timeout=10)

            def check(_i):
                barrier.wait()
                return verify_general_htype(ext)

            with ThreadPoolExecutor(max_workers=8) as pool:
                got = [f.result(timeout=60)
                       for f in [pool.submit(check, i) for i in range(8)]]
            assert got == [Verdict(True)] * 8
            assert verify_general_htype(ext) in got
    finally:
        sys.setswitchinterval(old)
