"""The per-process algebra cache: which algebras it shares, and its bounds.

base_algebra, and extend and build_sum on a shared parent, and so
extension_chain, standard_algebra, the canonical maps and
rebuild_from_provenance, share one object per catalog key (base table id
plus extension or sum steps).  Every
shared algebra must print exactly as a private build of the same chain,
certificates must not depend on what the cache holds, and the cache must
stay inside its module-dimension budget, also under threads.
"""

import contextvars
import itertools
import json
from concurrent.futures import ThreadPoolExecutor

import pytest

import pseudoht.algebra as algebra
import pseudoht.catalog as catalog
from pseudoht import cli
from pseudoht.algebra import (
    Verdict,
    algebra_from_json,
    algebra_json,
    verify_axioms,
)
from pseudoht.catalog import (
    ALGEBRA_CACHE_DIM,
    BASE_IDS,
    MAX_MODULE_DIM,
    AlgebraCache,
    aligned_factor_0_8,
    base_algebra,
    catalog_key,
)
from pseudoht.extension import (
    ExtensionStep,
    extend,
    extension_chain,
    standard_algebra,
    standard_chain,
)
from pseudoht.jsonout import dumps
from pseudoht.obstruction import check_pair
from pseudoht.recheck import recheck_certificate
from pseudoht.sums import build_sum, sum_sbg, swap_isomorphism


def _private_chain(base, steps):
    """The chain built from a private base, so that nothing is shared."""
    a = catalog._build_base(*base)
    for step in steps:
        a = extend(a, step)
    return a


def _check_bounds(cache: AlgebraCache) -> None:
    stored = list(cache._algebras.items())
    assert cache.total == sum(a.dim_module for _key, a in stored)
    assert cache.total <= cache.budget
    assert all(a.dim_module <= cache.cap for _key, a in stored)
    assert cache._keys == {id(a): key for key, a in stored}


def test_shared_algebras_are_one_object_per_catalog_key(cache):
    assert base_algebra(3, 2) is base_algebra(3, 2)
    assert standard_algebra(9, 1) is extension_chain(
        (1, 1), [ExtensionStep.BY_8_0])
    assert catalog_key(standard_algebra(9, 1)) == ((1, 1), ("8,0",))
    # n_(9,8), dim 512, is shared; above the cap (dim 2048) an algebra is
    # built anew each time, but its parent is shared
    assert standard_algebra(9, 8) is standard_algebra(9, 8)
    big = standard_algebra(20, 0)
    assert big.dim_module > cache.cap
    assert big is not standard_algebra(20, 0) and catalog_key(big) is None
    assert big.provenance.parent is standard_algebra(20, 0).provenance.parent


def test_a_scope_keeps_its_algebras_and_verdicts_to_itself(monkeypatch):
    process = base_algebra(3, 2)
    with catalog.scope() as fresh:
        inner = base_algebra(3, 2)
        assert inner is not process and inner is base_algebra(3, 2)
        assert catalog_key(process) is None
        assert list(fresh._algebras) == [((3, 2), ())]
        # a forged verdict is kept on the scope's algebra alone
        with monkeypatch.context() as m:
            m.setattr(algebra, "verify_clifford",
                      lambda a: Verdict(False, None, "forged"))
            assert not verify_axioms(inner).ok
        assert not verify_axioms(inner).ok
    assert base_algebra(3, 2) is process
    assert catalog_key(process) == ((3, 2), ())
    assert verify_axioms(process).ok
    # an exception leaves the scope too, and nested scopes restore in order
    with pytest.raises(KeyError), catalog.scope():
        assert base_algebra(3, 2) is not process
        raise KeyError
    assert base_algebra(3, 2) is process
    with catalog.scope():
        outer = base_algebra(3, 2)
        with catalog.scope():
            nested = base_algebra(3, 2)
            assert nested is not process and nested is not outer
        assert base_algebra(3, 2) is outer
    assert base_algebra(3, 2) is process


def test_the_aligned_factor_never_shares_the_0_8_entry(cache):
    aligned, plain = aligned_factor_0_8(), base_algebra(0, 8)
    # the same provenance record, but another basis: the aligned factor is
    # shared as a step of the (8,0) base, whose tensor it reads
    assert aligned.provenance == plain.provenance
    assert aligned.tensor != plain.tensor
    assert aligned is aligned_factor_0_8()
    assert catalog_key(aligned) == ((8, 0), ("aligned 0,8",))
    assert catalog_key(plain) == ((0, 8), ())
    for step in ExtensionStep:
        from_aligned, from_plain = extend(aligned, step), extend(plain, step)
        assert catalog_key(from_aligned) == (
            (8, 0), ("aligned 0,8", step.value))
        assert from_aligned.provenance.json_dict() == \
            from_plain.provenance.json_dict()
        assert algebra_json(from_aligned) != algebra_json(from_plain)


def test_parsed_algebras_and_sums_of_unshared_bases_are_never_stored(cache):
    shared = base_algebra(1, 0)
    parsed = algebra_from_json(algebra_json(shared))
    replaced = base_algebra(0, 1)._replace()
    built = [parsed,
             extend(parsed, ExtensionStep.BY_8_0),
             build_sum(parsed, 2, 0),
             build_sum(replaced, 1, 1),
             extend(build_sum(replaced, 1, 1), ExtensionStep.BY_8_0)]
    assert built[1].tensor == extend(shared, ExtensionStep.BY_8_0).tensor
    for a in built:
        assert catalog_key(a) is None
        assert all(a is not kept for kept in cache._algebras.values())
    # a sum of the shared base is stored under its own key, and so is its
    # extension; each prints as the sum of the unshared copy
    summed = build_sum(base_algebra(0, 1), 1, 1)
    assert catalog_key(summed) == ((0, 1), ("sum 1,1",))
    assert catalog_key(extend(summed, ExtensionStep.BY_8_0)) == \
        ((0, 1), ("sum 1,1", "8,0"))
    assert algebra_json(summed) == algebra_json(build_sum(replaced, 1, 1))
    _check_bounds(cache)


def test_a_one_block_sum_of_a_stored_sum_is_stored(cache):
    # build_sum follows extend's rule: any stored parent shares its child
    plain = build_sum(base_algebra(0, 1), 1, 0)
    nested = build_sum(plain, 1, 0)
    assert catalog_key(nested) == ((0, 1), ("sum 1,0", "sum 1,0"))
    assert build_sum(plain, 1, 0) is nested
    assert algebra_json(nested) == algebra_json(plain)
    _check_bounds(cache)


# every (mu, nu) build_sum accepts on a base, up to three blocks of a type
def _sum_counts(base):
    two_types = (base[0] - base[1]) % 4 == 3
    return [(mu, nu) for mu in range(4) for nu in range(4 if two_types else 1)
            if mu + nu]


def test_a_sum_of_a_shared_base_is_one_object_per_counts(cache):
    for base in BASE_IDS:
        for mu, nu in _sum_counts(base):
            a = build_sum(base_algebra(*base), mu, nu)
            assert build_sum(base_algebra(*base), mu, nu) is a
            assert catalog_key(a) == (base, (f"sum {mu},{nu}",))
    # the block swap's target is the kept sum with the counts swapped
    swap = swap_isomorphism(build_sum(base_algebra(2, 3), 2, 1))
    assert swap.dst is build_sum(base_algebra(2, 3), 1, 2)
    _check_bounds(cache)


def test_no_sum_key_is_an_extension_chain_key(cache):
    sums = {catalog_key(build_sum(base_algebra(*base), mu, nu))
            for base in BASE_IDS for mu, nu in _sum_counts(base)}
    chains = {(base, tuple(step.value for step in steps))
              for base, steps in _chains()}
    assert len(sums) == sum(len(_sum_counts(base)) for base in BASE_IDS)
    assert sums.isdisjoint(chains)


def test_the_cache_stays_within_its_bounds_with_sums_stored():
    # a cap of 32 turns the largest sums away, and the admitted ones add
    # up to more than the budget of 128, so the cache evicts
    admitted = 0
    with catalog.scope(budget=128) as small:
        small.cap = 32
        for base in BASE_IDS:
            for mu, nu in _sum_counts(base):
                a = build_sum(base_algebra(*base), mu, nu)
                assert (catalog_key(a) is None) == (a.dim_module > small.cap)
                admitted += a.dim_module if a.dim_module <= small.cap else 0
                _check_bounds(small)
    assert admitted > small.budget


@pytest.mark.parametrize("base, mu, nu", [
    ((2, 3), 0, 0), ((2, 3), -1, 2), ((2, 0), 1, 1),
    ((0, 1), MAX_MODULE_DIM, 1)])
def test_refused_counts_raise_before_any_lookup(cache, monkeypatch, base,
                                                mu, nu):
    shared = base_algebra(*base)
    lookups = []
    for name in ("get", "key_of"):
        monkeypatch.setattr(cache, name, lambda *args: lookups.append(args))
    with pytest.raises(ValueError):
        build_sum(shared, mu, nu)
    assert lookups == []


def test_a_sum_of_a_sum_is_refused_before_any_lookup(cache, monkeypatch):
    # a sum's SumProvenance names a sum of the minimal base: the nested
    # sum's (0, 1, 1, 1) would rebuild to dim 4, not the dim 8 built
    inner = build_sum(base_algebra(0, 1), 1, 1)
    lookups = []
    for name in ("get", "key_of"):
        monkeypatch.setattr(cache, name, lambda *args: lookups.append(args))
    with pytest.raises(ValueError, match=r"minimal module of \(0,1\), dim 2; "
                                         r"got dim 4"):
        build_sum(inner, 1, 1)
    with pytest.raises(ValueError, match="positive number of blocks"):
        build_sum(inner, 0, 0)
    assert lookups == []


def test_a_sum_certificate_rechecks_the_same_cold_and_warm():
    def certify_and_recheck():
        text = dumps(sum_sbg(build_sum(base_algebra(2, 3), 2, 1)).json_dict())
        return text, recheck_certificate(json.loads(text))

    with catalog.scope():
        cold = certify_and_recheck()
    with catalog.scope():
        certify_and_recheck()
        assert certify_and_recheck() == cold
    assert cold[1].ok and json.loads(cold[0])["kind"] == "SBG_NO"


def _chains():
    for base in BASE_IDS:
        dim = base_algebra(*base).dim_module
        for n in range(3):
            if dim * 16 ** n <= 1024:
                for steps in itertools.product(ExtensionStep, repeat=n):
                    yield base, steps


def test_shared_and_private_chains_print_the_same_json():
    chains = list(_chains())
    assert len(chains) == 14 + 42 + 45
    for base, steps in chains:
        extension_chain(base, steps)        # the warm lookups come second
        shared = extension_chain(base, steps)
        private = _private_chain(base, steps)
        assert catalog_key(private) is None
        assert algebra_json(shared) == algebra_json(private), (base, steps)


def test_the_cache_stays_within_its_budget_and_cap(cache):
    assert (ALGEBRA_CACHE_DIM, cache.budget, cache.cap) == (8192, 8192, 1024)
    built = 0
    for r, s in itertools.product(range(13), repeat=2):
        if (standard_chain(r, s) is None
                or catalog.min_module_dim(r, s) > cache.cap):
            continue
        a = standard_algebra(r, s)
        built += a.dim_module if a.dim_module <= cache.cap else 0
        _check_bounds(cache)
    assert built > cache.budget         # so something was evicted


# the ISO requests of the benchmark's iso-roundtrip round, (r, s, anti)
ISO_REQUESTS = [(r, s, False) for r, s in (
    (1, 8), (8, 1), (9, 1), (10, 0), (10, 2), (8, 4), (12, 4), (16, 0),
    (9, 8), (8, 9), (17, 0))] + [(5, 5, True)]


def _certify_and_recheck(r, s, anti):
    text = dumps(check_pair(r, s, s, r, anti_only=anti).json_dict())
    return text, recheck_certificate(json.loads(text))


def test_iso_certificates_do_not_depend_on_the_cache():
    cold = {}
    for r, s, anti in ISO_REQUESTS:
        with catalog.scope():
            text = dumps(check_pair(r, s, s, r, anti_only=anti).json_dict())
        with catalog.scope():
            cold[r, s, anti] = text, recheck_certificate(json.loads(text))
    for request in ISO_REQUESTS * 2:
        assert _certify_and_recheck(*request) == cold[request], request
    for text, verdict in cold.values():
        assert verdict.ok and json.loads(text)["kind"] == "ISO"


def _anti(r, s):
    return dumps(check_pair(r, s, s, r, anti_only=True).json_dict())


def test_answers_at_the_top_of_the_budget_do_not_depend_on_the_cache(cache):
    # n_(13,12) and n_(12,13) are dim 8192, above the cap, so only their
    # parents are shared: the fixture's scope holds them once the first
    # two questions have been asked
    with catalog.scope():
        cold = _certify_and_recheck(13, 12, False)
        anti = _anti(12, 13)
    assert dumps(check_pair(13, 12, 12, 13).json_dict()) == cold[0]
    assert _anti(12, 13) == anti
    assert _certify_and_recheck(13, 12, False) == cold
    assert _anti(12, 13) == anti
    assert cold[1].ok and json.loads(cold[0])["kind"] == "ISO"
    assert json.loads(anti)["kind"] == "ISO"
    _check_bounds(cache)


@pytest.mark.parametrize("argv", [
    ["build", "20", "0"], ["build", "2", "3", "--sum", "2", "1"],
    ["extend", "3", "3", "0,8", "4,4"]])
def test_build_and_extend_keep_nothing_in_the_process_cache(tmp_path, argv):
    process = catalog._CACHE.get()
    before = dict(process._keys), process.total
    assert cli.main(argv + ["--out", str(tmp_path / "a.json")]) == 0
    assert (dict(process._keys), process.total) == before


def test_a_forged_certificate_is_refused_when_warm(cache):
    for _round in range(2):
        text, verdict = _certify_and_recheck(9, 1, False)
        assert verdict.ok
    forged = json.loads(text)
    forged["morphism"]["A"]["sign"][0] *= -1
    assert not recheck_certificate(forged).ok
    stepped = json.loads(text)
    stepped["morphism"]["src"]["provenance"]["steps"] = [[4, 4]]
    assert not recheck_certificate(stepped).ok
    assert recheck_certificate(json.loads(text)).ok


def test_threads_share_a_tiny_cache_and_get_equal_algebras():
    # a cap of 16 admits every base, and the fourteen bases alone add up
    # to 112 > 48, so the threads evict; a worker starts in the process
    # cache, so each task runs in a copy of the scope's context
    signatures = [*BASE_IDS, (9, 0), (1, 8), (8, 1), (9, 1), (4, 5), (3, 10)]
    want = {sig: algebra_json(_private_chain(*standard_chain(*sig)))
            for sig in signatures}

    def run(shift):
        out = []
        for sig in signatures[shift:] + signatures[:shift]:
            a = standard_algebra(*sig)
            # an algebra above the tiny cap is never kept
            out.append((sig, algebra_json(a), verify_axioms(a).ok,
                        a.dim_module <= 16 or catalog_key(a) is None))
        return out

    with catalog.scope(budget=48) as tiny, \
            ThreadPoolExecutor(max_workers=8) as pool:
        tiny.cap = 16
        results = [f.result() for f in [
            pool.submit(contextvars.copy_context().run, run, shift)
            for shift in range(8)]]
    for out in results:
        for sig, text, ok, unkept in out:
            assert ok and unkept and text == want[sig], sig
    _check_bounds(tiny)
