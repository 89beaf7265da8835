"""catalog.shared_step reads the parent's key and the child under one lock.

extend and build_sum ask the algebra cache for a child of a stored parent
through AlgebraCache.get_step, which looks up the parent's key and the
child's entry in one acquisition of the cache lock.  A hit takes the lock
once and makes the child the most recently used; a miss builds outside the
lock and stores under it; an unstored parent is built anew after one look.
"""

import threading

import pytest

import pseudoht.catalog as catalog
from pseudoht.catalog import base_algebra, catalog_key
from pseudoht.extension import ExtensionStep, extend
from pseudoht.sums import build_sum


class CountingLock:
    """A threading.Lock that counts its acquisitions."""

    def __init__(self):
        self._inner = threading.Lock()
        self.acquired = 0

    def __enter__(self):
        self._inner.acquire()
        self.acquired += 1
        return self

    def __exit__(self, *exc):
        self._inner.release()


@pytest.fixture
def cache(cache):
    cache._lock = CountingLock()
    return cache


def test_a_hit_takes_the_lock_once(cache):
    parent = base_algebra(0, 1)
    child = extend(parent, ExtensionStep.BY_8_0)
    total = build_sum(parent, 1, 1)
    for step, want in ((lambda: extend(parent, ExtensionStep.BY_8_0), child),
                       (lambda: build_sum(parent, 1, 1), total)):
        before = cache._lock.acquired
        assert step() is want
        assert cache._lock.acquired - before == 1


def _built(r, s):
    """A build that reads no cache: a new catalog algebra."""
    return lambda: catalog._build_base(r, s)


def test_a_miss_looks_once_and_stores_once(cache):
    parent = base_algebra(2, 0)
    before = cache._lock.acquired
    child = catalog.shared_step(parent, "4,4", _built(4, 4))
    assert cache._lock.acquired - before == 2
    assert catalog_key(child) == ((2, 0), ("4,4",))
    before = cache._lock.acquired
    assert catalog.shared_step(parent, "4,4", _built(4, 4)) is child
    assert cache._lock.acquired - before == 1


def test_a_hit_makes_the_child_the_most_recently_used(cache):
    parent = base_algebra(1, 0)
    extend(parent, ExtensionStep.BY_8_0)
    extend(parent, ExtensionStep.BY_0_8)
    assert list(cache._algebras)[-1] == ((1, 0), ("0,8",))
    extend(parent, ExtensionStep.BY_8_0)
    assert list(cache._algebras)[-1] == ((1, 0), ("8,0",))


def test_an_unstored_parent_is_built_anew_after_one_look(cache):
    parent = catalog._build_base(1, 0)
    before = cache._lock.acquired
    first = catalog.shared_step(parent, "4,4", _built(4, 4))
    assert cache._lock.acquired - before == 1
    assert catalog.shared_step(parent, "4,4", _built(4, 4)) is not first
    assert catalog_key(first) is None


@pytest.mark.parametrize("mu, nu", [(0, 0), (-1, 2)])
def test_refused_counts_reach_no_step_lookup(cache, monkeypatch, mu, nu):
    shared = base_algebra(2, 3)
    lookups = []
    for name in ("get", "get_step", "key_of"):
        monkeypatch.setattr(cache, name, lambda *args: lookups.append(args))
    with pytest.raises(ValueError):
        build_sum(shared, mu, nu)
    assert lookups == []
