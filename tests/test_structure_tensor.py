"""StructureTensor construction: what it accepts, what it stores, and
which fault it names first.

The constructor checks every entry in input order, sorts the canonical
entries once and then rejects a conflicting pair.  The dict-based
canonicaliser it replaced is kept below as the reference: the two accept
exactly the same inputs and store the same entries.  On a refused input
they raise the same exception class, except where the new order differs
on purpose: a per-entry fault outranks any conflict, wherever the
conflict is listed, and of several conflicts the smallest (a, b) pair is
named.
"""

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from pseudoht.algebra import IntegralBasisError, StructureTensor


def _reference(dim_module, dim_center, entries):
    """The entries the earlier constructor stored, or its exception."""
    canon = {}
    for (a, b, k, s) in entries:
        if (type(a) is not int or type(b) is not int
                or type(k) is not int or type(s) is not int):
            raise ValueError(f"entry {(a, b, k, s)} must hold integers")
        if not (1 <= a <= dim_module and 1 <= b <= dim_module):
            raise ValueError(f"module index out of range in entry {(a, b, k, s)}")
        if not 1 <= k <= dim_center:
            raise ValueError(f"center index out of range in entry {(a, b, k, s)}")
        if s not in (1, -1):
            raise ValueError(f"structure constants must be +-1, got {s}")
        if a == b:
            raise ValueError(f"diagonal entry ({a},{a}) violates antisymmetry")
        if a > b:
            a, b, s = b, a, -s
        if (a, b) in canon and canon[(a, b)] != (k, s):
            raise IntegralBasisError(
                f"pair ({a},{b}) maps to more than one center direction")
        canon[(a, b)] = (k, s)
    return tuple(sorted((a, b, k, s) for (a, b), (k, s) in canon.items()))


def _outcome(build, *args):
    try:
        return build(*args)
    except ValueError as exc:
        return exc


def _first_fault(dim_module, dim_center, entries):
    """The exception of the first entry the reference refuses on its own,
    else that of the smallest conflicting pair, as (class, message)."""
    for entry in entries:
        alone = _outcome(_reference, dim_module, dim_center, [entry])
        if isinstance(alone, ValueError):
            return type(alone), str(alone)
    values = {}
    for (a, b, k, s) in entries:
        pair, value = ((a, b), (k, s)) if a < b else ((b, a), (k, -s))
        values.setdefault(pair, set()).add(value)
    a, b = min(pair for pair, seen in values.items() if len(seen) > 1)
    return (IntegralBasisError,
            f"pair ({a},{b}) maps to more than one center direction")


BAD_VALUES = (0, -1, 2, True, False, 1.0, -1.0, 2.5)


@st.composite
def entry_lists(draw):
    n = draw(st.integers(min_value=2, max_value=5))
    m = draw(st.integers(min_value=1, max_value=3))
    entries = []
    for _ in range(draw(st.integers(0, 8))):
        a, b = draw(st.permutations(range(1, n + 1)))[:2]
        entries.append((a, b, draw(st.integers(1, m)),
                        draw(st.sampled_from((1, -1)))))
    for kind in draw(st.lists(st.sampled_from(
            ("repeat", "flip", "conflict", "bad", "diagonal", "list")),
            max_size=4)):
        if not entries:
            break
        i = draw(st.integers(0, len(entries) - 1))
        a, b, k, s = entries[i]
        if kind == "repeat":
            extra = (a, b, k, s)
        elif kind == "flip":
            extra = (b, a, k, -s)
        elif kind == "conflict":
            extra = (a, b, k, -s) if draw(st.booleans()) else (b, a, k % m + 1, -s)
        elif kind == "diagonal":
            extra = (a, a, k, s)
        elif kind == "list":
            extra = [a, b, k, s]
        else:
            field = draw(st.integers(0, 3))
            value = draw(st.sampled_from(BAD_VALUES + (n + 1, m + 1)))
            extra = tuple(value if f == field else x
                          for f, x in enumerate((a, b, k, s)))
        entries.insert(draw(st.integers(0, len(entries))), extra)
    return n, m, entries


@given(entry_lists())
@settings(max_examples=400, deadline=None)
def test_constructor_agrees_with_the_dict_reference(case):
    n, m, entries = case
    want = _outcome(_reference, n, m, entries)
    got = _outcome(lambda *args: StructureTensor(*args).entries, n, m, entries)
    assert isinstance(got, ValueError) == isinstance(want, ValueError), \
        (got, want)
    if isinstance(want, ValueError):
        assert (type(got), str(got)) == _first_fault(n, m, entries)
        # the class differs only where the reference met a conflict before
        # a per-entry fault
        assert type(got) is type(want) or (
            type(want) is IntegralBasisError and type(got) is ValueError)
    else:
        assert got == want
        assert all(type(e) is tuple for e in got)


def test_a_per_entry_fault_outranks_an_earlier_conflict():
    entries = [(1, 2, 1, 1), (1, 2, 1, -1), (1, 5, 1, 1)]
    with pytest.raises(IntegralBasisError):
        _reference(4, 1, entries)
    with pytest.raises(ValueError) as exc:
        StructureTensor(4, 1, entries)
    assert type(exc.value) is ValueError
    assert str(exc.value) == "module index out of range in entry (1, 5, 1, 1)"


def test_per_entry_faults_are_named_in_input_order():
    for entries, message in (
            ([(1, 2, 1, 5), (1, 3, 1, 1)], "structure constants must be +-1, got 5"),
            ([(2, 2, 1, 1), (1, 2, 2, 1)], "diagonal entry (2,2) violates antisymmetry"),
            ([(1, 2, 2, 1), (1, 2, 1, True)], "center index out of range in entry (1, 2, 2, 1)"),
            ([(1, 2, 1, 1.0), (0, 2, 1, 1)], "entry (1, 2, 1, 1.0) must hold integers")):
        with pytest.raises(ValueError) as exc:
            StructureTensor(2, 1, entries)
        assert type(exc.value) is ValueError and str(exc.value) == message


def test_of_two_conflicts_the_smaller_pair_is_named():
    entries = [(2, 3, 1, 1), (2, 3, 2, 1), (1, 2, 1, 1), (2, 1, 1, 1)]
    with pytest.raises(IntegralBasisError) as exc:
        StructureTensor(3, 2, entries)
    assert str(exc.value) == "pair (1,2) maps to more than one center direction"
    with pytest.raises(IntegralBasisError) as exc:
        _reference(3, 2, entries)
    assert str(exc.value) == "pair (2,3) maps to more than one center direction"


def test_repeated_and_flipped_entries_collapse_into_tuples():
    first = (1, 2, 1, 1)
    t = StructureTensor(3, 1, [[2, 3, 1, -1], first, (2, 1, 1, -1), first,
                               (3, 2, 1, 1)])
    assert t.entries == ((1, 2, 1, 1), (2, 3, 1, -1))
    assert all(type(e) is tuple for e in t.entries)
    # an input tuple already in canonical form is stored as it is
    assert t.entries[0] is first
