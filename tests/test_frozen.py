"""The validated value classes derive from core.Frozen, not from dataclasses.

Each of the seven keeps the repr its dataclass form printed, byte for
byte; equal values compare and hash equal, and no value equals a tuple or
a NamedTuple of its fields; no field can be set or deleted; keyword
construction works; `_replace` runs the constructor's checks again and
its copy keeps no derived value.  Importing the package loads none of
`dataclasses`, `inspect`, `ast` or `dis`.
"""

import collections
import os
import subprocess
import sys
from pathlib import Path

import pytest

import pseudoht
from pseudoht.algebra import SignedPermutationOp, derived_value
from pseudoht.catalog import base_algebra
from pseudoht.core import ExactMatrix, Frozen, Signature, SparseVector
from pseudoht.morphism import canonical_isomorphism, canonical_map

N10 = "<PseudoHTypeAlgebra n_(1,0) dim_v=2>"
N01 = "<PseudoHTypeAlgebra n_(0,1) dim_v=2>"
OP = "SignedPermutationOp(image=(1, 2), sign=(1, 1))"

# (a fresh value on each call, the repr the dataclass form printed)
VALUES = {
    "Signature": (lambda: Signature(1, 0), "Signature(pos=1, neg=0)"),
    "SparseVector": (lambda: SparseVector(3, (1, 2), (1, -1)),
                     "SparseVector(dim=3, index=(1, 2), value=(1, -1))"),
    "ExactMatrix": (lambda: ExactMatrix(1, 2, ((1, 0),)),
                    "ExactMatrix(rows=1, cols=2, entries=((1, 0),))"),
    "SignedPermutationOp": (
        lambda: SignedPermutationOp((2, 1), (1, -1)),
        "SignedPermutationOp(image=(2, 1), sign=(1, -1))"),
    "PseudoHTypeAlgebra": (lambda: base_algebra(1, 0)._replace(), N10),
    "CanonicalMap": (
        lambda: canonical_map(1, 0)._replace(),
        f"CanonicalMap(src={N10}, dst={N01}, module={OP}, "
        f"center=SignedPermutationOp(image=(1,), sign=(1,)))"),
    "LieMorphism": (
        lambda: canonical_isomorphism(1, 0),
        f"LieMorphism(src={N10}, dst={N01}, A={OP}, "
        f"C=ExactMatrix(rows=1, cols=1, entries=((1,),)))"),
}


def _fields(value) -> dict:
    return {name: getattr(value, name) for name in value._fields}


def test_the_seven_classes_are_the_frozen_ones():
    assert {cls.__name__ for cls in Frozen.__subclasses__()} == set(VALUES)


@pytest.mark.parametrize("name", VALUES)
def test_a_value_keeps_its_repr(name):
    make, text = VALUES[name]
    assert type(make()).__name__ == name and repr(make()) == text


@pytest.mark.parametrize("name", VALUES)
def test_equal_values_compare_and_hash_equal(name):
    make = VALUES[name][0]
    a, b = make(), make()
    assert a is not b and a == b and hash(a) == hash(b)
    assert not a != b
    if name == "PseudoHTypeAlgebra":  # a list metric is stored as its tuple
        listed = a._replace(module_signs=list(a.module_signs))
        assert listed == a and hash(listed) == hash(a)
        assert type(listed.module_signs) is tuple


@pytest.mark.parametrize("name", VALUES)
def test_a_value_never_equals_a_tuple_of_its_fields(name):
    value = VALUES[name][0]()
    fields = _fields(value)
    record = collections.namedtuple(name, fields)(**fields)
    assert value != tuple(fields.values()) and value != record
    assert tuple(fields.values()) != value and record != value


@pytest.mark.parametrize("name", VALUES)
def test_no_field_is_set_or_deleted(name):
    value = VALUES[name][0]()
    before = repr(value)
    for field in value._fields:
        with pytest.raises(AttributeError, match="cannot assign"):
            setattr(value, field, None)
        with pytest.raises(AttributeError, match="cannot delete"):
            delattr(value, field)
    with pytest.raises(AttributeError):
        value.extra = 1
    assert repr(value) == before


@pytest.mark.parametrize("name", VALUES)
def test_keyword_construction_and_replace(name):
    value = VALUES[name][0]()
    assert type(value)(**_fields(value)) == value
    assert value._replace() == value and value._replace() is not value


def test_replace_runs_the_checks_again():
    with pytest.raises(ValueError, match="nonnegative"):
        Signature(1, 0)._replace(pos=-1)
    assert Signature(1, 0)._replace(neg=2) == Signature(1, 2)
    with pytest.raises(ValueError, match="exceeds dim"):
        SparseVector(3, (1, 2), (1, -1))._replace(dim=1)
    with pytest.raises(ValueError, match="not a permutation"):
        SignedPermutationOp((2, 1), (1, -1))._replace(image=(1, 1))
    with pytest.raises(ValueError, match="module block shape"):
        canonical_isomorphism(1, 0)._replace(
            A=SignedPermutationOp((1,), (1,)))
    with pytest.raises(ValueError, match="module metric"):
        base_algebra(1, 0)._replace(module_signs=(1,))
    with pytest.raises(TypeError):
        Signature(1, 0)._replace(dim=1)


@pytest.mark.parametrize("make", [
    lambda: ExactMatrix(1, 2, ((1, 0),)),
    lambda: canonical_map(1, 0)._replace(),
    lambda: base_algebra(1, 0)._replace(),
], ids=["ExactMatrix", "CanonicalMap", "PseudoHTypeAlgebra"])
def test_derived_values_are_kept_and_not_copied(make):
    value = make()
    calls = []
    derived_value(value, "_probe", calls.append)
    derived_value(value, "_probe", calls.append)
    assert calls == [value] and "_probe" in vars(value)
    copy = value._replace()
    assert copy == value and hash(copy) == hash(value)
    assert set(vars(copy)) == set(value._fields)
    assert repr(copy) == repr(value)


def test_a_sparse_vector_stores_tuples():
    listed = SparseVector(3, [1, 2], [1, -1])
    tupled = SparseVector(3, (1, 2), (1, -1))
    assert listed == tupled and hash(listed) == hash(tupled)
    assert type(listed.index) is tuple and type(listed.value) is tuple
    assert listed.json_dict() == tupled.json_dict()
    assert SparseVector(2, iter([2]), iter([5])) == SparseVector(2, (2,), (5,))


def test_importing_the_package_loads_no_dataclasses():
    child = ("import sys\n"
             "before = set(sys.modules)\n"
             "import pseudoht, pseudoht.cli, pseudoht.recheck, "
             "pseudoht.acceptance\n"
             "print(' '.join(sorted(set(sys.modules) - before)))\n")
    src = str(Path(pseudoht.__file__).resolve().parent.parent)
    proc = subprocess.run([sys.executable, "-c", child], capture_output=True,
                          text=True, timeout=60,
                          env={**os.environ, "PYTHONPATH": src})
    assert proc.returncode == 0, proc.stderr
    new = set(proc.stdout.split())
    assert "pseudoht.cli" in new
    assert new & {"dataclasses", "inspect", "ast", "dis"} == set()
