"""The package's plain records are NamedTuples.

Each keeps the repr its dataclass form printed, refuses a field
assignment with AttributeError, is copied with `_replace`, and compares
equal to the tuple of its fields.
"""

import pytest

from pseudoht.acceptance import CriterionReport
from pseudoht.algebra import (
    BaseProvenance,
    BlockSets,
    ExtensionProvenance,
    OpaqueProvenance,
    SumProvenance,
    Verdict,
)
from pseudoht.catalog import TableLayout, base_algebra
from pseudoht.core import MapClass
from pseudoht.morphism import MorphismClass
from pseudoht.obstruction import (
    Certificate,
    ParityConstraint,
    ParityOutcome,
    ScanReport,
    WittBound,
)

# (record, its repr)
RECORDS = {
    "BlockSets": (
        BlockSets(frozenset({1}), frozenset({2}), frozenset(), frozenset()),
        "BlockSets(a_plus=frozenset({1}), a_minus=frozenset({2}), "
        "b_plus=frozenset(), b_minus=frozenset())"),
    "BaseProvenance": (BaseProvenance(1, 0), "BaseProvenance(r=1, s=0)"),
    "ExtensionProvenance": (
        ExtensionProvenance(base_algebra(1, 0), "8,0", (1, 2), (1,), (2,)),
        "ExtensionProvenance(parent=<PseudoHTypeAlgebra n_(1,0) dim_v=2>, "
        "step='8,0', pair_to_final=(1, 2), parent_center_to_final=(1,), "
        "factor_center_to_final=(2,))"),
    "SumProvenance": (SumProvenance(2, 3, 1, 2),
                      "SumProvenance(base_r=2, base_s=3, mu=1, nu=2)"),
    "OpaqueProvenance": (OpaqueProvenance({"kind": "base"}),
                         "OpaqueProvenance(data={'kind': 'base'})"),
    "Verdict": (Verdict(False, (1, 2), "x"),
                "Verdict(ok=False, witness=(1, 2), detail='x')"),
    "TableLayout": (
        TableLayout((1, 2), "w", False, False, 1),
        "TableLayout(display_order=(1, 2), module_symbol='w', "
        "module_tilde=False, center_tilde=False, center_offset=1)"),
    "MorphismClass": (
        MorphismClass(MapClass.ISOMETRY, True),
        "MorphismClass(center_action=<MapClass.ISOMETRY: 'ISOMETRY'>, "
        "integral=True)"),
    "ScanReport": (ScanReport("n_(1,1)", 1),
                   "ScanReport(algebra='n_(1,1)', points=1, violation=None)"),
    "WittBound": (WittBound("n_(3,2)", 5, (4, 4)),
                  "WittBound(algebra='n_(3,2)', dim_center=5, "
                  "module_signature=(4, 4))"),
    "Certificate": (Certificate("SBG_YES", {"signature": [8, 0]}),
                    "Certificate(kind='SBG_YES', "
                    "payload={'signature': [8, 0]})"),
    "ParityConstraint": (ParityConstraint(1, 2, -1),
                         "ParityConstraint(a=1, b=2, rhs=-1)"),
    "ParityOutcome": (
        ParityOutcome(False, cycle=(ParityConstraint(1, 2, -1),)),
        "ParityOutcome(feasible=False, assignment=None, "
        "cycle=(ParityConstraint(a=1, b=2, rhs=-1),), precondition=None)"),
    "CriterionReport": (
        CriterionReport(1, "alpha", True, [], 0.5, 3),
        "CriterionReport(number=1, name='alpha', passed=True, failures=[], "
        "elapsed=0.5, checks=3)"),
}


@pytest.mark.parametrize("name", RECORDS)
def test_a_record_keeps_its_repr_and_its_fields(name):
    record, text = RECORDS[name]
    assert type(record).__name__ == name and repr(record) == text
    field = record._fields[0]
    with pytest.raises(AttributeError):
        setattr(record, field, None)
    assert record._replace() == record == tuple(record)


def test_a_failed_verdict_is_false():
    assert not Verdict(False, (1, 2), "x") and Verdict(True)
