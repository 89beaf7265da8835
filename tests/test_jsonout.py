"""jsonout.dumps against its oracle, json.dumps(obj, indent=2)."""

import json
from fractions import Fraction

import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from pseudoht import jsonout
from pseudoht.jsonout import dumps
from pseudoht.obstruction import check_pair

from dense_certificates import densify


def oracle(obj) -> str:
    return json.dumps(obj, indent=2)


# quotes, backslashes, format characters, control characters, non-ASCII
texts = st.text(alphabet=st.sampled_from('"\\%/\n\t\b\x00\x1f\x7f é€😀ab1')
                | st.characters(), max_size=8)
ints = st.integers(min_value=-10 ** 40, max_value=10 ** 40)
scalars = (st.none() | st.booleans() | ints | st.floats() | texts)
# every key type json accepts; 1, 1.0 and True are one key in a dict
keys = texts | ints | st.floats() | st.booleans() | st.none()
trees = st.recursive(
    scalars,
    lambda inner: (st.lists(inner, max_size=5)
                   | st.lists(inner, max_size=5).map(tuple)
                   | st.dictionaries(keys, inner, max_size=5)),
    max_leaves=30)
record_keys = st.lists(texts, min_size=1, max_size=5, unique=True)


@st.composite
def int_records(draw, min_size=0):
    """A list of dicts sharing one key order and holding only ints."""
    names = draw(record_keys)
    rows = draw(st.lists(st.lists(ints, min_size=len(names),
                                  max_size=len(names)),
                         min_size=min_size, max_size=6))
    return [dict(zip(names, row)) for row in rows]


@st.composite
def int_rows(draw, min_size=0):
    """A list of int rows of one length, each a list or a tuple."""
    width = draw(st.integers(0, 5))
    row = st.lists(ints, min_size=width, max_size=width)
    return draw(st.lists(row | row.map(tuple), min_size=min_size, max_size=6))


def _bool_value(records, i, data):
    key = data.draw(st.sampled_from(list(records[i])))
    records[i][key] = data.draw(st.booleans())


def _missing_key(records, i, data):
    records[i].pop(data.draw(st.sampled_from(list(records[i]))))


def _key_order(records, i, data):
    records[i] = dict(reversed(list(records[i].items())))


def _other_value(records, i, data):
    key = data.draw(st.sampled_from(list(records[i])))
    records[i][key] = data.draw(st.floats() | texts | st.none()
                                | st.lists(ints, max_size=2))


def _nested(tree, data):
    """tree at a drawn depth inside lists and dicts."""
    for _ in range(data.draw(st.integers(0, 3))):
        tree = [tree] if data.draw(st.booleans()) else {"x": tree, "y": 1}
    return tree


@settings(max_examples=150, deadline=None)
@given(trees)
def test_dumps_matches_json_on_trees(tree):
    assert dumps(tree) == oracle(tree)


@settings(max_examples=60, deadline=None)
@given(st.lists(ints) | st.lists(texts), st.data())
def test_flat_lists_match_json(items, data):
    tree = _nested(items, data)
    assert dumps(tree) == oracle(tree)


@settings(max_examples=80, deadline=None)
@given(int_records(), st.data())
def test_uniform_int_records_match_json(records, data):
    tree = _nested(records, data)
    assert dumps(tree) == oracle(tree)


@settings(max_examples=150, deadline=None)
@given(int_records(min_size=2), st.data())
def test_near_uniform_records_fall_back(records, data):
    edit = data.draw(st.sampled_from(
        [_bool_value, _missing_key, _key_order, _other_value]))
    edit(records, data.draw(st.integers(0, len(records) - 1)), data)
    tree = _nested(records, data)
    assert dumps(tree) == oracle(tree)


def test_record_keys_may_hold_format_characters():
    records = [{"%d": 1, "%%": -2, "%s%": 3}, {"%d": 4, "%%": 5, "%s%": 6}]
    assert dumps(records) == oracle(records)


def _other_row_value(rows, i, data):
    rows[:] = [list(row) or [0] for row in rows]    # no empty row to edit
    row = rows[i]
    row[data.draw(st.integers(0, len(row) - 1))] = data.draw(
        st.booleans() | st.floats() | texts | st.none()
        | st.lists(ints, max_size=2))


def _other_row_length(rows, i, data):
    rows[i] = list(rows[i]) + [data.draw(ints)] * data.draw(st.integers(1, 2))


@settings(max_examples=80, deadline=None)
@given(int_rows(), st.data())
@example([(-10 ** 40, 10 ** 40 - 1), [0, -1]], None)
def test_int_rows_match_json(rows, data):
    tree = _nested(rows, data) if data else rows
    assert dumps(tree) == oracle(tree)
    assert (jsonout._int_rows(rows, 0) is not None) == bool(rows)


@settings(max_examples=150, deadline=None)
@given(int_rows(min_size=2), st.data())
def test_near_uniform_rows_take_the_general_path(rows, data):
    edit = data.draw(st.sampled_from([_other_row_value, _other_row_length]))
    edit(rows, data.draw(st.integers(0, len(rows) - 1)), data)
    assert jsonout._int_rows(rows, 0) is None
    tree = _nested(rows, data)
    assert dumps(tree) == oracle(tree)


def test_dense_certificate_rows_take_the_row_path():
    # an older ISO certificate holds its blocks A and C as dense rows
    cert = check_pair(9, 8, 8, 9).json_dict()
    dense = densify(cert)
    for key in ("A", "C"):
        assert jsonout._int_rows(dense["morphism"][key], 0) is not None
    assert dumps(dense) == oracle(dense)
    assert dumps(cert) == oracle(cert)


@pytest.mark.parametrize("tree", [
    Fraction(1, 2), {"a": {1, 2}}, [object()], {(1, 2): 3}, {"k": [b"x"]}])
def test_what_json_refuses_is_refused(tree):
    with pytest.raises(TypeError) as expected:
        oracle(tree)
    with pytest.raises(TypeError) as got:
        dumps(tree)
    assert str(got.value) == str(expected.value)
