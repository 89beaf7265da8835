"""An algebra's structure entries written back in the object form of older
versions.

algebra_json writes each structure entry as an [i, j, k, sign] row.  Older
versions wrote the same entry as {"i", "j", "k", "sign"}, and
algebra_from_dict still reads that form.  object_entries turns the one form
into the other, so the tests of that reader parse the old form of every
algebra tests/golden.json pins and compare it with the row form.
"""

import json

from pseudoht import jsonout

KEYS = ("i", "j", "k", "sign")


def object_entries(data: dict) -> dict:
    """A copy of an algebra's JSON tree with each structure row an object."""
    return {**data, "structure": [dict(zip(KEYS, row))
                                  for row in data["structure"]]}


def object_entry_text(text: str) -> str:
    """The CLI text of the algebra in text, with object structure entries."""
    return jsonout.dumps(object_entries(json.loads(text))) + "\n"
