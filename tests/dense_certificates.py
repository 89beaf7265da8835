"""An ISO certificate's module block `A` written back as dense rows.

morphism_to_dict writes a signed-permutation `A` as {"image", "sign"}:
column a holds sign[a] in row image[a], both 1-based.  Older certificates
wrote the same block as dense rows.  densify turns the one form into the
other, so the sha256 pins of the old text still check the same maps, and
recheck's dense-row path stays covered by the mutation tests.
"""

import json

from pseudoht import jsonout


def dense_rows(a: dict) -> list:
    n = len(a["image"])
    rows = [[0] * n for _ in range(n)]
    for col, (row, sign) in enumerate(zip(a["image"], a["sign"])):
        rows[row - 1][col] = sign
    return rows


def densify(cert: dict) -> dict:
    """A copy of cert whose morphism, if it has one, holds A as dense rows."""
    out = json.loads(json.dumps(cert))
    if "morphism" in out:
        out["morphism"]["A"] = dense_rows(out["morphism"]["A"])
    return out


def densified_text(text: str) -> str:
    """The CLI text of the certificate in text, with A as dense rows."""
    return jsonout.dumps(densify(json.loads(text))) + "\n"
