"""A certificate's signed-permutation blocks and sparse vectors written
back in the dense form of older certificates, for the tests of the
readers that still accept that form.

morphism_to_dict writes both blocks, `A` and `C`, as {"image", "sign"}:
column a holds sign[a] in row image[a], both 1-based.  Older certificates
wrote the same blocks as dense rows; between the two, certificates wrote
`A` as signs and `C` as rows, and dense_center gives that form.  The
SBG_NO vectors `z0` and `witness_v` and an INCONCLUSIVE scan's
`precondition.violation` are written by their support, {"dim", "index",
"value"}; older certificates wrote `z0` and `witness_v` as lists of
decimal strings and `violation` as a list of integers, zeros included.
densify turns the one form into the other, so recheck's dense paths stay
covered by the mutation tests.
"""

import json


def dense_rows(a: dict) -> list:
    n = len(a["image"])
    rows = [[0] * n for _ in range(n)]
    for col, (row, sign) in enumerate(zip(a["image"], a["sign"])):
        rows[row - 1][col] = sign
    return rows


def dense_vector(v: dict) -> list:
    """The entries of a sparse {"dim", "index", "value"} vector, zeros
    included."""
    out = [0] * v["dim"]
    for i, e in zip(v["index"], v["value"]):
        out[i - 1] = e
    return out


def dense_center(cert: dict) -> dict:
    """A copy of cert whose morphism, if it has one, holds C as dense rows
    and nothing else changed."""
    out = json.loads(json.dumps(cert))
    if "morphism" in out:
        out["morphism"]["C"] = dense_rows(out["morphism"]["C"])
    return out


def densify(cert: dict) -> dict:
    """A copy of cert whose morphism, if it has one, holds A and C as dense
    rows, whose SBG_NO witness is two lists of decimal strings, and whose
    scan violation, if it has one, is a list of integers."""
    out = dense_center(cert)
    if "morphism" in out:
        out["morphism"]["A"] = dense_rows(out["morphism"]["A"])
    for key in ("z0", "witness_v"):
        if key in out:
            out[key] = [str(e) for e in dense_vector(out[key])]
    scan = out.get("precondition")
    if isinstance(scan, dict) and scan.get("violation") is not None:
        scan["violation"] = dense_vector(scan["violation"])
    return out

