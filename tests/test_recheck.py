import json

import pseudoht.recheck as recheck
from pseudoht.catalog import base_algebra
from pseudoht.cli import check_pair, main
from pseudoht.core import exact_rank
from pseudoht.obstruction import sbg_decision
from pseudoht.recheck import rebuild_from_provenance, recheck_certificate
from pseudoht.sums import build_sum, sum_sbg


def test_rebuild_base_and_extended_and_sum():
    assert rebuild_from_provenance({"kind": "base", "id": [3, 2]}).tensor \
        == base_algebra(3, 2).tensor
    ext = rebuild_from_provenance(
        {"kind": "extended", "base": [1, 0], "steps": [[0, 8], [8, 0]]})
    assert (ext.r, ext.s, ext.dim_module) == (9, 8, 512)
    summed = rebuild_from_provenance(
        {"kind": "sum", "base": [2, 3],
         "blocks": [{"type": 1, "count": 1}, {"type": 2, "count": 1}]})
    assert summed.dim_module == 16


def test_recheck_iso_certificate():
    cert = check_pair(4, 0, 0, 4).json_dict()
    assert recheck_certificate(cert).ok
    # a corrupted matrix entry must be caught
    cert["morphism"]["A"][0][0] = -cert["morphism"]["A"][0][0]
    assert not recheck_certificate(cert).ok


def test_recheck_ranks_blocks_that_are_not_signed_permutations(monkeypatch):
    ranked = []
    monkeypatch.setattr(recheck, "exact_rank",
                        lambda m: ranked.append(m.rows) or exact_rank(m))
    cert = check_pair(4, 0, 0, 4).json_dict()
    m = cert["morphism"]
    assert recheck_certificate(cert).ok
    assert ranked == [4]   # the signed-permutation A needs no elimination
    del m["class"]
    # all-zero blocks preserve every bracket, but are no isomorphism
    zero = json.loads(json.dumps(cert))
    for key in ("A", "B", "C"):
        zero["morphism"][key] = [[0] * len(row) for row in m[key]]
    verdict = recheck_certificate(zero)
    assert not verdict.ok
    assert verdict.detail == "a block of the embedded map is singular"
    # (2A, 4C) is an isomorphism too; its blocks are ranked, not pattern-read
    scaled = json.loads(json.dumps(cert))
    scaled["morphism"]["A"] = [[2 * e for e in row] for row in m["A"]]
    scaled["morphism"]["C"] = [[4 * e for e in row] for row in m["C"]]
    ranked.clear()
    assert recheck_certificate(scaled).ok
    assert sorted(ranked) == [4, 8]


def test_recheck_parity_certificate():
    cert = check_pair(3, 2, 2, 3).json_dict()
    assert recheck_certificate(cert).ok
    bad = json.loads(json.dumps(cert))
    bad["parity"]["cycle"][0]["rhs"] *= -1
    assert not recheck_certificate(bad).ok
    stale = json.loads(json.dumps(cert))
    stale["parity"]["precondition"]["equivalence_holds"] = False
    assert not recheck_certificate(stale).ok


def test_recheck_dimension_and_signature_certificates():
    assert recheck_certificate(check_pair(3, 0, 0, 3).json_dict()).ok
    assert recheck_certificate(check_pair(2, 0, 1, 1).json_dict()).ok
    fake = {"kind": "NOT_ISO_DIM", "reason": "made up", "src": [1, 0],
            "dst": [0, 1]}
    assert not recheck_certificate(fake).ok
    fake = {"kind": "NOT_ISO_SIGNATURE", "src": [1, 1], "dst": [1, 1]}
    assert not recheck_certificate(fake).ok


def test_recheck_sbg_certificates():
    cert = sbg_decision(base_algebra(3, 2)).json_dict()
    assert recheck_certificate(cert).ok
    cert["witness_v"][0] = "7"   # break the witness
    assert not recheck_certificate(cert).ok
    summed = sum_sbg(build_sum(base_algebra(2, 3), 2, 1)).json_dict()
    assert recheck_certificate(summed).ok
    assert recheck_certificate(
        sbg_decision(base_algebra(4, 0)).json_dict()).ok  # evidence record


def test_recheck_refuses_sbg_witness_of_wrong_length():
    cert = sbg_decision(base_algebra(1, 1)).json_dict()
    assert recheck_certificate(cert).ok
    padded = json.loads(json.dumps(cert))
    padded["z0"].append("0")
    assert not recheck_certificate(padded).ok
    short = json.loads(json.dumps(cert))
    short["witness_v"].pop()
    assert not recheck_certificate(short).ok


def test_recheck_round_trips_through_cli_json(capsys):
    main(["check", "5", "4", "4", "5"])
    cert = json.loads(capsys.readouterr().out)
    assert recheck_certificate(cert).ok


def test_unknown_kind_rejected():
    assert not recheck_certificate({"kind": "SOMETHING"}).ok
