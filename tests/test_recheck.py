import json
import tracemalloc
from fractions import Fraction

import pytest

import pseudoht.algebra as algebra
import pseudoht.catalog as catalog
import pseudoht.extension as extension
import pseudoht.recheck as recheck
from pseudoht.algebra import BaseProvenance, Verdict
from pseudoht.catalog import base_algebra
from pseudoht.cli import check_pair, main
from pseudoht.core import exact_rank
from pseudoht.extension import standard_algebra
from pseudoht.obstruction import sbg_decision
from pseudoht.recheck import rebuild_from_provenance, recheck_certificate
from pseudoht.morphism import morphism_to_dict
from pseudoht.sums import build_sum, sum_sbg, swap_isomorphism

from dense_certificates import dense_center, densify


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
    # the lower-left block maps into the center and enters no bracket: the
    # "B" of an older certificate is ignored, whatever it holds
    older = json.loads(json.dumps(cert))
    older["morphism"]["B"] = [[7] * 8] * 4
    assert recheck_certificate(older).ok
    # the dense rows of older and foreign certificates are still read
    dense = densify(cert)
    assert isinstance(dense["morphism"]["A"], list)
    assert isinstance(dense["morphism"]["C"], list)
    assert recheck_certificate(dense).ok
    # and so is the C of certificates that wrote only A as signs
    assert recheck_certificate(dense_center(cert)).ok
    # a corrupted sign or matrix entry must be caught
    cert["morphism"]["A"]["sign"][0] *= -1
    assert not recheck_certificate(cert).ok
    dense["morphism"]["A"][0][0] = -dense["morphism"]["A"][0][0]
    assert not recheck_certificate(dense).ok


def test_recheck_ranks_the_center_block_alone(monkeypatch):
    ranked = []
    monkeypatch.setattr(recheck, "exact_rank",
                        lambda m: ranked.append(len(m)) or exact_rank(m))
    cert = check_pair(4, 0, 0, 4).json_dict()
    assert recheck_certificate(cert).ok
    assert ranked == [4]   # the signed-permutation A needs no elimination
    cert = densify(cert)
    m = cert["morphism"]
    ranked.clear()
    assert recheck_certificate(cert).ok
    assert ranked == [4]   # nor does one written as dense rows
    del m["class"]
    # all-zero blocks preserve every bracket, and (2A, 4C) is an
    # isomorphism too, but no block of a morphism is anything but a signed
    # permutation: both are refused before any rank
    for a_factor, c_factor in ((0, 0), (2, 4)):
        forged = json.loads(json.dumps(cert))
        forged["morphism"]["A"] = [[a_factor * e for e in row] for row in m["A"]]
        forged["morphism"]["C"] = [[c_factor * e for e in row] for row in m["C"]]
        ranked.clear()
        verdict = recheck_certificate(forged)
        assert verdict == Verdict(False, None, "module block is not a signed "
                                               "permutation")
        assert ranked == []


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
    for args in ((3, 0, 0, 3), (2, 0, 1, 1)):
        cert = check_pair(*args).json_dict()
        assert cert["anti_isometric_center_only"] is False
        assert recheck_certificate(cert).ok
        # an older certificate has no flag; it reads false
        del cert["anti_isometric_center_only"]
        assert recheck_certificate(cert).ok
        cert["anti_isometric_center_only"] = "no"
        assert not recheck_certificate(cert).ok
    fake = {"kind": "NOT_ISO_DIM", "reason": "made up", "src": [1, 0],
            "dst": [0, 1]}
    assert not recheck_certificate(fake).ok
    fake = {"kind": "NOT_ISO_SIGNATURE", "src": [1, 1], "dst": [1, 1]}
    assert not recheck_certificate(fake).ok
    # only the kind the signatures give is accepted
    for kind, src, dst in (("NOT_ISO_DIM", [2, 0], [1, 1]),  # dims agree
                           ("NOT_ISO_SIGNATURE", [3, 0], [0, 3]),
                           ("NOT_ISO_SIGNATURE", [3, 2], [2, 3]),  # the swap
                           ("NOT_ISO_DIM", [3, 2], [2, 3])):
        for anti in (False, True):
            forged = {"kind": kind, "reason": "made up", "src": src,
                      "dst": dst, "anti_isometric_center_only": anti}
            assert not recheck_certificate(forged).ok, forged


@pytest.mark.parametrize("args", [(3, 0, 0, 3), (2, 0, 1, 1), (3, 2, 3, 2, True)])
def test_recheck_compares_the_stated_reason(args):
    cert = check_pair(*args).json_dict()
    assert recheck_certificate(cert).ok
    for reason in ("forged", cert["reason"] + ".", "", None, [cert["reason"]]):
        forged = dict(cert, reason=reason)
        verdict = recheck_certificate(forged)
        assert not verdict.ok and cert["reason"] in verdict.detail, reason
    del cert["reason"]
    assert not recheck_certificate(cert).ok


@pytest.mark.parametrize("value", [False, None, 1, "true", [True]])
def test_recheck_requires_the_cycle_to_be_stated_reverified(value):
    cert = check_pair(3, 2, 2, 3).json_dict()
    assert cert["cycle_reverified"] is True
    cert["cycle_reverified"] = value
    assert not recheck_certificate(cert).ok
    del cert["cycle_reverified"]
    assert not recheck_certificate(cert).ok


@pytest.mark.parametrize("value", [True, None, 0, "false", [False]])
def test_recheck_requires_the_parity_system_to_be_stated_infeasible(value):
    cert = check_pair(3, 2, 2, 3).json_dict()
    assert cert["parity"]["feasible"] is False
    cert["parity"]["feasible"] = value
    assert not recheck_certificate(cert).ok
    del cert["parity"]["feasible"]
    assert not recheck_certificate(cert).ok


def test_the_reduction_steps_are_informative():
    cert = check_pair(3, 2, 2, 3).json_dict()
    cert["steps"] = ["any text"]
    assert recheck_certificate(cert).ok


def _anti_questions():
    """(r, s) with r + s <= 12 where n_(r,s) and n_(s,r) are constructible."""
    return [(r, n - r) for n in range(1, 13) for r in range(n + 1)
            if extension.standard_chain(r, n - r) is not None
            and extension.standard_chain(n - r, r) is not None]


def test_anti_automorphisms_need_r_equal_s():
    questions = _anti_questions()
    assert len(questions) == 36
    equal = {}
    for r, s in questions:
        cert = check_pair(r, s, r, s, anti_only=True).json_dict()
        assert recheck_certificate(cert).ok, (r, s)
        if r == s:
            equal[r] = cert["kind"]
            continue
        # Sylvester's law of inertia, re-derived from the signatures and
        # the flag: without the flag the identity answers instead
        assert cert["kind"] == "NOT_ISO_SIGNATURE", (r, s)
        assert "Sylvester" in cert["reason"]
        cert["anti_isometric_center_only"] = False
        assert not recheck_certificate(cert).ok, (r, s)
    assert equal == {1: "ISO", 2: "ISO", 3: "NOT_ISO_PARITY", 4: "ISO",
                     5: "ISO", 6: "ISO"}


def _sbg_no(rs=(1, 1), form="sparse") -> dict:
    """The SBG_NO certificate of n_(r,s) as certify writes it, or with its
    vectors dense, as older certificates wrote them."""
    cert = sbg_decision(standard_algebra(*rs)).json_dict()
    return densify(cert) if form == "dense" else cert


FORMS = ("sparse", "dense")


def test_recheck_sbg_certificates():
    cert = sbg_decision(base_algebra(3, 2)).json_dict()
    assert recheck_certificate(cert).ok
    # break the witness, in either form
    for form in FORMS:
        broken = _sbg_no((3, 2), form)
        assert recheck_certificate(broken).ok
        if form == "dense":
            broken["witness_v"][0] = "7"
        else:
            broken["witness_v"]["value"][0] *= 7
        assert not recheck_certificate(broken).ok
    summed = sum_sbg(build_sum(base_algebra(2, 3), 2, 1)).json_dict()
    assert recheck_certificate(summed).ok
    assert recheck_certificate(
        sbg_decision(base_algebra(4, 0)).json_dict()).ok  # evidence record


@pytest.mark.parametrize("entry", ["1e2000000", "0.5", 0.5, True, " 1", "+1",
                                   "1_000"])
def test_recheck_refuses_a_witness_entry_fraction_would_misread(entry,
                                                               monkeypatch):
    # str(Fraction) writes -?digits(/digits)?; anything else is refused
    # before Fraction runs, so an exponent form costs nothing to refuse.
    # The sparse form holds JSON integers only.
    monkeypatch.setattr(recheck, "Fraction", lambda e: pytest.fail(
        f"Fraction({e!r}) ran"))
    for form in FORMS:
        cert = _sbg_no(form=form)
        (cert["z0"] if form == "dense" else cert["z0"]["value"])[0] = entry
        verdict = recheck_certificate(cert)
        assert verdict.ok is False and "malformed" in verdict.detail, form


@pytest.mark.parametrize("entry", ["1e2000000", 1.5])
def test_recheck_refuses_a_morphism_entry_fraction_would_misread(entry,
                                                                monkeypatch):
    cert = densify(check_pair(1, 8, 8, 1).json_dict())
    cert["morphism"]["A"][3][2] = entry
    monkeypatch.setattr(recheck, "Fraction", lambda e: pytest.fail(
        f"Fraction({e!r}) ran"))
    verdict = recheck_certificate(cert)
    assert verdict.ok is False and "malformed" in verdict.detail


def test_recheck_reads_the_rationals_str_fraction_writes():
    cert = _sbg_no(form="dense")
    # a witness scaled by -1/2 is still a witness
    for key in ("z0", "witness_v"):
        cert[key] = [str(-Fraction(int(e), 2)) for e in cert[key]]
    assert "-1/2" in cert["z0"]
    assert recheck_certificate(cert).ok
    # the sparse form has an integer multiple of every witness, and holds
    # integers only
    sparse = _sbg_no()
    sparse["z0"]["value"] = ["-1/2", "-1/2"]
    verdict = recheck_certificate(sparse)
    assert verdict.ok is False and "malformed" in verdict.detail


def test_recheck_reads_integer_strings_as_ints():
    ints = recheck._rational_list(["1", "-1", "0"], "z0")
    assert ints == [1, -1, 0] and {type(e) for e in ints} == {int}
    half = recheck._rational_list(["2/4"], "z0")
    assert half == [Fraction(1, 2)] and type(half[0]) is Fraction


@pytest.mark.parametrize("entry", ["1/0", "1" * 5000, "1/" + "1" * 5000])
def test_recheck_refuses_a_witness_entry_no_number_reads(entry):
    for form in FORMS:
        cert = _sbg_no(form=form)
        (cert["witness_v"] if form == "dense"
         else cert["witness_v"]["value"])[0] = entry
        verdict = recheck_certificate(cert)
        assert verdict.ok is False and "malformed" in verdict.detail, form


def test_an_integer_witness_rechecks_without_fractions(monkeypatch):
    sparse, dense = (_sbg_no((9, 8), form) for form in FORMS)
    # two support entries each: four J table lookups
    assert [len(sparse[key]["index"]) for key in ("z0", "witness_v")] \
        == [2, 2]
    assert len(dense["z0"]) + len(dense["witness_v"]) == 529
    monkeypatch.setattr(recheck, "Fraction", lambda e: pytest.fail(
        f"Fraction({e!r}) ran"))
    assert recheck_certificate(sparse).ok
    assert recheck_certificate(dense).ok


@pytest.mark.parametrize("rs", [(3, 2), (9, 8)])
def test_the_dense_sbg_no_text_of_older_certificates_rechecks(rs):
    # densified_text gives the bytes sbg 3 2 and sbg 9 8 wrote before their
    # vectors were sparse (the sha256 pins of test_cli and test_golden)
    cert = _sbg_no(rs, "dense")
    a = standard_algebra(*rs)
    assert (len(cert["z0"]), len(cert["witness_v"])) == (a.dim_center,
                                                         a.dim_module)
    assert all(type(e) is str for e in cert["z0"] + cert["witness_v"])
    assert recheck_certificate(cert).ok


def test_recheck_refuses_sbg_witness_of_wrong_length():
    for form in FORMS:
        cert = _sbg_no(form=form)
        assert recheck_certificate(cert).ok
        padded = json.loads(json.dumps(cert))
        short = json.loads(json.dumps(cert))
        if form == "dense":
            padded["z0"].append("0")
            short["witness_v"].pop()
        else:
            padded["z0"]["dim"] += 1
            short["witness_v"]["dim"] -= 1
        assert not recheck_certificate(padded).ok, form
        assert not recheck_certificate(short).ok, form


SPARSE_FORGERIES = {
    "index 0": lambda v: v.update(index=[0, *v["index"][1:]]),
    "index above dim": lambda v: v.update(index=[*v["index"][:-1],
                                                 v["dim"] + 1]),
    "repeated index": lambda v: v.update(index=[v["index"][0]] * 2),
    "unsorted index": lambda v: v.update(index=v["index"][::-1]),
    "value 0": lambda v: v.update(value=[0, *v["value"][1:]]),
    "value true": lambda v: v.update(value=[True, *v["value"][1:]]),
    "value 1.5": lambda v: v.update(value=[1.5, *v["value"][1:]]),
    # the same vector with one more support entry, of value 0
    "value 0 at a further index": lambda v: v.update(
        index=[*v["index"], v["dim"]], value=[*v["value"], 0]),
    "index longer than value": lambda v: v.update(index=[*v["index"],
                                                         v["dim"]]),
    "value longer than index": lambda v: v.update(value=[*v["value"], 1]),
    "missing dim": lambda v: v.pop("dim"),
    "dim not the algebra's": lambda v: v.update(dim=v["dim"] + 8),
    "dim true": lambda v: v.update(dim=True),
    "dim a float": lambda v: v.update(dim=float(v["dim"])),
    "missing index": lambda v: v.pop("index"),
    "value not a list": lambda v: v.update(value=1),
    "an index that is a list": lambda v: v.update(index=[[1]]),
}


@pytest.mark.parametrize("key", ["z0", "witness_v"])
@pytest.mark.parametrize("forgery", SPARSE_FORGERIES)
def test_recheck_refuses_a_malformed_sparse_vector(key, forgery):
    cert = _sbg_no()
    assert recheck_certificate(cert).ok
    SPARSE_FORGERIES[forgery](cert[key])
    verdict = recheck_certificate(cert)
    assert verdict.ok is False, verdict


@pytest.mark.parametrize("key", ["z0", "witness_v"])
def test_a_huge_sparse_dim_is_refused_before_anything_of_its_size(key):
    cert = _sbg_no((3, 2))
    assert recheck_certificate(cert).ok   # the algebra is built and kept
    for index in (cert[key]["index"], [1, 10 ** 9]):
        forged = json.loads(json.dumps(cert))
        forged[key].update(dim=10 ** 9, index=index)
        tracemalloc.start()
        try:
            verdict = recheck_certificate(forged)
            _, peak = tracemalloc.get_traced_memory()
        finally:
            tracemalloc.stop()
        assert verdict.ok is False and peak < 1 << 20


def test_recheck_round_trips_through_cli_json(capsys):
    main(["check", "5", "4", "4", "5"])
    cert = json.loads(capsys.readouterr().out)
    assert recheck_certificate(cert).ok


def test_unknown_kind_rejected():
    assert not recheck_certificate({"kind": "SOMETHING"}).ok


def _check_json(capsys, *argv):
    main(["check", *argv])
    return json.loads(capsys.readouterr().out)


def test_recheck_refuses_automorphism_refutation_without_anti_flag(capsys):
    cert = _check_json(capsys, "3", "3", "3", "3", "--anti")
    assert cert["kind"] == "NOT_ISO_PARITY"
    assert recheck_certificate(cert).ok
    # n_(3,3) is isomorphic to itself: without the anti-isometric
    # restriction the certificate would refute the identity
    cert["anti_isometric_center_only"] = False
    assert not recheck_certificate(cert).ok


def test_recheck_refuses_parity_forgeries():
    cert = check_pair(3, 2, 2, 3).json_dict()
    assert cert["parity"]["precondition"]["proof"] == "witt-index"
    for dst in ([3, 2], [4, 1], [1, 4]):
        forged = json.loads(json.dumps(cert))
        forged["dst"] = dst
        assert not recheck_certificate(forged).ok
    # a bare flag, or an old-style scan record, is no proof
    stripped = json.loads(json.dumps(cert))
    stripped["parity"]["precondition"] = {"equivalence_holds": True}
    assert not recheck_certificate(stripped).ok
    scanned = json.loads(json.dumps(cert))
    scanned["parity"]["precondition"] = {
        "algebra": "n_(2,3)", "grid_radius": 1, "points": 10560,
        "equivalence_holds": True, "null_full_rank": [],
        "nonnull_rank_deficient": []}
    assert not recheck_certificate(scanned).ok
    # the record of a bound that fails refutes nothing, even if it is exact
    assert recheck_certificate(check_pair(11, 2, 2, 11).json_dict()).ok
    open_pair = json.loads(json.dumps(cert))
    open_pair.update(src=[11, 2], dst=[2, 11])
    open_pair["parity"]["precondition"] = {
        "algebra": "n_(2,11)", "proof": "witt-index", "dim_center": 13,
        "module_signature": [64, 64], "equivalence_holds": False}
    verdict = recheck_certificate(open_pair)
    assert not verdict.ok and "Witt index" in verdict.detail


def test_parity_recheck_rests_on_the_destination_axioms(monkeypatch):
    cert = check_pair(3, 2, 2, 3).json_dict()
    # verify_axioms, shared with verify_general_htype, runs the checks; the
    # verdict is kept on each shared algebra, so the recheck starts from an
    # empty cache and its rebuilt destination is checked afresh
    monkeypatch.setattr(algebra, "verify_htype",
                        lambda a: Verdict(False, (1, 2, 3), "fails"))
    with catalog.scope():
        verdict = recheck_certificate(cert)
    assert not verdict.ok and verdict.detail.startswith("destination fails")


def test_recheck_refuses_malformed_payloads_without_raising():
    cert = check_pair(3, 2, 2, 3).json_dict()

    def mutated(edit):
        forged = json.loads(json.dumps(cert))
        edit(forged)
        return forged

    payloads = [
        None, [], "NOT_ISO_PARITY", {}, {"kind": ["ISO"]},
        mutated(lambda c: c.update(src=[1])),
        mutated(lambda c: c.update(src=["3", "2"])),
        mutated(lambda c: c.update(src=[True, 2])),
        mutated(lambda c: c.update(dst=[10 ** 9, 0])),
        mutated(lambda c: c.update(src=[45, 46], dst=[46, 45])),
        mutated(lambda c: c.pop("parity")),
        mutated(lambda c: c.pop("anti_isometric_center_only")),
        mutated(lambda c: c.update(anti_isometric_center_only="yes")),
        mutated(lambda c: c["parity"].pop("precondition")),
        mutated(lambda c: c["parity"].update(cycle="x")),
        mutated(lambda c: c["parity"]["cycle"][0].update(a="x")),
        mutated(lambda c: c["parity"]["cycle"][0].pop("rhs")),
        mutated(lambda c: c["parity"]["cycle"].append(7)),
        {"kind": "SBG_YES"},
        {"kind": "SBG_YES", "signature": "x"},
        {"kind": "SBG_YES", "signature": [8, 0], "sum": [1]},
        {"kind": "SBG_NO", "signature": [1, 1], "z0": ["1/0", "1"],
         "witness_v": ["0", "1", "1", "0"]},
        {"kind": "SBG_NO", "signature": [1, 1], "z0": "11",
         "witness_v": ["0", "1", "1", "0"]},
        {"kind": "NOT_ISO_DIM", "src": [1, 0]},
        {"kind": "NOT_ISO_SIGNATURE", "src": "x", "dst": [1, 1]},
    ]
    for payload in payloads:
        verdict = recheck_certificate(payload)
        assert verdict.ok is False, payload


def test_recheck_accepts_sbg_yes_only_on_definite_constructible_signatures():
    for r, s in ((8, 0), (0, 9), (16, 0)):
        assert recheck_certificate({"kind": "SBG_YES", "signature": [r, s],
                                    "samples": 100, "seed": 0}).ok
    summed = sum_sbg(build_sum(base_algebra(0, 1), 3, 2)).json_dict()
    assert summed["kind"] == "SBG_YES" and recheck_certificate(summed).ok
    # sbg 1 1 is SBG_NO; (3,0) has no construction; (0,2) has one module
    # type; a sum needs a block and a catalog base
    for forged in ({"kind": "SBG_YES", "signature": [1, 1]},
                   {"kind": "SBG_YES", "signature": [3, 0]},
                   {"kind": "SBG_YES", "signature": [0, 0]},
                   {"kind": "SBG_YES", "signature": [0, 2], "sum": [1, 1]},
                   {"kind": "SBG_YES", "signature": [8, 0], "sum": [0, 0]},
                   {"kind": "SBG_YES", "signature": [9, 0], "sum": [1, 0]},
                   {"kind": "SBG_YES", "signature": [8, 0],
                    "sum": [10 ** 6, 0]}):
        assert not recheck_certificate(forged).ok, forged


def _iso_mutation(edit):
    def mutate(cert):
        edit(cert["morphism"])
        return cert
    return mutate


def _set(key, value):
    return _iso_mutation(lambda m: m.update({key: value}))


def _set_provenance(value):
    return _iso_mutation(lambda m: m["src"].update(provenance=value))


ISO_MUTATIONS = {
    "A missing": _iso_mutation(lambda m: m.pop("A")),
    "C missing": _iso_mutation(lambda m: m.pop("C")),
    "A ragged": _iso_mutation(lambda m: m["A"][0].pop()),
    "A not a list": _set("A", "1"),
    "A row not a list": _iso_mutation(lambda m: m["A"].__setitem__(0, 7)),
    "A entry not rational": _iso_mutation(lambda m: m["A"][0].__setitem__(0, "x")),
    "A entry a zero denominator": _iso_mutation(
        lambda m: m["A"][0].__setitem__(0, "1/0")),
    "A entry infinite": _iso_mutation(
        lambda m: m["A"][0].__setitem__(0, float("inf"))),
    "A entry null": _iso_mutation(lambda m: m["A"][0].__setitem__(0, None)),
    "A row missing": _iso_mutation(lambda m: m["A"].pop()),
    "A wrongly shaped": _iso_mutation(
        lambda m: m.update(A=[row[:-1] for row in m["A"]])),
    "C wrongly shaped": _iso_mutation(lambda m: m.update(C=m["C"][:-1])),
    # the right shape, but no signed permutation
    "A scaled by 2": _iso_mutation(
        lambda m: m.update(A=[[2 * e for e in row] for row in m["A"]])),
    "C scaled by 4": _iso_mutation(
        lambda m: m.update(C=[[4 * e for e in row] for row in m["C"]])),
    "A and C scaled by 2 and 4": _iso_mutation(lambda m: m.update(
        A=[[2 * e for e in row] for row in m["A"]],
        C=[[4 * e for e in row] for row in m["C"]])),
    "A entry 1/2": _iso_mutation(lambda m: m["A"][0].__setitem__(0, "1/2")),
    "C entry 1/2": _iso_mutation(lambda m: m["C"][0].__setitem__(0, "1/2")),
    "A all zero": _iso_mutation(
        lambda m: m.update(A=[[0] * len(row) for row in m["A"]])),
    "C all zero": _iso_mutation(
        lambda m: m.update(C=[[0] * len(row) for row in m["C"]])),
    "class not an object": _set("class", "integral"),
    "class a list": _set("class", [1]),
    # present but falsy: still not an object, so not "not stated"
    "class zero": _set("class", 0),
    "class false": _set("class", False),
    "class an empty string": _set("class", ""),
    "class an empty list": _set("class", []),
    "class null": _set("class", None),
    "src missing": _iso_mutation(lambda m: m.pop("src")),
    "src not an object": _set("src", [1, 8]),
    "provenance missing": _iso_mutation(lambda m: m["dst"].pop("provenance")),
    "provenance null": _set_provenance(None),
    "provenance unknown kind": _set_provenance({"kind": "mystery"}),
    "provenance kind missing": _set_provenance({"id": [1, 8]}),
    "base id not integers": _set_provenance({"kind": "base", "id": ["1", "8"]}),
    "base id unsupported": _set_provenance({"kind": "base", "id": [5, 5]}),
    "extension steps not a list": _set_provenance(
        {"kind": "extended", "base": [1, 0], "steps": "8,0"}),
    "extension step malformed": _set_provenance(
        {"kind": "extended", "base": [1, 0], "steps": [[8]]}),
    "extension step unknown": _set_provenance(
        {"kind": "extended", "base": [1, 0], "steps": [[2, 2]]}),
    "extension base null": _set_provenance(
        {"kind": "extended", "base": None, "steps": []}),
    "sum blocks malformed": _set_provenance(
        {"kind": "sum", "base": [2, 3], "blocks": [{"type": 1}]}),
    "sum blocks not a list": _set_provenance(
        {"kind": "sum", "base": [2, 3], "blocks": 3}),
    "sum over the budget": _set_provenance(
        {"kind": "sum", "base": [2, 3],
         "blocks": [{"type": 1, "count": 10 ** 6}, {"type": 2, "count": 0}]}),
}


@pytest.mark.parametrize("name", sorted(ISO_MUTATIONS))
def test_recheck_refuses_malformed_iso_fields(name):
    # on A as dense rows, the form recheck still reads
    cert = densify(check_pair(1, 8, 8, 1).json_dict())
    assert cert["kind"] == "ISO" and recheck_certificate(cert).ok
    verdict = recheck_certificate(ISO_MUTATIONS[name](cert))
    assert verdict.ok is False


def _set_in(block, key, index, value):
    return _iso_mutation(lambda m: m[block][key].__setitem__(index, value))


def _set_a(key, index, value):
    return _set_in("A", key, index, value)


def _swap_images(block):
    def swap(m):
        image = m[block]["image"]
        image[0], image[1] = image[1], image[0]
    return swap


# A as {"image", "sign"}; (1,8) has module dimension 32
COMPACT_A_MUTATIONS = {
    "A missing": _iso_mutation(lambda m: m.pop("A")),
    "A null": _set("A", None),
    "A a number": _set("A", 1),
    "A an empty object": _set("A", {}),
    "image missing": _iso_mutation(lambda m: m["A"].pop("image")),
    "sign missing": _iso_mutation(lambda m: m["A"].pop("sign")),
    "image not a list": _iso_mutation(lambda m: m["A"].update(image=3)),
    "image short": _iso_mutation(lambda m: m["A"]["image"].pop()),
    "image long": _iso_mutation(lambda m: m["A"]["image"].append(33)),
    "sign short": _iso_mutation(lambda m: m["A"]["sign"].pop()),
    "sign long": _iso_mutation(lambda m: m["A"]["sign"].append(1)),
    "image a zero": _set_a("image", 0, 0),
    "image negative": _set_a("image", 0, -1),
    "image out of range": _set_a("image", 0, 33),
    "image repeated": _iso_mutation(
        lambda m: m["A"]["image"].__setitem__(0, m["A"]["image"][1])),
    "image a boolean": _set_a("image", 0, True),
    "image a float": _set_a("image", 0, 1.0),
    "image a string": _set_a("image", 0, "1"),
    "sign a zero": _set_a("sign", 0, 0),
    "sign a two": _set_a("sign", 0, 2),
    "sign a boolean": _set_a("sign", 0, True),
    "sign a float": _set_a("sign", 0, 1.0),
    "sign a string": _set_a("sign", 0, "-1"),
    "module dimensions differ": _iso_mutation(lambda m: m["src"].update(
        r=4, s=0, provenance={"kind": "base", "id": [4, 0]})),
}


def _set_c(key, index, value):
    return _set_in("C", key, index, value)


def _swap_blocks(m):
    m["A"], m["C"] = m["C"], m["A"]


# C as {"image", "sign"}; (1,8) has center dimension 9
COMPACT_C_MUTATIONS = {
    "C null": _set("C", None),
    "C a number": _set("C", 1),
    "C a string": _set("C", "1"),
    "C an empty object": _set("C", {}),
    "C image missing": _iso_mutation(lambda m: m["C"].pop("image")),
    "C sign missing": _iso_mutation(lambda m: m["C"].pop("sign")),
    "C image not a list": _iso_mutation(lambda m: m["C"].update(image=3)),
    "C image short": _iso_mutation(lambda m: m["C"]["image"].pop()),
    "C image long": _iso_mutation(lambda m: m["C"]["image"].append(10)),
    "C sign short": _iso_mutation(lambda m: m["C"]["sign"].pop()),
    "C sign long": _iso_mutation(lambda m: m["C"]["sign"].append(1)),
    "C image a zero": _set_c("image", 0, 0),
    "C image negative": _set_c("image", 0, -1),
    "C image out of range": _set_c("image", 0, 10),
    "C image repeated": _iso_mutation(
        lambda m: m["C"]["image"].__setitem__(0, m["C"]["image"][1])),
    "C image a boolean": _set_c("image", 0, True),
    "C image a float": _set_c("image", 0, 1.0),
    "C sign a zero": _set_c("sign", 0, 0),
    "C sign a two": _set_c("sign", 0, 2),
    "C sign a boolean": _set_c("sign", 0, True),
    "C sign a float": _set_c("sign", 0, 1.0),
    "C sign a string": _set_c("sign", 0, "1"),
    "A and C swapped": _iso_mutation(_swap_blocks),
}
# a signed permutation of the right size, but the wrong map
WRONG_MAPS = {
    "image entries swapped": _iso_mutation(_swap_images("A")),
    "C image entries swapped": _iso_mutation(_swap_images("C")),
    "C sign flipped": _iso_mutation(
        lambda m: m["C"]["sign"].__setitem__(0, -m["C"]["sign"][0])),
}
# ISO_MUTATIONS that edit C's rows: run on C as dense rows, the form of
# certificates written before C was written as signs
ROW_C_MUTATIONS = {name: edit for name, edit in ISO_MUTATIONS.items()
                   if name.startswith("C ")}
# and every mutation of ISO_MUTATIONS that leaves A alone
COMPACT_MUTATIONS = {**COMPACT_A_MUTATIONS, **COMPACT_C_MUTATIONS, **WRONG_MAPS,
                     **{name: edit for name, edit in ISO_MUTATIONS.items()
                        if not name.startswith("A ")}}


@pytest.mark.parametrize("name", sorted(COMPACT_MUTATIONS))
def test_recheck_refuses_malformed_compact_iso_fields(name):
    cert = check_pair(1, 8, 8, 1).json_dict()
    a, c = cert["morphism"]["A"], cert["morphism"]["C"]
    assert list(a) == ["image", "sign"] and len(a["image"]) == 32
    assert list(c) == ["image", "sign"] and len(c["image"]) == 9
    if name in ROW_C_MUTATIONS:
        cert = dense_center(cert)
    assert recheck_certificate(cert).ok
    verdict = recheck_certificate(COMPACT_MUTATIONS[name](cert))
    assert verdict.ok is False
    if name in WRONG_MAPS:
        assert verdict.detail == "embedded map is not a homomorphism"
    elif name in COMPACT_A_MUTATIONS or name in COMPACT_C_MUTATIONS:
        assert "malformed" in verdict.detail


def test_recheck_refuses_a_signed_center_between_unequal_centers():
    # n_(4,0) and n_(3,3) share module dimension 8; their centers are 4
    # and 6, so no signed permutation maps the one onto the other
    cert = check_pair(4, 0, 0, 4).json_dict()
    assert recheck_certificate(cert).ok
    cert["morphism"]["dst"].update(
        r=3, s=3, provenance={"kind": "base", "id": [3, 3]})
    verdict = recheck_certificate(cert)
    assert verdict.ok is False
    assert "signed-permutation C needs equal dimensions" in verdict.detail


def test_an_absent_class_is_not_stated():
    cert = check_pair(1, 8, 8, 1).json_dict()
    del cert["morphism"]["class"]
    assert recheck_certificate(cert).ok
    assert recheck_certificate(densify(cert)).ok


@pytest.mark.parametrize("integral", [True, False, "yes"])
def test_iso_recheck_rederives_the_integral_class(integral):
    # both blocks of the canonical map are signed permutations
    cert = check_pair(1, 8, 8, 1).json_dict()
    assert cert["morphism"]["class"]["integral"] is True
    cert["morphism"]["class"]["integral"] = integral
    assert recheck_certificate(cert).ok is (integral is True)


SUM_BLOCK_FORGERIES = {
    "appended": lambda b: b.append({"type": 9, "count": 4}),
    "duplicated": lambda b: b.insert(0, {"type": 1, "count": 0}),
    "reordered": lambda b: b.reverse(),
    "type missing": lambda b: b.pop(),
    "type a boolean": lambda b: b[0].update(type=True),
    "extra key": lambda b: b[1].update(note="x"),
}


@pytest.mark.parametrize("name", [None, *SUM_BLOCK_FORGERIES])
def test_iso_recheck_refuses_a_forged_sum_provenance(name):
    # a dict of the blocks would drop the unknown type, let the later
    # duplicate win and ignore the order; only the written list is accepted
    f = swap_isomorphism(build_sum(base_algebra(0, 1), 1, 1))
    cert = {"kind": "ISO", "morphism": morphism_to_dict(f)}
    blocks = cert["morphism"]["src"]["provenance"]["blocks"]
    assert blocks == [{"type": 1, "count": 1}, {"type": 2, "count": 1}]
    if name is not None:
        SUM_BLOCK_FORGERIES[name](blocks)
    assert recheck_certificate(cert).ok is (name is None)


def test_iso_recheck_refuses_an_extension_chain_before_building_it(monkeypatch):
    monkeypatch.setattr(extension, "extend", lambda *args: pytest.fail(
        "an over-budget chain was extended"))
    cert = check_pair(1, 8, 8, 1).json_dict()
    cert["morphism"]["src"]["provenance"] = {
        "kind": "extended", "base": [8, 0], "steps": [[8, 0]] * 6}
    verdict = recheck_certificate(cert)
    assert verdict.ok is False and "budget" in verdict.detail


@pytest.mark.parametrize("side, sig", [("src", (9, 1)), ("dst", (1, 9))])
def test_iso_recheck_rests_on_the_axioms_of_both_algebras(monkeypatch, side,
                                                          sig):
    cert = check_pair(9, 1, 1, 9).json_dict()
    assert recheck_certificate(cert).ok
    # the verdicts are kept on the shared algebras, so the recheck starts
    # from an empty cache: the rebuilt algebras are checked afresh
    inner = algebra.verify_clifford
    monkeypatch.setattr(algebra, "verify_clifford", lambda a: (
        Verdict(False, (1, 2, 3), "fails") if (a.r, a.s) == sig else inner(a)))
    with catalog.scope():
        verdict = recheck_certificate(cert)
    assert not verdict.ok and verdict.witness == (1, 2, 3)
    assert verdict.detail.startswith(f"{side} fails ")


@pytest.mark.parametrize("side", ["src", "dst"])
def test_iso_recheck_refuses_a_module_that_is_not_minimal(monkeypatch, side):
    # a construction that made a bigger module for a catalog record: the
    # sum of two n_(0,1) blocks satisfies the axioms and the map, but its
    # module has dimension 4, not the 2 of n_(0,1)
    f = swap_isomorphism(build_sum(base_algebra(0, 1), 1, 1))
    cert = {"kind": "ISO", "morphism": morphism_to_dict(f)}
    assert recheck_certificate(cert).ok
    sides = iter(["src", "dst"])
    inner = recheck.rebuild_from_provenance

    def rebuild(prov):
        a = inner(prov)
        if next(sides) == side:
            return a._replace(provenance=BaseProvenance(0, 1))
        return a

    monkeypatch.setattr(recheck, "rebuild_from_provenance", rebuild)
    verdict = recheck_certificate(cert)
    assert not verdict.ok
    assert verdict.detail == f"{side} module has dimension 4, not 2"


def test_iso_recheck_still_raises_on_a_missing_morphism():
    # the identity certificate carries no morphism; the benchmark counts
    # the KeyError as a known defect
    cert = check_pair(1, 8, 8, 1).json_dict()
    del cert["morphism"]
    with pytest.raises(KeyError):
        recheck_certificate(cert)


def test_iso_recheck_compares_the_stated_signatures():
    cert = check_pair(4, 0, 0, 4).json_dict()
    assert recheck_certificate(cert).ok
    forged = json.loads(json.dumps(cert))
    forged["morphism"]["src"]["r"] = 7
    forged["morphism"]["dst"]["s"] = 9
    verdict = recheck_certificate(forged)
    assert verdict.ok is False and "signature" in verdict.detail
    for side, key in (("src", "r"), ("dst", "s")):
        one = json.loads(json.dumps(cert))
        one["morphism"][side][key] += 1
        assert recheck_certificate(one).ok is False


@pytest.mark.parametrize("value", [True, 4.0, "4", None])
def test_iso_recheck_refuses_a_stated_signature_that_is_no_integer(value):
    # True == 1 and 4.0 == 4 in Python; JSON keeps them apart
    cert = check_pair(1, 8, 8, 1).json_dict()
    assert cert["morphism"]["src"]["r"] == 1
    for side in ("src", "dst"):
        for key in ("r", "s"):
            forged = json.loads(json.dumps(cert))
            forged["morphism"][side][key] = value
            verdict = recheck_certificate(forged)
            assert verdict.ok is False and "malformed" in verdict.detail
    missing = json.loads(json.dumps(cert))
    del missing["morphism"]["dst"]["r"]
    assert recheck_certificate(missing).ok is False
