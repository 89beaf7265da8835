"""Every golden CLI output is unchanged: tests/golden.py lists the
commands and regenerates tests/golden.json with --regen."""

import hashlib
import json
import shlex
from pathlib import Path

import pytest

import golden
from dense_certificates import dense_center_text, densified_text
from object_entries import object_entry_text
from pseudoht.algebra import algebra_from_json, algebra_json

MANIFEST = golden.load()


def _sha256(text: str) -> str:
    return hashlib.sha256(text.encode()).hexdigest()


def test_the_manifest_lists_every_command_once():
    argvs = [entry["argv"] for entry in MANIFEST]
    assert argvs == golden.commands()
    assert len({tuple(argv) for argv in argvs}) == len(argvs)


@pytest.mark.parametrize("entry", MANIFEST,
                         ids=[" ".join(e["argv"]) for e in MANIFEST])
def test_golden_output(entry):
    assert golden.run(entry["argv"]) == entry


# the sha256 golden.json held for each output that carries a vector, taken
# while certificates wrote their vectors dense: the sparse output, made
# dense again, is those bytes
DENSE_VECTOR_OUTPUTS = {
    "check 2 11 11 2":
        "585e9016cd4c70d910c73cf369cf0767eade179b68e4d8507a63fdaa393337b9",
    "check 2 11 11 2 --anti":
        "95f80ee20542143c2be9d880351de5cec92bbc4fdc32c5519a9cd0fc21d36785",
    "check 3 10 10 3":
        "1de42fe2b89b5cecd850f267ac4c1eeeb1cb96ed617c49a9ef6753ac7aa960b2",
    "check 3 10 10 3 --anti":
        "8835a000e76b18d18d898d0eb49a18f9de7ffe5374a1716f1d8bb9bb93916f6c",
    "check 3 11 11 3":
        "59b93d36fc2bfaabd78b530c7d4406a256198556f5c2c7a609001e11de1126a5",
    "check 3 11 11 3 --anti":
        "7db61d5a0b846c32110625b1407ef364440f6560d0175144e259499e0e7659d3",
    "check 6 7 7 6":
        "2cf493bcb95900cc52b718a49d4b37be351ee5fd0bfe1890485a833883e48337",
    "check 6 7 7 6 --anti":
        "d247219e5692b59c7132506ab558fa4269154334f3de9c26e806499b4b0bc200",
    "check 7 6 6 7":
        "520b34c4eefd8ff565cefe7dd8fb01a191efd3386b5d351e956b195c624c1f50",
    "check 7 6 6 7 --anti":
        "8d93e5234b0d5f813820066b8ff84e3be9e7a5732c9405103fdfb4461a30ac46",
    "check 7 7 7 7 --anti":
        "65cc5044f03f93077af53332498e7bd098cab0469e8b7f09249d28866fad3ef1",
    "check 10 3 3 10":
        "75f9e640d02266ffaf2e2bc7397269ac45f79629e23203c28091f411e58fd39c",
    "check 10 3 3 10 --anti":
        "b6fb763ac150095404a28cd98c1686cc29018f22acb7cd8880ae4b438a2e239e",
    "check 11 2 2 11":
        "3aeafdb6bdafa4eb16a039d53e228b88ae843e9f1ab7ebd59a7b4ec751bb751c",
    "check 11 2 2 11 --anti":
        "552aecf34619edaf7c4c92a6163482057c3f8849d4c670472189cd760adabc4f",
    "check 11 3 3 11":
        "34a01aafb49688d4a0798bd30f6b14eb6c6e453ae5e0b6e921a65700842b5136",
    "check 11 3 3 11 --anti":
        "f10651c6e637763d121e050ae56f5b58b284078ac31947f003243d80b9f6c63b",
    "sbg 2 3 --sum 2 1":
        "64dc73469e6ca4184a670cfb0a18ceea4349787442791ff811f62fe9ddf4c6d9",
    "sbg 9 8":
        "2aa9e62333325152b35d2140b33977d7eab8cd07d0b6eeac974ee391e8676e97",
}


@pytest.mark.parametrize("command", DENSE_VECTOR_OUTPUTS)
def test_densified_vectors_give_the_dense_output(command):
    _code, text = golden.output(shlex.split(command))
    assert densified_text(text) != text
    assert _sha256(densified_text(text)) == DENSE_VECTOR_OUTPUTS[command]


# the sha256 golden.json held for each build and extend output, taken while
# structure entries were written as {"i", "j", "k", "sign"} objects: the
# row output, its entries made objects again, is those bytes
OBJECT_ENTRY_OUTPUTS = json.loads(
    (Path(__file__).resolve().parent / "golden_object_entries.json").read_text())
# the legacy reader is held to the row reader up to this module dimension
LEGACY_PARSE_DIM = 256


def test_every_algebra_output_has_an_object_entry_pin():
    assert list(OBJECT_ENTRY_OUTPUTS) == [
        " ".join(e["argv"]) for e in MANIFEST
        if e["argv"][0] in ("build", "extend")]


@pytest.mark.parametrize("command", OBJECT_ENTRY_OUTPUTS)
def test_object_entries_give_the_old_output(command):
    _code, text = golden.output(shlex.split(command))
    legacy = object_entry_text(text)
    assert legacy != text
    assert _sha256(legacy) == OBJECT_ENTRY_OUTPUTS[command]
    parsed = algebra_from_json(text)
    assert algebra_json(parsed) + "\n" == text
    if parsed.dim_module <= LEGACY_PARSE_DIM:
        old = algebra_from_json(legacy)
        assert (old.tensor, old.module_signs, old.center_sig) == \
            (parsed.tensor, parsed.module_signs, parsed.center_sig)
        assert algebra_json(old) + "\n" == text


# the sha256 golden.json held for each output that carries a morphism, taken
# while certificates wrote C as dense rows: the output, its C made rows
# again, is those bytes, so only C's form changed
DENSE_CENTER_OUTPUTS = json.loads(
    (Path(__file__).resolve().parent / "golden_dense_center.json").read_text())


def test_every_morphism_output_has_a_dense_center_pin():
    # check is the one command that writes an ISO certificate
    assert list(DENSE_CENTER_OUTPUTS) == [
        " ".join(e["argv"]) for e in MANIFEST if e["argv"][0] == "check"
        and '"morphism"' in golden.output(e["argv"])[1]]


@pytest.mark.parametrize("command", DENSE_CENTER_OUTPUTS)
def test_a_dense_center_gives_the_old_output(command):
    _code, text = golden.output(shlex.split(command))
    assert dense_center_text(text) != text
    assert _sha256(dense_center_text(text)) == DENSE_CENTER_OUTPUTS[command]
