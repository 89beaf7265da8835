"""Every golden CLI output is unchanged: tests/golden.py lists the
commands and regenerates tests/golden.json with --regen."""

import shlex

import pytest

import golden
from object_entries import object_entry_text
from pseudoht.algebra import algebra_from_json, algebra_json

MANIFEST = golden.load()


def test_the_manifest_lists_every_command_once():
    argvs = [entry["argv"] for entry in MANIFEST]
    assert argvs == golden.commands()
    assert len({tuple(argv) for argv in argvs}) == len(argvs)


@pytest.mark.parametrize("entry", MANIFEST,
                         ids=[" ".join(e["argv"]) for e in MANIFEST])
def test_golden_output(entry):
    assert golden.run(entry["argv"]) == entry


# the legacy reader is held to the row reader up to this module dimension
LEGACY_PARSE_DIM = 256
ALGEBRA_OUTPUTS = [" ".join(e["argv"]) for e in MANIFEST
                   if e["argv"][0] in ("build", "extend") and e["exit"] == 0]


@pytest.mark.parametrize("command", ALGEBRA_OUTPUTS)
def test_object_entries_give_the_old_output(command):
    # the algebra written with {"i", "j", "k", "sign"} entries, as older
    # versions wrote it, parses to the same algebra as the row output
    _code, text = golden.output(shlex.split(command))
    legacy = object_entry_text(text)
    assert legacy != text
    parsed = algebra_from_json(text)
    assert algebra_json(parsed) + "\n" == text
    if parsed.dim_module <= LEGACY_PARSE_DIM:
        old = algebra_from_json(legacy)
        assert (old.tensor, old.module_signs, old.center_sig) == \
            (parsed.tensor, parsed.module_signs, parsed.center_sig)
        assert algebra_json(old) + "\n" == text
