"""Every golden CLI output is unchanged: tests/golden.py lists the
commands and regenerates tests/golden.json with --regen."""

import pytest

import golden

MANIFEST = golden.load()


def test_the_manifest_lists_every_command_once():
    argvs = [entry["argv"] for entry in MANIFEST]
    assert argvs == golden.commands()
    assert len({tuple(argv) for argv in argvs}) == len(argvs)


@pytest.mark.parametrize("entry", MANIFEST,
                         ids=[" ".join(e["argv"]) for e in MANIFEST])
def test_golden_output(entry):
    assert golden.run(entry["argv"]) == entry
