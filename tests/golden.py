"""Golden CLI outputs: the exit code and the sha256 of stdout of each
command in commands(), kept in tests/golden.json, one command a line.

The commands are every `check r s s r` with r + s <= 16, plain and
--anti, the degenerate (0,0) included; every line of the README's CLI
block; `verify-paper --seed 0 --verbose`, whose report names each
criterion's failures; `build` of every extension chain of at most two
steps up to module dimension 1024; the sums, the two-step (8,0) chain,
the SBG answers and the (0,0) refusals in EXTRA; and `table r s --format
csv` of every catalog id.  verify-paper output is compared with its
timings masked.  This manifest is the one place CLI output bytes are
pinned: a test file holds no digest of an output.

    PYTHONPATH=src python tests/golden.py            # list what differs
    PYTHONPATH=src python tests/golden.py --regen    # rewrite golden.json

A change that alters an output on purpose regenerates the manifest and
names every changed line in CHANGES.md.  A change of written form also
shows there that the parent's digests hold on the new output rewritten to
the old form; it commits no shadow file of old digests.
"""

import contextlib
import hashlib
import io
import itertools
import json
import re
import shlex
import sys
from pathlib import Path

from pseudoht.catalog import BASE_IDS, base_algebra
from pseudoht.cli import main
from pseudoht.extension import ExtensionStep

ROOT = Path(__file__).resolve().parent.parent
MANIFEST = Path(__file__).resolve().parent / "golden.json"
MAX_BUILD_DIM = 1024
# outputs no rule reaches: sums, a two-step chain past MAX_BUILD_DIM,
# plain SBG_NO answers and the refused signature (0,0)
EXTRA = [line.split() for line in (
    "build 2 3 --sum 2 1", "build 0 1 --sum 0 3", "build 8 0 --extend 8,0 8,0",
    "sbg 3 2", "sbg 11 2", "build 0 0", "sbg 0 0")]
# a criterion's "(0.15s)" on stdout and its "elapsed_s" in the report
TIMINGS = re.compile(r'\(\d+\.\d+s\)|"elapsed_s": [-+.\deE]+')


def readme_commands() -> list[list[str]]:
    """The argv of each `pseudoht ...` line of the README's CLI block."""
    text = (ROOT / "README.md").read_text()
    block = text.split("## CLI", 1)[1].split("```sh", 1)[1].split("```", 1)[0]
    return [shlex.split(line.split("#", 1)[0])[1:]
            for line in block.splitlines() if line.startswith("pseudoht ")]


def commands() -> list[list[str]]:
    swaps = [["check", str(r), str(s), str(s), str(r), *anti]
             for r in range(17) for s in range(17 - r)
             for anti in ((), ("--anti",))]
    builds = [["build", str(r), str(s), *(["--extend", *(st.value for st in chain)]
                                          if chain else [])]
              for (r, s) in BASE_IDS for n in range(3)
              for chain in itertools.product(ExtensionStep, repeat=n)
              if base_algebra(r, s).dim_module * 16 ** n <= MAX_BUILD_DIM]
    tables = [["table", str(r), str(s), "--format", "csv"]
              for (r, s) in BASE_IDS]
    every = [*swaps, *readme_commands(),
             ["verify-paper", "--seed", "0", "--verbose"], *builds, *EXTRA,
             *tables]
    # README lines such as `check 3 2 2 3` are swap questions too
    return [list(argv) for argv in dict.fromkeys(map(tuple, every))]


def output(argv: list[str]) -> tuple[int, str]:
    """The exit code and stdout of one in-process CLI call, verify-paper's
    timings masked."""
    out = io.StringIO()
    with contextlib.redirect_stdout(out), \
            contextlib.redirect_stderr(io.StringIO()):
        try:
            code = main(list(argv))
        except SystemExit as exc:  # a usage error exits from argparse
            code = exc.code
    text = out.getvalue()
    if argv[0] == "verify-paper":
        text = TIMINGS.sub("", text)
    return code, text


def record(argv: list[str], code: int, text: str) -> dict:
    """{"argv", "exit", "stdout_sha256"} of a call's exit code and stdout."""
    return {"argv": argv, "exit": code,
            "stdout_sha256": hashlib.sha256(text.encode()).hexdigest()}


def run(argv: list[str]) -> dict:
    """The record of one in-process CLI call."""
    return record(argv, *output(argv))


def load() -> list[dict]:
    return json.loads(MANIFEST.read_text())


def regenerate() -> None:
    lines = [json.dumps(run(argv)) for argv in commands()]
    MANIFEST.write_text("[\n" + ",\n".join(lines) + "\n]\n")


if __name__ == "__main__":
    if sys.argv[1:] == ["--regen"]:
        regenerate()
    else:
        stale = [entry["argv"] for entry in load() if run(entry["argv"]) != entry]
        print(*(" ".join(argv) for argv in stale), sep="\n")
        sys.exit(1 if stale else 0)
