"""What importing pseudoht costs in a fresh interpreter, module by module.

Imports `pseudoht, pseudoht.cli, pseudoht.recheck, pseudoht.acceptance`
(the set-up a one-shot command pays) in fresh interpreters run with
`-X importtime`, RUNS of them in each of two modes:

* ``compile``: the package is compiled on every run, as it is where
  ``PYTHONDONTWRITEBYTECODE=1`` is set and no bytecode was ever written.
  The package is read from a copy without ``__pycache__``, so bytecode a
  previous run left in the checkout is not read; the standard library
  keeps its installed bytecode.
* ``cached``: bytecode is written to and read from a private
  ``pycache_prefix``, with ``PYTHONDONTWRITEBYTECODE`` cleared for the
  child; one unrecorded run fills the cache first.

It prints one JSON object: per mode, the median wall time of the import
statement and the median ``-X importtime`` self time of every module the
statement imported (largest first), the dataclasses that the import
defines, by module, and which of the standard-library modules in WATCHED
it loads.  Nothing is gated: the exit code is 0 whenever the children
ran.  Standard library only.  From the repository root:

    python3 tests/import_cost.py

The name has no `test_` prefix, so pytest does not collect it.
"""

from __future__ import annotations

import json
import os
import shutil
import statistics
import subprocess
import sys
import tempfile
from pathlib import Path

SRC = Path(__file__).resolve().parent.parent / "src"
RUNS = 9
# modules a one-shot command would rather not pay for: dataclasses brings
# inspect (with ast and dis); the other three the package imports itself
WATCHED = ("dataclasses", "inspect", "fractions", "hashlib", "argparse")

# run in the child after the timed import; prints what the parent parses
CHILD = """\
import sys, time
before = set(sys.modules)
t0 = time.perf_counter()
import pseudoht, pseudoht.cli, pseudoht.recheck, pseudoht.acceptance
t1 = time.perf_counter()
new = sorted(set(sys.modules) - before)
dataclasses = {}
for name in new:
    for value in list(vars(sys.modules[name]).values()):
        if (isinstance(value, type) and value.__module__ == name
                and "__dataclass_fields__" in vars(value)):
            dataclasses.setdefault(name, []).append(value.__name__)
print(__import__("json").dumps({"import_s": t1 - t0, "new": new,
                                "file": pseudoht.__file__,
                                "dataclasses": dataclasses}))
"""


def _child_env(src: Path, cached: bool) -> dict:
    env = dict(os.environ)
    env.pop("PYTHONPYCACHEPREFIX", None)
    env["PYTHONPATH"] = str(src)
    if cached:
        env.pop("PYTHONDONTWRITEBYTECODE", None)
    else:
        env["PYTHONDONTWRITEBYTECODE"] = "1"
    return env


def _run_child(src: Path, cached: bool, prefix: Path) -> tuple[dict, dict]:
    """(the child's report, the self time in us of each module it
    imported, from -X importtime)."""
    cmd = [sys.executable, "-X", "importtime"]
    if cached:
        cmd += ["-X", f"pycache_prefix={prefix}"]
    proc = subprocess.run(cmd + ["-c", CHILD], env=_child_env(src, cached),
                          capture_output=True, text=True, timeout=120)
    if proc.returncode != 0:
        sys.exit(f"importing pseudoht failed:\n{proc.stderr}")
    report = json.loads(proc.stdout)
    if not Path(report["file"]).is_relative_to(src):
        sys.exit(f"the child imported {report['file']}, not the copy in {src}")
    new, self_us = set(report["new"]), {}
    for line in proc.stderr.splitlines():
        # "import time:       412 |       1310 |   pseudoht.core"
        if not line.startswith("import time:") or "self [us]" in line:
            continue
        own, _total, name = line.split(":", 1)[1].split("|")
        if name.strip() in new:
            self_us[name.strip()] = int(own)
    return report, self_us


def measure(src: Path, cached: bool, prefix: Path) -> tuple[dict, dict]:
    """The mode's medians over RUNS children, and the last child's
    report."""
    if cached:
        _run_child(src, cached, prefix)  # fills the cache
    reports, times = [], []
    for _ in range(RUNS):
        report, self_us = _run_child(src, cached, prefix)
        reports.append(report)
        times.append(self_us)
    modules = {name: statistics.median(t.get(name, 0) for t in times)
               for name in set().union(*times)}
    result = {
        "import_ms_median": round(1e3 * statistics.median(
            r["import_s"] for r in reports), 2),
        "self_us_median_sum": sum(modules.values()),
        "self_us_median": dict(sorted(modules.items(),
                                      key=lambda kv: (-kv[1], kv[0]))),
    }
    return result, reports[-1]


def main() -> int:
    with tempfile.TemporaryDirectory() as tmp:
        src = Path(tmp) / "src"
        shutil.copytree(SRC / "pseudoht", src / "pseudoht",
                        ignore=shutil.ignore_patterns("__pycache__"))
        prefix = Path(tmp) / "pycache"
        out = {"python": sys.version.split()[0], "runs": RUNS, "modes": {}}
        for mode in ("compile", "cached"):
            out["modes"][mode], report = measure(
                src, mode == "cached", prefix)
        out["dataclass_count"] = sum(map(len, report["dataclasses"].values()))
        out["dataclasses"] = report["dataclasses"]
        out["loads"] = {name: name in report["new"] for name in WATCHED}
    print(json.dumps(out, indent=2))
    return 0


if __name__ == "__main__":
    sys.exit(main())
