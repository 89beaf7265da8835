"""What a question at the top of the module budget costs, one-shot and warm.

Times five commands on the dim-8192 algebras n_(13,12) and n_(12,13),
and the library call under the first:

* ``check 13 12 12 13``, an ISO certificate, and the library's
  ``check_pair(13, 12, 12, 13)``, without the JSON;
* ``recheck``, `recheck_certificate` of that certificate read from its
  file;
* ``check 12 13 13 12 --anti``;
* ``sbg 13 12``;
* ``build 13 12``.

Each runs RUNS times in each of two modes, in fresh interpreters whose
bytecode is written to and read from a private ``pycache_prefix`` (one
unrecorded run fills it, and writes the certificate that ``recheck``
reads):

* ``oneshot``: the child runs the operation once, as a command-line call
  does.  ``wall_ms`` is the child's whole life, interpreter start and
  imports included, timed by the parent; ``op_ms`` is the call alone.
* ``warm``: the child runs it twice, and ``op_ms`` is the second call,
  which reads what the first one left in the process cache: the shared
  parents, since the dim-8192 algebras themselves are above its cap.

``peak_rss_mb`` is the child's peak resident set (``ru_maxrss``).  The
``build_halves`` section splits ``build 13 12`` in a fresh interpreter
into making the algebra (its recipe), making and sorting its 102,400
tensor entries, and formatting its JSON.  Each figure is the median over
the runs.  Nothing is gated: the exit code is 0 whenever the children ran.
Standard library only.  From the repository root:

    python3 tests/edge_cost.py [--src OTHER_CHECKOUT/src]

``--src`` times another tree with this harness, for a before/after pair.
The name has no `test_` prefix, so pytest does not collect it.
"""

from __future__ import annotations

import argparse
import json
import os
import statistics
import subprocess
import sys
import tempfile
import time
from pathlib import Path

SRC = Path(__file__).resolve().parent.parent / "src"
RUNS = 3
OPS = {
    "check 13 12 12 13": ["check", "13", "12", "12", "13"],
    "check_pair(13, 12, 12, 13)": ["check_pair", "13", "12", "12", "13"],
    "recheck": ["recheck"],
    "check 12 13 13 12 --anti": ["check", "12", "13", "13", "12", "--anti"],
    "sbg 13 12": ["sbg", "13", "12"],
    "build 13 12": ["build", "13", "12"],
}

# argv: the op's OPS entry as JSON, the number of calls, the --out path
# and the certificate path; prints what the parent parses
CHILD = """\
import json, resource, sys, time
from pseudoht import cli
from pseudoht.obstruction import check_pair
from pseudoht.recheck import recheck_certificate

argv, calls, out, cert = json.loads(sys.argv[1]), int(sys.argv[2]), \\
    sys.argv[3], sys.argv[4]

def run():
    if argv[0] == "recheck":
        with open(cert) as fh:
            if not recheck_certificate(json.load(fh)).ok:
                sys.exit("the certificate did not recheck")
    elif argv[0] == "check_pair":
        if check_pair(*map(int, argv[1:])).kind != "ISO":
            sys.exit("check_pair did not answer ISO")
    elif cli.main(argv + ["--out", out]) != 0:
        sys.exit(f"{argv} did not exit 0")

times = []
for _ in range(calls):
    t0 = time.perf_counter()
    run()
    times.append(time.perf_counter() - t0)
rss = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss
print(json.dumps({"op_s": times, "maxrss": rss,
                  "file": sys.modules["pseudoht"].__file__}))
"""

# the two halves of build 13 12, each timed on its own
HALVES = """\
import json, sys, time
from pseudoht.algebra import algebra_json
from pseudoht.catalog import scope
from pseudoht.extension import standard_algebra

with scope():
    t0 = time.perf_counter()
    a = standard_algebra(13, 12)
    t1 = time.perf_counter()
    a.tensor.entries
    t2 = time.perf_counter()
    text = algebra_json(a)
    t3 = time.perf_counter()
print(json.dumps({"algebra_s": t1 - t0, "entries_s": t2 - t1,
                  "json_s": t3 - t2, "bytes": len(text) + 1,
                  "file": sys.modules["pseudoht"].__file__}))
"""


def _mb(maxrss: int) -> float:
    """ru_maxrss in MB: kilobytes on Linux, bytes on macOS."""
    return maxrss / (2 ** 20 if sys.platform == "darwin" else 2 ** 10)


def _child(src: Path, prefix: Path, code: str, *args: str
           ) -> tuple[dict, float]:
    """(the child's report, its wall time in s); exits unless the child
    imported pseudoht from src."""
    env = dict(os.environ, PYTHONPATH=str(src))
    env.pop("PYTHONDONTWRITEBYTECODE", None)
    env.pop("PYTHONPYCACHEPREFIX", None)
    cmd = [sys.executable, "-X", f"pycache_prefix={prefix}", "-c", code,
           *args]
    t0 = time.perf_counter()
    proc = subprocess.run(cmd, env=env, capture_output=True, text=True,
                          timeout=600)
    wall = time.perf_counter() - t0
    if proc.returncode != 0:
        sys.exit(f"child {args[:2]} failed:\n{proc.stderr}")
    report = json.loads(proc.stdout)
    if not Path(report["file"]).is_relative_to(src):
        sys.exit(f"the child imported {report['file']}, not the tree in {src}")
    return report, wall


def _ms(values) -> float:
    return round(1e3 * statistics.median(values), 2)


def measure(src: Path) -> dict:
    with tempfile.TemporaryDirectory() as tmp:
        prefix, out = Path(tmp) / "pycache", str(Path(tmp) / "out.json")
        cert = str(Path(tmp) / "cert.json")
        # fills the bytecode cache and writes the certificate recheck reads
        _child(src, prefix, CHILD, json.dumps(OPS["check 13 12 12 13"]), "1",
               cert, cert)
        ops = {}
        for name, argv in OPS.items():
            oneshot, warm = [], []
            for _ in range(RUNS):
                oneshot.append(_child(src, prefix, CHILD, json.dumps(argv),
                                      "1", out, cert))
                warm.append(_child(src, prefix, CHILD, json.dumps(argv), "2",
                                   out, cert)[0])
            ops[name] = {
                "oneshot": {
                    "wall_ms": _ms(wall for _report, wall in oneshot),
                    "op_ms": _ms(report["op_s"][0]
                                 for report, _wall in oneshot),
                    "peak_rss_mb": round(statistics.median(
                        _mb(report["maxrss"]) for report, _wall in oneshot),
                        1),
                },
                "warm": {
                    "op_ms": _ms(report["op_s"][1] for report in warm),
                    "peak_rss_mb": round(statistics.median(
                        _mb(report["maxrss"]) for report in warm), 1),
                },
            }
        halves = [_child(src, prefix, HALVES)[0] for _ in range(RUNS)]
    return {
        "ops": ops,
        "build_halves": {
            "algebra_ms": _ms(h["algebra_s"] for h in halves),
            "entries_ms": _ms(h["entries_s"] for h in halves),
            "json_ms": _ms(h["json_s"] for h in halves),
            "bytes": halves[0]["bytes"],
        },
    }


def main() -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n")[0])
    parser.add_argument("--src", type=Path, default=SRC,
                        help="the src directory to time (default: this "
                             "checkout's)")
    src = parser.parse_args().src.resolve()
    out = {"python": sys.version.split()[0], "runs": RUNS, "src": str(src),
           **measure(src)}
    print(json.dumps(out, indent=2))
    return 0


if __name__ == "__main__":
    sys.exit(main())
