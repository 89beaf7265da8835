"""Run every command of the README's CLI block and check what it documents.

Each line is run with the installed `pseudoht` script and must exit with
the code its comment names (0 if none); where the comment names a size,
"N KB", the file written must be N thousand bytes, rounded.  The written
reports, algebras and certificates are then read back: verify-paper's
report is seed-free, a built algebra parses, satisfies the axioms and
writes back to the same text, and each certificate rechecks from its
JSON alone.  Run it from the
repository root, with `pseudoht` on PATH:

    python3 tests/readme_examples.py

The name has no `test_` prefix, so pytest does not collect it.
"""

import json, re, subprocess, tempfile
from pathlib import Path

import pseudoht
import pseudoht.catalog
from pseudoht.algebra import algebra_json
from pseudoht.obstruction import adjoint_rank

readme = Path("README.md").read_text()
block = readme.split("## CLI", 1)[1].split("```sh\n", 1)[1].split("```", 1)[0]
tmp = Path(tempfile.mkdtemp())
for n, line in enumerate(block.splitlines()):
    command, _, note = line.partition("#")
    argv = command.split()
    want = re.search(r"exit (\d)", note)
    want = int(want.group(1)) if want else 0
    out = tmp / f"{n}.out"
    code = subprocess.run([*argv, "--out", str(out)], cwd=tmp).returncode
    print(f"{' '.join(argv)}: exit {code}, documented {want}")
    assert code == want
    size = re.search(r"(\d+) KB", note)
    if size:
        # a stated size is the written file's, in whole kilobytes
        kb = round(out.stat().st_size / 1000)
        print(f"  size: {kb} KB, documented {size.group(1)}")
        assert kb == int(size.group(1)), kb
    if want == 3:
        continue  # a usage error writes no report or certificate
    if argv[1] == "verify-paper":
        report = json.loads(out.read_text())
        red = [c["number"] for c in report["criteria"] if not c["passed"]]
        assert red == [7], red
        # no criterion samples: another seed gives the same report
        again = tmp / f"{n}.seed7.out"
        code = subprocess.run([*argv, "--seed", "7", "--out", str(again)],
                              cwd=tmp).returncode
        assert code == want
        reports = [json.loads(path.read_text()) for path in (out, again)]
        for rep in reports:
            for c in rep["criteria"]:
                del c["elapsed_s"]
        assert reports[0] == reports[1]
    if argv[1] in ("build", "extend"):
        # the written algebra parses, satisfies the axioms and
        # writes back to the same text
        text = out.read_text()
        parsed = pseudoht.algebra_from_json(text)
        verdict = pseudoht.verify_axioms(parsed)
        print(f"  parsed: dim_v {parsed.dim_module}, axioms {verdict}")
        assert verdict.ok, verdict
        assert algebra_json(parsed) + "\n" == text
        # the object entries older versions wrote still parse
        legacy = json.loads(text)
        legacy["structure"] = [dict(zip(("i", "j", "k", "sign"), row))
                               for row in legacy["structure"]]
        old = pseudoht.algebra_from_json(json.dumps(legacy, indent=2))
        assert old.tensor == parsed.tensor
        # the block sets are read off the tensor and metric, so
        # they survive the JSON round trip
        rebuilt = pseudoht.rebuild_from_provenance(parsed.provenance.json_dict())
        assert parsed.blocks == rebuilt.blocks, parsed.blocks
        # the parse refuses a field above its budget
        for key, value in (("r", pseudoht.catalog.MAX_CENTER_DIM + 1),
                           ("dim_v", pseudoht.catalog.MAX_MODULE_DIM + 1)):
            try:
                pseudoht.algebra_from_json(json.dumps({**json.loads(text), key: value}))
            except ValueError as exc:
                print(f"  {key} {value}: {exc}")
            else:
                raise AssertionError(f"{key} {value} parsed")
    if argv[1] in ("check", "sbg"):
        # on algebras rebuilt from the certificate's JSON alone,
        # not on those earlier lines of this step built
        with pseudoht.catalog.scope():
            verdict = pseudoht.recheck_certificate(json.loads(out.read_text()))
        print(f"  recheck: {verdict}")
        assert verdict.ok, verdict
    if argv[1] == "sbg" and "--sum" in argv:
        # the witness negated, as older versions wrote it for a
        # sum of type-2 blocks only, rechecks too
        cert = json.loads(out.read_text())
        if cert["kind"] == "SBG_NO":
            v = cert["witness_v"]
            v["value"] = [-e for e in v["value"]]
            with pseudoht.catalog.scope():
                verdict = pseudoht.recheck_certificate(cert)
            print(f"  negated witness recheck: {verdict}")
            assert verdict.ok, verdict
    if argv[1] == "check" and code == 2:
        # a scan counterexample, written by its support and
        # re-verified dense by Bareiss elimination
        cert = json.loads(out.read_text())
        sparse = (cert.get("precondition") or {}).get("violation")
        if sparse is not None:
            r2, s2 = cert["dst"]
            dst = pseudoht.standard_algebra(r2, s2)
            assert sparse["dim"] == dst.dim_module, sparse["dim"]
            x = [0] * dst.dim_module
            for i, e in zip(sparse["index"], sparse["value"], strict=True):
                x[i - 1] = e
            assert sum(e * v * v for e, v in zip(dst.module_signs, x)) == 0, x
            rank = adjoint_rank(dst, x)
            print(f"  violation: null, adjoint rank {rank}")
            assert rank == r2 + s2, rank
