import csv
import json
import os
import subprocess
import sys
import time
from pathlib import Path

import pytest

import pseudoht
from pseudoht.algebra import algebra_from_dict
from pseudoht.catalog import MAX_CENTER_DIM, MAX_MODULE_DIM, base_algebra
from pseudoht.cli import main, render_table
from pseudoht.obstruction import adjoint_rank

from dense_certificates import dense_vector


def run_cli(capsys, *argv):
    code = main(list(argv))
    out = capsys.readouterr()
    return code, out.out, out.err


def test_build_catalog_algebra(capsys):
    code, out, _ = run_cli(capsys, "build", "8", "0")
    assert code == 0
    data = json.loads(out)
    assert data["r"] == 8 and data["s"] == 0 and data["dim_v"] == 16
    # 128 signed table cells give 64 upper-triangle tensor entries
    assert len(data["structure"]) == 64
    assert data["provenance"] == {"kind": "base", "id": [8, 0]}


def test_build_round_trip(capsys):
    code, out, _ = run_cli(capsys, "build", "3", "2")
    data = json.loads(out)
    assert algebra_from_dict(data).tensor == base_algebra(3, 2).tensor


def test_build_with_extension(capsys):
    code, out, _ = run_cli(capsys, "build", "1", "0", "--extend", "8,0")
    assert code == 0
    data = json.loads(out)
    assert (data["r"], data["s"], data["dim_v"]) == (9, 0, 32)
    assert data["provenance"]["steps"] == [[8, 0]]


def test_extend_alias(capsys):
    code, out, _ = run_cli(capsys, "extend", "1", "0", "0,8", "8,0")
    assert code == 0
    data = json.loads(out)
    assert (data["r"], data["s"], data["dim_v"]) == (9, 8, 512)


def test_build_sum(capsys):
    code, out, _ = run_cli(capsys, "build", "0", "1", "--sum", "1", "1")
    assert code == 0
    data = json.loads(out)
    assert data["blocks"] == [{"type": 1, "count": 1}, {"type": 2, "count": 1}]


def test_build_rejects_unknown_signature(capsys):
    code, _, err = run_cli(capsys, "build", "3", "0")
    assert code == 3
    assert "(8,0)" in err  # message names the catalog


def test_table_golden_1_0(capsys):
    code, out, _ = run_cli(capsys, "table", "1", "0")
    assert code == 0
    assert out == ("| [r,c] | w1 | w2 |\n"
                   "| --- | --- | --- |\n"
                   "| w1 | 0 | Z1 |\n"
                   "| w2 | -Z1 | 0 |\n")


def test_table_cells_with_decorations(capsys):
    _, out, _ = run_cli(capsys, "table", "0", "8")
    lines = out.splitlines()
    header = [c.strip() for c in lines[0].split("|")[1:-1]]
    row_v5 = [c.strip() for c in lines[2 + 4].split("|")[1:-1]]
    assert row_v5[0] == "v5"
    assert row_v5[header.index("v11")] == "Z8~"
    _, out, _ = run_cli(capsys, "table", "4", "4")
    lines = out.splitlines()
    header = [c.strip() for c in lines[0].split("|")[1:-1]]
    rows = {line.split("|")[1].strip(): [c.strip() for c in line.split("|")[1:-1]]
            for line in lines[2:]}
    assert rows["y13"][header.index("y3")] == "-Z6"
    _, out, _ = run_cli(capsys, "table", "3", "2")
    assert "-Z0" in out  # zero-based center labels of the (3,2) table


def test_table_csv_format(capsys):
    _, out, _ = run_cli(capsys, "table", "2", "0", "--format", "csv")
    lines = out.splitlines()
    assert lines[0] == '"[r,c]",w1,w2,w3,w4'
    assert lines[1] == "w1,0,0,Z1,Z2"
    # the quoted corner cell keeps the header as wide as every row
    rows = list(csv.reader(lines))
    assert {len(row) for row in rows} == {5}
    assert rows[0][0] == "[r,c]"


def test_table_output_is_stable(capsys):
    _, first, _ = run_cli(capsys, "table", "4", "4")
    _, second, _ = run_cli(capsys, "table", "4", "4")
    assert first == second


def test_check_exit_codes(capsys):
    code, out, _ = run_cli(capsys, "check", "4", "0", "0", "4")
    assert code == 0 and json.loads(out)["kind"] == "ISO"
    code, out, _ = run_cli(capsys, "check", "3", "2", "2", "3")
    assert code == 1 and json.loads(out)["kind"] == "NOT_ISO_PARITY"
    code, out, _ = run_cli(capsys, "check", "3", "0", "0", "3")
    assert code == 1 and json.loads(out)["kind"] == "NOT_ISO_DIM"
    code, out, _ = run_cli(capsys, "check", "2", "0", "1", "1")
    assert code == 1 and json.loads(out)["kind"] == "NOT_ISO_SIGNATURE"


def test_check_automorphism_modes(capsys):
    code, out, _ = run_cli(capsys, "check", "3", "3", "3", "3")
    assert code == 0 and json.loads(out)["kind"] == "ISO"  # identity map
    code, out, _ = run_cli(capsys, "check", "3", "3", "3", "3", "--anti")
    assert code == 1 and json.loads(out)["kind"] == "NOT_ISO_PARITY"
    code, out, _ = run_cli(capsys, "check", "2", "2", "2", "2", "--anti")
    assert code == 0 and json.loads(out)["kind"] == "ISO"
    # Sylvester: an anti-isometric automorphism needs r = s
    code, out, _ = run_cli(capsys, "check", "3", "2", "3", "2", "--anti")
    assert code == 1 and json.loads(out)["kind"] == "NOT_ISO_SIGNATURE"
    # --auto never changed the answer and is gone
    with pytest.raises(SystemExit) as exc:
        main(["check", "3", "3", "3", "3", "--auto", "--anti"])
    assert exc.value.code == 3
    assert "--auto" in capsys.readouterr().err


@pytest.mark.parametrize("argv", [
    ("0", "0", "0", "0"),
    ("0", "0", "0", "0", "--anti"),
    ("0", "0", "1", "0"),
    ("1", "0", "0", "0", "--anti"),
])
def test_check_refuses_the_signature_0_0_as_build_does(capsys, argv):
    # n_(0,0) has no construction: one answer in both modes, on either side
    refused = run_cli(capsys, "build", "0", "0")
    assert refused[:2] == (3, "") and refused[2].count("\n") == 1
    assert run_cli(capsys, "check", *argv) == refused


def test_check_inconclusive_for_7_7_anti_automorphism(capsys):
    code, out, _ = run_cli(capsys, "check", "7", "7", "7", "7", "--anti")
    assert code == 2
    data = json.loads(out)
    assert data["kind"] == "INCONCLUSIVE"


@pytest.mark.parametrize("argv, kind", [
    (("1", "2", "2", "1"), "INCONCLUSIVE"),      # a side is not constructible
    (("11", "2", "2", "11"), "INCONCLUSIVE"),    # the scan's record
    (("7", "7", "7", "7", "--anti"), "INCONCLUSIVE"),
    (("3", "0", "0", "3"), "NOT_ISO_DIM"),
    (("2", "0", "1", "1"), "NOT_ISO_SIGNATURE"),
    (("3", "2", "2", "3"), "NOT_ISO_PARITY"),
])
def test_every_non_iso_certificate_names_its_question(capsys, argv, kind):
    code, out, _ = run_cli(capsys, "check", *argv)
    data = json.loads(out)
    assert data["kind"] == kind
    header = ["src", "dst", "anti_isometric_center_only"]
    # NOT_ISO_PARITY has steps where the others have a reason
    assert list(data)[:5] == (["kind", *header, "steps"]
                              if kind == "NOT_ISO_PARITY"
                              else ["kind", "reason", *header])
    assert data["src"] == [int(argv[0]), int(argv[1])]
    assert data["dst"] == [int(argv[2]), int(argv[3])]
    assert data["anti_isometric_center_only"] is ("--anti" in argv)


@pytest.mark.parametrize("argv", [("11", "2", "2", "11"),
                                  ("7", "7", "7", "7", "--anti")])
def test_open_pairs_are_inconclusive_whatever_the_seed(capsys, argv):
    code, out, _ = run_cli(capsys, "check", *argv, "--seed", "0")
    assert code == 2 and run_cli(capsys, "check", *argv, "--seed", "7") \
        == (2, out, "")
    data = json.loads(out)
    assert data["kind"] == "INCONCLUSIVE"
    scan = data["precondition"]
    assert scan["points"] == 1 and scan["equivalence_holds"] is False
    # the first point is a null vector whose adjoint is onto
    r2, s2 = int(argv[2]), int(argv[3])
    a = pseudoht.standard_algebra(r2, s2)
    # written by its support, a dense vector of the destination's module
    x = scan["violation"]
    assert x["dim"] == a.dim_module and len(x["index"]) == 2
    assert all(type(e) is int for e in x["value"])
    x = dense_vector(x)
    assert sum(s * e * e for s, e in zip(a.module_signs, x)) == 0
    assert adjoint_rank(a, x) == a.dim_center == r2 + s2


def test_sbg_command(capsys):
    code, out, _ = run_cli(capsys, "sbg", "2", "0")
    assert code == 0 and json.loads(out)["kind"] == "SBG_YES"
    code, out, _ = run_cli(capsys, "sbg", "1", "1")
    assert code == 0 and json.loads(out)["kind"] == "SBG_NO"
    code, out, _ = run_cli(capsys, "sbg", "2", "3", "--sum", "2", "1")
    assert code == 0 and json.loads(out)["kind"] == "SBG_NO"
    # SBG_YES is a theorem record: --seed is accepted and changes nothing
    code, out, _ = run_cli(capsys, "sbg", "16", "0", "--seed", "0")
    assert code == 0 and out == '{\n  "kind": "SBG_YES",\n  "signature": [\n' \
        '    16,\n    0\n  ]\n}\n'
    assert run_cli(capsys, "sbg", "16", "0", "--seed", "7") == (0, out, "")


def test_out_flag_writes_file(tmp_path, capsys):
    path = tmp_path / "algebra.json"
    code, out, _ = run_cli(capsys, "build", "1", "1", "--out", str(path))
    assert code == 0 and out == ""
    data = json.loads(path.read_text())
    assert (data["r"], data["s"]) == (1, 1)


def test_render_table_for_extended_algebra_uses_natural_order():
    from pseudoht.extension import standard_algebra

    text = render_table(standard_algebra(9, 0), fmt="csv")
    assert text.splitlines()[0].startswith('"[r,c]",w1*u1,')


def test_check_reversed_pair_also_refuted(capsys):
    code, out, _ = run_cli(capsys, "check", "2", "3", "3", "2")
    assert code == 1 and json.loads(out)["kind"] == "NOT_ISO_PARITY"


def test_verify_paper_reporting(tmp_path, capsys, monkeypatch):
    # exercise the runner wiring against a stubbed criterion list
    from pseudoht.acceptance import CriterionReport
    import pseudoht.acceptance as acceptance

    def fake_run_all():
        return [CriterionReport(1, "alpha", True, [], 0.01, 3),
                CriterionReport(2, "beta", False, ["broken detail"], 0.02, 1)]

    monkeypatch.setattr(acceptance, "run_all", fake_run_all)
    path = tmp_path / "summary.json"
    code, out, _ = run_cli(capsys, "verify-paper", "--out", str(path))
    assert code == 1
    assert "criterion 1 alpha: PASS" in out
    assert "criterion 2 beta: FAIL" in out and "broken detail" in out
    summary = json.loads(path.read_text())
    assert summary["passed"] == 1 and summary["failed"] == 1
    assert summary["criteria"][1]["failures"] == ["broken detail"]


def test_verify_paper_report_does_not_depend_on_the_seed(tmp_path, capsys):
    reports = []
    for seed in ("0", "7"):
        path = tmp_path / f"seed{seed}.json"
        code, _, _ = run_cli(capsys, "verify-paper", "--seed", seed,
                             "--out", str(path))
        assert code == 1          # criterion 7 is red by design
        report = json.loads(path.read_text())
        for crit in report["criteria"]:
            del crit["elapsed_s"]
        reports.append(report)
    assert reports[0] == reports[1]
    assert [c["checks"] for c in reports[0]["criteria"]][7] == 4


@pytest.mark.parametrize("argv", [("check", "1", "8", "8", "1"),
                                  ("build", "1", "0"),
                                  ("verify-paper",)])
def test_unwritable_out_is_a_usage_error(tmp_path, capsys, monkeypatch,
                                         paper_reports, argv):
    # an --out in a missing directory is exit 3, not check's negative 1
    import pseudoht.acceptance as acceptance

    monkeypatch.setattr(acceptance, "run_all", lambda: paper_reports)
    path = tmp_path / "missing" / "x.json"
    code, _, err = run_cli(capsys, *argv, "--out", str(path))
    assert code == 3
    assert err.count("\n") == 1 and str(path) in err
    assert not path.exists()


@pytest.mark.parametrize("argv", [("check", "13", "5", "5", "13"),
                                  ("build", "8", "0", "--extend", "8,0", "8,0"),
                                  ("verify-paper",)])
def test_unwritable_out_is_refused_before_the_work(tmp_path, capsys,
                                                  monkeypatch, argv):
    import pseudoht.acceptance as acceptance
    import pseudoht.cli as cli

    def refuse(*args, **kwargs):
        raise AssertionError("the work ran before --out was checked")

    for module, name in ((acceptance, "run_all"), (cli, "check_pair"),
                         (cli, "extension_chain")):
        monkeypatch.setattr(module, name, refuse)
    path = tmp_path / "missing" / "x.json"
    code, out, err = run_cli(capsys, *argv, "--out", str(path))
    assert (code, out) == (3, "")
    assert err.count("\n") == 1 and str(path) in err
    assert not path.exists()
    code, out, err = run_cli(capsys, *argv, "--out", str(tmp_path))
    assert (code, out) == (3, "") and "Is a directory" in err


@pytest.mark.parametrize("argv", [("build", "3", "0"),
                                  ("sbg", "2", "2", "--sum", "1", "1"),
                                  ("check", "-1", "0", "0", "1")])
def test_refused_request_leaves_out_untouched(tmp_path, capsys, argv):
    # a request refused with a ValueError writes no file and keeps an old one
    new, old = tmp_path / "new.json", tmp_path / "old.json"
    old.write_text("kept\n")
    for path in (new, old):
        code, out, err = run_cli(capsys, *argv, "--out", str(path))
        assert (code, out) == (3, "") and err.count("\n") == 1
    assert not new.exists() and old.read_text() == "kept\n"


def test_verify_paper_quick_is_gone(capsys):
    # --quick only skipped criterion 2's double extension and is gone
    with pytest.raises(SystemExit) as exc:
        main(["verify-paper", "--quick"])
    assert exc.value.code == 3
    assert "--quick" in capsys.readouterr().err


@pytest.mark.parametrize("argv", [
    ("check", "1"),
    ("check", "1", "2", "3", "x"),
    ("frob",),
    ("table", "1", "0", "--format", "xml"),
    ("sbg", "1", "0", "--sum", "1"),
    ("build", "1", "0", "--extend"),
    ("build", "1", "0", "--sum", "1", "1", "--extend"),
])
def test_malformed_command_line_exits_3_not_inconclusive(capsys, argv):
    # argparse's own code, 2, is check's INCONCLUSIVE
    with pytest.raises(SystemExit) as exc:
        main(list(argv))
    out, err = capsys.readouterr()
    assert exc.value.code == 3 and out == ""
    # the usage line (wrapped lines are indented), then one error line
    *usage, error = err.splitlines()
    assert usage[0].startswith("usage: pseudoht")
    assert all(line.startswith(" ") for line in usage[1:])
    assert error.startswith("pseudoht") and ": error: " in error


def test_help_still_exits_0(capsys):
    with pytest.raises(SystemExit) as exc:
        main(["build", "--help"])
    assert exc.value.code == 0 and capsys.readouterr().out.startswith("usage:")


@pytest.mark.parametrize("argv", [
    ("build", "80", "0"),
    ("check", "80", "0", "0", "80"),
    ("build", "2", "0", "--extend", "8,0", "8,0", "8,0"),
    ("build", "0", "1", "--sum", "100000000", "0"),
    ("table", "80", "0"),
])
def test_module_budget_refuses_before_building(argv):
    # each request asks for a module far beyond MAX_MODULE_DIM (n_(80,0)
    # alone would need dimension 1.1e12); run in a child process so that a
    # missing guard costs a timeout rather than the test run's memory
    src = str(Path(pseudoht.__file__).resolve().parents[1])
    env = {**os.environ, "PYTHONPATH": src}
    start = time.perf_counter()
    proc = subprocess.run([sys.executable, "-m", "pseudoht.cli", *argv],
                          capture_output=True, text=True, env=env, timeout=60)
    elapsed = time.perf_counter() - start
    assert proc.returncode == 3, proc.stderr
    assert f"budget of {MAX_MODULE_DIM}" in proc.stderr
    assert proc.stdout == ""
    assert elapsed < 10.0


@pytest.mark.parametrize("argv", [
    ("check", "100000", "0", "0", "100001"),
    ("sbg", "100000", "0"),
    ("build", "100000", "0"),
    ("table", "100000", "0"),
])
def test_center_budget_refuses_oversized_signatures(capsys, argv):
    # the dimension and chain searches recurse once per 8 center dimensions;
    # above MAX_CENTER_DIM they are refused before the first call
    code, out, err = run_cli(capsys, *argv)
    assert code == 3 and out == ""
    assert err.count("\n") == 1
    assert f"budget of {MAX_CENTER_DIM}" in err


BYTE_IDENTITY_REQUESTS = [
    ("build", "8", "0", "--extend", "8,0", "8,0"),
    ("build", "2", "3", "--sum", "2", "1"),
    ("extend", "4", "4", "0,8"),
    ("check", "9", "1", "1", "9"),        # ISO
    ("check", "3", "2", "2", "3"),        # NOT_ISO_PARITY
    ("check", "3", "0", "0", "3"),        # NOT_ISO_DIM
    ("check", "11", "2", "2", "11"),      # INCONCLUSIVE
    ("sbg", "8", "0"),
    ("sbg", "2", "3", "--sum", "2", "1"),
]


def _indent2(text: str) -> str:
    return json.dumps(json.loads(text), indent=2) + "\n"


def test_cli_json_is_json_dumps_indent_2(capsys):
    from pseudoht.algebra import algebra_to_dict
    from pseudoht.extension import ExtensionStep, extension_chain
    from pseudoht.sums import build_sum

    outs = {}
    for argv in BYTE_IDENTITY_REQUESTS:
        code, out, _ = run_cli(capsys, *argv)
        assert code in (0, 1, 2) and out == _indent2(out), argv
        outs[argv[:2]] = out
    # the build path writes from the tensor; it must equal the dict path
    steps = [ExtensionStep.parse("8,0")] * 2
    assert outs[("build", "8")] == json.dumps(
        algebra_to_dict(extension_chain((8, 0), steps)), indent=2) + "\n"
    assert outs[("build", "2")] == json.dumps(
        algebra_to_dict(build_sum(base_algebra(2, 3), 2, 1)), indent=2) + "\n"
    assert outs[("extend", "4")] == json.dumps(algebra_to_dict(
        extension_chain((4, 4), [ExtensionStep.parse("0,8")])), indent=2) + "\n"


def test_verify_paper_report_is_json_dumps_indent_2(tmp_path, capsys,
                                                   monkeypatch, paper_reports):
    # the session's verify-paper reports, written by the CLI
    import pseudoht.acceptance as acceptance

    monkeypatch.setattr(acceptance, "run_all", lambda: paper_reports)
    path = tmp_path / "report.json"
    code, _, _ = run_cli(capsys, "verify-paper", "--out", str(path))
    assert code == 1          # criterion 7 is red by design
    text = path.read_text()
    assert text == _indent2(text)


def test_build_writes_from_the_tensor_without_dicts(capsys, monkeypatch):
    def refuse(*args):
        raise AssertionError("build serialized through a dict")

    # every binding of the two names in the package, imported ones included
    for name, module in list(sys.modules.items()):
        if name.split(".")[0] == "pseudoht":
            if hasattr(module, "algebra_to_dict"):
                monkeypatch.setattr(module, "algebra_to_dict", refuse)
    for argv in (("build", "3", "2"), ("build", "1", "0", "--extend", "8,0"),
                 ("extend", "1", "0", "0,8"),
                 ("build", "0", "1", "--sum", "1", "1")):
        code, out, _ = run_cli(capsys, *argv)
        assert code == 0 and json.loads(out)["structure"], argv
