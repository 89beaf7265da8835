"""Runs one workload in-process against pseudoht's public entry points.

Started by run.py as a child process (one worker at a time), with ``src``
on PYTHONPATH.  Usage::

    python3 perfbench/worker.py --workload NAME --seed N --seconds S \
        --mode timed|round|traced --out RESULT.json [--spans SPANS.json.gz]

``timed`` runs whole rounds until S seconds have passed and the workload's
minimum op count is reached, sampling the host's speed as it goes (see
speed.py); ``round`` runs the first round only, and ``traced`` runs the
same first round with every layer wrapped.  Only ``timed`` samples the
speed, so the other two report raw wall-clock times.
"""

from __future__ import annotations

import argparse
import contextlib
import csv
import hashlib
import io
import json
import os
import re
import resource
import time
from collections import Counter
from pathlib import Path
from typing import Optional

import speed
import workloads
from workloads import Op

import pseudoht
import pseudoht.acceptance  # noqa: F401  (verify-paper imports it lazily)
import pseudoht.cli

WORK_DIR = Path(__file__).resolve().parent / "_work"
# verify-paper prints and records how long each criterion took; those digits
# are timings, not results, and are masked before outputs are compared.
_TIMING_PATTERNS = (re.compile(r"\(\d+\.\d+s\)"),
                    re.compile(r'"elapsed_s": [0-9.eE+-]+'))


class OpFailure(Exception):
    """An output that contradicts the expected outcome."""


def _call_cli(argv: list[str]) -> tuple[int, str]:
    buf = io.StringIO()
    with contextlib.redirect_stdout(buf):
        try:
            code = pseudoht.cli.main(argv)
        except SystemExit as exc:        # argparse usage errors
            code = exc.code if isinstance(exc.code, int) else 3
    return code, buf.getvalue()


def _mask(text: str) -> str:
    for pattern in _TIMING_PATTERNS:
        text = pattern.sub("", text)
    return text


def _parse_cert(op: Op, payload: str, rec: dict) -> dict:
    cert = json.loads(payload)
    rec["kind"] = cert.get("kind")
    return {"cert": cert, "verdict": pseudoht.recheck_certificate(cert)}


def _validate_cert(op: Op, code: int, parsed: dict) -> str:
    kind = parsed["cert"].get("kind")
    if kind not in op.kinds:
        raise OpFailure(f"kind {kind}, expected one of {sorted(op.kinds)}")
    if code != workloads.exit_for_kind(kind):
        raise OpFailure(f"exit code {code} for kind {kind}")
    if parsed["verdict"].ok is not True:
        raise OpFailure(f"recheck rejected the certificate: "
                        f"{parsed['verdict'].detail}")
    return kind


def _parse_build(op: Op, payload: str, rec: dict) -> dict:
    algebra = pseudoht.algebra_from_json(payload)
    data = pseudoht.algebra.algebra_to_dict(algebra)
    original = json.loads(payload)
    if "blocks" in original:
        data["blocks"] = original["blocks"]
    return {"data": original,
            "roundtrip": json.dumps(data, indent=2) + "\n" == payload}


def _validate_build(op: Op, code: int, parsed: dict) -> str:
    want, data = op.expect, parsed["data"]
    if code != 0:
        raise OpFailure(f"exit code {code}")
    if not parsed["roundtrip"]:
        raise OpFailure("JSON does not survive a parse round trip")
    for key in ("r", "s", "dim_v"):
        if data[key] != want[key]:
            raise OpFailure(f"{key} = {data[key]}, expected {want[key]}")
    metric = data["module_metric"]
    if len(metric) != want["dim_v"] or any(e not in (1, -1) for e in metric):
        raise OpFailure("module metric is not a +-1 vector of the module size")
    # integral basis: each J_k is a fixed-point-free signed permutation, so
    # the upper triangle holds dim_v * dim_z / 2 entries
    if len(data["structure"]) != want["dim_v"] * (want["r"] + want["s"]) // 2:
        raise OpFailure(f"{len(data['structure'])} structure entries")
    if data["provenance"]["kind"] != want["provenance"]:
        raise OpFailure(f"provenance {data['provenance']['kind']}")
    if data.get("blocks") != want.get("blocks"):
        raise OpFailure(f"blocks {data.get('blocks')}")
    return "ALGEBRA"


def _parse_table(op: Op, payload: str, rec: dict) -> list[list[str]]:
    lines = payload.rstrip("\n").split("\n")
    if op.expect["format"] == "md":
        rows = [[c.strip() for c in line.strip().strip("|").split("|")]
                for line in lines]
        del rows[1]          # the "| --- |" separator
        return rows
    return list(csv.reader(lines))


def _negate(cell: str) -> str:
    if cell == "0":
        return cell
    return cell[1:] if cell.startswith("-") else "-" + cell


def _validate_table(op: Op, code: int, rows: list[list[str]]) -> str:
    n = op.expect["dim_v"]
    if code != 0:
        raise OpFailure(f"exit code {code}")
    if len(rows) != n + 1 or any(len(row) != n + 1 for row in rows):
        raise OpFailure(f"table is not {n + 1} x {n + 1}")
    body = [row[1:] for row in rows[1:]]
    if [row[0] for row in rows[1:]] != rows[0][1:]:
        raise OpFailure("row and column labels differ")
    for i in range(n):
        if body[i][i] != "0":
            raise OpFailure("nonzero diagonal bracket")
        for j in range(i):
            if body[i][j] != _negate(body[j][i]):
                raise OpFailure(f"bracket not antisymmetric at ({i + 1},{j + 1})")
    return "TABLE"


def _parse_paper(op: Op, payload: str, rec: dict) -> dict:
    return json.loads(payload)


def _validate_paper(op: Op, code: int, report: dict) -> str:
    if code != 1:
        raise OpFailure(f"exit code {code}, expected 1 (criterion 7 red)")
    got = {c["number"]: c["passed"] for c in report["criteria"]}
    if sorted(got) != list(workloads.PAPER_CRITERIA):
        raise OpFailure(f"criteria reported: {sorted(got)}")
    failing = {n for n, ok in got.items() if not ok}
    if failing != workloads.PAPER_FAILING:
        raise OpFailure(f"failing criteria {sorted(failing)}, expected "
                        f"{sorted(workloads.PAPER_FAILING)}")
    if (report["passed"], report["failed"]) != (7, 1):
        raise OpFailure(f"summary {report['passed']}/{report['failed']}")
    return "PAPER_REPORT"


_CHECKS = {"cert": (_parse_cert, _validate_cert),
           "build": (_parse_build, _validate_build),
           "table": (_parse_table, _validate_table),
           "paper": (_parse_paper, _validate_paper)}


def run_op(op: Op, report_path: Path, clock=time.perf_counter) -> dict:
    """One closed-loop request: call, parse and recheck, then validate.

    Never raises: a raise anywhere, a wrong kind or exit code, a rejected
    recheck or a broken round trip is returned as a failure record.  Only
    the call and the parse/recheck are timed, on ``clock``; validation is
    not.
    """
    parse, validate = _CHECKS[op.check]
    argv = list(op.argv)
    if op.check == "paper":
        argv += ["--out", str(report_path)]
        report_path.unlink(missing_ok=True)
    rec = {"argv": " ".join(op.argv), "ok": False, "kind": None,
           "error": None, "known_defect": None}
    code = out = payload = None
    marks = [clock()]
    try:
        code, out = _call_cli(argv)
        marks.append(clock())
        payload = report_path.read_text() if op.check == "paper" else out
        parsed = parse(op, payload, rec)
        marks.append(clock())
        rec["kind"] = validate(op, code, parsed)
        rec["ok"] = True
    except Exception as exc:     # a failed op is counted, never fatal
        marks += [clock()] * (3 - len(marks))
        rec.update(error=type(exc).__name__, detail=str(exc)[:200],
                   known_defect=op.known_defect)
    rec["latency_s"] = marks[2] - marks[0]
    rec["recheck_s"] = marks[2] - marks[1]
    if payload is not None:
        rec["bytes"] = len(payload.encode())
        rec["digest"] = hashlib.sha256(
            f"{code}\n{_mask(out)}\n{_mask(payload)}".encode()).hexdigest()
    return rec


def run(workload: str, seed: int, seconds: float, mode: str,
        spans_path: Optional[Path]) -> dict:
    WORK_DIR.mkdir(exist_ok=True)
    report_path = WORK_DIR / f"verify-paper-{os.getpid()}.json"
    min_ops = workloads.MIN_OPS[workload]
    tracer = sampler = None
    clock = time.perf_counter
    if mode == "traced":
        import tracing
        tracer = tracing.Tracer()
        tracer.install()
    records, spans, round_sizes, dims = [], [], [], []
    try:
        if mode == "timed":
            sampler = speed.Sampler()
            sampler.start()
            clock = sampler.now
        start = clock()
        for ops in workloads.rounds(workload, seed):
            for op in ops:
                if tracer is not None:
                    tracer.op_id = len(records)
                t0 = time.perf_counter()
                records.append(run_op(op, report_path, clock))
                spans.append((t0, time.perf_counter()))
                dims.append(op.dim)
            round_sizes.append(len(ops))
            if mode != "timed":
                break
            if clock() - start >= seconds and len(records) >= min_ops:
                break
        end = clock()
    finally:
        if sampler is not None:
            sampler.stop()
        if tracer is not None:
            tracer.uninstall()
        report_path.unlink(missing_ok=True)
    for rec, (t0, t1) in zip(records, spans):
        rec["span"] = [t0, t1]
        rec["scale"] = 1.0 if sampler is None else sampler.factor_between(t0, t1)
    seen: set = set()
    repeats = 0
    for rec in records:
        repeats += rec["argv"] in seen
        seen.add(rec["argv"])
    result = {
        "workload": workload, "seed": seed, "mode": mode,
        "wall_s": end - start,
        "round_sizes": round_sizes,
        "speed_kernel_s": [] if sampler is None else sampler.kernel_s,
        "speed_at": [] if sampler is None else sampler.at,
        "ops": records,
        "peak_rss_mb": resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024,
        "repeat_share": repeats / len(records),
        "dim_histogram": dict(sorted(Counter(
            str(d) for d in dims if d is not None).items())),
        "kind_histogram": dict(sorted(Counter(
            str(rec["kind"]) for rec in records).items())),
    }
    if tracer is not None:
        result["layer_metrics"] = tracer.metrics()
        result["layer_call_counts"] = tracer.calls
        result["layer_installed"] = sorted(tracer.installed)
        result["layer_missing"] = tracer.missing
        result["error_types"] = tracer.error_types
        if spans_path is not None:
            tracer.write_spans(spans_path)
    return result


def main() -> None:
    parser = argparse.ArgumentParser(description=__doc__)
    parser.add_argument("--workload", required=True,
                        choices=workloads.WORKLOADS)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--mode", choices=("timed", "round", "traced"),
                        required=True)
    parser.add_argument("--out", type=Path, required=True)
    parser.add_argument("--spans", type=Path)
    args = parser.parse_args()
    result = run(args.workload, args.seed, args.seconds, args.mode, args.spans)
    args.out.write_text(json.dumps(result))


if __name__ == "__main__":
    main()
