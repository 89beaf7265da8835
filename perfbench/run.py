"""pseudoht benchmark: one workload, every metric, every output checked.

Run from the repository root::

    python3 perfbench/run.py --workload iso-roundtrip --seed 1 --seconds 12 --trace 0
    python3 perfbench/run.py --workload iso-roundtrip --seed 1 --seconds 12 --trace 1

``--trace 0`` measures the end-to-end metrics with tracing off.  ``--trace 1``
runs the workload's first round twice in fresh processes, untraced and then
with every layer wrapped, and reports the per-layer metrics, the tracing
overhead and the coverage and determinism checks.  The last line of stdout
is one JSON object; the human-readable lines above it name every metric
with its unit.  See perfbench/README.md.
"""

from __future__ import annotations

import argparse
import json
import math
import os
import platform
import statistics
import subprocess
import sys
import time
from pathlib import Path

import speed
import tracing
import workloads

BENCH_DIR = Path(__file__).resolve().parent
ROOT = BENCH_DIR.parent
WORK_DIR = BENCH_DIR / "_work"
DEADLINE_S = 170          # the whole run must end within 180 s
SETUP_STARTS = 9
# A fresh interpreter's set-up: import the package and every module a
# workload's first op reaches; then time the speed kernel in the same
# interpreter to normalise the import time.
SETUP_SNIPPET = (
    "import time\n"
    "t0 = time.perf_counter()\n"
    "import pseudoht, pseudoht.cli, pseudoht.recheck, pseudoht.acceptance\n"
    "t1 = time.perf_counter()\n"
    "import speed\n"
    "print(repr(t1 - t0), repr(speed.sample_kernel()))\n")

END_TO_END = (
    ("setup_s", "s"), ("ops_per_s", "ops/s"), ("latency_p50_s", "s"),
    ("latency_p90_s", "s"), ("cert_bytes_mean", "B"),
    ("suite_s", "s"), ("peak_rss_mb", "MB"), ("ok_rate", "ratio"),
)


class BenchError(Exception):
    pass


def percentile(samples, q: float, min_beyond: int = 10) -> float:
    """Nearest-rank percentile, refused unless ``min_beyond`` samples lie
    above it."""
    xs = sorted(samples)
    rank = math.ceil(q * len(xs))
    if rank < 1 or len(xs) - rank < min_beyond:
        raise ValueError(f"p{q * 100:g} needs {min_beyond} samples beyond it; "
                         f"have {len(xs)} samples")
    return xs[rank - 1]


def _env() -> dict:
    env = dict(os.environ)
    paths = [str(ROOT / "src"), str(BENCH_DIR)]
    if env.get("PYTHONPATH"):
        paths.append(env["PYTHONPATH"])
    env["PYTHONPATH"] = os.pathsep.join(paths)
    return env


def _remaining(start: float) -> float:
    left = DEADLINE_S - (time.monotonic() - start)
    if left <= 0:
        raise BenchError("out of time")
    return left


def measure_setup(start: float) -> tuple[float, list[float]]:
    """Median normalised set-up time of SETUP_STARTS fresh interpreters,
    and their raw import times."""
    raw, normalised = [], []
    for _ in range(SETUP_STARTS):
        proc = subprocess.run([sys.executable, "-c", SETUP_SNIPPET],
                              cwd=ROOT, env=_env(), capture_output=True,
                              text=True, timeout=_remaining(start))
        if proc.returncode != 0:
            raise BenchError(f"importing pseudoht failed:\n{proc.stderr}")
        import_s, kernel_s = (float(x) for x in proc.stdout.split())
        raw.append(import_s)
        normalised.append(import_s * speed.factor([kernel_s]))
    return statistics.median(normalised), raw


def run_worker(workload: str, seed: int, seconds: float, mode: str,
               start: float, spans: Path | None = None) -> dict:
    out = WORK_DIR / f"{workload}-{seed}-{mode}-{os.getpid()}.json"
    cmd = [sys.executable, str(BENCH_DIR / "worker.py"), "--workload", workload,
           "--seed", str(seed), "--seconds", str(seconds), "--mode", mode,
           "--out", str(out)]
    if spans is not None:
        cmd += ["--spans", str(spans)]
    try:
        proc = subprocess.run(cmd, cwd=ROOT, env=_env(),
                              stdout=subprocess.DEVNULL,
                              timeout=_remaining(start))
        if proc.returncode != 0:
            raise BenchError(f"worker exited with {proc.returncode}")
        return json.loads(out.read_text())
    finally:
        out.unlink(missing_ok=True)


def end_to_end(result: dict, setup_s: float) -> tuple[dict, dict]:
    """The eight metrics of one run, each op's times at the reference speed
    (see speed.py); the raw wall-clock values and the mean recheck time go
    in the notes."""
    ops, sizes = result["ops"], result["round_sizes"]

    def times(raw: bool) -> dict:
        scales = [1.0 if raw else op["scale"] for op in ops]
        latencies = [op["latency_s"] * f for op, f in zip(ops, scales)]
        rounds, i = [], 0
        for n in sizes:
            rounds.append(sum(latencies[i:i + n]))
            i += n
        return {"ops_per_s": len(ops) / sum(latencies),
                "latency_p50_s": statistics.median(latencies),
                "latency_p90_s": _p90(latencies)[0],
                "recheck_mean_s": statistics.fmean(
                    op["recheck_s"] * f for op, f in zip(ops, scales)),
                "suite_s": statistics.median(rounds)}

    failed = sum(not op["ok"] for op in ops)
    payloads = [op["bytes"] for op in ops if "bytes" in op]
    values = {
        "setup_s": setup_s,
        **times(raw=False),
        "cert_bytes_mean": statistics.fmean(payloads) if payloads else 0.0,
        "peak_rss_mb": result["peak_rss_mb"],
        "ok_rate": (len(ops) - failed) / len(ops),
    }
    kernel = result["speed_kernel_s"]
    notes = {"latency_p90_basis": _p90([op["latency_s"] for op in ops])[1],
             "error_rate": failed / len(ops),
             "recheck_mean_s": values["recheck_mean_s"],
             "rounds": len(sizes), "loop_wall_s": result["wall_s"],
             **{"raw_" + k: v for k, v in times(raw=True).items()},
             "speed_factor_p50": statistics.median(op["scale"] for op in ops),
             "speed_samples": len(kernel),
             "speed_kernel_range_s": [min(kernel), max(kernel)] if kernel
             else None}
    return {name: values[name] for name, _unit in END_TO_END}, notes


def _p90(latencies: list[float]) -> tuple[float, str]:
    """p90 and how it was taken."""
    try:
        return percentile(latencies, 0.9), f"p90 of {len(latencies)} ops"
    except ValueError:
        # too few ops for a p90 (paper-suite): the maximum bounds it above
        return max(latencies), f"max of {len(latencies)} ops"


def failures(ops: list[dict]) -> dict:
    """Failed ops grouped by exception type, known defects apart."""
    out: dict = {}
    for op in ops:
        if not op["ok"]:
            key = ("known_defect:" if op["known_defect"] else "") + op["error"]
            out[key] = out.get(key, 0) + 1
    return out


def _commit() -> str:
    git = ROOT / ".git"
    try:
        head = (git / "HEAD").read_text().strip()
        if not head.startswith("ref: "):
            return head
        ref = head[5:]
        if (git / ref).is_file():
            return (git / ref).read_text().strip()
        for line in (git / "packed-refs").read_text().splitlines():
            if line.endswith(" " + ref):
                return line.split()[0]
    except OSError:
        pass
    return "unknown (not a git checkout)"


def _record(args, result: dict, notes: dict) -> dict:
    ops = result["ops"]
    return {
        "workload": args.workload, "seed": args.seed, "ops": len(ops),
        "repeat_share": result["repeat_share"],
        "dim_histogram": result["dim_histogram"],
        "kind_histogram": result["kind_histogram"],
        "failures": failures(ops),
        "commit": _commit(), "python": platform.python_version(),
        "nproc": os.cpu_count(), **notes,
    }


def _print_metrics(values: dict, units: dict) -> None:
    for name, value in values.items():
        print(f"{name:<48} {value!r:>24} {units[name]}")


def timed(args, start: float) -> dict:
    setup_s, starts = measure_setup(start)
    result = run_worker(args.workload, args.seed, args.seconds, "timed", start)
    values, notes = end_to_end(result, setup_s)
    notes["raw_setup_starts_s"] = starts
    record = _record(args, result, notes)
    unexpected = [op for op in result["ops"]
                  if not op["ok"] and not op["known_defect"]]
    _print_metrics(values, dict(END_TO_END))
    print(f"{'error_rate':<48} {notes['error_rate']!r:>24} ratio")
    print("record " + json.dumps(record, sort_keys=True))
    for op in unexpected[:10]:
        print(f"FAILED {op['argv']}: {op['error']} {op.get('detail', '')}",
              file=sys.stderr)
    _write(f"run-{args.workload}-{args.seed}.json", {
        "record": record, "metrics": values, "ops": result["ops"],
        "speed": {"at": result["speed_at"],
                  "kernel_s": result["speed_kernel_s"]}})
    return {"correct": not unexpected, "attempted": len(result["ops"]),
            "failed": sum(not op["ok"] for op in result["ops"]),
            "metrics": {name: {"value": values[name], "unit": unit}
                        for name, unit in END_TO_END}}


def traced(args, start: float) -> dict:
    plain = run_worker(args.workload, args.seed, args.seconds, "round", start)
    spans = WORK_DIR / f"spans-{args.workload}-{args.seed}.json.gz"
    with_trace = run_worker(args.workload, args.seed, args.seconds, "traced",
                            start, spans=spans)
    layer = with_trace["layer_metrics"]
    mismatched = [a["argv"] for a, b in zip(plain["ops"], with_trace["ops"])
                  if a.get("digest") != b.get("digest")]
    if len(plain["ops"]) != len(with_trace["ops"]):
        mismatched.append("op count differs")
    installed = set(with_trace["layer_installed"])
    uncovered = [name for name in tracing.COVERAGE[args.workload]
                 if name in installed
                 and not with_trace["layer_call_counts"].get(name)]
    key = "suite_s" if args.workload == "paper-suite" else "latency_p50_s"
    base_values, _ = end_to_end(plain, 0.0)
    trace_values, _ = end_to_end(with_trace, 0.0)
    layer["trace.overhead_p50_s"] = trace_values[key] - base_values[key]
    units = {name: unit for name, unit, _b in tracing.per_layer_metrics()}
    _print_metrics(layer, units)
    check = {"digests_match": not mismatched, "mismatched": mismatched[:10],
             "uncovered": uncovered, "overhead_basis": key,
             "untraced": base_values[key], "traced": trace_values[key],
             "missing_targets": with_trace["layer_missing"],
             "error_types": with_trace["error_types"], "spans_file": str(
                 spans.relative_to(ROOT))}
    print("trace-check " + json.dumps(check, sort_keys=True))
    for name in uncovered:
        print(f"UNCOVERED {name}: no calls on {args.workload}", file=sys.stderr)
    unexpected = [op for op in with_trace["ops"]
                  if not op["ok"] and not op["known_defect"]]
    return {"correct": not (mismatched or uncovered or unexpected),
            "attempted": len(with_trace["ops"]),
            "failed": sum(not op["ok"] for op in with_trace["ops"]),
            "metrics": {name: {"value": layer[name], "unit": units[name]}
                        for name in units}}


def _write(name: str, data: dict) -> None:
    (WORK_DIR / name).write_text(json.dumps(data, indent=1, sort_keys=True))


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n")[0])
    parser.add_argument("--workload", required=True, choices=workloads.WORKLOADS)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)
    if not (ROOT / "src" / "pseudoht" / "__init__.py").is_file():
        print(f"no pseudoht sources under {ROOT / 'src'}; run from a "
              f"checkout of the repository", file=sys.stderr)
        return 2
    start = time.monotonic()
    WORK_DIR.mkdir(exist_ok=True)
    try:
        result = traced(args, start) if args.trace else timed(args, start)
    except (BenchError, subprocess.TimeoutExpired) as exc:
        print(f"benchmark failed: {exc}", file=sys.stderr)
        return 1
    print(json.dumps(result))
    return 0


if __name__ == "__main__":
    sys.exit(main())
