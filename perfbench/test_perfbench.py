"""Self-tests of the benchmark harness (fast; no timed runs).

    PYTHONPATH=src python3 -m pytest -q perfbench/test_perfbench.py
"""

import itertools
import json
import sys
from pathlib import Path

import pytest

BENCH_DIR = Path(__file__).resolve().parent
sys.path[:0] = [str(BENCH_DIR), str(BENCH_DIR.parent / "src")]

import run  # noqa: E402
import speed  # noqa: E402
import tracing  # noqa: E402
import worker  # noqa: E402
import workloads  # noqa: E402

import pseudoht  # noqa: E402
import pseudoht.acceptance  # noqa: E402
import pseudoht.morphism  # noqa: E402


def _argvs(workload, seed, n_rounds=2):
    stream = itertools.islice(workloads.rounds(workload, seed), n_rounds)
    return [[op.argv for op in ops] for ops in stream]


@pytest.mark.parametrize("workload", workloads.WORKLOADS)
def test_seed_yields_same_argv_lists(workload):
    assert _argvs(workload, 7) == _argvs(workload, 7)
    assert _argvs(workload, 7) != _argvs(workload, 8)


@pytest.mark.parametrize("workload", ["iso-roundtrip", "refute-sbg"])
def test_rounds_share_one_composition(workload):
    first, second = _argvs(workload, 3)
    assert len(first) >= workloads.MIN_OPS[workload] / 2
    assert len(first) == len(second)


def test_construct_never_repeats_a_request():
    seen = [op.argv for ops in workloads.rounds("construct", 5) for op in ops]
    assert len(seen) >= workloads.MIN_OPS["construct"]
    assert len(seen) == len(set(seen))


def test_percentile_needs_ten_samples_beyond_it():
    with pytest.raises(ValueError):
        run.percentile(range(99), 0.9)
    assert run.percentile(range(100), 0.9) == 89
    assert run.percentile(range(1, 201), 0.9) == 180


def test_op_scale_follows_the_local_kernel_time():
    sampler = speed.Sampler()
    ref = speed.REFERENCE_KERNEL_S
    sampler.at = [0.0, 1.0, 2.0, 3.0, 4.0]
    sampler.kernel_s = [ref, ref, 2 * ref, 2 * ref, 2 * ref]
    assert sampler.factor_between(0.2, 0.4) == 1.0
    assert sampler.factor_between(3.2, 3.9) == 0.5
    # half a second at 1.0, a second at 2/3, one and a half at 0.5
    assert sampler.factor_between(0.5, 3.5) == pytest.approx(
        (0.5 * 1.0 + 1.0 * 2 / 3 + 1.5 * 0.5) / 3)


def test_raising_op_is_counted_not_fatal(monkeypatch, tmp_path):
    def boom(argv):
        raise RuntimeError("injected")

    op = workloads.Op(("check", "1", "8", "8", "1"), "cert",
                      kinds=frozenset({"ISO"}))
    monkeypatch.setattr(pseudoht.cli, "main", boom)
    rec = worker.run_op(op, tmp_path / "report.json")
    assert rec["ok"] is False and rec["error"] == "RuntimeError"
    assert rec["latency_s"] >= 0


def test_identity_certificate_is_a_counted_known_defect(tmp_path):
    op = workloads._check(3, 3, 3, 3, {"ISO"}, 0,
                          known_defect=workloads.KNOWN_DEFECT_IDENTITY)
    rec = worker.run_op(op, tmp_path / "report.json")
    assert rec["ok"] is False and rec["error"] == "KeyError"
    assert rec["kind"] == "ISO" and rec["known_defect"]


def test_wrong_kind_is_a_failure(tmp_path):
    op = workloads._check(3, 2, 2, 3, {"ISO"}, 0)
    rec = worker.run_op(op, tmp_path / "report.json")
    assert rec["ok"] is False and rec["error"] == "OpFailure"
    assert rec["kind"] == "NOT_ISO_PARITY"


def test_wrapper_reaches_names_imported_from_algebra():
    original = pseudoht.morphism.j_operator
    a = pseudoht.base_algebra(1, 0)
    with tracing.Tracer() as tracer:
        assert pseudoht.morphism.j_operator is not original
        assert pseudoht.morphism.j_operator is pseudoht.algebra.j_operator
        assert pseudoht.acceptance.CRITERIA[0].__wrapped__ is \
            pseudoht.acceptance.criterion_1_tables.__wrapped__
        pseudoht.morphism.j_operator(a, 1)
        pseudoht.ExactMatrix.identity(3)
    assert pseudoht.morphism.j_operator is original
    assert tracer.calls["algebra.j_operator"] == 1
    assert tracer.calls["core.from_rows"] == 1
    assert tracer.counters["core.from_rows.entries"] == 9


def test_removed_function_is_reported_not_fatal(monkeypatch):
    monkeypatch.delattr(pseudoht.sums, "block_volume_element")
    with tracing.Tracer() as tracer:
        pseudoht.morphism.j_operator(pseudoht.base_algebra(1, 0), 1)
    assert tracer.missing == ["pseudoht.sums.block_volume_element"]
    assert "sums.block_volume_element" not in tracer.installed
    assert tracer.calls["algebra.j_operator"] == 1


def test_self_time_excludes_child_spans():
    with tracing.Tracer() as tracer:
        pseudoht.morphism.canonical_map(1, 8).to_morphism()
    code = tracer.names.index("morphism.CanonicalMap.to_morphism")
    row = list(tracer.span_name).index(code)
    span_id = tracer.span_id[row]
    duration = tracer.span_end[row] - tracer.span_start[row]
    children = [r for r, parent in enumerate(tracer.span_parent)
                if parent == span_id]
    assert children    # the two ExactMatrix.from_rows calls
    covered = sum(tracer.span_end[r] - tracer.span_start[r] for r in children)
    assert tracer.self_ns["morphism.CanonicalMap.to_morphism"] == \
        duration - covered


def test_benchmark_json_lists_every_reported_metric():
    spec = json.loads((BENCH_DIR.parent / "BENCHMARK.json").read_text())
    assert [(m["name"], m["unit"]) for m in spec["end_to_end"]] == \
        list(run.END_TO_END)
    assert [(m["name"], m["unit"], m["better"]) for m in spec["per_layer"]] == \
        tracing.per_layer_metrics()
    assert [w["name"] for w in spec["workloads"]] == list(workloads.WORKLOADS)
    assert set(tracing.COVERAGE) == set(workloads.WORKLOADS)
