"""Outside-in tracing of pseudoht's layers.

The program has no spans of its own yet, so this module wraps the layers'
public functions from outside: each listed function is rebound in every
``pseudoht.*`` namespace that holds it (including names imported with
``from .algebra import j_operator`` and module-level tuples such as
``acceptance.CRITERIA``), and the two class-level entry points are rebound
on their classes.  Spans are kept in memory and written out at the end.
"""

from __future__ import annotations

import gzip
import importlib
import inspect
import json
import sys
import time
from array import array
from dataclasses import dataclass
from typing import Callable, Optional


@dataclass(frozen=True)
class Target:
    layer: str
    module: str          # module that defines the function
    name: str            # attribute, or "Class.attribute"
    metric: str          # metric prefix; several targets may share one
    counter: Optional[Callable] = None   # (tracer, args, result) -> None
    inclusive: bool = False              # report total_s instead of calls/self_s


def _count_dim_out(tr, args, result):
    tr.count("extension.extend.dim_out", result.dim_module)


def _count_j_distinct(tr, args, result):
    algebra, k = args[0], args[1]
    tr.keep[id(algebra)] = algebra      # keeps id() unique for the whole run
    tr.j_keys.add((id(algebra), k))


def _count_entries(tr, args, result):
    tr.count("core.from_rows.entries", result.rows * result.cols)


def _count_points(tr, args, result):
    tr.count("obstruction.surjectivity_scan.points", result.points)


def _count_rejected(tr, args, result):
    tr.count("recheck.recheck_certificate.rejected", 0 if result.ok else 1)


def _targets() -> tuple[Target, ...]:
    p = "pseudoht."
    t = [
        Target("cli", p + "cli", "main", "cli.main"),
        Target("catalog", p + "catalog", "base_algebra", "catalog.base_algebra"),
        Target("extension", p + "extension", "extend", "extension.extend",
               _count_dim_out),
        Target("algebra", p + "algebra", "j_operator", "algebra.j_operator",
               _count_j_distinct),
    ]
    t += [Target("algebra", p + "algebra", name, "algebra.axioms")
          for name in ("verify_integral_basis", "verify_clifford",
                       "verify_admissible", "verify_htype")]
    t += [Target("algebra", p + "algebra", "verify_general_htype",
                 "algebra.verify_general_htype")]
    t += [Target("algebra", p + "algebra", name, "algebra.json")
          for name in ("algebra_to_dict", "algebra_from_dict")]
    t += [Target("core", p + "core", "ExactMatrix.from_rows", "core.from_rows",
                 _count_entries)]
    t += [Target("core", p + "core", name, "core." + name)
          for name in ("exact_rank", "nullspace", "exact_det")]
    t += [Target("morphism", p + "morphism", name, "morphism." + name)
          for name in ("canonical_map", "CanonicalMap.to_morphism",
                       "verify_homomorphism", "verify_conjugation",
                       "classify_morphism", "morphism_to_dict",
                       "normalize_isomorphism")]
    t += [Target("obstruction", p + "obstruction", "surjectivity_scan",
                 "obstruction.surjectivity_scan", _count_points)]
    t += [Target("obstruction", p + "obstruction", name, "obstruction." + name)
          for name in ("gram_det", "adjoint_rank", "sbg_decision",
                       "parity_certificate", "verify_sbg_no_witness")]
    t += [Target("sums", p + "sums", name, "sums." + name)
          for name in ("build_sum", "sum_sbg", "swap_isomorphism",
                       "block_volume_element")]
    t += [Target("recheck", p + "recheck", "recheck_certificate",
                 "recheck.recheck_certificate", _count_rejected),
          Target("recheck", p + "recheck", "rebuild_from_provenance",
                 "recheck.rebuild_from_provenance")]
    names = ("tables", "axioms", "isomorphisms", "nonisomorphism",
             "surjectivity", "sbg", "sums", "general_htype")
    t += [Target("acceptance", p + "acceptance", f"criterion_{n}_{name}",
                 f"acceptance.criterion_{n}", inclusive=True)
          for n, name in enumerate(names, start=1)]
    return tuple(t)


TARGETS = _targets()
LAYERS = tuple(dict.fromkeys(t.layer for t in TARGETS))
EXTRA_METRICS = (
    ("extension.extend.dim_out", "count", "lower"),
    ("algebra.j_operator.distinct_ratio", "ratio", "higher"),
    ("core.from_rows.entries", "count", "lower"),
    ("obstruction.surjectivity_scan.points", "count", "lower"),
    ("recheck.recheck_certificate.rejected", "count", "lower"),
)
RUN_METRICS = (
    ("trace.overhead_p50_s", "s", "lower"),
    ("trace.spans", "count", "lower"),
)

_MORPHISM = ("morphism.canonical_map", "morphism.CanonicalMap.to_morphism",
             "morphism.verify_homomorphism", "morphism.verify_conjugation",
             "morphism.classify_morphism")
_OBSTRUCTION = ("obstruction.surjectivity_scan", "obstruction.sbg_decision",
                "obstruction.parity_certificate",
                "obstruction.verify_sbg_no_witness")
# Wrapped functions that must be called on each workload, from the layer
# table of the benchmark's README ("should move ... on").  Where a table row
# names a group, only the members on that workload's path are listed:
# certificates are serialized and rechecked only outside verify-paper, and
# verify-paper alone normalizes isomorphisms, swaps sum blocks and runs the
# rank, nullspace and determinant routines.
COVERAGE = {
    "iso-roundtrip": ("cli.main", "extension.extend", "algebra.j_operator",
                      "core.from_rows", "core.exact_rank", *_MORPHISM,
                      "morphism.morphism_to_dict",
                      "recheck.recheck_certificate",
                      "recheck.rebuild_from_provenance"),
    "refute-sbg": ("cli.main", *_OBSTRUCTION, "sums.build_sum", "sums.sum_sbg",
                   "recheck.recheck_certificate"),
    "paper-suite": ("cli.main", "algebra.j_operator", "algebra.axioms",
                    "algebra.verify_general_htype", "core.from_rows",
                    "core.exact_rank", "core.nullspace", "core.exact_det",
                    *_MORPHISM, "morphism.normalize_isomorphism",
                    *_OBSTRUCTION, "obstruction.gram_det",
                    "obstruction.adjoint_rank", "sums.build_sum",
                    "sums.swap_isomorphism", "sums.block_volume_element",
                    *(f"acceptance.criterion_{n}" for n in range(1, 9))),
    "construct": ("cli.main", "catalog.base_algebra", "extension.extend",
                  "algebra.json", "sums.build_sum"),
}


def per_layer_metrics() -> list[tuple[str, str, str]]:
    """(name, unit, better) of every metric a traced run reports."""
    out = []
    for metric in dict.fromkeys(t.metric for t in TARGETS):
        if any(t.inclusive for t in TARGETS if t.metric == metric):
            out.append((metric + ".total_s", "s", "lower"))
        else:
            out += [(metric + ".calls", "count", "lower"),
                    (metric + ".self_s", "s", "lower")]
    out += list(EXTRA_METRICS)
    out += [(layer + ".errors", "count", "lower") for layer in LAYERS]
    out += list(RUN_METRICS)
    return out


class Tracer:
    """Records one span per wrapped call; single-threaded by design."""

    def __init__(self) -> None:
        self.op_id = -1
        self.names: list[str] = []
        self._name_index: dict[str, int] = {}
        # span columns, appended as spans end; parent is -1 for a root span
        self.span_id = array("q")
        self.span_name = array("i")
        self.span_start = array("q")
        self.span_end = array("q")
        self.span_parent = array("q")
        self.span_op = array("i")
        self._next_id = 0
        self._stack: list[list] = []     # [id, layer, start, child_ns]
        self.calls: dict[str, int] = {}
        self.self_ns: dict[str, int] = {}
        self.total_ns: dict[str, int] = {}
        self.counters: dict[str, int] = {}
        self.errors: dict[str, int] = {layer: 0 for layer in LAYERS}
        self.error_types: dict[str, int] = {}
        self.keep: dict[int, object] = {}
        self.j_keys: set = set()
        self._restore: list[tuple[object, str, object]] = []
        self.missing: list[str] = []
        self.installed: set[str] = set()

    def count(self, name: str, n: int) -> None:
        self.counters[name] = self.counters.get(name, 0) + n

    def _name_code(self, metric: str) -> int:
        code = self._name_index.get(metric)
        if code is None:
            code = self._name_index[metric] = len(self.names)
            self.names.append(metric)
        return code

    def _wrap(self, target: Target, orig: Callable) -> Callable:
        metric, layer, counter = target.metric, target.layer, target.counter
        code = self._name_code(metric)
        stack = self._stack
        clock = time.perf_counter_ns

        def traced(*args, **kwargs):
            span_id = self._next_id
            self._next_id += 1
            parent = stack[-1] if stack else None
            frame = [span_id, layer, clock(), 0]
            stack.append(frame)
            try:
                result = orig(*args, **kwargs)
            except BaseException as exc:
                # count an exception once per layer it escapes from
                if parent is None or parent[1] != layer:
                    self.errors[layer] += 1
                    key = f"{layer}:{type(exc).__name__}"
                    self.error_types[key] = self.error_types.get(key, 0) + 1
                raise
            else:
                if counter is not None:
                    counter(self, args, result)
                return result
            finally:
                end = clock()
                stack.pop()
                duration = end - frame[2]
                if parent is not None:
                    parent[3] += duration
                self.calls[metric] = self.calls.get(metric, 0) + 1
                self.self_ns[metric] = (self.self_ns.get(metric, 0)
                                        + duration - frame[3])
                self.total_ns[metric] = self.total_ns.get(metric, 0) + duration
                self.span_id.append(span_id)
                self.span_name.append(code)
                self.span_start.append(frame[2])
                self.span_end.append(end)
                self.span_parent.append(parent[0] if parent else -1)
                self.span_op.append(self.op_id)

        traced.__wrapped__ = orig
        traced.__name__ = getattr(orig, "__name__", "traced")
        traced.__qualname__ = getattr(orig, "__qualname__", traced.__name__)
        return traced

    def _set(self, holder: object, attr: str, value: object) -> None:
        self._restore.append((holder, attr, inspect.getattr_static(holder, attr)))
        setattr(holder, attr, value)

    def install(self) -> None:
        """Rebind every target in every loaded pseudoht namespace."""
        for target in TARGETS:
            importlib.import_module(target.module)
        modules = [m for name, m in sorted(sys.modules.items())
                   if m is not None and (name == "pseudoht"
                                         or name.startswith("pseudoht."))]
        for target in TARGETS:
            home = sys.modules[target.module]
            try:
                if "." in target.name:
                    cls_name, attr = target.name.split(".")
                    cls = getattr(home, cls_name)
                    raw = inspect.getattr_static(cls, attr)
                else:
                    orig = getattr(home, target.name)
            except AttributeError:
                # a function a later change removed: report it, trace the rest
                self.missing.append(f"{target.module}.{target.name}")
                continue
            self.installed.add(target.metric)
            if "." in target.name:
                if isinstance(raw, staticmethod):
                    self._set(cls, attr, staticmethod(self._wrap(target, raw.__func__)))
                else:
                    self._set(cls, attr, self._wrap(target, raw))
                continue
            wrapped = self._wrap(target, orig)
            for module in modules:
                for attr, value in list(vars(module).items()):
                    if value is orig:
                        self._set(module, attr, wrapped)
                    elif isinstance(value, tuple) and any(v is orig for v in value):
                        self._set(module, attr, tuple(
                            wrapped if v is orig else v for v in value))

    def uninstall(self) -> None:
        while self._restore:
            holder, attr, value = self._restore.pop()
            setattr(holder, attr, value)

    def __enter__(self) -> "Tracer":
        self.install()
        return self

    def __exit__(self, *exc) -> None:
        self.uninstall()

    # --- results --------------------------------------------------------

    def metrics(self) -> dict[str, float]:
        out: dict[str, float] = {}
        for name, _unit, _better in per_layer_metrics():
            if name.endswith(".calls"):
                out[name] = self.calls.get(name[:-6], 0)
            elif name.endswith(".self_s"):
                out[name] = self.self_ns.get(name[:-7], 0) / 1e9
            elif name.endswith(".total_s"):
                out[name] = self.total_ns.get(name[:-8], 0) / 1e9
            elif name.endswith(".errors"):
                out[name] = self.errors[name[:-7]]
        out.update({name: self.counters.get(name, 0)
                    for name, _u, _b in EXTRA_METRICS
                    if not name.endswith("distinct_ratio")})
        calls = self.calls.get("algebra.j_operator", 0)
        out["algebra.j_operator.distinct_ratio"] = (
            len(self.j_keys) / calls if calls else 0.0)
        out["trace.spans"] = len(self.span_name)
        return out

    def write_spans(self, path) -> None:
        columns = {"id": self.span_id, "name": self.span_name,
                   "start_ns": self.span_start, "end_ns": self.span_end,
                   "parent": self.span_parent, "op": self.span_op}
        data = {"names": self.names,
                "columns": {key: list(col) for key, col in columns.items()}}
        with gzip.open(path, "wt") as fh:
            json.dump(data, fh)
