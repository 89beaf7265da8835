"""Import layering of the package, checked on the source with `ast`.

The CLI is the top layer: no package module may import it, and none
imports `random`: every answer is exact, not sampled.  Imports sit at
module level, where the dependency graph between modules is visible, and
name only public names: a module's underscored names are its own.  The
one exception, named in `DEFERRED_IMPORTS`, is a standard-library module
that a single branch uses, imported there so that other commands do not
pay for it.  No module imports `dataclasses`: a plain record is a
`NamedTuple`, and a class that validates its fields or keeps derived
values derives from `core.Frozen`.  Indented JSON is written by one
emitter, `jsonout`.  The J table's shared rows, `signed_lookups`, are
read by `algebra` and `morphism` alone, and only `catalog` builds the
algebra cache's keys or names the cache itself: a test gets a fresh one
from `catalog.scope()`.  Only `core`, `obstruction` and `recheck` import
`fractions`: a morphism is integral, and `acceptance`'s criteria read
integers and recheck each certificate with `recheck_certificate`, not
with a reader of their own.  One driver in
`acceptance` turns each criterion's claims into its report, and no other
code there builds or edits one.  Each name a value is kept under by
`derived_value` is written at one call site, so two kept values cannot
share an attribute.  The Bott steps, `ExtensionStep`, and the one search
that reduces a signature by them are `catalog`'s alone.
"""

import ast
from collections import Counter
from pathlib import Path

import pseudoht
import pseudoht.acceptance
import pseudoht.algebra
import pseudoht.catalog
import pseudoht.core
import pseudoht.extension
import pseudoht.obstruction
import pseudoht.sums

MODULES = sorted(Path(pseudoht.__file__).resolve().parent.glob("*.py"))


def _parse(path: Path) -> ast.Module:
    return ast.parse(path.read_text(), filename=str(path))


def _imported_modules(node) -> list[str]:
    """Dotted names an import statement binds, relative ones with their dots."""
    if isinstance(node, ast.Import):
        return [alias.name for alias in node.names]
    base = "." * node.level + (node.module or "")
    if node.module is None:
        return [base + alias.name for alias in node.names]
    return [base]


def test_modules_are_found():
    assert {p.name for p in MODULES} >= {"cli.py", "acceptance.py", "core.py"}


def test_no_module_imports_the_cli():
    offenders = []
    for path in MODULES:
        for node in ast.walk(_parse(path)):
            if isinstance(node, (ast.Import, ast.ImportFrom)):
                for name in _imported_modules(node):
                    if name.split(".")[-1] == "cli":
                        offenders.append(f"{path.name}:{node.lineno} {name}")
    assert offenders == []


def _importers(top: str) -> list[str]:
    """Each package import of the top-level module top, as file:line name."""
    return [f"{path.name}:{node.lineno} {name}"
            for path in MODULES for node in ast.walk(_parse(path))
            if isinstance(node, (ast.Import, ast.ImportFrom))
            for name in _imported_modules(node) if name.split(".")[0] == top]


def test_no_module_imports_random():
    assert _importers("random") == []


def test_no_module_imports_dataclasses():
    # the value classes derive from core.Frozen, and `dataclasses` would
    # load `inspect`, `ast` and `dis` into every import of the package
    assert _importers("dataclasses") == []


# (file, function, module): a stdlib import kept inside the one function
# that uses it, and why
DEFERRED_IMPORTS = {
    ("catalog.py", "render_table", "csv"):
        "only `table --format csv` writes CSV; every other command skips "
        "importing it",
}


def test_no_import_inside_a_function():
    found = []
    for path in MODULES:
        for func in ast.walk(_parse(path)):
            if isinstance(func, (ast.FunctionDef, ast.AsyncFunctionDef)):
                for node in ast.walk(func):
                    if isinstance(node, (ast.Import, ast.ImportFrom)):
                        found += [(path.name, func.name, name)
                                  for name in _imported_modules(node)]
    # each deferred import is still there, so the list cannot go stale
    assert sorted(found) == sorted(DEFERRED_IMPORTS)


def test_no_module_imports_a_private_name():
    offenders = []
    for path in MODULES:
        for node in ast.walk(_parse(path)):
            if isinstance(node, ast.ImportFrom):
                for alias in node.names:
                    if alias.name.startswith("_"):
                        offenders.append(f"{path.name}:{node.lineno} "
                                         f"{alias.name}")
    assert offenders == []


def _imports_of(path: Path) -> list[str]:
    """Every module and name path's import statements bind."""
    return [name for node in ast.walk(_parse(path))
            if isinstance(node, (ast.Import, ast.ImportFrom))
            for name in _imported_modules(node)
            + [alias.name for alias in node.names]]


def test_only_core_obstruction_and_recheck_import_fractions():
    # core's rank, determinant and nullspace take rational rows, gram_det
    # returns a Fraction, and recheck reads an SBG_NO witness such as
    # "-1/2"; a morphism is integral, and the criteria read integers and
    # leave certificates to recheck_certificate
    assert {site.split(":")[0] for site in _importers("fractions")} \
        == {"core.py", "obstruction.py", "recheck.py"}


def test_acceptance_imports_no_certificate_reader():
    names = _imports_of(Path(pseudoht.acceptance.__file__))
    assert "recheck_certificate" in names
    readers = {"re", "ParityConstraint", "verify_parity_cycle",
               "verify_sbg_no_witness"}
    assert readers.intersection(names) == set()


def test_one_driver_builds_every_criterion_report():
    # a criterion yields its claims; the driver alone counts them, joins
    # their messages and decides whether the criterion passed
    fields = {"checks", "failures", "passed"}
    owners = set()
    for node in _parse(Path(pseudoht.acceptance.__file__)).body:
        if isinstance(node, ast.ClassDef) and node.name == "CriterionReport":
            continue
        for child in ast.walk(node):
            builds = isinstance(child, ast.Call) and \
                getattr(child.func, "id", None) == "CriterionReport"
            if builds or (isinstance(child, ast.Attribute)
                          and child.attr in fields):
                owners.add(getattr(node, "name", f"line {node.lineno}"))
    assert len(owners) == 1, sorted(owners)


def _calls_by_function(node, func=None):
    """(name of the enclosing top-level function or None, call node)."""
    for child in ast.iter_child_nodes(node):
        if isinstance(child, (ast.FunctionDef, ast.AsyncFunctionDef)):
            yield from _calls_by_function(child, func or child.name)
            continue
        if isinstance(child, ast.Call):
            yield func, child
        yield from _calls_by_function(child, func)


def test_only_jsonout_writes_indented_json():
    offenders = []
    for path in MODULES:
        if path.name == "jsonout.py":
            continue
        for func, call in _calls_by_function(_parse(path)):
            callee = call.func
            name = callee.attr if isinstance(callee, ast.Attribute) else \
                getattr(callee, "id", None)
            # a ** argument may carry an indent too
            indented = any(kw.arg in ("indent", None) for kw in call.keywords)
            if name in ("dumps", "dump", "JSONEncoder") and indented:
                offenders.append(f"{path.name}:{call.lineno} in {func}")
    assert offenders == []


def _references(name: str, exempt: tuple[str, ...]) -> list[str]:
    """Where a module outside exempt calls, references or imports name,
    aliased or not."""
    offenders = []
    for path in MODULES:
        if path.name in exempt:
            continue
        for node in ast.walk(_parse(path)):
            names = ([alias.name for alias in node.names]
                     if isinstance(node, (ast.Import, ast.ImportFrom)) else
                     [node.id] if isinstance(node, ast.Name) else
                     [node.attr] if isinstance(node, ast.Attribute) else [])
            if name in names:
                offenders.append(f"{path.name}:{node.lineno}")
    return offenders


def test_only_algebra_and_morphism_read_the_shared_j_rows():
    assert _references("signed_lookups", ("algebra.py", "morphism.py")) == []


def test_only_catalog_builds_cache_keys():
    # extend and build_sum share a child through catalog.shared_step;
    # morphism's _kept_map asks whether an algebra is stored
    assert _references("catalog_key", ("catalog.py", "morphism.py")) == []
    assert _references("_CACHE", ("catalog.py",)) == []


def test_no_test_swaps_the_algebra_cache():
    # a test starts from a fresh cache inside catalog.scope(), which
    # restores the one it replaced
    offenders = []
    for path in sorted(Path(__file__).resolve().parent.glob("*.py")):
        for node in ast.walk(_parse(path)):
            targets = (node.targets if isinstance(node, ast.Assign) else
                       [node.target]
                       if isinstance(node, (ast.AnnAssign, ast.AugAssign))
                       else [])
            assigned = any(isinstance(t, ast.Attribute) and t.attr == "_CACHE"
                           for t in targets)
            patched = (isinstance(node, ast.Call)
                       and getattr(node.func, "attr", None) == "setattr"
                       and any(isinstance(arg, ast.Constant)
                               and arg.value in ("_CACHE",
                                                 "pseudoht.catalog._CACHE")
                               for arg in node.args))
            if assigned or patched:
                offenders.append(f"{path.name}:{node.lineno}")
    assert offenders == []


def test_each_kept_value_has_a_name_of_its_own():
    sites = Counter()
    for path in MODULES:
        for node in ast.walk(_parse(path)):
            if not isinstance(node, ast.Call):
                continue
            callee = node.func
            name = callee.attr if isinstance(callee, ast.Attribute) else \
                getattr(callee, "id", None)
            if name != "derived_value":
                continue
            key = node.args[1] if len(node.args) > 1 else next(
                (kw.value for kw in node.keywords if kw.arg == "name"), None)
            # a name computed at run time could repeat unseen
            assert isinstance(key, ast.Constant) and \
                isinstance(key.value, str), f"{path.name}:{node.lineno}"
            sites[key.value] += 1
    assert len(sites) >= 7  # the walk sees the package's kept values
    assert [name for name, n in sites.items() if n != 1] == []


def test_the_bott_steps_are_defined_once():
    # one step vocabulary and one reduction: extension and the package
    # re-export catalog's objects, and the second search is gone
    defined = [path.name for path in MODULES
               for node in ast.walk(_parse(path))
               if isinstance(node, ast.ClassDef)
               and node.name == "ExtensionStep"]
    assert defined == ["catalog.py"]
    assert pseudoht.ExtensionStep is pseudoht.extension.ExtensionStep
    assert pseudoht.extension.ExtensionStep is pseudoht.catalog.ExtensionStep
    assert pseudoht.extension.standard_chain is pseudoht.catalog.standard_chain
    gone = [(pseudoht.extension, "_chain"),
            (pseudoht.extension, "_STEP_PREFERENCE"),
            (pseudoht.catalog, "_reduce_dim")]
    assert [name for owner, name in gone if hasattr(owner, name)] == []


def test_every_exported_name_resolves():
    assert [n for n in pseudoht.__all__ if not hasattr(pseudoht, n)] == []


def test_removed_public_names_stay_gone():
    layout = pseudoht.catalog.table_layout((2, 3))
    cmap = pseudoht.morphism.canonical_map(1, 0)
    algebra = pseudoht.catalog.base_algebra(1, 0)
    removed = [(pseudoht.catalog, "shared_algebra"),
               (algebra, "module_labels"),
               (algebra, "center_labels"),
               (pseudoht.sums, "DirectSumAlgebra"),
               (pseudoht.sums, "sum_to_dict"),
               (pseudoht.sums, "sum_json"),
               (cmap, "module_image"),
               (cmap, "module_op"),
               (cmap, "center_op"),
               (pseudoht.obstruction, "adjoint_matrix"),
               (pseudoht.obstruction, "AdjointMatrix"),
               (pseudoht.algebra, "algebra_to_json"),
               (pseudoht.algebra, "j_of_center_vector"),
               (pseudoht.algebra, "apply_j_operators"),
               (pseudoht.algebra, "signed_lookup"),
               (pseudoht.algebra.SignedPermutationOp, "apply"),
               (pseudoht.core.ExactMatrix, "mul"),
               (pseudoht.core.ExactMatrix, "transpose"),
               (pseudoht.core.ExactMatrix, "apply"),
               (pseudoht.core.ExactMatrix, "column"),
               (pseudoht.core.ExactMatrix, "scale"),
               (pseudoht.core.ExactMatrix, "zero"),
               (pseudoht.core.ExactMatrix, "get"),
               (pseudoht.core, "classify_map"),
               (layout, "barred"),
               (layout, "center_symbol")]
    assert [name for owner, name in removed if hasattr(owner, name)] == []
