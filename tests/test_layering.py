"""Import layering of the package, checked on the source with `ast`.

The CLI is the top layer: no package module may import it.  Imports sit at
module level, where the dependency graph between modules is visible, and
name only public names: a module's underscored names are its own.
"""

import ast
from pathlib import Path

import pseudoht

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


def test_no_import_inside_a_function():
    offenders = []
    for path in MODULES:
        for func in ast.walk(_parse(path)):
            if isinstance(func, (ast.FunctionDef, ast.AsyncFunctionDef)):
                for node in ast.walk(func):
                    if isinstance(node, (ast.Import, ast.ImportFrom)):
                        offenders.append(f"{path.name}:{node.lineno} "
                                         f"in {func.name}")
    assert offenders == []


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
