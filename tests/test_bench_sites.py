"""The traced benchmark run wraps package functions by module attribute.

perfbench/spans.py lists each (module, attribute) it replaces in SITES; a
refactor that renames or moves one of them would break ``--trace 1``.
"""

import ast
import importlib.util
from pathlib import Path

ROOT = Path(__file__).resolve().parents[1]
SPANS = ROOT / "perfbench" / "spans.py"
PACKAGE = ROOT / "src" / "prosovc"


def load_sites():
    spec = importlib.util.spec_from_file_location("perfbench_spans", SPANS)
    spans = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(spans)
    return spans.SITES


def test_every_traced_site_is_a_callable_attribute():
    sites = load_sites()
    assert sites
    missing = [f"{module.__name__}.{attr}" for module, attr, _ in sites
               if not callable(getattr(module, attr, None))]
    assert missing == []


def imported_names(tree: ast.Module):
    """Every name an import statement binds, `from __future__` aside."""
    for node in ast.walk(tree):
        if isinstance(node, ast.ImportFrom) and node.module == "__future__":
            continue
        if isinstance(node, (ast.Import, ast.ImportFrom)):
            for alias in node.names:
                yield (alias.asname or alias.name).split(".")[0]


def test_every_package_import_is_used():
    # a traced site may be imported only so that the benchmark can replace it there
    traced = {(module.__name__.rpartition(".")[2], attr) for module, attr, _ in load_sites()}
    unused = []
    for path in sorted(PACKAGE.glob("*.py")):
        tree = ast.parse(path.read_text(encoding="utf-8"))
        used = {node.id for node in ast.walk(tree) if isinstance(node, ast.Name)}
        unused += [f"{path.stem}.{name}" for name in imported_names(tree)
                   if name not in used and (path.stem, name) not in traced]
    assert unused == []


# public package names whose only callers are tests, each kept for its reason
TEST_ONLY_NAMES = {
    "diffusion.gradient_check",  # acceptance criterion 6: the finite-difference gradient check
    "signal_core.butterworth_hp_gain",  # acceptance criterion 4's analytic reference for the high-pass
}


def test_every_public_package_name_is_referenced():
    # a name counts when the package, scripts or perfbench read it, or when SITES replaces it
    trees = {path: ast.parse(path.read_text(encoding="utf-8"))
             for folder in (PACKAGE, ROOT / "scripts", ROOT / "perfbench")
             for path in sorted(folder.glob("*.py"))}
    referenced = {attr for _, attr, _ in load_sites()}
    for tree in trees.values():
        for node in ast.walk(tree):
            if isinstance(node, ast.Name):
                referenced.add(node.id)
            elif isinstance(node, ast.Attribute):
                referenced.add(node.attr)
    unreferenced = [f"{path.stem}.{node.name}" for path, tree in trees.items() if path.parent == PACKAGE
                    for node in tree.body if isinstance(node, (ast.FunctionDef, ast.ClassDef))
                    and not node.name.startswith("_") and node.name not in referenced]
    assert sorted(set(unreferenced) - TEST_ONLY_NAMES) == []
