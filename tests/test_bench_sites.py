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
