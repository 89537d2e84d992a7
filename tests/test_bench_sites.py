"""The traced benchmark run wraps package functions by module attribute.

perfbench/spans.py lists each (module, attribute) it replaces in SITES; a
refactor that renames or moves one of them would break ``--trace 1``.
"""

import importlib.util
from pathlib import Path

SPANS = Path(__file__).resolve().parents[1] / "perfbench" / "spans.py"


def test_every_traced_site_is_a_callable_attribute():
    spec = importlib.util.spec_from_file_location("perfbench_spans", SPANS)
    spans = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(spans)
    assert spans.SITES
    missing = [f"{module.__name__}.{attr}" for module, attr, _ in spans.SITES
               if not callable(getattr(module, attr, None))]
    assert missing == []
