"""The benchmark's span list (bench/spans.py) names only existing functions.

The tracer patches each "<module>.<function>" it lists; a name that no longer
resolves breaks the traced benchmark run, so it is checked here, from the
file's text, without importing the benchmark.
"""

import ast
import importlib
from pathlib import Path

import pytest

SPANS_FILE = Path(__file__).resolve().parent.parent / "bench" / "spans.py"


def _span_names() -> tuple[str, ...]:
    for node in ast.parse(SPANS_FILE.read_text()).body:
        if isinstance(node, ast.Assign) and any(
            isinstance(t, ast.Name) and t.id == "SPANS" for t in node.targets
        ):
            return ast.literal_eval(node.value)
    raise AssertionError(f"no SPANS tuple in {SPANS_FILE}")


@pytest.mark.parametrize("name", _span_names())
def test_span_resolves_to_a_bathdd_callable(name):
    module, function = name.split(".")
    assert callable(getattr(importlib.import_module(f"bathdd.{module}"), function))
