"""The benchmark's traced runs wrap sklab functions by name.

``perfbench/spans.py`` lists every ``(module, attribute)`` binding it
replaces with a timing wrapper.  A renamed or deleted binding would break
traced benchmark runs without failing any other test, so this checks that
each one still resolves to a callable.
"""

import importlib
import importlib.util
from pathlib import Path

import pytest

SPANS_PATH = Path(__file__).resolve().parents[1] / "perfbench" / "spans.py"


def _wraps() -> list[tuple[str, str, str]]:
    spec = importlib.util.spec_from_file_location("perfbench_spans", SPANS_PATH)
    module = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(module)
    return module.WRAPS


@pytest.mark.parametrize("module, attr, span", _wraps())
def test_wrapped_binding_is_callable(module, attr, span):
    assert callable(getattr(importlib.import_module(module), attr, None)), (
        f"{module}.{attr} (span {span}) no longer exists"
    )
