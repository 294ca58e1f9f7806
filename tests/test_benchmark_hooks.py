"""The benchmark's traced runs wrap sklab functions by name.

``perfbench/spans.py`` lists every ``(module, attribute)`` binding it
replaces with a timing wrapper.  A renamed or deleted binding would break
traced benchmark runs without failing any other test, so this checks that
each one still resolves to a callable, and that the campaign and phase
commands still reach the harness and CLI bindings through those names.
"""

import collections
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


#: modules whose wrapped bindings the campaign and phase commands call
CALLERS = ("sklab.experiment_harness", "sklab.cli")
#: wrapped there but never called on this path: campaigns build their sidecar
#: without ``theory_sidecar`` (so ``theory_engine.sidecar_ms_p50`` reads 0).
#: ``sklab.reduction_solver.inner_max``, wrapped elsewhere, has no caller either.
NEVER_CALLED = {("sklab.experiment_harness", "theory_sidecar")}


def _counting(fn, key, calls):
    def wrapper(*args, **kwargs):
        calls[key] += 1
        return fn(*args, **kwargs)

    return wrapper


def test_campaign_and_phase_reach_the_wrapped_bindings(monkeypatch, tmp_path, capsys):
    calls = collections.Counter()
    patched = set()
    for module, attr, _ in _wraps():
        if module in CALLERS:
            mod = importlib.import_module(module)
            monkeypatch.setattr(mod, attr, _counting(getattr(mod, attr), (module, attr), calls))
            patched.add((module, attr))
    from sklab.cli import main

    for model, spike in (("sphere", "monomial:1:1.5"), ("ball", "monomial:1:1")):
        argv = ["simulate", "--model", model, "--n", "20", "--trials", "2", "--seed", "3",
                "--beta", "1", "--spike", spike, "--output", str(tmp_path / model)]
        assert main(argv) == 0
    assert main(["phase", "--k", "1", "--h-min", "1", "--h-max", "1", "--h-steps", "1",
                 "--beta-min", "1", "--beta-max", "1", "--beta-steps", "1"]) == 0
    assert set(calls) == patched - NEVER_CALLED
