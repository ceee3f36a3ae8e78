"""The benchmark tracer's view of the package signatures.

`perfbench/tracing.py` records the working precision of the spans in
``PREC_SPANS`` by finding the ``prec`` parameter of each wrapped function.
A signature change that drops or renames it would break ``perfbench/run.py
--trace 1`` only when the benchmark runs; this test catches it here.
"""

import importlib
import importlib.util
import inspect
from pathlib import Path

import pytest

TRACING = Path(__file__).resolve().parents[1] / "perfbench" / "tracing.py"


def _load_tracing():
    spec = importlib.util.spec_from_file_location("perfbench_tracing",
                                                  TRACING)
    mod = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(mod)
    return mod


tracing = _load_tracing()


@pytest.mark.parametrize("name", tracing.PREC_SPANS)
def test_prec_span_resolves(name):
    short, attr = name.split(".")
    fn = getattr(importlib.import_module(f"rectising.{short}"), attr)
    index = tracing._prec_index(name, fn)
    param = list(inspect.signature(fn).parameters.values())[index]
    assert param.name == "prec"
    assert param.kind is inspect.Parameter.POSITIONAL_OR_KEYWORD
