"""The benchmark tracer's view of the package signatures and names.

`perfbench/tracing.py` records the working precision of the spans in
``PREC_SPANS`` by finding the ``prec`` parameter of each wrapped function,
and `perfbench/run.py` reports its per-layer metrics from the spans named
in ``LAYER_SPANS`` and ``LAYER_CALLS``.  A signature change that drops or
renames ``prec``, a renamed function, or a dispatcher that holds function
objects the tracer cannot patch would break or silently empty those
metrics only when the benchmark runs; these tests catch it here.
"""

import ast
import importlib
import importlib.util
import inspect
from pathlib import Path

import pytest

PERFBENCH = Path(__file__).resolve().parents[1] / "perfbench"


def _load_tracing():
    spec = importlib.util.spec_from_file_location(
        "perfbench_tracing", PERFBENCH / "tracing.py")
    mod = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(mod)
    return mod


def _run_tables():
    """The literal tables of `perfbench/run.py`, read from its source:
    importing it sets BLAS environment variables."""
    tables = {}
    for node in ast.parse((PERFBENCH / "run.py").read_text()).body:
        if (isinstance(node, ast.Assign) and len(node.targets) == 1
                and isinstance(node.targets[0], ast.Name)
                and node.targets[0].id in ("MODULES", "LAYER_SPANS",
                                           "LAYER_CALLS")):
            tables[node.targets[0].id] = ast.literal_eval(node.value)
    return tables


def _layer_spans():
    """Span names of ``LAYER_SPANS`` and ``LAYER_CALLS``."""
    tables = _run_tables()
    return sorted({span for name in ("LAYER_SPANS", "LAYER_CALLS")
                   for span in tables[name].values()})


tracing = _load_tracing()


@pytest.mark.parametrize("name", tracing.PREC_SPANS)
def test_prec_span_resolves(name):
    short, attr = name.split(".")
    fn = getattr(importlib.import_module(f"rectising.{short}"), attr)
    index = tracing._prec_index(name, fn)
    param = list(inspect.signature(fn).parameters.values())[index]
    assert param.name == "prec"
    assert param.kind is inspect.Parameter.POSITIONAL_OR_KEYWORD


@pytest.mark.parametrize("span", _layer_spans())
def test_layer_span_resolves(span):
    # the tracer wraps the public functions a module defines, and the
    # public methods of the classes in WRAPPED_CLASSES
    short, *path = span.split(".")
    mod = importlib.import_module(f"rectising.{short}")
    assert not any(part.startswith("_") for part in path)
    if len(path) == 1:
        fn = getattr(mod, path[0])
        assert inspect.isfunction(fn) and fn.__module__ == mod.__name__
    else:
        cls_name, attr = path
        assert cls_name in tracing.WRAPPED_CLASSES.get(short, ())
        assert inspect.isfunction(vars(getattr(mod, cls_name))[attr])


def test_tracer_sees_dispatched_routes():
    # installed over the package as `perfbench/run.py` installs it, the
    # tracer must see every structured route that `assemble_logZ` and
    # compare's `fan_out` dispatch, at the precision it ran at
    package = importlib.import_module("rectising")
    modules = {m: importlib.import_module(f"rectising.{m}")
               for m in _run_tables()["MODULES"]}
    c = modules["params"].Couplings(0.4, 0.7, 3, 4)
    tracer = tracing.Tracer()
    tracer.install(package, modules)
    try:
        for prec in (None, 160):
            res = modules["partition"].assemble_logZ(c, "all", prec)
            modules["partition"].fan_out(res, ("pfaffian",))
    finally:
        tracer.uninstall()
    bits = {}
    for nid, b in zip(tracer.name_id, tracer.bits):
        bits.setdefault(tracer.names[nid], set()).add(b)
    for span in tracing.ROUTE_SPANS:
        assert bits.get(span) == {53, 160}, span
