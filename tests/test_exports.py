import ast
import importlib
import importlib.util
import io
import pkgutil
import random
import sys
from contextlib import redirect_stdout
from pathlib import Path

import pytest

import qx

PERFBENCH = Path(__file__).resolve().parents[1] / "perfbench"
MODULES = ["qx"] + [f"qx.{info.name}" for info in pkgutil.iter_modules(qx.__path__)]


@pytest.mark.parametrize("name", MODULES)
def test_every_exported_name_resolves(name):
    module = importlib.import_module(name)
    exported = getattr(module, "__all__", ())
    missing = [item for item in exported if not hasattr(module, item)]
    assert not missing, f"{name}.__all__ names missing attributes: {missing}"
    namespace = {}
    exec(f"from {name} import *", namespace)  # an unresolved __all__ entry raises here
    assert set(exported) <= set(namespace)


def test_tracer_timed_names_resolve():
    # perfbench/tracer.py wraps these by name; a renamed or moved function
    # would silently drop its layer from traced benchmark runs
    source = (PERFBENCH / "tracer.py").read_text()
    timed = next(
        ast.literal_eval(node.value)
        for node in ast.parse(source).body
        if isinstance(node, ast.Assign) and getattr(node.targets[0], "id", None) == "TIMED"
    )
    assert timed
    missing = [
        f"{module}.{func}"
        for module, funcs in timed.items()
        for func in funcs
        if not callable(getattr(importlib.import_module(module), func, None))
    ]
    assert not missing, f"perfbench/tracer.py TIMED names missing: {missing}"


def _perfbench_module(name):
    spec = importlib.util.spec_from_file_location(f"perfbench_{name}", PERFBENCH / f"{name}.py")
    module = sys.modules[spec.name] = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(module)
    return module


@pytest.mark.parametrize("workload", ["kl_dense", "kl_transfer"])
def test_traced_workload_records_every_layer(workload):
    # one tiny operation under perfbench's own tracer: every layer the
    # workload lists must record a call, or its traced self-test fails
    from qx import cli

    w = _perfbench_module("workloads").WORKLOADS[workload]
    tracer = _perfbench_module("tracer").Tracer()
    argv = w.argv(random.Random(0), "tiny")
    out = io.StringIO()
    tracer.install()
    try:
        with redirect_stdout(out):
            status = tracer.run_op(0, cli.main, argv)
    finally:
        tracer.uninstall()
    assert status == 0 and w.check(argv, out.getvalue()) == []
    totals = tracer.layer_totals()
    silent = [layer for layer in w.layers if not totals[layer]["calls"]]
    assert not silent, f"{workload} layers with no traced call: {silent}"
