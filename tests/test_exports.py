import ast
import importlib
import pkgutil
from pathlib import Path

import pytest

import qx

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
    source = (Path(__file__).resolve().parents[1] / "perfbench" / "tracer.py").read_text()
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
