import ast
import importlib
import importlib.util
import io
import os
import pkgutil
import random
import subprocess
import sys
from contextlib import redirect_stdout
from pathlib import Path

import pytest

import qx

ROOT = Path(__file__).resolve().parents[1]
PERFBENCH = ROOT / "perfbench"
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


@pytest.mark.parametrize("workload", ["sweep", "kl_transfer", "kl_dense", "simulate"])
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


def _fresh_python(code):
    # this process has scipy already (test_su_algebra imports it), so the
    # import checks run in a new interpreter
    proc = subprocess.run(
        [sys.executable, "-c", code],
        env={**os.environ, "PYTHONPATH": str(ROOT / "src")},
        capture_output=True, text=True, timeout=300,
    )
    assert proc.returncode == 0, proc.stderr


_RUN_QUIETLY = """
import contextlib, io, sys
import qx, qx.cli

def run(*argv):
    with contextlib.redirect_stdout(io.StringIO()):
        assert qx.cli.main(list(argv)) == 0, argv
"""


def test_commands_without_a_gram_product_do_not_import_scipy():
    _fresh_python(_RUN_QUIETLY + """
assert "scipy.linalg" not in sys.modules, "import qx.cli"
run("algebra", "--d", "3")
run("vbs", "--d", "2", "--n", "4")
run("sweep", "--d-min", "2", "--d-max", "2", "--n-min", "3", "--n-max", "5")
run("kl", "--code", "vbs:2:14", "--errors", "bond:all")
run("simulate", "--d", "2", "--n", "4", "--length", "200")
run("gates", "--eta", "0.001", "--target", "0.1")
assert "scipy.linalg" not in sys.modules
""")


def test_thread_pool_is_imported_only_by_multi_chunk_work():
    # qx.quasi_universality imports concurrent.futures on the first run
    # that spreads its chunks over more than one worker, so `import qx.cli`
    # stays as it was
    _fresh_python("""
import os
import sys
import qx.cli
assert "concurrent.futures" not in sys.modules, "import qx.cli"
from qx import quasi_universality as qu
os.sched_getaffinity = lambda pid: set(range(2))
qu.simulate_computation(2, 8, qu.CHUNK_STEPS, seed=1)
assert "concurrent.futures" not in sys.modules, "one chunk"
qu.simulate_computation(2, 8, 6 * qu.CHUNK_STEPS - 1, seed=1)
assert "concurrent.futures" not in sys.modules, "one worker"
qu.simulate_computation(2, 8, 6 * qu.CHUNK_STEPS, seed=1)
assert "concurrent.futures" in sys.modules
""")


def test_dense_kl_imports_scipy():
    # the control for the test above: the check does see an import
    _fresh_python(_RUN_QUIETLY + """
run("kl", "--code", "vbs:2:4", "--errors", "bond")
assert "scipy.linalg" in sys.modules
""")


def test_scipy_is_imported_by_the_isometry_check():
    # The dense kl route builds its CodeIsometry before the error stacks, so
    # the isometry's orthonormality check makes the first Gram product and
    # imports scipy (about 28 MB) while the heap is small.  Deferred to
    # error_compressions, the import lands among the stacks: in a process
    # that repeats `qx kl --code vbs:3:5 --errors bond`, as the kl_dense
    # benchmark does, peak RSS then rose from 165 to 169 MB.
    _fresh_python("""
import sys
from qx import vbs_code
vbs_code.bond_error_compressions(vbs_code.build(3, 5))
assert "scipy.linalg.blas" not in sys.modules
vbs_code.dense_isometry(vbs_code.build(2, 3))
assert "scipy.linalg.blas" in sys.modules
""")
