"""Spans around calls into qx's modules, recorded from outside the program.

The tracer replaces every binding of each timed function with a wrapper:
the defining module's attribute and every copy made by ``from .x import f``
in another qx module (``trace_distance`` is bound in ``quantum_ops``,
``qec_core``, ``vbs_code`` and ``cli``).  Patching only the defining module
would miss every call made through a copy.

Each wrapped call becomes a span with its name, start, end, parent span,
operation id and operand sizes.  The innermost loops of the transfer route
run about 100k times per ``sweep`` operation, so those functions are
counted on their parent span (calls and self time) instead of becoming
spans of their own; that keeps the trace, and the traced process's memory,
small.  Spans stay in memory until :meth:`Tracer.write`.
"""

from __future__ import annotations

import functools
import json
import sys
import time
import tracemalloc
from collections import defaultdict

# Timed functions, by defining module.  The metric name of a function is
# "<module>.<function>"; the cli handlers are summed into "cli".
TIMED = {
    "qx.su_algebra": ("gell_mann_basis", "structure_constants"),
    "qx.quantum_ops": ("choi_matrix", "entanglement_fidelity", "trace_distance"),
    "qx.vbs_code": (
        "build",
        "eta",
        "edge_state",
        "edge_overlap",
        "transfer_apply",
        "detection_closed_form",
        "correlation_closed_form",
        "bond_error_compressions",
        "encode_dense",
        "dense_isometry",
        "bond_error_stacks",
    ),
    "qx.qec_core": (
        "kl_report_from_compressions",
        "kl_decompose",
        "logical_recovery_channel",
        "recovery_error",
        "epsilon_from_report",
    ),
    "qx.quasi_universality": ("simulate_computation",),
    "qx.cli": ("cmd_algebra", "cmd_vbs", "cmd_sweep", "cmd_kl", "cmd_simulate", "cmd_gates"),
}

# Called thousands of times per operation: counted on the parent span.
AGGREGATED = frozenset({
    "vbs_code.transfer_apply",
    "vbs_code.edge_overlap",
    "vbs_code.detection_closed_form",
    "vbs_code.correlation_closed_form",
})

# Functions that allocate large arrays: tracemalloc peak above span entry.
ALLOCATING = frozenset({
    "vbs_code.encode_dense",
    "vbs_code.dense_isometry",
    "vbs_code.bond_error_stacks",
    "qec_core.kl_decompose",
})

MB = 1e6


def layer_name(module: str, func: str) -> str:
    return "cli" if module == "qx.cli" else f"{module[len('qx.'):]}.{func}"


def operand_sizes(args) -> dict:
    """K, d_Q, d_L and N of the code, report or error list a call takes."""
    sizes = {}
    for arg in args:
        if hasattr(arg, "n_sites"):  # VbsCode
            sizes.update(N=arg.n_sites, d_L=arg.d, d_Q=arg.dense_size)
        elif hasattr(arg, "isometry") and hasattr(arg, "d_l"):  # CodeIsometry
            sizes.update(d_Q=arg.d_q, d_L=arg.d_l)
        elif hasattr(arg, "error_count"):  # KLReport
            sizes.update(K=arg.error_count, d_L=arg.logical_dim)
        elif hasattr(arg, "kraus") and hasattr(arg, "in_dim"):  # KrausChannel
            sizes.update(K=len(arg.kraus), d_L=arg.in_dim)
        elif getattr(arg, "ndim", 0) == 4:  # compression tensor (K, K, d_L, d_L)
            sizes.update(K=arg.shape[0], d_L=arg.shape[2])
        elif isinstance(arg, list) and arg and getattr(arg[0], "ndim", 0) == 2:
            sizes.update(K=len(arg))  # error operators or code-state stacks
    return sizes


class _Frame:
    __slots__ = ("span", "start", "child_s", "counters", "mem_entry", "mem_max")

    def __init__(self, span):
        self.span = span
        self.child_s = 0.0
        self.counters = defaultdict(lambda: [0, 0.0]) if span is not None else None


class Tracer:
    """Records spans for calls made while installed; see the module doc."""

    def __init__(self):
        self.spans: list[dict] = []
        self._stack: list[_Frame] = []
        self._peak_stack: list[_Frame] = []
        self._patches: list[tuple[object, str, object]] = []
        self._op = None
        self.bound = 0  # bindings wrapped by the last install()

    # -- binding ---------------------------------------------------------
    def install(self) -> None:
        """Wrap every binding of every timed function in loaded qx modules."""
        modules = [m for n, m in sorted(sys.modules.items()) if n == "qx" or n.startswith("qx.")]
        for module_name, funcs in TIMED.items():
            home = sys.modules[module_name]
            for func in funcs:
                original = getattr(home, func)
                wrapper = self._wrap(layer_name(module_name, func), func, original)
                for module in modules:
                    for attr, value in list(vars(module).items()):
                        if value is original:
                            setattr(module, attr, wrapper)
                            self._patches.append((module, attr, original))
        self.bound = len(self._patches)

    def uninstall(self) -> None:
        for module, attr, original in reversed(self._patches):
            setattr(module, attr, original)
        self._patches.clear()

    def _wrap(self, layer: str, func: str, original):
        name = layer if layer != "cli" else f"cli.{func}"
        aggregated = layer in AGGREGATED
        allocating = layer in ALLOCATING

        @functools.wraps(original)
        def wrapper(*args, **kwargs):
            return self._call(name, original, args, kwargs, aggregated, allocating)

        return wrapper

    # -- operations ------------------------------------------------------
    def run_op(self, op_id: int, fn, *args):
        """Call ``fn`` as operation ``op_id`` under a root span named "op"."""
        self._op = op_id
        try:
            return self._call("op", fn, args, {}, False, False)
        finally:
            self._op = None

    def _call(self, name, fn, args, kwargs, aggregated, allocating):
        parent = self._stack[-1] if self._stack else None
        span = None
        if not aggregated:
            span = {
                "id": len(self.spans),
                "name": name,
                "parent": parent.span["id"] if parent is not None and parent.span else None,
                "op": self._op,
            }
            span.update(operand_sizes(args))
            self.spans.append(span)
        frame = _Frame(span)
        self._stack.append(frame)
        if allocating:
            self._peak_enter(frame)
        frame.start = time.perf_counter()
        try:
            result = fn(*args, **kwargs)
        finally:
            end = time.perf_counter()
            if allocating:
                span["peak_mb"] = self._peak_exit(frame) / MB
            self._stack.pop()
            duration = end - frame.start
            self_s = duration - frame.child_s
            if parent is not None:
                parent.child_s += duration
            if span is None:
                owner = next(f for f in reversed(self._stack) if f.span is not None)
                counter = owner.counters[name]
                counter[0] += 1
                counter[1] += self_s
            else:
                span.update(start=frame.start, end=end, self_s=self_s)
                if frame.counters:
                    span["counters"] = {k: list(v) for k, v in frame.counters.items()}
        if span is not None and hasattr(result, "env_size"):
            span["retained_frac"] = result.env_size / result.error_count
        return result

    # tracemalloc runs only inside allocating spans, so the many small
    # allocations of the transfer route are never traced.  Nested allocating
    # spans reset the peak; each frame keeps the highest value it has seen
    # and hands it to its parent on exit.
    def _peak_enter(self, frame: _Frame) -> None:
        if not self._peak_stack:
            tracemalloc.start()
            current = 0
        else:
            current, peak = tracemalloc.get_traced_memory()
            top = self._peak_stack[-1]
            top.mem_max = max(top.mem_max, peak)
            tracemalloc.reset_peak()
        frame.mem_entry = frame.mem_max = current
        self._peak_stack.append(frame)

    def _peak_exit(self, frame: _Frame) -> int:
        _, peak = tracemalloc.get_traced_memory()
        frame.mem_max = max(frame.mem_max, peak)
        self._peak_stack.pop()
        if self._peak_stack:
            parent = self._peak_stack[-1]
            parent.mem_max = max(parent.mem_max, frame.mem_max)
        else:
            tracemalloc.stop()
        return frame.mem_max - frame.mem_entry

    # -- results ---------------------------------------------------------
    def layer_totals(self) -> dict:
        """Per-layer sums over all operations: calls, self_s, peaks and sizes.

        ``peak_mb`` holds the largest value per operation; ``retained_frac``
        and ``stack_mb`` (K * d_Q * d_L * 16 bytes of kl_decompose's error
        stacks, computed from the operand sizes) hold one value per call.
        """
        totals = defaultdict(lambda: {"calls": 0, "self_s": 0.0, "peak_mb": {},
                                      "retained_frac": [], "stack_mb": []})
        for span in self.spans:
            for name, (calls, self_s) in span.get("counters", {}).items():
                totals[name]["calls"] += calls
                totals[name]["self_s"] += self_s
            if span["name"] == "op":
                continue
            layer = "cli" if span["name"].startswith("cli.") else span["name"]
            entry = totals[layer]
            entry["calls"] += 1
            entry["self_s"] += span["self_s"]
            if "peak_mb" in span:
                entry["peak_mb"][span["op"]] = max(entry["peak_mb"].get(span["op"], 0.0),
                                                   span["peak_mb"])
            if "retained_frac" in span:
                entry["retained_frac"].append(span["retained_frac"])
            if layer == "qec_core.kl_decompose":
                entry["stack_mb"].append(span["K"] * span["d_Q"] * span["d_L"] * 16 / MB)
        return totals

    def write(self, path, header: dict) -> None:
        with open(path, "w", encoding="utf-8") as fh:
            fh.write(json.dumps(header) + "\n")
            for span in self.spans:
                fh.write(json.dumps(span) + "\n")
