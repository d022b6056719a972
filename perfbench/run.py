"""Run one qx benchmark workload and print its metrics.

    python3 perfbench/run.py --workload sweep --seed 1 --seconds 20 --trace 0

An operation is one in-process ``qx.cli.main(argv)`` call with its output
captured; the loop is closed, so the next operation starts only when the
previous one has returned.  qx is imported from ``src/`` of the checkout
that holds this file.  Set-up time is the import of ``qx.cli`` (numpy and
scipy included) in fresh child processes, which every shell call of ``qx``
pays.  After one untimed warm-up operation, operations run until the next
one would end past ``--seconds``.  Outputs are checked after the loop,
outside the timed region; a failed check counts against the operation and
never stops the run.  Operation and set-up times are reported in
calibrated seconds: see :class:`Reference`.

With ``--trace 1`` the run alternates untraced and traced operations: the
untraced ones give the tracing overhead, the traced ones the per-layer
metrics (means per traced operation), and the spans are written to
``perfbench/out/``.  End-to-end metrics come only from ``--trace 0``.

The last line of standard output is one JSON object with the keys
``correct``, ``attempted``, ``failed`` and ``metrics``.
"""

from __future__ import annotations

import argparse
import ctypes
import glob
import io
import json
import os
import platform
import random
import resource
import statistics
import subprocess
import sys
import time
from contextlib import redirect_stderr, redirect_stdout
from dataclasses import dataclass, field
from pathlib import Path

from tracer import MB, Tracer
from workloads import WORKLOADS

BENCH = Path(__file__).resolve().parent
ROOT = BENCH.parent
SRC = ROOT / "src"
OUT = BENCH / "out"

SETUP_SAMPLES = 3
MIN_OPS = 4
TAIL_BEYOND = 10
REF_NOMINAL_S = 0.06

END_TO_END = {
    "setup_s": "s",
    "op_p50_s": "s",
    "op_tail_s": "s",
    "ops_per_s": "1/s",
    "peak_rss_mb": "MB",
    "op_ok_frac": "frac",
}

LAYERS = (
    "su_algebra.gell_mann_basis",
    "su_algebra.structure_constants",
    "vbs_code.build",
    "vbs_code.eta",
    "vbs_code.edge_state",
    "vbs_code.edge_overlap",
    "vbs_code.transfer_apply",
    "vbs_code.detection_closed_form",
    "vbs_code.correlation_closed_form",
    "vbs_code.bond_error_compressions",
    "vbs_code.encode_dense",
    "vbs_code.dense_isometry",
    "vbs_code.bond_error_stacks",
    "qec_core.kl_report_from_compressions",
    "qec_core.kl_decompose",
    "qec_core.logical_recovery_channel",
    "qec_core.recovery_error",
    "qec_core.epsilon_from_report",
    "quantum_ops.choi_matrix",
    "quantum_ops.entanglement_fidelity",
    "quantum_ops.trace_distance",
    "quasi_universality.simulate_computation",
    "cli",
)
PEAK_LAYERS = (
    "vbs_code.encode_dense",
    "vbs_code.dense_isometry",
    "vbs_code.bond_error_stacks",
    "qec_core.kl_decompose",
)

PER_LAYER = {}
for _layer in LAYERS:
    PER_LAYER[f"{_layer}.calls"] = "count"
    PER_LAYER[f"{_layer}.self_s"] = "s"
for _layer in PEAK_LAYERS:
    PER_LAYER[f"{_layer}.peak_mb"] = "MB"
PER_LAYER["qec_core.kl_report_from_compressions.retained_frac"] = "frac"
PER_LAYER["qec_core.kl_decompose.stack_mb"] = "MB-computed"
PER_LAYER["trace.overhead_s"] = "s"


class BenchError(RuntimeError):
    """The run cannot measure this checkout; no result is printed."""


class Reference:
    """A fixed computation, independent of qx, timed between operations.

    On the shared 2-vCPU VM the benchmark was tuned on, CPU speed drifts by
    up to 1.9x within seconds and over minutes: identical operations took
    1.8-3.7 s of on-CPU time with no steal.  The drift slows kinds of work
    unequally, so each workload names the reference kind closest to the
    work that dominates it:

    - ``transfer``: small-array einsums and products, like the transfer
      contraction of ``edge_overlap`` and the simulation's per-step
      products;
    - ``mixed``: an interpreter loop, small einsums, 2x2 products and one
      mid-size einsum, for the KL report's large einsum beside the
      transfer route;
    - ``memory``: one einsum over large code-state stacks, like the dense
      route.

    An operation's calibrated time is its wall time times REF_NOMINAL_S
    over the mean of the reference times just before and just after it:
    seconds at the speed where the reference takes REF_NOMINAL_S.
    """

    def __init__(self, kind: str = "mixed"):
        import numpy as np

        rng = np.random.default_rng(0)
        self.np = np
        self.work = {"transfer": self._transfer, "mixed": self._mixed, "memory": self._memory}[kind]
        self.kraus = rng.normal(size=(8, 3, 3)) + 1j * rng.normal(size=(8, 3, 3))
        self.matrix = rng.normal(size=(3, 3)) + 1j * rng.normal(size=(3, 3))
        self.pair = rng.normal(size=(2, 2)) + 1j * rng.normal(size=(2, 2))
        self.wide = rng.normal(size=(32, 32, 9)) + 0j
        self.stacks = rng.normal(size=(9, 7000, 3)) + 1j * rng.normal(size=(9, 7000, 3))

    def time(self) -> float:
        start = time.perf_counter()
        self.work()
        return time.perf_counter() - start

    def _transfer(self, repeats: int = 5000) -> None:
        np = self.np
        for _ in range(repeats):
            np.einsum("aij,jk,alk->il", self.kraus, self.matrix, self.kraus.conj()) @ self.matrix

    def _mixed(self) -> None:
        total = 0
        for i in range(150_000):
            total += i * i % 7
        self._transfer(1500)
        for _ in range(4000):
            self.pair @ self.pair
        self.np.einsum("ika,jkb->ijab", self.wide, self.wide)

    def _memory(self) -> None:
        self.np.einsum("iqa,jqb->ijab", self.stacks.conj(), self.stacks)


@dataclass
class Op:
    argv: list[str]
    traced: bool
    duration: float = 0.0
    calibrated: float = 0.0
    rc: int | None = None
    out: str = ""
    problems: list[str] = field(default_factory=list)


def run_op(main, argv, tracer=None, op_id=0) -> Op:
    """One operation; an exception or a nonzero exit marks it failed."""
    op = Op(argv=argv, traced=tracer is not None)
    out, err = io.StringIO(), io.StringIO()
    if tracer is not None:
        tracer.install()
    start = time.perf_counter()
    try:
        with redirect_stdout(out), redirect_stderr(err):
            op.rc = tracer.run_op(op_id, main, argv) if tracer else main(argv)
    except (Exception, SystemExit) as exc:
        op.problems.append(f"raised {exc!r}")
    finally:
        op.duration = time.perf_counter() - start
        if tracer is not None:
            tracer.uninstall()
    op.out = out.getvalue()
    if op.rc not in (0, None):
        op.problems.append(f"exit code {op.rc}: {err.getvalue().strip()}")
    return op


def check_op(workload, op: Op) -> None:
    """Add the output check's problems to ``op``; a crashing check is one."""
    if op.problems:
        return
    try:
        op.problems.extend(workload.check(op.argv, op.out))
    except Exception as exc:
        op.problems.append(f"output check raised {exc!r}")


def run_loop(workload, main, rng, size, seconds, reference, tracer=None) -> list[Op]:
    """Closed loop until the next operation would end past ``seconds``, with
    the reference timed before the first operation and after each one.

    With a tracer, odd-numbered operations are traced."""
    ops: list[Op] = []
    refs = [reference.time()]
    start = time.perf_counter()
    while len(ops) < MIN_OPS or (
        time.perf_counter() - start + statistics.median(o.duration for o in ops) <= seconds
    ):
        traced = tracer is not None and len(ops) % 2 == 1
        ops.append(run_op(main, workload.argv(rng, size), tracer if traced else None, len(ops)))
        refs.append(reference.time())
    for op, before, after in zip(ops, refs, refs[1:]):
        op.calibrated = op.duration * REF_NOMINAL_S / ((before + after) / 2)
    print("reference s:", " ".join(f"{r:.4f}" for r in refs))
    return ops


def tail(durations) -> tuple[float, str]:
    """Duration at the highest percentile with TAIL_BEYOND operations beyond
    it (nearest rank), and a note saying which percentile that is.  Below
    2 * TAIL_BEYOND operations no percentile above the median has that many
    beyond it, and the median stands in."""
    ordered = sorted(durations)
    n = len(ordered)
    if n < 2 * TAIL_BEYOND:
        return statistics.median(ordered), f"p50 of {n}: fewer than {2 * TAIL_BEYOND} operations"
    rank = n - TAIL_BEYOND
    return ordered[rank - 1], f"p{100 * rank / n:.0f} of {n}: rank {rank}"


SETUP_CODE = (
    "import sys, time\n"
    "sys.path.insert(0, sys.argv[1])\n"
    "start = time.perf_counter()\n"
    "import qx.cli\n"
    "seconds = time.perf_counter() - start\n"
    "sys.path.insert(0, sys.argv[2])\n"
    "from run import Reference\n"
    "reference = Reference()\n"
    "reference.time()\n"
    "print(seconds, reference.time(), qx.__file__)\n"
)


def under_src(path: str) -> bool:
    return Path(path).resolve().is_relative_to(SRC.resolve())


def measure_setup() -> list[tuple[float, float]]:
    """Import time of qx.cli in SETUP_SAMPLES fresh child processes, each
    with the reference time measured right after it in the same child."""
    samples = []
    for _ in range(SETUP_SAMPLES):
        proc = subprocess.run(
            [sys.executable, "-c", SETUP_CODE, str(SRC), str(BENCH)],
            capture_output=True, text=True, timeout=120, cwd=ROOT,
        )
        if proc.returncode != 0:
            raise BenchError(f"importing qx.cli failed: {proc.stderr.strip()[-500:]}")
        seconds, reference, path = proc.stdout.split()
        if not under_src(path):
            raise BenchError(f"child imported qx from {path}, not from {SRC}")
        samples.append((float(seconds), float(reference)))
    return samples


def _commit() -> str:
    git = ROOT / ".git"
    try:
        head = (git / "HEAD").read_text().strip()
        if not head.startswith("ref: "):
            return head
        ref = head[len("ref: "):]
        if (git / ref).exists():
            return (git / ref).read_text().strip()
        for line in (git / "packed-refs").read_text().splitlines():
            if line.endswith(" " + ref):
                return line.split()[0]
    except OSError:
        pass
    return "unknown (not a git checkout)"


def _openblas() -> tuple[str, int | str]:
    """Version string and thread count of numpy's bundled OpenBLAS."""
    import numpy

    libs = glob.glob(os.path.join(os.path.dirname(numpy.__file__) + ".libs", "*openblas*"))
    try:
        lib = ctypes.CDLL(libs[0])
    except (IndexError, OSError):
        return "unknown", "unknown"
    for suffix in ("64_", ""):
        config = getattr(lib, f"scipy_openblas_get_config{suffix}", None)
        threads = getattr(lib, f"scipy_openblas_get_num_threads{suffix}", None)
        if config is not None and threads is not None:
            config.restype = ctypes.c_char_p
            threads.restype = ctypes.c_int
            return config().decode(), threads()
    return "unknown", "unknown"


def environment(seed: int, qx) -> dict:
    import numpy
    import scipy

    blas, threads = _openblas()
    return {
        "commit": _commit(),
        "seed": seed,
        "qx_file": qx.__file__,
        "python": platform.python_version(),
        "numpy": numpy.__version__,
        "scipy": scipy.__version__,
        "openblas": blas,
        "blas_threads": threads,
        "nproc": len(os.sched_getaffinity(0)),
    }


def import_qx():
    sys.path.insert(0, str(SRC))
    try:
        import qx
        import qx.cli
    except ImportError as exc:
        raise BenchError(f"cannot import qx from {SRC}: {exc}") from exc
    if not under_src(qx.__file__):
        raise BenchError(f"qx was imported from {qx.__file__}, not from {SRC}")
    return qx


def layer_metrics(tracer: Tracer, ops: list[Op]) -> dict[str, float]:
    n = sum(o.traced for o in ops)
    totals = tracer.layer_totals()
    values = {}
    for layer in LAYERS:
        values[f"{layer}.calls"] = totals[layer]["calls"] / n
        values[f"{layer}.self_s"] = totals[layer]["self_s"] / n
    for layer in PEAK_LAYERS:
        values[f"{layer}.peak_mb"] = sum(totals[layer]["peak_mb"].values()) / n
    fracs = totals["qec_core.kl_report_from_compressions"]["retained_frac"]
    values["qec_core.kl_report_from_compressions.retained_frac"] = (
        statistics.fmean(fracs) if fracs else 0.0)
    stacks = totals["qec_core.kl_decompose"]["stack_mb"]
    values["qec_core.kl_decompose.stack_mb"] = statistics.fmean(stacks) if stacks else 0.0
    values["trace.overhead_s"] = (statistics.median(o.calibrated for o in ops if o.traced)
                                  - statistics.median(o.calibrated for o in ops if not o.traced))
    return values


def end_to_end_metrics(setup, ops: list[Op], failed: int) -> dict[str, float]:
    calibrated = [o.calibrated for o in ops]
    value, note = tail(calibrated)
    print(f"op_tail_s percentile: {note}")
    print(f"op_fail_frac: {failed / len(ops)} ({failed} of {len(ops)})")
    return {
        "setup_s": statistics.median(t * REF_NOMINAL_S / ref for t, ref in setup),
        "op_p50_s": statistics.median(calibrated),
        "op_tail_s": value,
        "ops_per_s": len(ops) / sum(calibrated),
        "peak_rss_mb": resource.getrusage(resource.RUSAGE_SELF).ru_maxrss * 1024 / MB,
        "op_ok_frac": (len(ops) - failed) / len(ops),
    }


def run(workload_name: str, seed: int, seconds: float, trace: bool, size: str = "full") -> dict:
    """Measure one workload; returns the result object and prints the rest."""
    workload = WORKLOADS[workload_name]
    setup = measure_setup()
    print("setup s (import, reference):", " ".join(f"{a:.4f},{b:.4f}" for a, b in setup))
    qx = import_qx()
    env = environment(seed, qx)
    print("env:", json.dumps(env))
    rng = random.Random(seed)
    reference = Reference(workload.reference)

    warm = run_op(qx.cli.main, workload.argv(rng, size))
    print(f"warm-up: {warm.duration:.4f} s (untimed, {'failed' if warm.problems else 'ok'}); "
          f"reference {reference.time():.4f} s")
    tracer = Tracer() if trace else None
    ops = run_loop(workload, qx.cli.main, rng, size, seconds, reference, tracer)
    for op in ops:
        check_op(workload, op)
    if workload.rerun_check:
        index = rng.randrange(len(ops))
        again = run_op(qx.cli.main, ops[index].argv)
        if again.out != ops[index].out:
            ops[index].problems.append("rerun gave different bytes")

    failed = [o for o in ops if o.problems]
    for op in failed[:5]:
        print(f"FAILED {' '.join(op.argv)}: {'; '.join(op.problems)[:500]}")
    print("op wall s:", " ".join(f"{o.duration:.3f}{'*' if o.traced else ''}" for o in ops))
    print("op calibrated s:", " ".join(f"{o.calibrated:.3f}" for o in ops))
    correct = not failed
    if trace:
        metrics = layer_metrics(tracer, ops)
        units = PER_LAYER
        missing = [layer for layer in workload.layers if metrics[f"{layer}.calls"] == 0]
        if missing:
            correct = False
            print("self-test FAILED: no calls recorded for", ", ".join(missing))
        OUT.mkdir(exist_ok=True)
        path = OUT / f"trace-{workload_name}-seed{seed}.jsonl"
        tracer.write(path, {"env": env, "workload": workload_name, "argv": [o.argv for o in ops]})
        print(f"trace: {len(tracer.spans)} spans, {tracer.bound} bindings wrapped, "
              f"written to {path.relative_to(ROOT)}; * marks traced operations")
    else:
        metrics = end_to_end_metrics(setup, ops, len(failed))
        units = END_TO_END
    for name, value in metrics.items():
        print(f"{name}: {value:.6g} {units[name]}")
    return {
        "correct": correct,
        "attempted": len(ops),
        "failed": len(failed),
        "metrics": {name: {"value": value, "unit": units[name]} for name, value in metrics.items()},
    }


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload", choices=sorted(WORKLOADS), required=True)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--size", choices=("full", "tiny"), default="full",
                        help="tiny runs each workload at test sizes")
    args = parser.parse_args(argv)
    try:
        result = run(args.workload, args.seed, args.seconds, bool(args.trace), args.size)
    except BenchError as exc:
        print(f"perfbench: {exc}", file=sys.stderr)
        return 2
    print(json.dumps(result))
    return 0


if __name__ == "__main__":
    sys.exit(main())
