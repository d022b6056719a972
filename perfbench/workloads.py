"""The four benchmark workloads: qx argv drawn from the seed, output checks.

Each operation is one ``qx.cli.main(argv)`` call.  The seed only chooses
``--strength`` (drawn in [0.02, 0.3]) and, for ``simulate``, ``--seed``;
neither changes the amount of work.  Checks prefer identities and the
agreement of the transfer and dense routes over stored bytes, so that
precision fixes that move noise-level digits do not count as failures.
Each check returns a list of problems; an empty list is a pass.
"""

from __future__ import annotations

import math
import random
from dataclasses import dataclass
from typing import Callable


@dataclass(frozen=True)
class Workload:
    name: str
    argv: Callable[[random.Random, str], list[str]]  # (rng, size) -> argv
    check: Callable[[list[str], str], list[str]]  # (argv, stdout) -> problems
    layers: tuple[str, ...]  # layers that must record calls when traced
    reference: str = "mixed"  # kind of run.Reference that calibrates it
    rerun_check: bool = False  # rerun one operation and compare its bytes


def _strength(rng: random.Random) -> str:
    return f"{rng.uniform(0.02, 0.3):.6f}"


def _flag(argv: list[str], name: str) -> str:
    return argv[argv.index(name) + 1]


def _rel_close(got: float, want: float, tol: float) -> bool:
    return abs(got - want) <= tol * max(abs(got), abs(want))


def _rounded(x: float) -> float:
    """The value qx prints for ``x``: 12 significant digits."""
    return float(format(x, ".12g"))


def _parse_kl(text: str) -> dict[str, str]:
    return dict(line.split(": ", 1) for line in text.strip().splitlines())


def _vector(field: str) -> list[float]:
    return [float(x) for x in field.strip("[]").split(",")]


# -- sweep -------------------------------------------------------------------

def _sweep_argv(rng, size):
    d_max, n_max = (4, 6) if size == "full" else (2, 4)
    return ["sweep", "--d-min", "2", "--d-max", str(d_max), "--n-min", "3",
            "--n-max", str(n_max), "--strength", _strength(rng)]


def _check_sweep(argv, out):
    problems = []
    lines = out.strip().splitlines()
    header, rows = lines[0].split(","), lines[1:]
    grid = [(d, n)
            for d in range(int(_flag(argv, "--d-min")), int(_flag(argv, "--d-max")) + 1)
            for n in range(int(_flag(argv, "--n-min")), int(_flag(argv, "--n-max")) + 1)]
    if len(rows) != len(grid):
        return [f"expected {len(grid)} rows, got {len(rows)}"]
    for (d, n), row in zip(grid, rows):
        rec = dict(zip(header, row.split(",")))
        if (int(rec["d"]), int(rec["N"])) != (d, n):
            problems.append(f"row {row!r} is not grid point ({d}, {n})")
            continue
        chi = -1.0 / (d * d - 1.0)
        eta = (chi / n) * (1.0 - chi**n) / (1.0 - chi)
        for key, want in (("chi", chi), ("eta", eta)):
            if not _rel_close(float(rec[key]), _rounded(want), 1e-12):
                problems.append(f"({d},{n}) {key}={rec[key]}, closed form {want!r}")
        for key in ("max_detect_closedform_residual", "max_corr_closedform_residual"):
            if not float(rec[key]) < 1e-10:
                problems.append(f"({d},{n}) {key}={rec[key]}")
    return problems


# -- kl: transfer route ------------------------------------------------------

def _kl_transfer_argv(rng, size):
    code = "vbs:3:10" if size == "full" else "vbs:2:14"
    return ["kl", "--code", code, "--errors", "bond:all", "--strength", _strength(rng)]


def _code_params(argv) -> tuple[int, int]:
    _, d, n = _flag(argv, "--code").split(":")
    return int(d), int(n)


def _check_kl_transfer(argv, out):
    problems = []
    rep = _parse_kl(out)
    d, n = _code_params(argv)
    want_k = 1 + n * (d * d - 1)
    if int(rep["error_count"]) != want_k:
        problems.append(f"error_count {rep['error_count']}, want {want_k}")
    total = sum(_vector(rep["eigenvalues"]))
    if abs(total - 1.0) > 1e-10:
        problems.append(f"eigenvalues sum to {total!r}")
    for key in ("epsilon", "first_order_distance"):
        value = float(rep[key])
        if not (math.isfinite(value) and value > 0.0):
            problems.append(f"{key}={rep[key]}")
    return problems


# -- kl: dense route ---------------------------------------------------------

def _kl_dense_argv(rng, size):
    code = "vbs:3:5" if size == "full" else "vbs:2:4"
    return ["kl", "--code", code, "--errors", "bond", "--strength", _strength(rng)]


def _check_kl_dense(argv, out):
    from qx import qec_core, vbs_code

    problems = []
    rep = _parse_kl(out)
    d, n = _code_params(argv)
    code = vbs_code.build(d, n)
    transfer = qec_core.kl_report_from_compressions(
        vbs_code.bond_error_compressions(code, [n], float(_flag(argv, "--strength")))
    )
    eigs = _vector(rep["eigenvalues"])
    if len(eigs) != len(transfer.eigenvalues) or not all(
        _rel_close(a, b, 1e-9) for a, b in zip(eigs, transfer.eigenvalues)
    ):
        problems.append("eigenvalues disagree with the transfer route")
    first = float(rep["first_order_distance"])
    if not _rel_close(first, transfer.first_order_distance, 1e-9):
        problems.append(
            f"first_order_distance {first!r} vs transfer {transfer.first_order_distance!r}"
        )
    dist = float(rep["exact_distance"])
    if not 0.0 <= dist <= 1.0:
        problems.append(f"exact_distance={dist!r}")
    bracket = _vector(rep["diamond_bracket"])
    if not (len(bracket) == 2 and _rel_close(bracket[0], 2 * dist, 1e-10)
            and _rel_close(bracket[1], 2 * d * dist, 1e-10)):
        problems.append(f"diamond_bracket {rep['diamond_bracket']} is not (2D, 2dD)")
    return problems


# -- simulate ----------------------------------------------------------------

def _simulate_argv(rng, size):
    length = "100000" if size == "full" else "2000"
    return ["simulate", "--d", "2", "--n", "8", "--length", length,
            "--seed", str(rng.randrange(2**31))]


def _check_simulate(argv, out):
    problems = []
    rows = dict(line.split(",", 1) for line in out.strip().splitlines()[1:])
    trials = [float(v) for k, v in rows.items() if k.isdigit()]
    if not trials:
        return ["no trial rows"]
    if not all(0.0 <= x <= 2.0 for x in trials):
        problems.append(f"final_distance outside [0, 2]: {trials}")
    for key, want in (("mean", sum(trials) / len(trials)), ("max", max(trials))):
        if not _rel_close(float(rows[key]), want, 1e-10):
            problems.append(f"{key} row {rows[key]} does not match the trials")
    return problems


TRANSFER = ("vbs_code.edge_overlap", "vbs_code.transfer_apply")
CODE_BUILD = ("vbs_code.build", "su_algebra.gell_mann_basis", "su_algebra.structure_constants")

WORKLOADS = {
    w.name: w
    for w in (
        Workload(
            "sweep",
            _sweep_argv, _check_sweep,
            TRANSFER + CODE_BUILD + (
                "vbs_code.eta", "vbs_code.edge_state", "vbs_code.detection_closed_form",
                "vbs_code.correlation_closed_form", "vbs_code.bond_error_compressions",
                "qec_core.kl_report_from_compressions", "qec_core.epsilon_from_report",
                "quantum_ops.trace_distance", "cli",
            ),
            reference="transfer",
        ),
        Workload(
            "kl_transfer",
            _kl_transfer_argv, _check_kl_transfer,
            TRANSFER + CODE_BUILD + (
                "vbs_code.bond_error_compressions", "qec_core.kl_report_from_compressions",
                "qec_core.epsilon_from_report", "quantum_ops.trace_distance", "cli",
            ),
        ),
        Workload(
            "kl_dense",
            _kl_dense_argv, _check_kl_dense,
            CODE_BUILD + (
                "vbs_code.encode_dense", "vbs_code.dense_isometry", "vbs_code.bond_error_stacks",
                "qec_core.kl_decompose", "qec_core.kl_report_from_compressions",
                "qec_core.logical_recovery_channel", "qec_core.recovery_error",
                "quantum_ops.choi_matrix", "quantum_ops.entanglement_fidelity",
                "qec_core.epsilon_from_report", "quantum_ops.trace_distance", "cli",
            ),
            reference="memory",
        ),
        Workload(
            "simulate",
            _simulate_argv, _check_simulate,
            ("quasi_universality.simulate_computation", "su_algebra.gell_mann_basis",
             "su_algebra.structure_constants", "vbs_code.eta", "cli"),
            reference="transfer",
            rerun_check=True,
        ),
    )
}
