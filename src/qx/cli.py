"""Deterministic command-line front end.

Every command is a pure function of its flags (seeds included): reruns emit
byte-identical output.  Exit codes: 0 success, 1 a numerical check failed,
2 usage or I/O error.  Derived randomness uses the SplitMix64 scheme from
:mod:`qx.rng`, keyed by the base seed and grid coordinates or trial index.
"""

from __future__ import annotations

import argparse
import sys
from dataclasses import replace

import numpy as np

from . import exact_codes, qec_core, quasi_universality, su_algebra, vbs_code
from .qec_core import _fmt_float
from .quantum_ops import trace_distance
from .rng import make_generator, stable_seed

STRICT_TOL = 1e-12
CLOSED_FORM_TOL = 1e-10

SWEEP_HEADER = (
    "d,N,chi,eta,max_detect_closedform_residual,max_corr_closedform_residual,"
    "edge_fixedpoint_distance,epsilon,erasure_bound"
)


def read_isometry(path: str) -> np.ndarray:
    """Read a dense complex matrix: a 'rows cols' line, then row-major
    're im' pairs, one per line."""
    with open(path, "r", encoding="ascii") as fh:
        tokens = fh.read().split()
    if len(tokens) < 2:
        raise ValueError(f"{path}: missing dimension header")
    rows, cols = int(tokens[0]), int(tokens[1])
    if rows < 1 or cols < 1:
        raise ValueError(f"{path}: dimensions {rows} {cols} are not positive")
    values = tokens[2:]
    if len(values) != 2 * rows * cols:
        raise ValueError(
            f"{path}: expected {2 * rows * cols} numbers, found {len(values)}"
        )
    data = np.array([float(v) for v in values]).reshape(rows * cols, 2)
    return (data[:, 0] + 1j * data[:, 1]).reshape(rows, cols)


def write_isometry(path: str, matrix: np.ndarray) -> None:
    matrix = np.asarray(matrix, dtype=complex)
    lines = [f"{matrix.shape[0]} {matrix.shape[1]}"]
    for value in matrix.reshape(-1):
        lines.append(f"{value.real:.17g} {value.imag:.17g}")
    with open(path, "w", encoding="ascii") as fh:
        fh.write("\n".join(lines) + "\n")


def _emit(text: str, output: str | None) -> None:
    if output is None:
        sys.stdout.write(text)
    else:
        with open(output, "w", encoding="ascii") as fh:
            fh.write(text)


def cmd_algebra(args) -> int:
    basis = su_algebra.gell_mann_basis(args.d)
    residuals = su_algebra.invariant_residuals(basis)
    rng = make_generator(args.seed)
    hom = 0.0
    for _ in range(8):
        g1 = su_algebra.random_special_unitary(basis, rng)
        g2 = su_algebra.random_special_unitary(basis, rng)
        lhs = su_algebra.adjoint_group_element(basis, g1 @ g2)
        rhs = su_algebra.adjoint_group_element(
            basis, g1
        ) @ su_algebra.adjoint_group_element(basis, g2)
        hom = max(hom, float(np.abs(lhs - rhs).max()))
    lines = [f"{name}: {_fmt_float(value)}" for name, value in residuals.items()]
    lines.append(f"adjoint_homomorphism: {_fmt_float(hom)}")
    _emit("\n".join(lines) + "\n", args.output)
    ok = all(v < args.tol for v in residuals.values()) and hom < 100.0 * args.tol
    return 0 if ok else 1


def _closed_form_residuals(code) -> tuple[np.ndarray, np.ndarray]:
    """Max deviations of transfer contraction from the detection and
    correlation closed forms, over all generators, read from the one pass of
    vbs_code.insertion_overlaps: one closed-form stack per batch.

    Returns two arrays indexed by N' = 0..N: entry N' is the largest
    residual over insertions at bonds <= N', singles at n <= N' for the
    detection check and pairs (m, n) with n <= N' for the correlation
    check, so the last entries cover the whole code.  The transfer is
    unital, so an insertion's overlap does not depend on the sites above
    its upper bond, and entry N' is the check of the code with N' sites in
    exact arithmetic."""
    at_bond = np.zeros((2, code.n_sites + 1))  # detection, correlation: max per upper bond
    for m, n, got in vbs_code.insertion_overlaps(code):
        if m is None:
            want = vbs_code.detection_closed_form(code, n)
        else:
            want = vbs_code.correlation_closed_form(code, m, n)
        want -= got  # in place, and dropped before the pass forms its next batch
        worst = np.abs(want).reshape(len(n), -1).max(axis=1)
        del want
        row = at_bond[int(m is not None)]
        row[n] = np.maximum(row[n], worst)
    det, corr = np.maximum.accumulate(at_bond, axis=1)
    return det, corr


def _sweep_point(code, strength: float, det: float, corr: float) -> dict:
    """The SWEEP_HEADER columns of one code, by name: d and N as integers,
    the rest as floats.  det and corr are its two closed-form residuals."""
    d, n = code.d, code.n_sites
    deviation, _ = vbs_code.edge_state(code, 0, n)
    report = qec_core.kl_report_from_compressions(
        vbs_code.bond_error_compressions(code, strength=strength)
    )
    values = [
        d,
        n,
        code.chi,
        vbs_code.eta(d, n),
        det,
        corr,
        trace_distance(deviation, np.zeros_like(deviation)),
        qec_core.epsilon_from_report(report),
        vbs_code.erasure_bound(code),
    ]
    return dict(zip(SWEEP_HEADER.split(","), values))


def _format_points(points, fmt: str) -> str:
    """Sweep points as CSV rows under SWEEP_HEADER, or as blocks of
    'name: value' lines separated by blank lines."""
    rows = [[str(x) if isinstance(x, int) else _fmt_float(x) for x in p.values()] for p in points]
    if fmt == "csv":
        return "\n".join([SWEEP_HEADER] + [",".join(row) for row in rows]) + "\n"
    names = SWEEP_HEADER.split(",")
    blocks = ["\n".join(f"{k}: {v}" for k, v in zip(names, row)) for row in rows]
    return ("\n\n".join(blocks) + "\n") if blocks else ""


def cmd_sweep(args) -> int:
    # one build per d: its checks do not depend on N, and the codes at the
    # other N share its basis (and so its structure constants and h_t).
    # One closed-form pass per d, at --n-max, holds the residuals of every
    # smaller N: entry N maximises over the insertions at bonds <= N
    sizes = range(args.n_min, args.n_max + 1)
    points = []
    ok = True
    for d in range(args.d_min, args.d_max + 1) if sizes else ():
        code = vbs_code.build(d, args.n_min)
        det, corr = _closed_form_residuals(replace(code, n_sites=args.n_max))
        points.extend(
            _sweep_point(replace(code, n_sites=n), args.strength, det[n], corr[n]) for n in sizes
        )
        # running maxima: the last entries bound every printed row's
        ok = ok and det[-1] < CLOSED_FORM_TOL and corr[-1] < CLOSED_FORM_TOL
    _emit(_format_points(points, args.format), args.output)
    return 0 if ok else 1


def cmd_vbs(args) -> int:
    code = vbs_code.build(args.d, args.n)
    det, corr = _closed_form_residuals(code)
    point = _sweep_point(code, args.strength, det[-1], corr[-1])
    _emit(_format_points([point], "text"), args.output)
    return 0 if det[-1] < args.tol and corr[-1] < args.tol else 1


def _parse_bonds(spec: str, code) -> list[int]:
    if spec == "bond":
        return [code.n_sites]
    if spec == "bond:all":
        return list(range(1, code.n_sites + 1))
    head, _, tail = spec.partition(":")
    if head != "bond" or not tail.isdecimal():
        raise UsageError(f"bad bond selector {spec!r}; use bond, bond:all or bond:N")
    return [int(tail)]


def cmd_kl(args) -> int:
    if not 0.0 <= args.cutoff < 1.0:
        raise UsageError(f"cutoff {args.cutoff} is outside [0, 1)")
    selector = args.code
    channel = None  # the recovered logical channel, on the routes that have it
    if selector.startswith("vbs:"):
        parts = selector.split(":")
        if len(parts) != 3 or not (parts[1].isdecimal() and parts[2].isdecimal()):
            raise UsageError(f"bad code selector {selector!r}")
        code = vbs_code.build(int(parts[1]), int(parts[2]))
        if not args.errors.startswith("bond"):
            raise UsageError("valence-bond codes take a bond error model")
        bonds = _parse_bonds(args.errors, code)
        k = 1 + len(bonds) * code.site_dim
        # the dense route holds K error stacks of d_Q x d_L amplitudes each,
        # and two row-block slabs of them while it sums the Gram product
        if (
            code.dense_size <= vbs_code.DENSE_CAP
            and k * code.dense_size * code.d <= vbs_code.DENSE_STACK_CAP
        ):
            iso = vbs_code.dense_isometry(code)
            # the list goes straight in, so no stack outlives the call
            report = qec_core.kl_decompose(
                iso,
                vbs_code.bond_error_stacks(code, bonds, args.strength),
                cutoff_rel=args.cutoff,
            )
            noise = vbs_code.bond_noise(code, report.compressions, args.strength)
            channel = qec_core.logical_recovery_channel(report, *noise)
        else:
            report = qec_core.kl_report_from_compressions(
                vbs_code.bond_error_compressions(code, bonds, args.strength),
                cutoff_rel=args.cutoff,
            )
    else:
        if selector == "five_one_three":
            iso = exact_codes.five_qubit_code()
        elif selector == "four_two_two":
            iso = exact_codes.four_two_two_code()
        elif selector.startswith("file:"):
            iso = qec_core.CodeIsometry(isometry=read_isometry(selector[5:]))
        else:
            raise UsageError(f"unknown code selector {selector!r}")
        if args.errors != "pauli1":
            raise UsageError(f"code {selector!r} takes the pauli1 error model")
        n_qubits = int(iso.d_q).bit_length() - 1
        if n_qubits < 1 or 2**n_qubits != iso.d_q:
            raise UsageError("pauli1 errors need a physical space of one or more qubits")
        # the route's peak: the 3n stacks P_i V beside V, and two row-block
        # slabs of V and them while error_compressions sums the Gram product
        rows = iso.d_q + 2 * min(iso.d_q, qec_core._ROW_BLOCK)
        amplitudes = (3 * n_qubits + 1) * iso.d_l * rows
        if amplitudes > vbs_code.DENSE_STACK_CAP:
            raise UsageError(f"pauli1 on a {iso.d_q}x{iso.d_l} isometry needs {amplitudes} "
                             f"amplitudes, over the budget of {vbs_code.DENSE_STACK_CAP}")
        weights = exact_codes.depolarizing_weights(n_qubits, args.strength)
        stacks = [iso.isometry] + exact_codes.weight_one_pauli_stacks(iso.isometry)
        # one compression of the family V, P_i V: M over the Paulis, and D_i = V+ P_i V
        m = qec_core.error_compressions(iso, stacks)
        report = qec_core.kl_report_from_compressions(m[1:, 1:], cutoff_rel=args.cutoff)
        channel = qec_core.logical_recovery_channel(report, m[0, 1:], np.diag(weights))
    _emit(qec_core.format_kl_report(report, channel), args.output)
    return 0


def cmd_simulate(args) -> int:
    if args.trials < 1:
        raise UsageError("trial count must be positive")
    finals = []
    for trial in range(args.trials):
        trajectory = quasi_universality.simulate_computation(
            args.d,
            args.n,
            args.length,
            seed=stable_seed(args.seed, trial),
            error_dist=args.error_dist,
        )
        finals.append(trajectory.final_distance)
    lines = ["trial,final_distance"]
    lines.extend(f"{t},{_fmt_float(x)}" for t, x in enumerate(finals))
    lines.append(f"mean,{_fmt_float(float(np.mean(finals)))}")
    lines.append(f"max,{_fmt_float(float(np.max(finals)))}")
    _emit("\n".join(lines) + "\n", args.output)
    return 0


def cmd_gates(args) -> int:
    if args.eta is not None:
        accuracy = args.eta
    elif args.d is not None and args.n is not None:
        accuracy = abs(vbs_code.eta(args.d, args.n))
    else:
        raise UsageError("give either --eta or both --d and --n")
    count = quasi_universality.max_gate_count(
        args.target, accuracy, args.synthesis_error
    )
    _emit(f"{count}\n", args.output)
    return 0


class UsageError(Exception):
    pass


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="qx",
        description="Valence-bond quasi-code workbench: algebra checks, "
        "correctability sweeps, recovery reports, and noisy-gate budgets.",
    )
    sub = parser.add_subparsers(dest="command", required=True)

    p = sub.add_parser("algebra", help="su(d) basis invariant residuals")
    p.add_argument("--d", type=int, required=True)
    p.add_argument("--seed", type=int, default=0)
    p.add_argument("--tol", type=float, default=STRICT_TOL,
                   help="residual tolerance deciding the exit code")
    p.add_argument("--output", default=None)
    p.set_defaults(func=cmd_algebra)

    p = sub.add_parser("vbs", help="single-code diagnostics")
    p.add_argument("--d", type=int, required=True)
    p.add_argument("--n", type=int, required=True)
    p.add_argument("--strength", type=float, default=0.1)
    p.add_argument("--tol", type=float, default=CLOSED_FORM_TOL,
                   help="closed-form residual tolerance deciding the exit code")
    p.add_argument("--output", default=None)
    p.set_defaults(func=cmd_vbs)

    p = sub.add_parser("sweep", help="closed-form and correctability sweep")
    p.add_argument("--d-min", type=int, default=2)
    p.add_argument("--d-max", type=int, default=3)
    p.add_argument("--n-min", type=int, default=3)
    p.add_argument("--n-max", type=int, default=8)
    p.add_argument("--strength", type=float, default=0.1)
    p.add_argument("--format", choices=["csv", "text"], default="csv")
    p.add_argument("--output", default=None)
    p.set_defaults(func=cmd_sweep)

    p = sub.add_parser("kl", help="correctability report for one code")
    p.add_argument("--code", required=True,
                   help="five_one_three | four_two_two | vbs:d:N | file:PATH")
    p.add_argument("--errors", default="pauli1",
                   help="pauli1 | bond | bond:all | bond:N")
    p.add_argument("--strength", type=float, default=0.1)
    p.add_argument("--cutoff", type=float, default=1e-12,
                   help="relative noise-eigenvalue cutoff for retained modes")
    p.add_argument("--output", default=None)
    p.set_defaults(func=cmd_kl)

    p = sub.add_parser("simulate", help="noisy logical computation trials")
    p.add_argument("--d", type=int, required=True)
    p.add_argument("--n", type=int, required=True)
    p.add_argument("--length", type=int, required=True)
    p.add_argument("--trials", type=int, default=1)
    p.add_argument("--seed", type=int, default=0)
    p.add_argument("--error-dist", choices=["uniform", "gaussian"],
                   default="uniform")
    p.add_argument("--output", default=None)
    p.set_defaults(func=cmd_simulate)

    p = sub.add_parser("gates", help="gate-count budget floor(target/accuracy)")
    p.add_argument("--eta", type=float, default=None)
    p.add_argument("--d", type=int, default=None)
    p.add_argument("--n", type=int, default=None)
    p.add_argument("--target", type=float, required=True)
    p.add_argument("--synthesis-error", type=float, default=0.0)
    p.add_argument("--output", default=None)
    p.set_defaults(func=cmd_gates)

    return parser


def main(argv=None) -> int:
    parser = build_parser()
    args = parser.parse_args(argv)
    try:
        return args.func(args)
    except (UsageError, ValueError, OSError, MemoryError) as exc:
        print(f"qx: {exc}", file=sys.stderr)
        return 2


if __name__ == "__main__":
    sys.exit(main())
