"""Acceptance suite: one test per criterion, each printing a PASS/FAIL line.

Run with ``pytest tests/test_acceptance.py -v -s`` to see the lines inline.
"""

import time

import numpy as np
import pytest

import oracles
from qx import cli
from qx import exact_codes as ec
from qx import qec_core as qc
from qx import quasi_universality as qu
from qx import vbs_code as vc
from qx.rng import make_generator, stable_seed
from qx.su_algebra import expi_hermitian, gell_mann_basis, invariant_residuals, random_special_unitary

MODULE_START = time.perf_counter()


def report(name: str, ok: bool, detail: str = "") -> None:
    tag = "PASS" if ok else "FAIL"
    suffix = f"  ({detail})" if detail else ""
    print(f"[{tag}] {name}{suffix}")
    assert ok, f"{name}{suffix}"


def test_criterion_1_algebra_invariants():
    start = time.perf_counter()
    worst = 0.0
    for d in range(2, 7):
        residuals = invariant_residuals(gell_mann_basis(d))
        worst = max(worst, max(residuals.values()))
    elapsed = time.perf_counter() - start
    report(
        "criterion 1: su(d) invariants, d = 2..6",
        worst < 1e-12 and elapsed < 10.0,
        f"max residual {worst:.2e}, {elapsed:.1f}s",
    )


def test_criterion_2_closed_forms():
    start = time.perf_counter()
    worst_transfer = 0.0
    for d in (2, 3, 4):
        for n_sites in range(1, 25):
            worst_transfer = max(worst_transfer, _closed_form_gap(vc.build(d, n_sites)))
    worst_dense = max(_dense_oracle_gap(vc.build(2, 6)), _dense_oracle_gap(vc.build(3, 3)))
    elapsed = time.perf_counter() - start
    report(
        "criterion 2: closed forms vs transfer and dense oracle",
        worst_transfer < 1e-10 and worst_dense < 1e-10 and elapsed < 60.0,
        f"transfer {worst_transfer:.2e}, dense {worst_dense:.2e}, {elapsed:.1f}s",
    )


def _closed_form_gap(code):
    d, q, chi, n_sites = code.d, code.site_dim, code.chi, code.n_sites
    g = code.basis.generators
    eye = np.eye(d)
    worst = 0.0
    # edge states |alpha><alpha| after every step count, all alpha at once
    current = np.einsum("ai,aj->aij", eye, eye).astype(complex)
    for n in range(1, n_sites + 1):
        current = vc.transfer_apply(code, current)
        closed = eye / d + 2.0 * chi**n * np.einsum("caa,cij->aij", g, g)
        worst = max(worst, np.abs(current - closed).max())
    # single-bond insertions, det[a, bond]
    det = np.stack(
        [vc.edge_overlap(code, ket_insertions=[(bond, g)]) for bond in range(n_sites + 1)],
        axis=1,
    )
    powers = chi ** np.arange(n_sites + 1)
    worst = max(worst, np.abs(det - powers[None, :, None, None] * g[:, None]).max())
    # two-bond insertions pair[a, b]: t^a at bond m, t^b at bond n; m == n
    # composes the operators at one bond (upper to the left)
    h = code.basis.d_sym + 1j * code.basis.f  # h[b, a, c]
    h_part = 0.5 * np.einsum("bac,cij->abij", h, g)
    eye_q = np.eye(q)
    pair_cache = {}
    for m in range(n_sites + 1):
        for n in range(m, n_sites + 1):
            pair_cache[(m, n)] = vc.edge_overlap(
                code, ket_insertions=[(n, g[None, :]), (m, g[:, None])]
            )
            closed = chi**n * h_part + (
                chi ** (n - m) / (2.0 * d)
            ) * np.einsum("ab,ij->abij", eye_q, eye)
            if n > m:
                worst = max(worst, np.abs(pair_cache[(m, n)] - closed).max())
    # site operator: single
    for site in range(1, n_sites + 1):
        got = det[:, site - 1] - det[:, site]
        closed = (d * d / q) * chi ** (site - 1) * g
        worst = max(worst, np.abs(got - closed).max())
    # site operator paired with the edge insertion
    for site in range(1, n_sites + 1):
        got = pair_cache[(site - 1, n_sites)] - pair_cache[(site, n_sites)]
        closed = (-d / (2.0 * q) * chi ** (n_sites - site)) * np.einsum(
            "ab,ij->abij", eye_q, eye
        )
        worst = max(worst, np.abs(got - closed).max())
    # two site operators
    for m in range(1, n_sites + 1):
        for n in range(m + 1, n_sites + 1):
            got = (
                pair_cache[(m - 1, n - 1)]
                - pair_cache[(m - 1, n)]
                - pair_cache[(m, n - 1)]
                + pair_cache[(m, n)]
            )
            closed = (-(d**3) / (2.0 * q * q) * chi ** (n - m - 1)) * np.einsum(
                "ab,ij->abij", eye_q, eye
            )
            worst = max(worst, np.abs(got - closed).max())
    # exercise the public op on the whole (q, q) stack
    if n_sites >= 2:
        idx = np.arange(q)
        vals = vc.site_operator_overlaps(code, idx[:, None], idx[None, :], 1, 2)
        assert all(np.isfinite(v).all() for v in vals)
    return float(worst)


def _dense_oracle_gap(code):
    d, q, chi, n_sites = code.d, code.site_dim, code.chi, code.n_sites
    g = code.basis.generators
    dims = code.site_dims
    eye = np.eye(d)
    bras = np.stack([vc.encode_dense(code, alpha) for alpha in range(d)])

    def overlap(kets):
        return bras.conj() @ np.stack(kets).T

    worst = 0.0
    for a in range(q):
        for bond in range(n_sites + 1):
            got = overlap(
                [
                    vc.encode_dense(code, beta, insertions=[(bond, g[a])])
                    for beta in range(d)
                ]
            )
            worst = max(worst, np.abs(got - chi**bond * g[a]).max())
    h = code.basis.d_sym + 1j * code.basis.f
    for a in range(q):
        for b in range(q):
            closed_h = 0.5 * np.einsum("c,cij->ij", h[b, a], g)
            for m in range(n_sites):
                for n in range(m + 1, n_sites + 1):
                    closed = chi**n * closed_h + (a == b) * chi ** (n - m) / (
                        2.0 * d
                    ) * eye
                    got = overlap(
                        [
                            vc.encode_dense(
                                code, beta, insertions=[(n, g[b]), (m, g[a])]
                            )
                            for beta in range(d)
                        ]
                    )
                    worst = max(worst, np.abs(got - closed).max())
    # dense adjoint site operators against the three correlator closed forms
    base_kets = [vc.encode_dense(code, beta) for beta in range(d)]
    site_applied = {}
    for a in range(q):
        t_site = oracles.adjoint_site_matrix(code, a)
        for site in range(1, n_sites + 1):
            kets = [
                oracles.apply_site_operator(k, dims, site - 1, t_site)
                for k in base_kets
            ]
            site_applied[(a, site)] = kets
            got = overlap(kets)
            worst = max(
                worst, np.abs(got - (d * d / q) * chi ** (site - 1) * g[a]).max()
            )
    for a in range(q):
        for b in range(q):
            closed_edge = -d / (2.0 * q) * (a == b) * eye
            for site in range(1, n_sites + 1):
                kets = [
                    oracles.apply_site_operator(k, dims, n_sites, g[b])
                    for k in site_applied[(a, site)]
                ]
                got = overlap(kets)
                worst = max(
                    worst,
                    np.abs(got - chi ** (n_sites - site) * closed_edge).max(),
                )
            closed_pair = -(d**3) / (2.0 * q * q) * (a == b) * eye
            t_b = oracles.adjoint_site_matrix(code, b)
            for m in range(1, n_sites):
                for n in range(m + 1, n_sites + 1):
                    kets = [
                        oracles.apply_site_operator(k, dims, n - 1, t_b)
                        for k in site_applied[(a, m)]
                    ]
                    got = overlap(kets)
                    worst = max(
                        worst,
                        np.abs(got - chi ** (n - m - 1) * closed_pair).max(),
                    )
    return float(worst)


def test_criterion_3_sum_rule():
    worst = 0.0
    for d in (2, 3):
        for n_sites in range(1, 25):
            code = vc.build(d, n_sites)
            g = code.basis.generators
            det = [vc.edge_overlap(code, ket_insertions=[(bond, g)]) for bond in range(n_sites + 1)]
            total = det[n_sites].copy()
            for site in range(1, n_sites + 1):
                total += det[site - 1] - det[site]
            worst = max(worst, np.abs(total - g).max())
    code = vc.build(3, 12)
    spot = vc.sum_rule_check(code, np.arange(code.site_dim)).max()
    report(
        "criterion 3: edge plus bulk telescope reproduces the generator",
        worst < 1e-10 and spot < 1e-10,
        f"max residual {worst:.2e}",
    )


def test_criterion_4_exact_code_anchor():
    code = ec.five_qubit_code()
    errors = ec.weight_one_pauli_stacks(code.isometry)
    kl = qc.kl_decompose(code, errors)
    recovery = qc.recovery_from_kl(code, kl, errors)
    noise = ec.single_qubit_depolarizing(5, 0.25)
    dist = qc.recovery_error(oracles.recovered_logical_channel(code, noise, recovery))[0]
    rng = make_generator(stable_seed(4, 0))
    collapse_worst = 0.0
    for _ in range(3):
        hams = []
        for _ in range(5):
            m = rng.normal(size=(2, 2)) + 1j * rng.normal(size=(2, 2))
            hams.append((m + m.conj().T) / 2)
        collapse_worst = max(
            collapse_worst,
            qc.transversal_collapse_check(code, hams, rng.normal(size=5), 0.2)[2],
        )
    ok = (
        kl.residual_weights.max() < 1e-12
        and dist < 1e-10
        and collapse_worst < 1e-12
    )
    report(
        "criterion 4: five-qubit anchor (exact KL, recovery, collapse)",
        ok,
        f"beta {kl.residual_weights.max():.2e}, D_t {dist:.2e}, collapse {collapse_worst:.2e}",
    )


def _edge_model_metrics(d, n_sites, strength=0.1):
    code = vc.build(d, n_sites)
    iso = vc.dense_isometry(code)
    stacks = vc.bond_error_stacks(code, strength=strength)
    kl = qc.kl_decompose(iso, stacks)
    eps = qc.epsilon_from_report(kl)
    q_ch = qc.logical_recovery_channel(kl, *vc.bond_noise(code, kl.compressions, strength))
    dist = qc.recovery_error(q_ch)[0]
    return eps, dist, kl.first_order_distance


def test_criterion_5_quasi_code_scaling():
    metrics = {n: _edge_model_metrics(2, n) for n in range(3, 9)}
    eps_series = [metrics[n][0] for n in range(3, 9)]
    dist_series = [metrics[n][1] for n in range(3, 9)]
    eps_down = all(a > b for a, b in zip(eps_series, eps_series[1:]))
    dist_down = all(a > b for a, b in zip(dist_series, dist_series[1:]))
    eps3, dist3, _ = _edge_model_metrics(3, 4)
    cross = eps3 < metrics[4][0] and dist3 < metrics[4][1]
    report(
        "criterion 5: epsilon and exact distance shrink with N and d",
        eps_down and dist_down and cross,
        f"eps {eps_series[0]:.2e}->{eps_series[-1]:.2e}, "
        f"D_t {dist_series[0]:.2e}->{dist_series[-1]:.2e}",
    )


def test_criterion_5_first_order_ratio():
    # Requires |first_order - exact| / exact to decrease over N = 3..8.  That
    # cannot hold for this recovery family: composed with the uncompleted
    # canonical recovery the first-order aggregate is exact (the gap is
    # floating-point noise), and every trace-preserving completion adds
    # contributions that do not shrink relative to the exact distance
    # (wrong-branch weight for the damped completion, mode reweighting for
    # the support-normalized one).  Kept faithful to the stated check; the
    # failure is expected and the other scaling clauses pass above.
    ratios = []
    for n in range(3, 9):
        _, dist, first = _edge_model_metrics(2, n)
        ratios.append(abs(first - dist) / dist)
    decreasing = all(a > b for a, b in zip(ratios, ratios[1:]))
    report(
        "criterion 5 (first-order ratio clause): relative gap decreases over N",
        decreasing,
        "ratios " + ", ".join(f"{r:.3e}" for r in ratios),
    )


def test_criterion_6_eta_law():
    exact = abs(vc.eta(2, 4) + 5.0 / 81.0) < 1e-15
    frontier = {}
    best = None
    for d in range(2, 9):
        frontier[d] = None
        for n in range(1, 65):
            if abs(vc.eta(d, n)) < 1e-3:
                frontier[d] = n
                break
        if frontier[d] is not None and best is None:
            best = (d, frontier[d])
    achieved = any(n is not None for n in frontier.values())
    monotone_n = True
    for d in range(2, 9):
        values = [abs(vc.eta(d, n)) for n in range(1, 65)]
        monotone_n &= all(a > b for a, b in zip(values, values[1:]))
    monotone_d = True
    for n in (1, 4, 16, 64):
        values = [abs(vc.eta(d, n)) for d in range(2, 9)]
        monotone_d &= all(a > b for a, b in zip(values, values[1:]))
    print("  accuracy frontier (first N with |eta| < 1e-3, N <= 64):", frontier)
    report(
        "criterion 6: eta law, frontier, and monotone decay",
        exact and achieved and monotone_n and monotone_d,
        f"eta(2,4)+5/81 = {vc.eta(2, 4) + 5 / 81:.1e}, first hit {best}",
    )


def test_criterion_7_covariance_and_transversality():
    worst_res = 0.0
    worst_gate = 0.0
    for d in (2, 3):
        basis = gell_mann_basis(d)
        for n_sites in range(3, 21):
            code = vc.build(d, n_sites)
            for trial in range(20):
                rng = make_generator(stable_seed(7, d, n_sites, trial))
                g = random_special_unitary(basis, rng)
                res = vc.covariant_gate(code, g)
                worst_res = max(worst_res, res.covariance_residual)
                worst_gate = max(worst_gate, qu.unitary_distance(res.logical_gate, g))
    # dense cross-check of the logical-operator test at small sizes
    dense_worst = 0.0
    for d, n_sites in ((2, 3), (2, 4), (3, 3)):
        code = vc.build(d, n_sites)
        iso = vc.dense_isometry(code)
        rng = make_generator(stable_seed(7, d, n_sites))
        g = random_special_unitary(code.basis, rng)
        res = vc.covariant_gate(code, g)
        u = res.site_factor
        full = u
        for _ in range(n_sites - 1):
            full = np.kron(full, u)
        full = np.kron(full, g)
        dev, gate = qc.logical_operator_check(full, iso)
        dense_worst = max(dense_worst, dev, qu.unitary_distance(gate, g))
    ok = worst_res < 1e-10 and worst_gate < 1e-10 and dense_worst < 1e-10
    report(
        "criterion 7: transversal gates realize the logical group",
        ok,
        f"residual {worst_res:.2e}, gate gap {worst_gate:.2e}, dense {dense_worst:.2e}",
    )


def test_criterion_8_accumulation_accounting():
    trials = 200
    finals_short = []
    finals_long = []
    envelope_ok = True
    for trial in range(trials):
        seed = stable_seed(8, trial)
        short = qu.simulate_computation(2, 8, 100, seed=seed)
        long = qu.simulate_computation(2, 16, 100, seed=seed)
        envelope_ok &= bool(
            np.all(short.distances <= short.envelopes + 1e-10)
            and np.all(long.distances <= long.envelopes + 1e-10)
        )
        finals_short.append(short.final_distance)
        finals_long.append(long.final_distance)
    mean_drop = float(np.mean(finals_long)) < float(np.mean(finals_short))
    floor_ok = (
        qu.max_gate_count(0.1, 0.001) == 100
        and qu.max_gate_count(0.001, 0.001) == 1
        and qu.max_gate_count(1.0, 0.3) == 3
        and qu.max_gate_count(0.05, abs(vc.eta(2, 8)))
        == int(np.floor(0.05 / abs(vc.eta(2, 8))))
        and qu.max_gate_count(0.11, 0.02, synthesis_error=0.01) == 5
    )
    report(
        "criterion 8: error accumulation within the composed budget",
        envelope_ok and mean_drop and floor_ok,
        f"mean final {np.mean(finals_short):.3e} -> {np.mean(finals_long):.3e}",
    )


def test_criterion_9_span_non_contractivity():
    code = vc.build(2, 4)
    iso = vc.dense_isometry(code)
    stacks = vc.bond_error_stacks(code, strength=0.1)
    base = qc.kl_decompose(iso, stacks)
    base_eps = qc.epsilon_from_report(base)
    y = np.eye(4, dtype=complex)
    y[1, 1] = 10.0
    scaled_eps = qc.epsilon_from_report(qc.kl_decompose(iso, qc.span_transform(stacks, y)))
    rng = make_generator(stable_seed(9))
    raw = rng.normal(size=(4, 4)) + 1j * rng.normal(size=(4, 4))
    unitary, _ = np.linalg.qr(raw)
    rotated = qc.kl_decompose(iso, qc.span_transform(stacks, unitary))
    invariant = abs(rotated.first_order_distance - base.first_order_distance)
    report(
        "criterion 9: span transforms are not contractive",
        scaled_eps > base_eps and invariant < 1e-10,
        f"eps {base_eps:.3e} -> {scaled_eps:.3e}, rotation gap {invariant:.1e}",
    )


def test_criterion_10_subsystem_checks():
    split = ec.product_gauge_split()
    errors = ec.weight_one_pauli_stacks(split.isometry)[:15]
    _, residual = qc.subsystem_kl_check(split, errors)
    base = ec.five_qubit_code()
    rng = make_generator(stable_seed(10))
    worst_gate = 0.0
    for _ in range(3):
        h = rng.normal(size=(2, 2)) + 1j * rng.normal(size=(2, 2))
        u_t = expi_hermitian((h + h.conj().T) / 2)
        encoded = base.isometry @ u_t @ base.isometry.conj().T
        encoded = encoded + np.eye(32) - base.projector()
        fitted, dev = qc.subsystem_gate_factorization(np.kron(encoded, np.eye(2)), split)
        worst_gate = max(worst_gate, dev)
    report(
        "criterion 10: subsystem structure of the product fixture",
        residual < 1e-12 and worst_gate < 1e-12,
        f"KL residual {residual:.2e}, gate deviation {worst_gate:.2e}",
    )


def test_criterion_11_determinism_and_runtime(tmp_path):
    pairs = []
    for tag, args in (
        ("sweep", ["sweep", "--d-min", "2", "--d-max", "3", "--n-min", "3", "--n-max", "6"]),
        ("kl", ["kl", "--code", "vbs:2:4", "--errors", "bond"]),
        ("sim", ["simulate", "--d", "2", "--n", "8", "--length", "50", "--trials", "20", "--seed", "7"]),
        ("gates", ["gates", "--eta", "0.001", "--target", "0.1"]),
    ):
        out_a = tmp_path / f"{tag}_a.txt"
        out_b = tmp_path / f"{tag}_b.txt"
        assert cli.main(args + ["--output", str(out_a)]) == 0
        assert cli.main(args + ["--output", str(out_b)]) == 0
        pairs.append(out_a.read_bytes() == out_b.read_bytes())
    elapsed = time.perf_counter() - MODULE_START
    report(
        "criterion 11: byte-stable CLI and total acceptance runtime",
        all(pairs) and elapsed < 300.0,
        f"runtime so far {elapsed:.1f}s",
    )
