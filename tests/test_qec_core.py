import numpy as np
import pytest

from qx import exact_codes as ec
from qx import qec_core as qc
from qx import vbs_code as vc
from qx.quantum_ops import KrausChannel, apply_channel, choi_matrix, cptp_residuals
from qx.quasi_universality import unitary_distance
from qx.su_algebra import expi_hermitian, random_special_unitary


def edge_report(d, n_sites, strength=0.1):
    code = vc.build(d, n_sites)
    iso = vc.dense_isometry(code)
    stacks = vc.bond_error_stacks(code, strength=strength)
    return code, iso, stacks, qc.kl_decompose(iso, stacks)


def test_code_isometry_validation():
    with pytest.raises(ValueError):
        qc.CodeIsometry(isometry=np.array([[1.0, 0.0], [0.0, 0.5]]))
    with pytest.raises(ValueError):
        qc.CodeIsometry(isometry=np.eye(4)[:, :2], site_dims=(3, 2))


def test_detect_condition_identity_and_fixtures():
    code = ec.four_two_two_code()
    (e0, r0), = qc.detect_condition(code, [np.eye(16)])
    assert abs(e0 - 1.0) < 1e-14 and r0 < 1e-14
    for _, resid in qc.detect_condition(code, ec.weight_one_paulis(4)):
        assert resid < 1e-12


def test_detect_condition_vbs_bond_error():
    code = vc.build(2, 3)
    iso = vc.dense_isometry(code)
    t3 = code.basis.generators[2]
    stack = np.stack(
        [vc.encode_dense(code, al, insertions=[(1, t3)]) for al in range(2)], axis=1
    )
    (e, resid), = qc.detect_condition(iso, [stack])
    assert abs(e) < 1e-14
    assert abs(resid - abs(code.chi) * 0.5) < 1e-12
    compressed = iso.isometry.conj().T @ stack
    assert np.abs(compressed - code.chi * t3).max() < 1e-12


def test_five_qubit_kl_is_exact():
    code = ec.five_qubit_code()
    report = qc.kl_decompose(code, ec.weight_one_paulis(5))
    assert report.error_count == 15
    assert report.residual_weights.max() < 1e-12
    assert np.abs(report.eigenvalues - 1.0).max() < 1e-12
    assert report.first_order_distance < 1e-12


def test_kl_single_identity_error():
    code = ec.five_qubit_code()
    report = qc.kl_decompose(code, [np.eye(32)])
    assert report.gram.shape == (1, 1)
    assert abs(report.gram[0, 0] - 1.0) < 1e-14
    assert report.residual_weights.max() < 1e-14
    assert report.first_order_distance < 1e-14


def test_kl_rotation_diagonalizes_gram():
    _, _, _, report = edge_report(2, 4)
    u = report.rotation
    rotated = u.conj() @ report.gram @ u.T
    assert np.abs(rotated - np.diag(report.eigenvalues)).max() < 1e-12
    assert np.abs(u @ u.conj().T - np.eye(report.error_count)).max() < 1e-12


def test_kl_residuals_are_traceless_and_gram_psd():
    _, _, _, report = edge_report(2, 4)
    traces = np.einsum("klaa->kl", report.residuals)
    assert np.abs(traces).max() < 1e-12
    assert np.linalg.eigvalsh(report.gram).min() > -1e-12
    assert abs(np.trace(report.gram) - 1.0) < 1e-12


def test_kl_beta_decay_over_bonds():
    # identity-vs-bond residual weights fall off as chi^(2n) along the chain
    code = vc.build(2, 4)
    iso = vc.dense_isometry(code)
    errors = [np.stack([vc.encode_dense(code, al) for al in range(2)], axis=1)]
    labels = []
    for n in range(1, 5):
        for a in range(3):
            cols = [
                vc.encode_dense(code, al, insertions=[(n, code.basis.generators[a])])
                for al in range(2)
            ]
            errors.append(np.stack(cols, axis=1))
            labels.append((n, a))
    m = qc.error_compressions(iso, errors)
    for idx, (n, a) in enumerate(labels, start=1):
        resid = m[0, idx] - np.trace(m[0, idx]) / 2 * np.eye(2)
        beta = float(np.einsum("ab,ab->", resid.conj(), resid).real)
        assert abs(beta - code.chi ** (2 * n) / 2) < 1e-12


def test_kl_degenerate_noise_error():
    code = ec.five_qubit_code()
    with pytest.raises(qc.DegenerateNoiseError):
        qc.kl_decompose(code, [np.zeros((32, 32))])


def test_recovery_five_qubit_inverts_noise():
    code = ec.five_qubit_code()
    report = qc.kl_decompose(code, ec.weight_one_paulis(5))
    recovery = qc.recovery_from_kl(code, report)
    tp, _ = cptp_residuals(recovery)
    assert tp < 1e-10
    noise = ec.single_qubit_depolarizing(5, 0.3)
    q_ch = qc.recovered_logical_channel(code, noise, recovery)
    dist, bracket, fid, _ = qc.recovery_error(q_ch)
    assert dist < 1e-10
    assert bracket[0] <= bracket[1]
    assert fid > 1.0 - 1e-10


def test_recovery_normalizations_agree_on_exact_code():
    code = ec.five_qubit_code()
    report = qc.kl_decompose(code, ec.weight_one_paulis(5))
    canonical = qc.recovery_from_kl(code, report, "canonical")
    transpose = qc.recovery_from_kl(code, report, "transpose")
    for a, b in zip(canonical.kraus, transpose.kraus):
        assert np.abs(a - b).max() < 1e-10


def test_recovery_trivial_code():
    code = qc.CodeIsometry(isometry=np.eye(2))
    report = qc.kl_decompose(code, [np.eye(2)])
    recovery = qc.recovery_from_kl(code, report)
    rho = np.array([[0.7, 0.1j], [-0.1j, 0.3]])
    assert np.abs(apply_channel(recovery, rho) - rho).max() < 1e-12


def test_recovery_requires_stacks():
    _, _, _, report = edge_report(2, 3)
    report.error_stacks = None
    code = vc.dense_isometry(vc.build(2, 3))
    with pytest.raises(ValueError):
        qc.recovery_from_kl(code, report)


@pytest.mark.parametrize("d, n_sites", [(2, 4), (3, 2)])
@pytest.mark.parametrize("normalization", ["canonical", "transpose"])
def test_recovery_trace_preserving_on_quasi_codes(d, n_sites, normalization):
    # both codes damp the canonical family (factors about 0.982 and 0.943)
    _, iso, _, report = edge_report(d, n_sites)
    if normalization == "canonical":
        _, x, _ = qc._recovery_kernel(report, normalization)
        assert x[0, 0, 0] < 0.99
    recovery = qc.recovery_from_kl(iso, report, normalization)
    assert cptp_residuals(recovery)[0] < 1e-10


@pytest.mark.parametrize(
    "normalization, d, n_sites",
    [
        pytest.param(norm, d, n, id=norm if d == 2 else f"{norm}-d{d}")
        for d, n in [(2, 4), (3, 2)]
        for norm in ["canonical", "transpose", "raw"]
    ],
)
def test_logical_recovery_matches_dense_composition(normalization, d, n_sites):
    code, iso, stacks, report = edge_report(d, n_sites)
    thin = qc.logical_recovery_channel(iso, report, stacks, normalization)
    recovery = qc.recovery_from_kl(iso, report, normalization)
    # realize the edge-bond insertion errors as physical edge operators
    w0, w = vc.bond_error_weights(code, [n_sites], 0.1)
    bulk = np.eye(code.site_dim**n_sites)
    noise_ops = [w0 * np.eye(iso.d_q)]
    noise_ops += [w * np.kron(bulk, g) for g in code.basis.generators]
    noise = KrausChannel.from_kraus(noise_ops)
    dense = qc.recovered_logical_channel(iso, noise, recovery)
    assert np.abs(choi_matrix(thin).matrix - choi_matrix(dense).matrix).max() < 1e-10


def test_first_order_distance_is_exact_for_raw_recovery():
    code, iso, stacks, report = edge_report(2, 5)
    q_raw = qc.logical_recovery_channel(iso, report, stacks, "raw")
    dist = qc.recovery_error(q_raw)[0]
    assert abs(dist - report.first_order_distance) < 1e-9 * max(dist, 1e-30)


def test_recovered_state_matches_perturbative_form():
    # Q(sigma) = sigma + sum_kl B_kl sigma B_kl+ / eig_k for the bare
    # canonical recovery composed with its own trace-preserving family
    code, iso, stacks, report = edge_report(2, 4)
    q_raw = qc.logical_recovery_channel(iso, report, stacks, "raw")
    rng = np.random.default_rng(14)
    m = rng.normal(size=(2, 2)) + 1j * rng.normal(size=(2, 2))
    sigma = m @ m.conj().T
    sigma = sigma / np.trace(sigma)
    perturbation = np.zeros((2, 2), dtype=complex)
    for k in np.flatnonzero(report.retained):
        for l in range(report.error_count):
            b = report.residuals[k, l]
            perturbation += b @ sigma @ b.conj().T / report.eigenvalues[k]
    got = apply_channel(q_raw, sigma)
    assert np.abs(got - sigma - perturbation).max() < 1e-12


def test_first_order_gap_shrinks_with_chain_length():
    # absolute gap between the first-order aggregate and the composed
    # trace-preserving recovery distance falls off with N
    gaps = []
    for n in range(4, 9):
        _, iso, stacks, report = edge_report(2, n)
        q_ch = qc.logical_recovery_channel(iso, report, stacks)
        dist = qc.recovery_error(q_ch)[0]
        gaps.append(abs(report.first_order_distance - dist))
    assert all(a > b for a, b in zip(gaps, gaps[1:]))


def test_recovered_logical_channel_identity_case():
    code = qc.CodeIsometry(isometry=np.eye(3))
    ident = KrausChannel.from_kraus([np.eye(3)])
    q_ch = qc.recovered_logical_channel(code, ident, ident)
    rho = np.diag([0.5, 0.3, 0.2]).astype(complex)
    assert np.abs(apply_channel(q_ch, rho) - rho).max() < 1e-14


def test_recovery_error_reference_values():
    ident = KrausChannel.from_kraus([np.eye(2)])
    dist, bracket, fid, bures = qc.recovery_error(ident)
    assert dist < 1e-14 and fid > 1 - 1e-14 and bures < 1e-6
    paulis = ec.weight_one_paulis(1)
    dep = KrausChannel.from_kraus(
        [0.5 * np.eye(2)] + [0.5 * p for p in paulis]
    )
    dist_dep = qc.recovery_error(dep)[0]
    assert abs(dist_dep - 0.75) < 1e-12


def test_epsilon_exact_code_vanishes():
    code = ec.five_qubit_code()
    assert qc.correctability_epsilon(code, ec.weight_one_paulis(5)) < 1e-12


def test_epsilon_decreases_with_size_and_dimension():
    values = []
    for n in (3, 4, 5, 6):
        code = vc.build(2, n)
        iso = vc.dense_isometry(code)
        values.append(qc.correctability_epsilon(iso, vc.bond_error_stacks(code)))
    assert all(a > b for a, b in zip(values, values[1:]))
    c3 = vc.build(3, 4)
    eps3 = qc.correctability_epsilon(
        vc.dense_isometry(c3), vc.bond_error_stacks(c3)
    )
    assert eps3 < values[1]


def test_epsilon_monotone_over_full_grid_via_transfer():
    # the transfer route reaches (3, 7..8) where dense encoding cannot
    eps = {}
    for d in (2, 3):
        for n in range(3, 9):
            code = vc.build(d, n)
            report = qc.kl_report_from_compressions(
                vc.bond_error_compressions(code, strength=0.1)
            )
            eps[(d, n)] = qc.epsilon_from_report(report)
    for d in (2, 3):
        for n in range(3, 8):
            assert eps[(d, n)] > eps[(d, n + 1)]
    for n in range(3, 9):
        assert eps[(3, n)] < eps[(2, n)]


def test_epsilon_matches_transfer_route():
    code, iso, stacks, report = edge_report(2, 4)
    dense_eps = qc.epsilon_from_report(report)
    transfer_report = qc.kl_report_from_compressions(
        vc.bond_error_compressions(code, strength=0.1)
    )
    assert abs(dense_eps - qc.epsilon_from_report(transfer_report)) < 1e-12


def test_span_transform_identity_and_permutation():
    code, iso, stacks, report = edge_report(2, 3)
    same = qc.span_transform(stacks, np.eye(4))
    report_same = qc.kl_decompose(iso, same)
    assert np.abs(report_same.eigenvalues - report.eigenvalues).max() < 1e-12
    perm = np.eye(4)[[1, 0, 3, 2]]
    report_perm = qc.kl_decompose(iso, qc.span_transform(stacks, perm))
    assert np.abs(
        np.sort(report_perm.eigenvalues) - np.sort(report.eigenvalues)
    ).max() < 1e-12


def test_span_transform_row_scaling_increases_epsilon():
    code, iso, stacks, report = edge_report(2, 4)
    base_eps = qc.epsilon_from_report(report)
    y = np.eye(4, dtype=complex)
    y[1, 1] = 10.0
    scaled = qc.span_transform(stacks, y)
    assert qc.correctability_epsilon(iso, scaled) > base_eps


def test_span_transform_unitary_leaves_first_order_invariant():
    code, iso, stacks, report = edge_report(2, 4)
    rng = np.random.default_rng(4)
    raw = rng.normal(size=(4, 4)) + 1j * rng.normal(size=(4, 4))
    y, _ = np.linalg.qr(raw)
    rotated = qc.kl_decompose(iso, qc.span_transform(stacks, y))
    assert abs(
        rotated.first_order_distance - report.first_order_distance
    ) < 1e-10


def test_span_transform_shape_check():
    with pytest.raises(ValueError):
        qc.span_transform([np.eye(2)], np.eye(3))


def test_logical_operator_check_cases():
    code = ec.five_qubit_code()
    dev, gate = qc.logical_operator_check(np.eye(32), code)
    assert dev < 1e-14 and np.abs(gate - np.eye(2)).max() < 1e-14
    logical_x = ec.pauli_string("XXXXX")
    dev_x, gate_x = qc.logical_operator_check(logical_x, code)
    assert dev_x < 1e-12
    assert unitary_distance(gate_x, ec.PAULI["X"]) < 1e-10
    rng = np.random.default_rng(12)
    h = rng.normal(size=(2, 2)) + 1j * rng.normal(size=(2, 2))
    u1 = expi_hermitian(h + h.conj().T)
    stray = np.kron(u1, np.eye(16))
    dev_bad, _ = qc.logical_operator_check(stray, code)
    assert dev_bad > 0.1


def test_logical_operator_check_norm_identity():
    # thin-matrix route equals the literal operator norm of U P - P U P
    code = ec.five_qubit_code()
    p = code.projector()
    for spec in ["XXXXX", "IXIII"]:
        u = ec.pauli_string(spec)
        dev, _ = qc.logical_operator_check(u, code)
        direct = np.linalg.norm(u @ p - p @ u @ p, 2)
        assert abs(dev - direct) < 1e-12


def test_logical_operator_check_vbs_covariant_gate():
    code = vc.build(2, 3)
    iso = vc.dense_isometry(code)
    rng = np.random.default_rng(17)
    g = random_special_unitary(code.basis, rng)
    res = vc.covariant_gate(code, g)
    site = res.site_factor
    u = np.kron(np.kron(np.kron(site, site), site), g)
    dev, gate = qc.logical_operator_check(u, iso)
    assert dev < 1e-10
    assert unitary_distance(gate, g) < 1e-10
    assert np.abs(gate - res.logical_gate).max() < 1e-10


def test_collapse_check_exact_code():
    code = ec.five_qubit_code()
    rng = np.random.default_rng(3)
    hams = []
    for _ in range(5):
        m = rng.normal(size=(2, 2)) + 1j * rng.normal(size=(2, 2))
        hams.append((m + m.conj().T) / 2)
    h, logical_part, collapse, fact = qc.transversal_collapse_check(
        code, hams, np.ones(5), 0.0
    )
    assert collapse < 1e-12
    assert fact < 1e-12
    devs = [
        qc.transversal_collapse_check(code, hams, np.ones(5), xi)[3]
        for xi in (0.2, 0.1, 0.05)
    ]
    assert devs[0] > devs[1] > devs[2]


def test_collapse_check_vbs_covariant_generator():
    code = vc.build(2, 4)
    iso = vc.dense_isometry(code)
    t3 = code.basis.generators[2]
    adj3 = -1j * code.basis.f[2]
    hams = [adj3] * 4 + [t3]
    h, logical_part, collapse, fact = qc.transversal_collapse_check(
        iso, hams, np.ones(5), 0.4
    )
    assert abs(h) < 1e-12
    assert np.abs(logical_part - t3).max() < 1e-10
    assert abs(collapse - 0.5) < 1e-10
    assert fact < 1e-10  # covariant generators factor exactly
    compressed = iso.isometry.conj().T @ (
        _dense_transversal(adj3, t3, 4)
    ) @ iso.isometry
    assert unitary_distance(compressed, expi_hermitian(0.4 * t3)) < 1e-10


def _dense_transversal(site_gen, edge_gen, n_sites, xi=0.4):
    site_u = expi_hermitian(xi * site_gen)
    out = site_u
    for _ in range(n_sites - 1):
        out = np.kron(out, site_u)
    return np.kron(out, expi_hermitian(xi * edge_gen))


def test_collapse_check_validation():
    code = ec.five_qubit_code()
    bad = [np.array([[0.0, 1.0], [0.0, 0.0]])] + [np.zeros((2, 2))] * 4
    with pytest.raises(ValueError):
        qc.transversal_collapse_check(code, bad, np.ones(5), 0.1)
    with pytest.raises(ValueError):
        qc.transversal_collapse_check(code, [np.eye(2)] * 4, np.ones(4), 0.1)


def test_subsystem_product_fixture():
    split = ec.product_gauge_split()
    errors = [np.kron(e, np.eye(2)) for e in ec.weight_one_paulis(5)]
    j_ops, resid = qc.subsystem_kl_check(split, errors)
    assert resid < 1e-12
    for i in range(len(errors)):
        for j in range(len(errors)):
            scale = j_ops[i, j, 0, 0]
            assert np.abs(j_ops[i, j] - scale * np.eye(2)).max() < 1e-12


def test_subsystem_gauge_error():
    split = ec.product_gauge_split()
    gauge_x = np.kron(np.eye(32), ec.PAULI["X"])
    j_ops, resid = qc.subsystem_kl_check(split, [gauge_x, np.eye(64)])
    assert resid < 1e-12
    assert np.abs(j_ops[1, 0] - ec.PAULI["X"]).max() < 1e-12


def test_subsystem_trivial_gauge_reduces_to_kl():
    code = ec.five_qubit_code()
    split = qc.SubsystemSplit(isometry=code.isometry, d_t=2, d_j=1)
    errors = ec.weight_one_paulis(5)
    _, resid = qc.subsystem_kl_check(split, errors)
    report = qc.kl_decompose(code, errors)
    assert resid < np.sqrt(report.residual_weights.max()) + 1e-12


def test_subsystem_gate_factorization():
    split = ec.product_gauge_split()
    u_t_target = expi_hermitian(np.array([[0.3, 0.1], [0.1, -0.2]]))
    base = ec.five_qubit_code()
    logical_u = _encode_logical(base, u_t_target)
    u = np.kron(logical_u, np.eye(2))
    u_t, dev = qc.subsystem_gate_factorization(u, split)
    assert dev < 1e-10
    assert unitary_distance(u_t, u_t_target) < 1e-10
    ident, dev0 = qc.subsystem_gate_factorization(np.eye(64), split)
    assert dev0 < 1e-12 and np.abs(ident - np.eye(2)).max() < 1e-10


def _encode_logical(code, u_logical):
    v = code.isometry
    return v @ u_logical @ v.conj().T + np.eye(v.shape[0]) - v @ v.conj().T


def test_subsystem_gate_factorization_flags_entangling():
    split = ec.product_gauge_split()
    cnot = np.zeros((4, 4))
    cnot[0, 0] = cnot[1, 1] = cnot[2, 3] = cnot[3, 2] = 1.0
    v = split.isometry
    u = v @ cnot @ v.conj().T + np.eye(64) - v @ v.conj().T
    _, dev = qc.subsystem_gate_factorization(u, split)
    assert dev > 0.5


def test_subsystem_gate_factorization_rejects_leaky():
    split = ec.product_gauge_split()
    rng = np.random.default_rng(9)
    m = rng.normal(size=(64, 64))
    u = expi_hermitian(m + m.T)
    with pytest.raises(ValueError):
        qc.subsystem_gate_factorization(u, split)


def test_subsystem_split_validation():
    with pytest.raises(ValueError):
        qc.SubsystemSplit(isometry=np.eye(4)[:, :3], d_t=2, d_j=2)


def test_format_kl_report_stable():
    _, _, _, report = edge_report(2, 3)
    report.epsilon = qc.epsilon_from_report(report)
    text = qc.format_kl_report(report)
    assert text.startswith("error_count: 4\n")
    for key in (
        "logical_dim",
        "environment_size",
        "eigenvalues",
        "first_order_distance",
        "exact_distance",
        "diamond_bracket",
        "epsilon",
        "gram_real",
        "residual_weights",
    ):
        assert f"{key}:" in text
    assert text == qc.format_kl_report(report)
