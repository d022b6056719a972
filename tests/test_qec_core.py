import dataclasses
import tracemalloc

import numpy as np
import pytest
import scipy.linalg

import oracles
from qx import exact_codes as ec
from qx import qec_core as qc
from qx import vbs_code as vc
from oracles import apply_channel, cptp_residuals
from qx.quantum_ops import KrausChannel, choi_matrix
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
    for bad in (np.nan, np.inf):
        with pytest.raises(ValueError, match="orthonormal"):
            qc.CodeIsometry(isometry=[[bad], [0.0]])
    for shape in ((0, 0), (2, 0), (0, 1)):
        with pytest.raises(ValueError, match="no column"):
            qc.CodeIsometry(isometry=np.zeros(shape))
    with pytest.raises(ValueError, match="one or more qubits"):
        ec.depolarizing_weights(0, 0.1)


def test_detect_condition_identity_and_fixtures():
    code = ec.four_two_two_code()
    (e0, r0), = oracles.detect_condition(code, [code.isometry])
    assert abs(e0 - 1.0) < 1e-14 and r0 < 1e-14
    for _, resid in oracles.detect_condition(code, ec.weight_one_pauli_stacks(code.isometry)):
        assert resid < 1e-12


def test_detect_condition_vbs_bond_error():
    code = vc.build(2, 3)
    iso = vc.dense_isometry(code)
    t3 = code.basis.generators[2]
    stack = np.stack(
        [vc.encode_dense(code, al, insertions=[(1, t3)]) for al in range(2)], axis=1
    )
    (e, resid), = oracles.detect_condition(iso, [stack])
    assert abs(e) < 1e-14
    assert abs(resid - abs(code.chi) * 0.5) < 1e-12
    compressed = iso.isometry.conj().T @ stack
    assert np.abs(compressed - code.chi * t3).max() < 1e-12


def test_five_qubit_kl_is_exact():
    code = ec.five_qubit_code()
    report = qc.kl_decompose(code, ec.weight_one_pauli_stacks(code.isometry))
    assert report.error_count == 15
    assert report.residual_weights.max() < 1e-12
    assert np.abs(report.eigenvalues - 1.0).max() < 1e-12
    assert report.first_order_distance < 1e-12


def test_kl_single_identity_error():
    code = ec.five_qubit_code()
    report = qc.kl_decompose(code, [code.isometry])
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
        qc.kl_decompose(code, [np.zeros((32, 2))])


def test_recovery_five_qubit_inverts_noise():
    code = ec.five_qubit_code()
    stacks = ec.weight_one_pauli_stacks(code.isometry)
    report = qc.kl_decompose(code, stacks)
    recovery = qc.recovery_from_kl(code, report, stacks)
    tp, _ = cptp_residuals(recovery)
    assert tp < 1e-10
    noise = ec.single_qubit_depolarizing(5, 0.3)
    q_ch = oracles.recovered_logical_channel(code, noise, recovery)
    dist, bracket, fid, _ = qc.recovery_error(q_ch)
    assert dist < 1e-10
    assert bracket[0] <= bracket[1]
    assert fid > 1.0 - 1e-10


def test_recovery_normalizations_agree_on_exact_code():
    code = ec.five_qubit_code()
    stacks = ec.weight_one_pauli_stacks(code.isometry)
    report = qc.kl_decompose(code, stacks)
    canonical = qc.recovery_from_kl(code, report, stacks, "canonical")
    transpose = qc.recovery_from_kl(code, report, stacks, "transpose")
    for a, b in zip(canonical.kraus, transpose.kraus):
        assert np.abs(a - b).max() < 1e-10


def test_recovery_trivial_code():
    code = qc.CodeIsometry(isometry=np.eye(2))
    report = qc.kl_decompose(code, [np.eye(2)])
    recovery = qc.recovery_from_kl(code, report, [np.eye(2)])
    rho = np.array([[0.7, 0.1j], [-0.1j, 0.3]])
    assert np.abs(apply_channel(recovery, rho) - rho).max() < 1e-12


@pytest.mark.parametrize("d, n_sites", [(2, 4), (3, 2)])
@pytest.mark.parametrize("normalization", ["canonical", "transpose"])
def test_recovery_trace_preserving_on_quasi_codes(d, n_sites, normalization):
    # both codes damp the canonical family (factors about 0.982 and 0.943)
    _, iso, stacks, report = edge_report(d, n_sites)
    if normalization == "canonical":
        _, _, x, _ = qc._recovery_kernel(report, normalization)
        assert x[0, 0, 0] < 0.99
    recovery = qc.recovery_from_kl(iso, report, stacks, normalization)
    assert cptp_residuals(recovery)[0] < 1e-10


@pytest.mark.parametrize("d, n_sites", [(2, 4), (3, 2)])
def test_damped_top_mode_remainder_is_exactly_zero(d, n_sites):
    # damping factors about 0.982 and 0.943; a rounding error in the top
    # remainder would enter the completion through its square root (~1e-8)
    _, _, _, report = edge_report(d, n_sites)
    _, a, _, _ = qc._recovery_kernel(report, "raw")
    s = np.linalg.eigvalsh((a + a.conj().T) / 2.0)
    damping, remainder = qc._completion_remainder(s)
    assert damping < 0.99
    assert remainder[s.argmax()] == 0.0
    assert remainder.min() >= 0.0


# damped points: the top of T+T is an exactly degenerate cluster that only
# rounding splits
DAMPED_POINTS = [(2, 4, 0.1), (2, 8, 0.1), (3, 3, 0.1), (3, 5, 0.1), (3, 5, 0.27)]


@pytest.mark.parametrize("d, n_sites, strength", DAMPED_POINTS)
def test_exact_distance_independent_of_summation_order(d, n_sites, strength):
    # the errors of M, D and c in reverse order: the same recovery, rounded
    # differently, with the Gram eigenbasis inside each degenerate group
    # chosen anew (the unsnapped cluster moved it by up to 3e-7 relative)
    code, _, _, report = edge_report(d, n_sites, strength)
    d_ops, c = vc.bond_noise(code, report.compressions, strength)
    flipped = qc.kl_report_from_compressions(report.compressions[::-1, ::-1])
    c_flipped = np.concatenate([c[:, :1], c[:, :0:-1]], axis=1)[::-1]
    want = qc.recovery_error(qc.logical_recovery_channel(report, d_ops, c))[0]
    got = qc.recovery_error(qc.logical_recovery_channel(flipped, d_ops[::-1], c_flipped))[0]
    assert abs(got - want) <= 1e-10 * want


@pytest.mark.parametrize(
    "d, n_sites, strength, bonds",
    [p + (None,) for p in DAMPED_POINTS] + [(2, 6, 0.1, "all"), (3, 3, 0.27, "all")],
)
def test_completion_snap_merges_no_real_gap(d, n_sites, strength, bonds):
    code = vc.build(d, n_sites)
    bonds = range(1, n_sites + 1) if bonds else None
    report = qc.kl_decompose(vc.dense_isometry(code), vc.bond_error_stacks(code, bonds, strength))
    _, a, _, _ = qc._recovery_kernel(report, "raw")
    s = np.linalg.eigvalsh((a + a.conj().T) / 2.0)
    damping, remainder = qc._completion_remainder(s)
    assert damping < 1.0
    bound = 64 * len(s) * np.finfo(float).eps
    snapped = remainder == 0.0
    # the cluster is the modes within rounding of the top, and nothing else
    assert snapped.sum() == ((s.max() - s) / s.max() < 1e-9).sum() >= 2
    assert remainder[~snapped].min() > 1e6 * bound


@pytest.mark.parametrize("strength", [0.1, 0.27])
@pytest.mark.parametrize("d, n_min, n_max", [(2, 10, 24), (3, 6, 14), (4, 4, 10)])
def test_canonical_distance_keeps_its_parity_law(d, n_min, n_max, strength):
    # D / |chi|^N has one constant for even N and one for odd N; the ranges
    # run past where the top of T+T overshoots one by less than 1e-10
    # (vbs:2:21, vbs:3:13, vbs:4:9), and stop before vbs:3:15, whose
    # overshoot (~3e-14) the transfer route no longer resolves
    ratio = {}
    for n in range(n_min, n_max + 1):
        code = vc.build(d, n)
        m = vc.bond_error_compressions(code, None, strength)
        d_ops, c = vc.bond_noise(code, m, strength)
        channel = qc.logical_recovery_channel(qc.kl_report_from_compressions(m), d_ops, c)
        ratio[n] = qc.recovery_error(channel)[0] / abs(code.chi) ** n
    for n in range(n_min + 2, n_max + 1):
        assert abs(ratio[n] / ratio[n - 2] - 1.0) <= 1e-2, (n, ratio[n], ratio[n - 2])


@pytest.mark.parametrize("strength", [0.1, 0.27])
@pytest.mark.parametrize(
    "d, n_sites", [(2, n) for n in range(3, 11)] + [(3, 3), (3, 4), (3, 5), (4, 3)]
)
def test_dense_exact_distance_matches_the_compression_route(d, n_sites, strength):
    # the dense route as qx kl runs it, against the recovery read from the
    # transfer-route M alone
    code = vc.build(d, n_sites)
    report = qc.kl_decompose(vc.dense_isometry(code), vc.bond_error_stacks(code, None, strength))
    noise = vc.bond_noise(code, report.compressions, strength)
    dense = qc.recovery_error(qc.logical_recovery_channel(report, *noise))[0]
    m = vc.bond_error_compressions(code, None, strength)
    channel = qc.logical_recovery_channel(
        qc.kl_report_from_compressions(m), *vc.bond_noise(code, m, strength)
    )
    want = qc.recovery_error(channel)[0]
    assert abs(dense - want) <= 1e-10 * want, (dense, want)


def test_kl_decompose_reads_square_stacks_as_stacks():
    # on a square isometry a (d_Q, d_L) stack has the shape of a physical
    # operator; a list of stacks must still mean the stacks themselves
    u = qc.CodeIsometry(isometry=np.linalg.qr(np.arange(16.0).reshape(4, 4) + np.eye(4))[0])
    stacks = ec.weight_one_pauli_stacks(u.isometry)
    reference = qc.kl_decompose(u, np.stack(stacks))
    report = qc.kl_decompose(u, stacks)
    for field in ("gram", "eigenvalues", "rotation", "residual_weights", "compressions"):
        assert np.array_equal(getattr(report, field), getattr(reference, field))
    assert report.first_order_distance == reference.first_order_distance


def test_error_stacks_of_the_wrong_shape_are_rejected():
    code = ec.four_two_two_code()
    # a (d_Q, K, d_L) array with K = 3 is not a sequence of K stacks
    for errors in (
        [np.eye(16)],
        np.zeros((16, 3, 2)),
        [code.isometry, code.isometry[:, 0]],
        np.stack([code.isometry] * 3, axis=1),
    ):
        with pytest.raises(ValueError):
            qc.kl_decompose(code, errors)
    _, _, _, report = edge_report(2, 4)
    d_ops, c = vc.bond_noise(vc.build(2, 4), report.compressions, 0.1)
    for bad in ((d_ops[1:], c), (d_ops, c[:, 1:]), (d_ops, c[0])):
        with pytest.raises(ValueError):
            qc.logical_recovery_channel(report, *bad)
    with pytest.raises(ValueError):
        qc.subsystem_kl_check(ec.product_gauge_split(), [np.eye(64)])


def test_empty_error_list_is_named():
    split = ec.product_gauge_split()
    for errors in ([], np.empty((0, split.d_q, split.d_l), dtype=complex)):
        for check in (qc.kl_decompose, qc.error_compressions, qc.subsystem_kl_check):
            with pytest.raises(ValueError, match="error list must not be empty"):
                check(split, errors)


@pytest.mark.parametrize(
    "blocks, rows", [(0, 1), (1, -1), (1, 0), (1, 1), (2, 3)],
    ids=["1", "B-1", "B", "B+1", "2B+3"],
)
def test_gram_products_across_row_blocks(blocks, rows):
    # d_Q around multiples of the row block B of the Gram product, against
    # one product per pair
    d_q = blocks * qc._ROW_BLOCK + rows
    d_l = min(d_q, 3)
    rng = np.random.default_rng(d_q)
    v = np.linalg.qr(rng.normal(size=(d_q, d_l)) + 1j * rng.normal(size=(d_q, d_l)))[0]
    code = qc.CodeIsometry(isometry=v)
    stacks = rng.normal(size=(3, d_q, d_l)) + 1j * rng.normal(size=(3, d_q, d_l))
    m = qc.error_compressions(code, list(stacks))
    want = np.array([[si.conj().T @ sj for sj in stacks] for si in stacks])
    assert np.abs(m - want).max() <= 1e-14 * np.abs(want).max()
    compressed = np.array([v.conj().T @ s for s in stacks])
    e = np.trace(compressed, axis1=1, axis2=2) / d_l
    residuals = np.linalg.norm(compressed - e[:, None, None] * np.eye(d_l), 2, axis=(-2, -1))
    scale = np.abs(compressed).max()
    for (got_e, got_r), want_e, want_r in zip(oracles.detect_condition(code, stacks), e, residuals):
        assert abs(got_e - want_e) <= 1e-14 * scale and abs(got_r - want_r) <= 1e-14 * scale
    # the last row lies in the last block: scaling it breaks orthonormality
    bad = v.copy()
    bad[-1] *= 1.0 + 1e-6
    with pytest.raises(ValueError, match="orthonormal"):
        qc.CodeIsometry(isometry=bad)


def bond_family(d, n_sites, bonds=None):
    code = vc.build(d, n_sites)
    return vc.dense_isometry(code), vc.bond_error_stacks(code, bonds)


def pauli_family():
    code = ec.five_qubit_code()
    return code, [code.isometry] + ec.weight_one_pauli_stacks(code.isometry)


@pytest.mark.parametrize(
    "family, blocks",
    [
        (lambda: bond_family(2, 8, range(1, 9)), (3, 834)),
        (lambda: bond_family(3, 5), (24, 0)),
        (pauli_family, (0, 32)),
    ],
    ids=["vbs2-8-all", "vbs3-5", "513-pauli1"],
)
def test_streamed_gram_matches_the_copied_family(family, blocks):
    # the row blocks gathered from the stacks give M bit for bit as the
    # Gram product of the copied family, with a partial last block or none
    code, stacks = family()
    assert divmod(code.d_q, qc._ROW_BLOCK) == blocks
    assert isinstance(stacks, list) and all(np.ndim(s) == 2 for s in stacks)
    got = qc.error_compressions(code, stacks)
    want = oracles.copied_family_compressions(code, stacks)
    assert np.array_equal(got.view(np.int64), want.view(np.int64))


def test_streamed_gram_keeps_the_subsystem_check(monkeypatch):
    split = ec.product_gauge_split()
    errors = ec.weight_one_pauli_stacks(split.isometry)
    got = qc.subsystem_kl_check(split, errors)
    monkeypatch.setattr(qc, "error_compressions", oracles.copied_family_compressions)
    want = qc.subsystem_kl_check(split, errors)
    assert np.array_equal(got[0].view(np.int64), want[0].view(np.int64))
    assert got[1] == want[1]


def test_error_compressions_copy_no_family():
    # vbs:3:5 bond: the (d_Q, K d_L) family copy (98304 x 27) alone took
    # 42.5 MB; the two row-block slabs take 1.8 MB each
    code, stacks = bond_family(3, 5)
    tracemalloc.start()
    try:
        qc.error_compressions(code, stacks)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert peak < 5e6


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
    d_ops, c = vc.bond_noise(code, report.compressions, 0.1)
    thin = qc.logical_recovery_channel(report, d_ops, c, normalization)
    recovery = qc.recovery_from_kl(iso, report, stacks, normalization)
    # realize the edge-bond insertion errors as physical edge operators
    w0, w = vc.bond_error_weights(code, [n_sites], 0.1)
    bulk = np.eye(code.site_dim**n_sites)
    noise_ops = [w0 * np.eye(iso.d_q)]
    noise_ops += [w * np.kron(bulk, g) for g in code.basis.generators]
    noise = KrausChannel(noise_ops)
    dense = oracles.recovered_logical_channel(iso, noise, recovery)
    assert np.abs(choi_matrix(thin) - choi_matrix(dense)).max() < 1e-10


def test_logical_recovery_allocates_no_physical_operand():
    # vbs:3:5 bond: the d_Q x r d_L recovery factor T (98304 x 27) alone took 42.5 MB
    code, _, _, report = edge_report(3, 5)
    noise = vc.bond_noise(code, report.compressions, 0.1)
    tracemalloc.start()
    try:
        qc.recovery_error(qc.logical_recovery_channel(report, *noise))
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert peak < 1e6


def test_first_order_distance_is_exact_for_raw_recovery():
    code, iso, stacks, report = edge_report(2, 5)
    noise = vc.bond_noise(code, report.compressions, 0.1)
    q_raw = qc.logical_recovery_channel(report, *noise, "raw")
    dist = qc.recovery_error(q_raw)[0]
    assert abs(dist - report.first_order_distance) < 1e-9 * max(dist, 1e-30)


def test_recovered_state_matches_perturbative_form():
    # Q(sigma) = sigma + sum_kl B_kl sigma B_kl+ / eig_k for the bare
    # canonical recovery composed with its own trace-preserving family
    code, iso, stacks, report = edge_report(2, 4)
    noise = vc.bond_noise(code, report.compressions, 0.1)
    q_raw = qc.logical_recovery_channel(report, *noise, "raw")
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
        code, iso, stacks, report = edge_report(2, n)
        q_ch = qc.logical_recovery_channel(report, *vc.bond_noise(code, report.compressions, 0.1))
        dist = qc.recovery_error(q_ch)[0]
        gaps.append(abs(report.first_order_distance - dist))
    assert all(a > b for a, b in zip(gaps, gaps[1:]))


def test_recovered_logical_channel_identity_case():
    code = qc.CodeIsometry(isometry=np.eye(3))
    ident = KrausChannel([np.eye(3)])
    q_ch = oracles.recovered_logical_channel(code, ident, ident)
    rho = np.diag([0.5, 0.3, 0.2]).astype(complex)
    assert np.abs(apply_channel(q_ch, rho) - rho).max() < 1e-14


def test_recovery_error_reference_values():
    ident = KrausChannel([np.eye(2)])
    dist, bracket, fid, bures = qc.recovery_error(ident)
    assert dist < 1e-14 and fid > 1 - 1e-14 and bures < 1e-6
    paulis = ec.weight_one_paulis(1)
    dep = KrausChannel([0.5 * np.eye(2)] + [0.5 * p for p in paulis])
    dist_dep = qc.recovery_error(dep)[0]
    assert abs(dist_dep - 0.75) < 1e-12


def test_epsilon_exact_code_vanishes():
    code = ec.five_qubit_code()
    report = qc.kl_decompose(code, ec.weight_one_pauli_stacks(code.isometry))
    assert qc.epsilon_from_report(report) < 1e-12


def test_epsilon_decreases_with_size_and_dimension():
    values = []
    for n in (3, 4, 5, 6):
        code = vc.build(2, n)
        iso = vc.dense_isometry(code)
        values.append(qc.epsilon_from_report(qc.kl_decompose(iso, vc.bond_error_stacks(code))))
    assert all(a > b for a, b in zip(values, values[1:]))
    c3 = vc.build(3, 4)
    eps3 = qc.epsilon_from_report(
        qc.kl_decompose(vc.dense_isometry(c3), vc.bond_error_stacks(c3))
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


def test_epsilon_matches_svd_trace_norm():
    # epsilon ~ 1.5e-15 at vbs:3:16; adding the O(1) Gram Choi matrix and
    # subtracting it again moved it by 2.3e-3 relative
    code = vc.build(3, 16)
    report = qc.kl_report_from_compressions(vc.bond_error_compressions(code))
    k, d_l = report.error_count, report.logical_dim
    choi = report.residuals.transpose(0, 3, 1, 2).reshape(k * d_l, k * d_l) / d_l
    want = 0.5 * np.linalg.svd(choi + choi.conj().T, compute_uv=False).sum() / 2.0
    assert abs(qc.epsilon_from_report(report) - want) <= 1e-10 * want


def test_epsilon_matches_transfer_route():
    code, iso, stacks, report = edge_report(2, 4)
    dense_eps = qc.epsilon_from_report(report)
    transfer_report = qc.kl_report_from_compressions(
        vc.bond_error_compressions(code, strength=0.1)
    )
    assert abs(dense_eps - qc.epsilon_from_report(transfer_report)) < 1e-12


def _random_compressions(k, d_l, seed, d_q=12):
    rng = np.random.default_rng(seed)

    def gaussian(*shape):
        return rng.normal(size=shape) + 1j * rng.normal(size=shape)

    iso, _ = np.linalg.qr(gaussian(d_q, d_l))
    stacks = gaussian(d_q, k, d_l).transpose(1, 0, 2) / np.sqrt(d_q * k)
    return qc.error_compressions(qc.CodeIsometry(isometry=iso), stacks)


def _assert_close(got, want):
    """Agreement to 1e-13 relative to the largest reference entry, or 1e-15
    absolute."""
    got, want = np.asarray(got), np.asarray(want)
    gap = np.abs(got - want).max()
    assert gap <= max(1e-13 * np.abs(want).max(), 1e-15), gap


@pytest.mark.parametrize(
    "source",
    [("random", k, d_l) for k in (1, 4, 17) for d_l in (2, 3)]
    + [("vbs", 3, 6, "bond:all"), ("vbs", 4, 4, "bond")],
)
def test_rotation_matches_einsum_oracle(source):
    if source[0] == "random":
        _, k, d_l = source
        m = _random_compressions(k, d_l, seed=10 * k + d_l)
    else:
        _, d, n_sites, errors = source
        code = vc.build(d, n_sites)
        bonds = list(range(1, n_sites + 1)) if errors == "bond:all" else None
        m = vc.bond_error_compressions(code, bonds, strength=0.1)
    report = qc.kl_report_from_compressions(m)
    reference = oracles.einsum_rotated_report(report, m)
    _assert_close(report.residuals, reference.residuals)
    _assert_close(report.residual_weights, reference.residual_weights)
    _assert_close(report.first_order_distance, reference.first_order_distance)
    _assert_close(qc.epsilon_from_report(report), qc.epsilon_from_report(reference))


def _report_sources():
    """(label, compressions) on every route that reaches the report."""
    yield "random", _random_compressions(17, 3, seed=5)
    for d, n in ((2, 8), (3, 6), (4, 4), (5, 3)):
        code = vc.build(d, n)
        for bonds in ([n], list(range(1, n + 1)), sorted({0, n // 2, n})):
            yield (d, n, bonds), vc.bond_error_compressions(code, bonds, strength=0.27)
    iso = ec.five_qubit_code()
    m = qc.error_compressions(iso, [iso.isometry] + ec.weight_one_pauli_stacks(iso.isometry))
    yield "five_one_three", m[1:, 1:]


def test_block_rotation_keeps_the_full_rotation_report():
    # the rotation is exactly block diagonal, so rotating one Gram block at
    # a time changes only the order of the sums in the residuals
    for label, m in _report_sources():
        got, want = qc.kl_report_from_compressions(m), oracles.full_rotation_kl_report(m)
        for field in ("gram", "eigenvalues", "rotation", "retained"):
            assert getattr(got, field).tobytes() == getattr(want, field).tobytes(), (label, field)
        gap = np.abs(got.residuals - want.residuals).max()
        assert gap <= 1e-15 * np.abs(m).max(), (label, gap)


def test_block_rotation_holds_fewer_report_arrays_than_the_full_one():
    # the full rotation peaks with three (K, K, d_L, d_L) arrays beside M
    # (two rotation products and the conjugate the weights read), the
    # block rotation with two
    m = vc.bond_error_compressions(vc.build(4, 6), range(1, 7))
    peaks = []
    for f in (qc.kl_report_from_compressions, oracles.full_rotation_kl_report):
        tracemalloc.start()
        try:
            f(m)
            peaks.append(tracemalloc.get_traced_memory()[1])
        finally:
            tracemalloc.stop()
    assert peaks[0] <= peaks[1] and peaks[0] < 2.5 * m.nbytes, (peaks, m.nbytes)


def _report_fields(text):
    return dict(line.split(": ", 1) for line in text.strip().splitlines())


def test_total_residual_weight_is_basis_free():
    code = vc.build(2, 4)
    iso = vc.dense_isometry(code)
    stacks = vc.bond_error_stacks(code, list(range(1, 5)), strength=0.1)
    report = qc.kl_decompose(iso, stacks)
    total = report.residual_weights.sum()
    m = qc.error_compressions(iso, stacks)
    d_l = report.logical_dim
    traceless = m - np.einsum("ijaa->ij", m)[..., None, None] / d_l * np.eye(d_l)
    input_basis = np.sum(np.abs(traceless) ** 2)
    assert abs(total - input_basis) <= 1e-12 * input_basis
    rng = np.random.default_rng(6)
    k = report.error_count
    y, _ = np.linalg.qr(rng.normal(size=(k, k)) + 1j * rng.normal(size=(k, k)))
    rotated = qc.kl_decompose(iso, qc.span_transform(stacks, y))
    assert abs(rotated.residual_weights.sum() - total) <= 1e-12 * total
    fields = _report_fields(qc.format_kl_report(report))
    assert fields["total_residual_weight"] == qc._fmt_float(total)


def test_format_kl_report_is_linear_in_error_count():
    texts = []
    for d, n_sites in ((2, 4), (3, 10)):
        code = vc.build(d, n_sites)
        report = qc.kl_report_from_compressions(
            vc.bond_error_compressions(code, list(range(1, n_sites + 1)), strength=0.1)
        )
        texts.append(qc.format_kl_report(report))
    assert _report_fields(texts[0]).keys() == _report_fields(texts[1]).keys()
    assert len(texts[1].encode()) < 4096


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
    assert qc.epsilon_from_report(qc.kl_decompose(iso, scaled)) > base_eps


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


def _random_hamiltonians(rng, dims):
    hams = []
    for d in dims:
        m = rng.normal(size=(d, d)) + 1j * rng.normal(size=(d, d))
        hams.append((m + m.conj().T) / 2)
    return hams


def _random_code(rng, n_qubits, d_l):
    raw = rng.normal(size=(2**n_qubits, d_l)) + 1j * rng.normal(size=(2**n_qubits, d_l))
    return qc.CodeIsometry(isometry=np.linalg.qr(raw)[0], site_dims=(2,) * n_qubits)


@pytest.mark.parametrize("name", ["five_qubit", "vbs:2:4", "random-6"])
def test_collapse_check_matches_dense_generator(name):
    rng = np.random.default_rng(29)
    code = {
        "five_qubit": ec.five_qubit_code,
        "vbs:2:4": lambda: vc.dense_isometry(vc.build(2, 4)),
        "random-6": lambda: _random_code(rng, 6, 3),
    }[name]()
    hams = _random_hamiltonians(rng, code.site_dims)
    coefficients = rng.normal(size=len(hams))
    got = qc.transversal_collapse_check(code, hams, coefficients, 0.3)
    want = oracles.dense_collapse_check(code, hams, coefficients, 0.3)
    assert abs(got[0] - want[0]) < 1e-12
    assert np.abs(got[1] - want[1]).max() < 1e-12
    assert abs(got[2] - want[2]) < 1e-12
    assert abs(got[3] - want[3]) < 1e-12


def test_collapse_check_allocates_no_physical_operator():
    # a d_Q x d_Q operator at 10 qubits is 16 MB; V is 32 KB
    rng = np.random.default_rng(31)
    code = _random_code(rng, 10, 2)
    hams = _random_hamiltonians(rng, code.site_dims)
    coefficients = rng.normal(size=10)
    qc.transversal_collapse_check(code, hams, coefficients, 0.2)
    tracemalloc.start()
    try:
        qc.transversal_collapse_check(code, hams, coefficients, 0.2)
        _, peak = tracemalloc.get_traced_memory()
    finally:
        tracemalloc.stop()
    assert peak < 1e6


def test_weight_one_pauli_stacks_match_site_oracle():
    rng = np.random.default_rng(37)
    n = 4
    v = _random_code(rng, n, 3).isometry
    stacks = ec.weight_one_pauli_stacks(v)
    for index, stack in enumerate(stacks):
        pauli = ec.PAULI["XYZ"[index % 3]]
        for col in range(v.shape[1]):
            want = oracles.apply_site_operator(v[:, col], (2,) * n, index // 3, pauli)
            assert np.array_equal(stack[:, col], want)


def test_collapse_check_validation():
    code = ec.five_qubit_code()
    bad = [np.array([[0.0, 1.0], [0.0, 0.0]])] + [np.zeros((2, 2))] * 4
    with pytest.raises(ValueError):
        qc.transversal_collapse_check(code, bad, np.ones(5), 0.1)
    with pytest.raises(ValueError):
        qc.transversal_collapse_check(code, [np.eye(2)] * 4, np.ones(4), 0.1)
    nan = [np.full((2, 2), np.nan)] + [np.zeros((2, 2))] * 4
    with pytest.raises(ValueError, match="Hermitian"):
        qc.transversal_collapse_check(code, nan, np.ones(5), 0.1)


def test_subsystem_product_fixture():
    split = ec.product_gauge_split()
    errors = ec.weight_one_pauli_stacks(split.isometry)[:15]
    j_ops, resid = qc.subsystem_kl_check(split, errors)
    assert resid < 1e-12
    for i in range(len(errors)):
        for j in range(len(errors)):
            scale = j_ops[i, j, 0, 0]
            assert np.abs(j_ops[i, j] - scale * np.eye(2)).max() < 1e-12


def test_subsystem_gauge_error():
    split = ec.product_gauge_split()
    gauge_x = np.kron(np.eye(32), ec.PAULI["X"])
    j_ops, resid = qc.subsystem_kl_check(split, [gauge_x @ split.isometry, split.isometry])
    assert resid < 1e-12
    assert np.abs(j_ops[1, 0] - ec.PAULI["X"]).max() < 1e-12


def test_subsystem_trivial_gauge_reduces_to_kl():
    code = ec.five_qubit_code()
    split = qc.SubsystemSplit(isometry=code.isometry, d_t=2, d_j=1)
    errors = ec.weight_one_pauli_stacks(code.isometry)
    _, resid = qc.subsystem_kl_check(split, errors)
    report = qc.kl_decompose(code, errors)
    assert resid < np.sqrt(report.residual_weights.max()) + 1e-12


def test_subsystem_non_product_family():
    # V+ (XXXXX x Z) V = X_L x Z_J: the gauge part is not I_T x J, and the
    # partial-trace fit J = 0 leaves a residual of norm one
    split = ec.product_gauge_split()
    xz = np.kron(ec.pauli_string("XXXXX"), ec.PAULI["Z"])
    _, resid = qc.subsystem_kl_check(split, [split.isometry, xz @ split.isometry])
    assert abs(resid - 1.0) < 1e-12
    stacked = np.stack([split.isometry, xz @ split.isometry])
    assert qc.subsystem_kl_check(split, stacked)[1] == resid


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


def test_subsystem_split_is_a_keyword_only_code_isometry():
    split = ec.product_gauge_split()
    assert isinstance(split, qc.CodeIsometry)
    assert (split.d_q, split.d_l) == (64, split.d_t * split.d_j)
    with pytest.raises(TypeError):
        qc.SubsystemSplit(split.isometry, None, 2, 2)
    with pytest.raises(ValueError):
        qc.SubsystemSplit(isometry=np.eye(4)[:, :3] * 1.1, d_t=3, d_j=1)


def test_subsystem_gate_factorization_rejects_nonunitary():
    split = ec.product_gauge_split()
    with pytest.raises(ValueError, match="not unitary"):
        qc.subsystem_gate_factorization(1.01 * np.eye(64), split)


def _polar_cases():
    split = ec.product_gauge_split()
    u_t = expi_hermitian(np.array([[0.3, 0.1], [0.1, -0.2]]))
    target = _encode_logical(ec.five_qubit_code(), u_t)
    v = split.isometry
    cnot = np.eye(4)[[0, 1, 3, 2]]
    entangling = v @ cnot @ v.conj().T + np.eye(64) - v @ v.conj().T
    yield "fixture-target", np.kron(target, np.eye(2)), split
    yield "fixture-identity", np.eye(64), split
    yield "fixture-entangling", entangling, split
    # on an identity isometry with d_J = 2, a random unitary G has a generic
    # non-unitary partial trace of size d_T
    for d_t in range(2, 9):
        rng = np.random.default_rng(100 + d_t)
        for draw in range(3):
            z = rng.normal(size=(2 * d_t, 2 * d_t)) + 1j * rng.normal(size=(2 * d_t, 2 * d_t))
            g, _ = np.linalg.qr(z)
            split = qc.SubsystemSplit(isometry=np.eye(2 * d_t), d_t=d_t, d_j=2)
            yield f"random-{d_t}-{draw}", g, split


POLAR_CASES = list(_polar_cases())


@pytest.mark.parametrize("u, split", [c[1:] for c in POLAR_CASES], ids=[c[0] for c in POLAR_CASES])
def test_subsystem_gate_factor_is_scipy_polar_bit_for_bit(u, split):
    compressed = qc.logical_operator_check(u, split)[1]
    block = compressed.reshape(split.d_t, split.d_j, split.d_t, split.d_j)
    traced = np.einsum("tjsj->ts", block) / split.d_j
    u_t, _ = qc.subsystem_gate_factorization(u, split)
    assert np.array_equal(u_t, scipy.linalg.polar(traced)[0])


def test_format_kl_report_stable():
    code, _, _, report = edge_report(2, 3)
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
        "total_residual_weight",
    ):
        assert f"{key}:" in text
    assert text == qc.format_kl_report(report)
    assert "exact_distance: nan\ndiamond_bracket: [nan, nan]\n" in text
    with pytest.raises(dataclasses.FrozenInstanceError):
        report.cutoff = 0.0
    channel = qc.logical_recovery_channel(report, *vc.bond_noise(code, report.compressions, 0.1))
    dist, bracket, _, _ = qc.recovery_error(channel)
    fields = _report_fields(qc.format_kl_report(report, channel))
    assert fields["exact_distance"] == qc._fmt_float(dist)
    assert fields["diamond_bracket"] == qc._fmt_vector(bracket)
    assert fields["epsilon"] == qc._fmt_float(qc.epsilon_from_report(report))


def _sector_and_plain_reports(d, n, bonds, strength):
    m = vc.bond_error_compressions(vc.build(d, n), bonds, strength)
    return qc.kl_report_from_compressions(m), oracles.unsectored_kl_report(m)


def _report_gaps(got, want, want_epsilon=qc.epsilon_from_report):
    """Relative gaps of the basis-free report values: eigenvalues entrywise."""
    pairs = [
        (got.eigenvalues, want.eigenvalues),
        (got.first_order_distance, want.first_order_distance),
        (got.residual_weights.sum(), want.residual_weights.sum()),
        (qc.epsilon_from_report(got), want_epsilon(want)),
    ]
    return [float(np.max(np.abs(np.subtract(g, w)) / np.abs(w))) for g, w in pairs]


@pytest.mark.parametrize("d, n_max", [(2, 8), (3, 8), (4, 6), (5, 4)])
@pytest.mark.parametrize("strength", [0.1, 0.27])
def test_sector_report_matches_the_unsectored_report(d, n_max, strength):
    for n in range(1, n_max + 1):
        # bond keeps fewer digits: epsilon is 2.5e-8 at vbs:3:8
        for bonds, tol in ((list(range(1, n + 1)), 1e-12), ([1], 1e-12), ([n], 1e-9)):
            sector, plain = _sector_and_plain_reports(d, n, bonds, strength)
            gaps = _report_gaps(sector, plain, oracles.unsectored_epsilon)
            assert max(gaps) <= tol, (n, bonds)
            assert sector.env_size == plain.env_size


def _spied_blocks(monkeypatch):
    """Record every block list that ``qc._blocks`` returns."""
    found, blocks = [], qc._blocks

    def spy(*args):
        found.append(blocks(*args))
        return found[-1]

    monkeypatch.setattr(qc, "_blocks", spy)
    return found


def _classes(labels):
    """The positions of each value of ``labels``, as a set of frozensets."""
    return {frozenset(np.flatnonzero(labels == x).tolist()) for x in set(labels.tolist())}


def _partition(groups):
    return {frozenset(row.tolist()) for idx in groups for row in idx}


def _check_blocks(blocks, labels, exact):
    """The blocks split the classes of equal label, and are them if ``exact``."""
    assert all(len(set(labels[list(block)].tolist())) == 1 for block in blocks)
    assert blocks == _classes(labels) or not exact


@pytest.mark.parametrize("d", [2, 3, 4, 5])
def test_report_blocks_are_the_sign_charge_classes(d, monkeypatch):
    # the blocks read from the exact zeros lie inside the charge sectors:
    # the Gram blocks inside classes of equal error charge, the Choi blocks
    # inside classes of equal c_k ^ (1<<a); under bond:all they are the
    # sectors, while a single bond can vanish exactly inside one (all four
    # bond:1 errors at d = 2 are mutually orthogonal)
    found = _spied_blocks(monkeypatch)
    for n in range(1, 7):
        code = vc.build(d, n)
        for bonds in ([n], list(range(1, n + 1)), [1]):
            found.clear()
            report = qc.kl_report_from_compressions(vc.bond_error_compressions(code, bonds))
            qc.epsilon_from_report(report)
            errors, logical = oracles.bond_error_charges(code, bonds)
            exact = len(bonds) == n > 1
            gram = _partition(found[0])
            _check_blocks(gram, errors, exact and d > 2)
            if exact and d == 2:
                # at d = 2 some same-bond blocks t^a t^b (a != b) have an
                # exactly zero trace, and each cross-bond block copies the
                # same-bond block at its upper bond, zeros included, so the
                # Gram blocks at N = 2 and 4 are finer than the classes
                sizes = {2: [2, 2, 3], 3: [4, 6], 4: [4, 4, 5], 5: [6, 10], 6: [7, 12]}
                assert sorted(map(len, gram)) == sizes[n]
            # each mode carries the charge of the errors it mixes
            modes = np.array([errors[np.flatnonzero(row)[0]] for row in report.rotation])
            assert not np.any(report.rotation, where=modes[:, None] != errors)
            _check_blocks(_partition(found[1]), (modes[:, None] ^ logical).ravel(), exact)


def test_sector_report_is_exactly_block_sparse():
    code = vc.build(3, 4)
    report = qc.kl_report_from_compressions(vc.bond_error_compressions(code, [1, 2, 3, 4]))
    k, d_l = report.error_count, report.logical_dim
    blocks = _partition(qc._blocks(*np.nonzero(report.gram), k))
    # every mode mixes the errors of one Gram block; blocks of sizes 1 + 2N and 2N
    assert all(any(set(np.flatnonzero(row)) <= b for b in blocks) for row in report.rotation)
    assert sorted(map(len, blocks)) == [8, 8, 8, 9]
    choi = report.residuals.transpose(0, 3, 1, 2).reshape(k * d_l, k * d_l)
    assert len(_partition(qc._blocks(*np.nonzero(choi), k * d_l))) == 4  # 3 + C(3, 3) Choi blocks
    assert np.array_equal(np.sort(report.eigenvalues)[::-1], report.eigenvalues)
    # the block epsilon against the SVD trace norm of the whole Choi matrix
    want = 0.5 * np.linalg.svd(choi / d_l, compute_uv=False).sum()
    assert abs(qc.epsilon_from_report(report) - want) <= 1e-12 * want


def test_blocks_of_a_full_and_of_a_diagonal_pattern():
    n = 7
    rows, cols = np.nonzero(np.ones((n, n)))
    [one] = qc._blocks(rows, cols, n)
    assert one.tolist() == [list(range(n))]
    [single] = qc._blocks(np.arange(n), np.arange(n), n)
    assert single.tolist() == [[i] for i in range(n)]
    # no edges at all: n blocks as well
    [single] = qc._blocks(np.arange(0), np.arange(0), n)
    assert single.tolist() == [[i] for i in range(n)]


def test_epsilon_peaks_below_the_residuals():
    report = qc.kl_report_from_compressions(vc.bond_error_compressions(vc.build(4, 6), range(1, 7)))
    tracemalloc.start()
    try:
        qc.epsilon_from_report(report)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert peak < report.residuals.nbytes, (peak, report.residuals.nbytes)


@pytest.mark.parametrize("strength", [0.1, 0.27])
@pytest.mark.parametrize(
    "d, n, bonds",
    [(2, 4, "bond"), (2, 8, "all"), (3, 3, "all"), (3, 5, "bond"), (2, 6, [2]), (4, 3, "all")],
)
def test_sector_transfer_route_matches_the_dense_route(d, n, bonds, strength):
    # two independent routes: transfer contractions, and the dense stacks
    bonds = [n] if bonds == "bond" else list(range(1, n + 1)) if bonds == "all" else bonds
    code = vc.build(d, n)
    dense = qc.kl_decompose(vc.dense_isometry(code), vc.bond_error_stacks(code, bonds, strength))
    sector = qc.kl_report_from_compressions(vc.bond_error_compressions(code, bonds, strength))
    gaps = _report_gaps(sector, dense)
    assert max(gaps[:2] + gaps[3:]) <= 1e-11, gaps
