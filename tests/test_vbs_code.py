import tracemalloc
from dataclasses import replace

import numpy as np
import pytest

import oracles
from qx import qec_core as qc
from qx import vbs_code as vc
from qx.quantum_ops import trace_distance
from qx.su_algebra import random_special_unitary
from qx.vbs_code import ContractionError


def test_build_d2_is_scaled_pauli_family():
    code = vc.build(2, 3)
    paulis = [
        np.array([[0, 1], [1, 0]], dtype=complex),
        np.array([[0, -1j], [1j, 0]], dtype=complex),
        np.diag([1.0, -1.0]).astype(complex),
    ]
    for got, want in zip(code.kraus, paulis):
        assert np.abs(got - want / np.sqrt(3)).max() < 1e-14
    assert abs(code.chi + 1 / 3) < 1e-15


def test_build_d3_parameters():
    code = vc.build(3, 2)
    assert code.chi == -1.0 / 8.0
    assert code.kraus.shape == (8, 3, 3)


@pytest.mark.parametrize("d", [2, 3, 4, 5])
def test_code_holds_its_transfer_superoperator(d):
    code = vc.build(d, 2)
    assert np.array_equal(code.transfer, oracles.transfer_superoperator(code.kraus))


def test_build_invalid_parameters():
    with pytest.raises(ValueError):
        vc.build(1, 3)
    with pytest.raises(ValueError):
        vc.build(2, 0)


@pytest.mark.parametrize("d,n", [(2, 3), (3, 2)])
def test_encode_dense_matches_explicit_loop(d, n):
    code = vc.build(d, n)
    ins = [(1, code.basis.generators[0])]
    for alpha in range(d):
        got = vc.encode_dense(code, alpha, insertions=ins)
        want = oracles.explicit_state(code, alpha, insertions=ins)
        assert np.abs(got - want).max() < 1e-13


def _stacked_cases(code):
    """Insertion lists of (q, 1, d, d) stacks: bond 0, an interior bond, the
    edge bond N, two stacks composed at one bond, and stacks at two bonds."""
    g = code.basis.generators[:, None]
    rng = np.random.default_rng(7)
    x = rng.normal(size=g.shape) + 1j * rng.normal(size=g.shape)
    n = code.n_sites
    return [[(0, g)], [(1, g)], [(n, g)], [(1, g), (1, x)], [(0, x), (n, g)]]


@pytest.mark.parametrize("d,n", [(2, 3), (3, 2)])
def test_encode_dense_stacks_match_single_inputs(d, n):
    code = vc.build(d, n)
    for ins in _stacked_cases(code):
        got = vc.encode_dense(code, np.eye(d), ins)
        assert got.shape == (code.site_dim, d, code.dense_size)
        for a in range(code.site_dim):
            single = [(bond, op[a, 0]) for bond, op in ins]
            for alpha in range(d):
                want = vc.encode_dense(code, alpha, insertions=single)
                assert np.array_equal(got[a, alpha], want)
                explicit = oracles.explicit_state(code, alpha, insertions=single)
                assert np.abs(got[a, alpha] - explicit).max() < 1e-13
    vectors = np.random.default_rng(8).normal(size=(4, d)) + 0j
    got = vc.encode_dense(code, vectors)
    for row, vec in zip(got, vectors):
        assert np.array_equal(row, vc.encode_dense(code, vec))


def test_encode_dense_batch_budget(monkeypatch):
    code = vc.build(2, 3)  # d_Q = 54; (q, d) = (3, 2) batch of 324 amplitudes
    ins = [(2, code.basis.generators[:, None])]
    monkeypatch.setattr(vc, "DENSE_STACK_CAP", 324)
    assert vc.encode_dense(code, np.eye(2), ins).shape == (3, 2, 54)
    monkeypatch.setattr(vc, "DENSE_STACK_CAP", 323)
    with pytest.raises(ValueError, match="budget"):
        vc.encode_dense(code, np.eye(2), ins)
    assert vc.encode_dense(code, 1, [(2, code.basis.generators)]).shape == (3, 54)
    # a 38 MB batch is refused before anything near its size is allocated
    code = vc.build(3, 5)
    ins = [(5, code.basis.generators[:, None])]
    monkeypatch.setattr(vc, "DENSE_STACK_CAP", 1_000_000)
    tracemalloc.start()
    try:
        with pytest.raises(ValueError, match="budget"):
            vc.encode_dense(code, np.eye(3), ins)
        _, peak = tracemalloc.get_traced_memory()
    finally:
        tracemalloc.stop()
    assert peak < 100_000


def test_encode_dense_single_site_amplitudes():
    code = vc.build(2, 1)
    psi = vc.encode_dense(code, 0)
    for i in range(3):
        for beta in range(2):
            assert abs(psi[i * 2 + beta] - code.kraus[i][beta, 0]) < 1e-15


def test_encode_dense_isometry_telescope():
    code = vc.build(2, 4)
    states = [vc.encode_dense(code, alpha) for alpha in range(2)]
    gram = np.array([[np.vdot(a, b) for b in states] for a in states])
    assert np.abs(gram - np.eye(2)).max() < 1e-12


def test_encode_dense_cap():
    code = vc.build(2, 14)
    with pytest.raises(ValueError):
        vc.encode_dense(code, 0)


def test_dense_isometry_shapes_and_projector():
    iso = vc.dense_isometry(vc.build(2, 3))
    assert iso.isometry.shape == (54, 2)
    p = iso.projector()
    assert np.abs(p @ p - p).max() < 1e-12
    assert vc.dense_isometry(vc.build(2, 1)).isometry.shape == (6, 2)


def test_edge_state_values():
    # traceless parts: |0><0| - I/2, then chi times it, chi = -1/3
    code = vc.build(2, 3)
    iterated, closed = vc.edge_state(code, 0)
    it0, it1, cl1 = iterated[0], iterated[1], closed[1]
    assert np.abs(it0 - np.diag([0.5, -0.5])).max() < 1e-14
    assert np.abs(it1 - np.diag([-1 / 6, 1 / 6])).max() < 1e-15
    assert np.abs(cl1 - it1).max() < 1e-15


@pytest.mark.parametrize("d", [2, 3, 4, 5])
def test_edge_state_column_is_the_stepwise_oracle(d):
    # every entry of the one chain, bit for bit, against its own n steps
    for n_sites in range(1, 13):
        code = vc.build(d, n_sites)
        for alpha in (0, d - 1):
            iterated, closed = vc.edge_state(code, alpha)
            assert iterated.shape == closed.shape == (n_sites + 1, d, d)
            for n in range(n_sites + 1):
                want = oracles.stepwise_edge_state(code, alpha, n)
                assert iterated[n].tobytes() == want[0].tobytes(), (n_sites, alpha, n)
                assert closed[n].tobytes() == want[1].tobytes(), (n_sites, alpha, n)


def test_edge_state_rejects_a_bad_basis_index(monkeypatch):
    code = vc.build(3, 4)

    def refuse(*args, **kwargs):
        raise AssertionError("stepped with a bad basis index")

    monkeypatch.setattr(vc, "transfer_apply", refuse)
    for alpha in (-1, 3, 7):
        with pytest.raises(ValueError, match=r"basis index -?\d+ outside 0\.\.2"):
            vc.edge_state(code, alpha)


def _edge_law(d, n):
    """Trace distance of the edge state from I/d: (d - 1)/d |chi|^N."""
    return (d - 1) / d * (1.0 / (d * d - 1)) ** n


def test_edge_state_converges_to_maximally_mixed():
    code = vc.build(2, 12)
    prev = None
    column, _ = vc.edge_state(code, 0)
    for n in (4, 8, 12):
        it = column[n]
        dist = trace_distance(it, np.zeros_like(it))
        assert abs(dist - _edge_law(2, n)) < 1e-12 * _edge_law(2, n)
        if prev is not None:
            assert dist < prev
        prev = dist


@pytest.mark.parametrize("d", range(2, 9))
def test_edge_column_follows_its_law_to_relative_precision(d):
    # the qx sweep column, by the CLI's formula, at every N <= 64; the law is
    # a normal float throughout (smallest: 7/8 * 63^-64, about 1e-115)
    code = vc.build(d, 64)
    column = vc.edge_state(code, 0)
    for n in range(65):
        deviation, closed = column[0][n], column[1][n]
        law = _edge_law(d, n)
        assert law >= np.finfo(float).tiny
        assert abs(trace_distance(deviation, np.zeros_like(deviation)) - law) <= 1e-12 * law
        assert abs(trace_distance(closed, np.zeros_like(closed)) - law) <= 1e-12 * law


@pytest.mark.parametrize("d, n", [(2, 1000), (3, 400)])
def test_edge_state_where_chi_to_the_n_underflows(d, n):
    # the relative check has a floor at the smallest normal float, so a
    # state that underflows passes it; below that range no digit is claimed
    deviation = vc.edge_state(vc.build(d, n), 0)[0][n]
    assert trace_distance(deviation, np.zeros_like(deviation)) < 1e-300


def test_bulk_state_properties():
    code = vc.build(2, 8)
    for n in (1, 4):
        rho = oracles.bulk_state(code, 0, n)
        assert abs(np.trace(rho) - 1.0) < 1e-12
        assert np.linalg.eigvalsh((rho + rho.conj().T) / 2).min() > -1e-12
    far = oracles.bulk_state(code, 0, 8)
    assert np.abs(far - np.eye(3) / 3).max() < 2 * abs(code.chi) ** 7


def test_bulk_state_matches_dense_partial_trace():
    from oracles import partial_trace

    code = vc.build(2, 3)
    psi = vc.encode_dense(code, 0)
    rho_full = np.outer(psi, psi.conj())
    site1 = partial_trace(rho_full, code.site_dims, keep=[0])
    assert np.abs(site1 - oracles.bulk_state(code, 0, 1)).max() < 1e-12


def test_detection_overlap_values():
    code = vc.build(2, 3)
    t3 = code.basis.generators[2]

    def detection(bond):
        return vc.edge_overlap(code, ket_insertions=[(bond, t3)])

    assert abs(detection(0)[0, 1] - t3[0, 1]) < 1e-14
    assert abs(detection(1)[0, 0] - (-1 / 6)) < 1e-13
    assert abs(detection(3)[0, 0] - code.chi**3 * t3[0, 0]) < 1e-13


@pytest.mark.parametrize("d,n_sites", [(2, 6), (3, 3)])
def test_detection_matches_dense_oracle(d, n_sites):
    code = vc.build(d, n_sites)
    for a in range(code.site_dim):
        for bond in range(n_sites + 1):
            ins = [(bond, code.basis.generators[a])]
            got = vc.edge_overlap(code, ket_insertions=ins)
            for alpha in range(d):
                for beta in range(d):
                    want = oracles.dense_overlap(code, alpha, beta, ket_insertions=ins)
                    assert abs(got[alpha, beta] - want) < 1e-12


def _correlation(code, a, b, m, n):
    g = code.basis.generators
    return vc.edge_overlap(code, ket_insertions=[(n, g[b]), (m, g[a])])


def test_correlation_su2_closed_form():
    code = vc.build(2, 5)
    for m, n in [(0, 2), (1, 4)]:
        for a in range(3):
            got = _correlation(code, a, a, m, n)[0, 0]
            assert abs(got - code.chi ** (n - m) / 4.0) < 1e-13
    off = _correlation(code, 1, 1, 1, 3)[0, 1]
    assert abs(off) < 1e-13


def test_correlation_d3_value():
    code = vc.build(3, 3)
    assert abs(_correlation(code, 0, 0, 1, 2)[0, 0] - (-5 / 256)) < 1e-13


@pytest.mark.parametrize("d,n_sites", [(2, 5), (3, 3)])
def test_correlation_matches_dense_oracle(d, n_sites):
    code = vc.build(d, n_sites)
    g = code.basis.generators
    rng = np.random.default_rng(0)
    pairs = [(m, n) for m in range(n_sites) for n in range(m + 1, n_sites + 1)]
    for m, n in pairs:
        for _ in range(3):
            a, b = rng.integers(0, code.site_dim, size=2)
            got = _correlation(code, a, b, m, n)[0, 1]
            want = oracles.dense_overlap(
                code, 0, 1, ket_insertions=[(n, g[b]), (m, g[a])]
            )
            assert abs(got - want) < 1e-12
            closed = vc.correlation_closed_form(code, m, n)[b, a][0, 1]
            assert abs(got - closed) < 1e-12


def test_site_expectation_value():
    code = vc.build(2, 3)
    t3 = code.basis.generators[2]
    assert abs(oracles.site_expectation(code, 2, 1)[0, 0] - 2 / 3) < 1e-13
    # telescope: site term equals the difference of adjacent bond insertions
    for site in (1, 2, 3):
        got = oracles.site_expectation(code, 2, site)
        want = vc.edge_overlap(code, ket_insertions=[(site - 1, t3)]) - vc.edge_overlap(
            code, ket_insertions=[(site, t3)]
        )
        assert np.abs(got - want).max() < 1e-14


@pytest.mark.parametrize("d,n_sites", [(2, 4), (3, 3)])
def test_site_operators_match_dense_oracle(d, n_sites):
    code = vc.build(d, n_sites)
    g = code.basis.generators
    rng = np.random.default_rng(1)
    for _ in range(4):
        a, b = (int(x) for x in rng.integers(0, code.site_dim, size=2))
        m, n = sorted(rng.choice(range(1, n_sites + 1), size=2, replace=False))
        single, with_edge, pair = (
            v[0, 1] for v in vc.site_operator_overlaps(code, a, b, m, n)
        )
        t_site_a = oracles.adjoint_site_matrix(code, a)
        t_site_b = oracles.adjoint_site_matrix(code, b)
        want_single = oracles.dense_site_overlap(code, 0, 1, [(n, t_site_a)])
        assert abs(single - want_single) < 1e-12
        want_edge = oracles.dense_site_overlap(
            code, 0, 1, [(n, t_site_a), (n_sites + 1, g[b])]
        )
        assert abs(with_edge - want_edge) < 1e-12
        want_pair = oracles.dense_site_overlap(
            code, 0, 1, [(m, t_site_a), (n, t_site_b)]
        )
        assert abs(pair - want_pair) < 1e-12


def test_site_operator_two_point_vanishes_off_diagonal():
    code = vc.build(2, 4)
    _, with_edge, pair = vc.site_operator_overlaps(code, 1, 1, 1, 3)
    assert abs(with_edge[0, 1]) < 1e-13
    assert abs(pair[0, 1]) < 1e-13


@pytest.mark.parametrize("d,n_sites", [(2, 4), (3, 3)])
def test_site_helpers_stack_like_the_closed_forms(d, n_sites):
    code = vc.build(d, n_sites)
    q = code.site_dim
    idx = np.arange(q)
    a, b = idx[:, None], idx[None, :]
    m, n = 1, n_sites
    singles = oracles.site_expectation(code, idx, n)
    stacked = vc.site_operator_overlaps(code, a, b, m, n)
    closed = vc.site_overlap_closed_forms(code, a, b, m, n)
    residuals = vc.sum_rule_check(code, idx)
    assert singles.shape == residuals.shape == (q, d, d)
    assert [v.shape for v in stacked] == [(q, 1, d, d), (q, q, d, d), (q, q, d, d)]
    assert [v.shape for v in closed] == [(q, 1, d, d), (q, q, d, d), (q, q, d, d)]
    # numpy sends a one-matrix transfer step to gemv and a stack to gemm, so
    # the transfer values agree with their integer-index calls to rounding
    for i in range(q):
        assert np.abs(singles[i] - oracles.site_expectation(code, i, n)).max() < 1e-15
        assert np.abs(residuals[i] - vc.sum_rule_check(code, i)).max() < 1e-15
        for j in range(q):
            values = vc.site_operator_overlaps(code, i, j, m, n)
            forms = vc.site_overlap_closed_forms(code, i, j, m, n)
            entries = [(i, 0), (i, j), (i, j)]
            for got, one, form, many, at in zip(stacked, values, forms, closed, entries):
                assert np.abs(got[at] - one).max() < 1e-15
                assert np.array_equal(many[at], form)
    assert residuals.max() < 1e-12
    g = code.basis.generators
    for i, j in [(0, 0), (q - 1, 0), (1, 1), (0, q - 1)]:
        t_site_i = oracles.adjoint_site_matrix(code, i)
        t_site_j = oracles.adjoint_site_matrix(code, j)
        for alpha in range(d):
            for beta in range(d):
                want = oracles.dense_site_overlap(code, alpha, beta, [(n, t_site_i)])
                assert abs(singles[i, alpha, beta] - want) < 1e-12
                want = oracles.dense_site_overlap(
                    code, alpha, beta, [(n, t_site_i), (n_sites + 1, g[j])]
                )
                assert abs(stacked[1][i, j, alpha, beta] - want) < 1e-12
                want = oracles.dense_site_overlap(
                    code, alpha, beta, [(m, t_site_i), (n, t_site_j)]
                )
                assert abs(stacked[2][i, j, alpha, beta] - want) < 1e-12


def test_sum_rule():
    assert vc.sum_rule_check(vc.build(2, 10), 2).max() < 1e-12
    assert vc.sum_rule_check(vc.build(3, 5), 4).max() < 1e-12
    code1 = vc.build(2, 1)
    t = code1.basis.generators[0]
    edge = vc.edge_overlap(code1, ket_insertions=[(1, t)])
    bulk = vc.edge_overlap(code1, ket_insertions=[(0, t)]) - edge
    assert np.abs(edge + bulk - t).max() < 1e-14


def test_eta_values_and_bound():
    assert vc.eta(2, 1) == pytest.approx(-1 / 3, abs=1e-15)
    assert vc.eta(3, 1) == pytest.approx(-1 / 8, abs=1e-15)
    assert vc.eta(2, 4) == pytest.approx(-5 / 81, abs=1e-15)
    for d in range(2, 9):
        chi = 1.0 / (d * d - 1)
        for n in (1, 3, 10, 33):
            assert abs(vc.eta(d, n)) <= chi / (n * (1 - chi)) + 1e-15


def test_effective_noise_channel():
    code = vc.build(2, 3)
    mixture, unitary, disc = oracles.effective_noise_channel(code, np.zeros(3))
    assert disc < 1e-14
    assert np.abs(unitary - np.eye(2)).max() < 1e-14
    eps = np.array([0.0, 0.0, 1.0])
    _, _, d3 = oracles.effective_noise_channel(vc.build(2, 3), eps)
    _, _, d6 = oracles.effective_noise_channel(vc.build(2, 6), eps)
    assert d6 < d3
    eps2 = np.zeros(3)
    eps2[2] = 1.0
    eps8 = np.zeros(8)
    eps8[2] = 1.0
    _, _, dd2 = oracles.effective_noise_channel(vc.build(2, 4), eps2)
    _, _, dd3 = oracles.effective_noise_channel(vc.build(3, 4), eps8)
    assert dd3 < dd2


def test_effective_noise_channel_validation():
    code = vc.build(2, 3)
    with pytest.raises(ValueError):
        oracles.effective_noise_channel(code, np.zeros(4))
    with pytest.raises(ValueError):
        oracles.effective_noise_channel(code, np.zeros(3), bonds=[])


@pytest.mark.parametrize("d", [2, 3])
def test_compressed_transversal_gate_general_factors(d):
    rng = np.random.default_rng(d)
    q = d * d - 1
    for n_sites in range(1, 7):
        code = vc.build(d, n_sites)
        w = rng.normal(size=(q, q)) + 1j * rng.normal(size=(q, q))
        edge = rng.normal(size=(d, d)) + 1j * rng.normal(size=(d, d))
        got = vc.compressed_transversal_gate(code, w, edge)
        want = oracles.transversal_gate_by_sites(code, w, edge)
        assert np.abs(got - want).max() <= 1e-12 * np.abs(want).max()


def test_covariant_gate_identity():
    code = vc.build(2, 4)
    res = vc.covariant_gate(code, np.eye(2))
    assert res.covariance_residual < 1e-14
    assert np.abs(res.logical_gate - np.eye(2)).max() < 1e-12


def test_covariant_gate_large_chain():
    code = vc.build(2, 12)
    rng = np.random.default_rng(21)
    for _ in range(3):
        g = random_special_unitary(code.basis, rng)
        res = vc.covariant_gate(code, g)
        assert res.covariance_residual < 1e-10
        from qx.quasi_universality import unitary_distance

        assert unitary_distance(res.logical_gate, g) < 1e-10


def test_covariant_gate_dense_state_equality():
    code = vc.build(3, 3)
    rng = np.random.default_rng(8)
    g = random_special_unitary(code.basis, rng)
    res = vc.covariant_gate(code, g)
    for alpha in range(3):
        rotated = vc.encode_dense(code, g[:, alpha])
        moved = vc.encode_dense(code, alpha)
        for site in range(1, 4):
            moved = oracles.apply_site_operator(
                moved, code.site_dims, site - 1, res.site_factor
            )
        moved = oracles.apply_site_operator(moved, code.site_dims, 3, g)
        assert np.abs(rotated - moved).max() < 1e-10


def test_covariant_gate_rejects_nonunitary():
    with pytest.raises(ValueError):
        vc.covariant_gate(vc.build(2, 3), np.array([[1.0, 0.2], [0.0, 1.0]]))


def test_erasure_bound():
    # 1/(2N) against q eigensolves of q x q, which read widths such as
    # 2.0000000000000004 at d = 3; both print the same 12 digits
    for d in range(2, 9):
        code = vc.build(d, 1)
        want = oracles.erasure_bound_eigensolve(code)
        assert abs(vc.erasure_bound(code) - want) <= 1e-15 * want
        for n in range(1, 41):
            code = replace(code, n_sites=n)
            got = qc._fmt_float(vc.erasure_bound(code))
            assert got == qc._fmt_float(oracles.erasure_bound_eigensolve(code))


@pytest.mark.parametrize("d,n_sites", [(2, 4), (3, 3)])
def test_bond_error_compressions_match_dense_stacks(d, n_sites):
    code = vc.build(d, n_sites)
    bonds = list(range(1, n_sites + 1))
    stacks = vc.bond_error_stacks(code, bonds, strength=0.2)
    iso = vc.dense_isometry(code)
    dense = qc.error_compressions(iso, stacks)
    transfer = vc.bond_error_compressions(code, bonds, strength=0.2)
    assert np.abs(dense - transfer).max() < 1e-12
    # the Fortran-ordered views, C-ordered copies of them and their stack
    # are one family format and give the same M bit for bit
    assert all(s.flags.f_contiguous and not s.flags.c_contiguous for s in stacks)
    copies = [np.ascontiguousarray(s) for s in stacks]
    for family in (copies, np.stack(copies)):
        assert np.array_equal(qc.error_compressions(iso, family), dense)


def test_dense_and_transfer_reports_agree_to_relative_precision():
    # at N = 10 the first-order distance is about 4e-10; both routes must
    # agree relative to the size of each number, not to one absolute scale
    code = vc.build(2, 10)
    dense = qc.kl_decompose(vc.dense_isometry(code), vc.bond_error_stacks(code))
    transfer = qc.kl_report_from_compressions(vc.bond_error_compressions(code))
    rel = np.abs(dense.eigenvalues - transfer.eigenvalues) / np.abs(transfer.eigenvalues)
    assert rel.max() < 1e-13
    gap = abs(dense.first_order_distance - transfer.first_order_distance)
    assert gap < 1e-13 * transfer.first_order_distance


def test_bond_error_family_is_trace_preserving_on_code():
    code = vc.build(2, 5)
    stacks = vc.bond_error_stacks(code, strength=0.1)
    total = sum(w.conj().T @ w for w in stacks)
    assert np.abs(total - np.eye(2)).max() < 1e-12


def test_edge_overlap_rejects_bad_insertions():
    code = vc.build(2, 3)
    with pytest.raises(ValueError):
        vc.edge_overlap(code, ket_insertions=[(4, np.eye(2))])
    with pytest.raises(ValueError):
        vc.edge_overlap(code, ket_insertions=[(1, np.eye(3))])


def test_transfer_self_consistency():
    code = vc.build(3, 2)
    x = np.diag([1.0, -0.5, -0.5]).astype(complex)
    one = vc.transfer_apply(code, x)
    direct = sum(k @ x @ k.conj().T for k in code.kraus)
    assert np.abs(one - direct).max() < 1e-14
    assert np.abs(oracles.transfer_power(code, x, 3) - vc.transfer_apply(
        code, vc.transfer_apply(code, one)
    )).max() < 1e-14
    rng = np.random.default_rng(5)
    for d in (2, 3, 4):
        code = vc.build(d, 2)
        stack = rng.normal(size=(2, 3, d, d)) + 1j * rng.normal(size=(2, 3, d, d))
        got = vc.transfer_apply(code, stack)
        assert got.shape == stack.shape
        for idx in np.ndindex(2, 3):
            want = sum(k @ stack[idx] @ k.conj().T for k in code.kraus)
            assert np.abs(got[idx] - want).max() < 1e-14


def test_edge_overlap_stacks_match_scalar_calls():
    code = vc.build(3, 4)
    g = code.basis.generators
    q = code.site_dim
    rng = np.random.default_rng(6)
    x = rng.normal(size=(q, 3, 3)) + 1j * rng.normal(size=(q, 3, 3))
    ket = vc.edge_overlap(code, ket_insertions=[(2, g)])
    bra = vc.edge_overlap(code, bra_insertions=[(3, x)])
    for a in range(q):
        assert np.abs(ket[a] - vc.edge_overlap(code, ket_insertions=[(2, g[a])])).max() < 1e-14
        assert np.abs(bra[a] - vc.edge_overlap(code, bra_insertions=[(3, x[a])])).max() < 1e-14
    for m, n in ((1, 3), (2, 2)):
        got = vc.edge_overlap(code, ket_insertions=[(n, g[None, :]), (m, x[:, None])])
        mixed = vc.edge_overlap(code, [(m, x[:, None])], [(n, g[None, :])])
        assert got.shape == mixed.shape == (q, q, 3, 3)
        for a in range(q):
            for b in range(q):
                want = vc.edge_overlap(code, ket_insertions=[(n, g[b]), (m, x[a])])
                assert np.abs(got[a, b] - want).max() < 1e-14
                want = vc.edge_overlap(code, [(m, x[a])], [(n, g[b])])
                assert np.abs(mixed[a, b] - want).max() < 1e-14


@pytest.mark.parametrize("d", [2, 3, 4, 5])
def test_insertion_overlaps_are_edge_overlaps(d):
    # batches of pairs split below N - m pairs at d = 4 (two per batch) and
    # d = 5 (one), not at d = 2 or 3
    split = False
    for n_sites in range(1, 7):
        code = vc.build(d, n_sites)
        g = code.basis.generators
        seen = []
        for m, bonds, overlaps in vc.insertion_overlaps(code):
            assert len(overlaps) == len(bonds)
            split |= m is not None and len(bonds) < n_sites - m
            for n, got in zip(bonds, overlaps):
                ins = [(n, g)] if m is None else [(n, g[:, None]), (m, g[None, :])]
                assert np.array_equal(got, vc.edge_overlap(code, ket_insertions=ins))
                seen.append((m, int(n)))
        pairs = [(m, n) for m in range(n_sites) for n in range(m + 1, n_sites + 1)]
        singles = [(None, n) for n in range(n_sites + 1)]
        assert len(seen) == len(pairs + singles) and set(seen) == set(pairs + singles)
    assert split == (d >= 4)


def test_closed_forms_of_a_bond_array_are_the_per_bond_stacks():
    code = vc.build(3, 5)
    q, bonds = code.site_dim, np.arange(code.n_sites + 1)
    det = vc.detection_closed_form(code, bonds)
    assert det.shape == (len(bonds), q, 3, 3)
    for n, got in zip(bonds, det):
        assert np.array_equal(got, vc.detection_closed_form(code, int(n)))
    for m in range(code.n_sites):
        corr = vc.correlation_closed_form(code, m, bonds[m + 1 :])
        assert corr.shape == (code.n_sites - m, q, q, 3, 3)
        for n, got in zip(bonds[m + 1 :], corr):
            assert np.array_equal(got, vc.correlation_closed_form(code, m, int(n)))


@pytest.mark.parametrize("d, n_sites", [(3, 5), (4, 4)])
def test_correlation_closed_form_matches_the_per_call_product(d, n_sites):
    # the form reads h_bac t^c / 2 from the basis; the oracle forms it per call
    code = vc.build(d, n_sites)
    for m in range(n_sites):
        for n in (np.arange(m + 1, n_sites + 1), n_sites):
            got = vc.correlation_closed_form(code, m, n)
            want = oracles.tensordot_correlation_closed_form(code, m, n)
            assert got.shape == want.shape
            assert np.abs(got - want).max() <= 1e-15


def test_site_overlap_internal_check_raises_on_tampering():
    code = vc.build(2, 3)
    with pytest.raises(ContractionError):
        broken = vc.VbsCode(
            d=code.d,
            n_sites=code.n_sites,
            basis=code.basis,
            kraus=code.kraus * 1.0000001,
            chi=code.chi,
        )
        vc.site_operator_overlaps(broken, 0, 0, 1, 2)


def _sector_mask(code, bonds):
    """True on the entries of M[i, j, a, b] whose sign charges differ."""
    errors, logical = oracles.bond_error_charges(code, bonds)
    labels = errors[:, None] ^ logical
    return labels[:, None, :, None] != labels[None, :, None, :]


@pytest.mark.parametrize("d", [2, 3, 4, 5])
def test_bond_compressions_vanish_exactly_across_sign_sectors(d):
    for n in (1, 2, 3, 5, 8):
        for bonds in ([n], list(range(1, n + 1)), [n // 2], list(range(n + 1))):
            code = vc.build(d, n)
            m = vc.bond_error_compressions(code, bonds)
            mask = _sector_mask(code, bonds)
            assert mask.any() and not np.any(m, where=mask), (d, n, bonds)


def test_bond_error_charges_follow_the_generator_support():
    code = vc.build(4, 3)
    errors, logical = oracles.bond_error_charges(code, [1, 3])
    assert errors.shape == (1 + 2 * 15,) and errors[0] == 0
    for a, g in enumerate(code.basis.generators):
        j, k = np.nonzero(g)
        # S t S = s_j s_k t for every nonzero entry (j, k) and sign matrix S
        assert set((1 << j) ^ (1 << k)) == {errors[1 + a]} == {errors[16 + a]}
    assert np.array_equal(logical, [1, 2, 4, 8])
    # 1 + d(d-1)/2 Gram sectors
    assert len(set(errors.tolist())) == 1 + 4 * 3 // 2


def _oracle_bond_lists(n):
    return [
        [n], [n // 2], list(range(1, n + 1)), list(range(n + 1)),
        sorted({0, n}), sorted({0, 1, n // 2, n}),
    ]


@pytest.mark.parametrize("d", [2, 3, 4, 5])
def test_bond_error_compressions_match_pairwise_oracle(d):
    for n in (1, 2, 3, 5, 8):
        code = vc.build(d, n)
        for bonds in _oracle_bond_lists(n):
            got = vc.bond_error_compressions(code, bonds, strength=0.2)
            want = oracles.pairwise_bond_error_compressions(code, bonds, strength=0.2)
            assert got.shape == want.shape
            if len(set(bonds)) == 1:
                assert np.array_equal(got, want), (d, n, bonds)
            else:
                assert np.abs(got - want).max() <= 1e-15, (d, n, bonds)


@pytest.mark.parametrize("d", [2, 3, 4, 5])
def test_kl_report_of_bond_compressions_matches_pairwise_oracle(d):
    for n in (1, 2, 3, 5, 8):
        code = vc.build(d, n)
        for bonds in _oracle_bond_lists(n):
            for strength in (0.05, 0.1, 0.27):
                got, want = (
                    qc.kl_report_from_compressions(f(code, bonds, strength))
                    for f in (vc.bond_error_compressions, oracles.pairwise_bond_error_compressions)
                )
                assert np.abs(got.eigenvalues - want.eigenvalues).max() <= 1e-14
                for g, w in (
                    (got.first_order_distance, want.first_order_distance),
                    (qc.epsilon_from_report(got), qc.epsilon_from_report(want)),
                    (got.residual_weights.sum(), want.residual_weights.sum()),
                ):
                    assert abs(g - w) <= 1e-12 * abs(w), (d, n, bonds, strength)


def test_bond_error_compressions_make_no_pass(monkeypatch):
    names = ["edge_overlap", "insertion_overlaps", "detection_closed_form",
             "correlation_closed_form", "transfer_apply"]
    calls, none = dict.fromkeys(names, 0), dict.fromkeys(names, 0)
    for name in calls:
        def counted(*args, _name=name, _f=getattr(vc, name), **kwargs):
            calls[_name] += 1
            return _f(*args, **kwargs)
        monkeypatch.setattr(vc, name, counted)

    def count(f, code, bonds):
        calls.update(dict.fromkeys(calls, 0))
        f(code, bonds)
        return dict(calls)

    # the norm block by edge_overlap, then one downward pass: the identity
    # alone and one stack of rows and same-bond blocks, one transfer each
    # per bond crossed
    for code, bonds in ((vc.build(3, 10), range(1, 11)), (vc.build(3, 10), [4]),
                        (vc.build(2, 40), [40]), (vc.build(2, 40), [1, 40]),
                        (vc.build(2, 40), [0, 7, 40])):
        got = count(vc.bond_error_compressions, code, bonds)
        assert got == dict(none, edge_overlap=1, transfer_apply=got["transfer_apply"])
        assert got["transfer_apply"] <= 3 * code.n_sites, (code.n_sites, bonds)


@pytest.mark.parametrize("d", [2, 3, 4, 5])
def test_bond_error_compressions_are_the_per_bond_oracle(d):
    # the one downward pass against each block contracted from the edge by
    # edge_overlap, cross-bond blocks one pair at a time: equal entry for
    # entry (np.array_equal does not tell the sign of an exact zero apart)
    for n in (1, 2, 3, 5, 8):
        code = vc.build(d, n)
        for bonds in _oracle_bond_lists(n):
            got = vc.bond_error_compressions(code, bonds, strength=0.2)
            want = oracles.per_bond_bond_error_compressions(code, bonds, strength=0.2)
            assert np.array_equal(got, want), (d, n, bonds)


def test_bond_lists_take_only_integer_bonds(monkeypatch):
    code = vc.build(2, 4)
    for bonds in ([2.7], np.array([1.9, 3.2])):
        for f in (vc.bond_error_compressions, vc.bond_error_stacks):
            with pytest.raises(ValueError, match=r"bond list \[.*\] holds a bond that is not"):
                f(code, bonds)
    for f in (vc.bond_error_compressions, vc.bond_error_stacks):
        got, want = f(code, np.array([2.0, 4.0])), f(code, [2, 4])
        assert all(np.array_equal(x, y) for x, y in zip(got, want))
    # a bond list is a strictly increasing set: any other list is refused,
    # not sorted (that would reorder the errors), before anything is encoded
    # or contracted

    def refuse(*args, **kwargs):
        raise AssertionError("encoded or contracted before the bond list was checked")

    for name in ("encode_dense", "edge_overlap", "transfer_apply"):
        monkeypatch.setattr(vc, name, refuse)
    for f in (vc.bond_error_compressions, vc.bond_error_stacks):
        for bonds in ([], np.array([], dtype=int)):
            with pytest.raises(ValueError, match=r"^bond list is empty$"):
                f(code, bonds)
        for bonds in ([2, 2], [4, 2], [4, 3, 1], [1, 3, 2], [0, 4, 4]):
            with pytest.raises(ValueError, match=rf"^bond list \[{', '.join(map(str, bonds))}\] "
                                                 r"is not strictly increasing$"):
                f(code, bonds)


def test_bond_compressions_budget_refuses_before_any_contraction(monkeypatch):
    code = vc.build(3, 4)
    k = 1 + 4 * code.site_dim
    monkeypatch.setattr(vc, "DENSE_STACK_CAP", k * k * 9)
    assert vc.bond_error_compressions(code, range(1, 5)).shape == (k, k, 3, 3)

    def refuse(*args, **kwargs):
        raise AssertionError("contracted past the budget")

    monkeypatch.setattr(vc, "DENSE_STACK_CAP", k * k * 9 - 1)
    for name in ("insertion_overlaps", "transfer_apply", "edge_overlap"):
        monkeypatch.setattr(vc, name, refuse)
    with pytest.raises(ValueError, match="budget"):
        vc.bond_error_compressions(code, range(1, 5))
