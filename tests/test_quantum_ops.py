import numpy as np
import pytest

from oracles import (
    ChannelError,
    apply_channel,
    choi_fidelity,
    cptp_residuals,
    dilation_isometry,
    partial_trace,
)
from qx import qec_core as qc
from qx import vbs_code as vc
from qx.quantum_ops import (
    KrausChannel,
    choi_matrix,
    entanglement_fidelity,
    omega_matrix,
    trace_distance,
)

PAULIS = [
    np.eye(2, dtype=complex),
    np.array([[0, 1], [1, 0]], dtype=complex),
    np.array([[0, -1j], [1j, 0]], dtype=complex),
    np.diag([1.0, -1.0]).astype(complex),
]


def vbs_channel(d: int) -> KrausChannel:
    return KrausChannel(list(vc.build(d, 1).kraus))


def depolarizing2() -> KrausChannel:
    return KrausChannel([p / 2.0 for p in PAULIS])


def random_channel(dim: int, n_kraus: int, seed: int) -> KrausChannel:
    rng = np.random.default_rng(seed)
    raw = rng.normal(size=(n_kraus, dim, dim)) + 1j * rng.normal(size=(n_kraus, dim, dim))
    total = sum(k.conj().T @ k for k in raw)
    w, v = np.linalg.eigh(total)
    norm = (v * w**-0.5) @ v.conj().T
    return KrausChannel([k @ norm for k in raw])


def random_density(dim: int, seed: int) -> np.ndarray:
    rng = np.random.default_rng(seed)
    m = rng.normal(size=(dim, dim)) + 1j * rng.normal(size=(dim, dim))
    rho = m @ m.conj().T
    return rho / np.trace(rho)


def test_apply_identity_channel():
    ch = KrausChannel([np.eye(3)])
    rho = random_density(3, 0)
    assert np.abs(apply_channel(ch, rho) - rho).max() < 1e-14


def test_vbs_channel_fixed_point_and_scaling():
    ch = vbs_channel(2)
    half = np.eye(2) / 2
    assert np.abs(apply_channel(ch, half) - half).max() < 1e-14
    t3 = np.diag([0.5, -0.5]).astype(complex)
    assert np.abs(apply_channel(ch, t3) + t3 / 3).max() < 1e-14


def test_apply_channel_dimension_mismatch():
    ch = KrausChannel([np.eye(2)])
    with pytest.raises(ValueError):
        apply_channel(ch, np.eye(3))


def test_dilation_single_unitary():
    u = np.array([[0, 1], [1, 0]], dtype=complex)
    w = dilation_isometry(KrausChannel([u]))
    assert np.abs(w - u).max() == 0.0


def test_dilation_vbs():
    ch = vbs_channel(2)
    w = dilation_isometry(ch)
    assert w.shape == (6, 2)
    assert np.abs(w.conj().T @ w - np.eye(2)).max() < 1e-12


def test_dilation_stinespring_consistency():
    ch = random_channel(3, 4, seed=5)
    w = dilation_isometry(ch)
    rho = random_density(3, 6)
    big = w @ rho @ w.conj().T
    reduced = partial_trace(big, [len(ch.kraus), 3], keep=[1])
    assert np.abs(reduced - apply_channel(ch, rho)).max() < 1e-12


def test_dilation_requires_trace_preservation():
    with pytest.raises(ChannelError):
        dilation_isometry(KrausChannel([0.5 * np.eye(2)]))


def test_choi_identity_and_depolarizing():
    ident = choi_matrix(KrausChannel([np.eye(2)]))
    assert np.abs(ident - omega_matrix(2)).max() < 1e-14
    dep = choi_matrix(depolarizing2())
    assert np.abs(dep - np.eye(4) / 4).max() < 1e-14
    assert abs(np.trace(dep) - 1.0) < 1e-14


def test_choi_equals_sequential_outer_product_sum():
    for dim, n_kraus in ((2, 1), (2, 4), (3, 5), (4, 17)):
        ch = random_channel(dim, n_kraus, seed=dim + n_kraus)
        want = np.zeros((dim * dim, dim * dim), dtype=complex)
        for k in ch.kraus:
            v = k.reshape(-1)
            want += np.outer(v, v.conj())
        assert np.array_equal(choi_matrix(ch), want / dim)


def test_kraus_channel_stacks_its_input():
    ch = random_channel(3, 4, seed=1)
    assert isinstance(ch.kraus, np.ndarray) and ch.kraus.shape == (4, 3, 3)
    assert ch.kraus.dtype == complex and ch.in_dim == 3
    assert dilation_isometry(ch).shape == (12, 3)


def test_kraus_channel_rejects_what_is_not_a_nonempty_square_stack():
    ragged, flat = [np.eye(2), np.eye(3)], [np.ones(2)]
    for kraus in ([], (), ragged, flat, np.zeros((2, 2)), np.ones((2, 5, 3))):
        with pytest.raises(ValueError):
            KrausChannel(kraus)


def test_choi_reproduces_channel():
    ch = random_channel(3, 3, seed=9)
    c4 = choi_matrix(ch).reshape(3, 3, 3, 3)
    rho = random_density(3, 10)
    rebuilt = 3.0 * np.einsum("aecb,eb->ac", c4, rho)
    assert np.abs(rebuilt - apply_channel(ch, rho)).max() < 1e-10


def test_trace_distance_basics():
    rho = random_density(4, 1)
    assert trace_distance(rho, rho) == 0.0
    e0 = np.zeros((2, 2), dtype=complex)
    e0[0, 0] = 1.0
    e1 = np.zeros((2, 2), dtype=complex)
    e1[1, 1] = 1.0
    assert abs(trace_distance(e0, e1) - 1.0) < 1e-14
    assert abs(trace_distance(np.diag([0.6, 0.4]), np.diag([0.4, 0.6])) - 0.2) < 1e-14


def test_trace_distance_metric_properties():
    for seed in range(4):
        a = random_density(3, 3 * seed)
        b = random_density(3, 3 * seed + 1)
        c = random_density(3, 3 * seed + 2)
        assert abs(trace_distance(a, b) - trace_distance(b, a)) < 1e-12
        assert trace_distance(a, c) <= trace_distance(a, b) + trace_distance(b, c) + 1e-10


def test_trace_distance_shape_mismatch():
    with pytest.raises(ValueError):
        trace_distance(np.eye(2), np.eye(3))


def test_entanglement_fidelity():
    f, bures = entanglement_fidelity(KrausChannel([np.eye(2)]))
    assert abs(f - 1.0) < 1e-14 and bures < 1e-7
    f_dep, _ = entanglement_fidelity(depolarizing2())
    assert abs(f_dep - 0.25) < 1e-14
    rng = np.random.default_rng(2)
    h = rng.normal(size=(3, 3))
    h = h + h.T
    w, v = np.linalg.eigh(h)
    u = (v * np.exp(1j * w)) @ v.conj().T
    f_u, _ = entanglement_fidelity(KrausChannel([u]))
    assert abs(f_u - abs(np.trace(u)) ** 2 / 9.0) < 1e-12


def test_entanglement_fidelity_matches_the_choi_form():
    # sum_k |tr K_k|^2 / d^2 against <omega| C |omega>, on seeded channels
    # and on the recovered logical channel of vbs:3:5 bond
    channels = [
        random_channel(dim, n_kraus, seed=10 * dim + n_kraus)
        for dim in range(2, 6)
        for n_kraus in range(1, 9)
    ]
    code = vc.build(3, 5)
    m = vc.bond_error_compressions(code, None, 0.2)
    channels.append(
        qc.logical_recovery_channel(qc.kl_report_from_compressions(m), *vc.bond_noise(code, m, 0.2))
    )
    for ch in channels:
        f, bures = entanglement_fidelity(ch)
        assert abs(f - choi_fidelity(ch)) <= 1e-15 and bures == np.sqrt(1.0 - f)


def test_partial_trace_product_state():
    rho = random_density(2, 7)
    sigma = random_density(3, 8)
    joint = np.kron(rho, sigma)
    assert np.abs(partial_trace(joint, [2, 3], keep=[0]) - rho).max() < 1e-12
    assert np.abs(partial_trace(joint, [2, 3], keep=[1]) - sigma).max() < 1e-12


def test_partial_trace_entangled_pair():
    omega = omega_matrix(2)
    reduced = partial_trace(omega, [2, 2], keep=[0])
    assert np.abs(reduced - np.eye(2) / 2).max() < 1e-14


def test_partial_trace_vbs_edge_matches_closed_form():
    code = vc.build(2, 3)
    psi = vc.encode_dense(code, 0)
    rho = np.outer(psi, psi.conj())
    edge = partial_trace(rho, code.site_dims, keep=[3])
    _, closed = vc.edge_state(code, 0, 3)
    assert np.abs(edge - (closed + np.eye(2) / 2)).max() < 1e-12


def test_partial_trace_errors():
    with pytest.raises(ValueError):
        partial_trace(np.eye(4), [2, 2], keep=[2])
    with pytest.raises(ValueError):
        partial_trace(np.eye(5), [2, 2], keep=[0])


def test_cptp_residuals():
    tp, un = cptp_residuals(vbs_channel(3))
    assert tp < 1e-12 and un < 1e-12
    gamma = 0.3
    damp = KrausChannel(
        [
            np.array([[1.0, 0.0], [0.0, np.sqrt(1 - gamma)]]),
            np.array([[0.0, np.sqrt(gamma)], [0.0, 0.0]]),
        ]
    )
    tp_d, un_d = cptp_residuals(damp)
    assert tp_d < 1e-12 and un_d > 0.1


def test_trace_distance_of_a_stack_has_the_bits_of_each_matrix():
    rng = np.random.default_rng(5)
    for shape in [(1, 4), (6, 3), (2, 3, 5)]:
        a = rng.normal(size=shape + shape[-1:]) + 1j * rng.normal(size=shape + shape[-1:])
        b = rng.normal(size=a.shape) + 1j * rng.normal(size=a.shape)
        stacked = trace_distance(a, b)
        assert isinstance(stacked, np.ndarray) and stacked.shape == shape[:-1]
        for idx in np.ndindex(shape[:-1]):
            single = trace_distance(a[idx], b[idx])
            assert type(single) is float and single == stacked[idx]
    with pytest.raises(ValueError):
        trace_distance(np.zeros(3), np.zeros(3))
