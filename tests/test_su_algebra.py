import numpy as np
import pytest
import scipy.linalg

import oracles
from oracles import adjoint_generator
from qx.su_algebra import (
    _expi_batch_last,
    _u2_split,
    adjoint_group_element,
    check_unitary,
    expi_hermitian,
    gell_mann_basis,
    _product,
    invariant_residuals,
    random_special_unitary,
    structure_constants,
)

SX = np.array([[0, 1], [1, 0]], dtype=complex)
SY = np.array([[0, -1j], [1j, 0]], dtype=complex)
SZ = np.diag([1.0, -1.0]).astype(complex)


def test_d2_is_half_pauli_basis():
    basis = gell_mann_basis(2)
    assert basis.size == 3
    for got, want in zip(basis.generators, [SX, SY, SZ]):
        assert np.abs(got - want / 2).max() == 0.0


def test_d2_orthonormality_entries():
    basis = gell_mann_basis(2)
    t = basis.generators
    assert abs(np.trace(t[0] @ t[1])) < 1e-15
    assert abs(np.trace(t[0] @ t[0]) - 0.5) < 1e-15


def test_d3_standard_values():
    basis = gell_mann_basis(3)
    assert basis.size == 8
    assert abs(basis.f[0, 1, 2] - 1.0) < 1e-14
    assert abs(basis.d_sym[0, 0, 7] - 1 / np.sqrt(3)) < 1e-14
    last = basis.generators[7] * 2 * np.sqrt(3)
    assert np.abs(last - np.diag([1.0, 1.0, -2.0])).max() < 1e-14


def test_invalid_dimension():
    with pytest.raises(ValueError):
        gell_mann_basis(1)


def test_d2_structure_constants():
    basis = gell_mann_basis(2)
    eps = np.zeros((3, 3, 3))
    for i, j, k in [(0, 1, 2), (1, 2, 0), (2, 0, 1)]:
        eps[i, j, k] = 1.0
        eps[j, i, k] = -1.0
    assert np.abs(basis.f - eps).max() < 1e-14
    assert np.abs(basis.d_sym).max() < 1e-14


@pytest.mark.parametrize("d", [2, 3, 4])
def test_f_vanishes_on_repeated_indices(d):
    basis = gell_mann_basis(d)
    idx = np.arange(basis.size)
    assert np.abs(basis.f[idx, idx, :]).max() < 1e-14


@pytest.mark.parametrize("d", [2, 3, 4, 5])
def test_invariant_battery(d):
    residuals = invariant_residuals(gell_mann_basis(d))
    assert max(residuals.values()) < 1e-12


@pytest.mark.parametrize("d", [2, 3, 4, 5, 6])
def test_h_t_is_the_generator_product(d):
    # t^a t^b = delta_ab I / (2d) + (d_abc + i f_abc) t^c / 2
    basis = gell_mann_basis(d)
    t = basis.generators
    want = t[:, None] @ t[None, :]
    want -= np.eye(basis.size)[:, :, None, None] * np.eye(d) / (2 * d)
    assert basis.h_t.shape == (basis.size, basis.size, d, d)
    assert np.abs(basis.h_t - want).max() <= 1e-15
    assert basis.h_t is basis.h_t  # formed once


@pytest.mark.parametrize("d", range(2, 9))
def test_structure_constants_match_the_einsum_traces(d):
    basis = gell_mann_basis(d)
    f, d_sym = oracles.einsum_structure_constants(basis.generators)
    assert np.abs(basis.f - f).max() <= 1e-15
    assert np.abs(basis.d_sym - d_sym).max() <= 1e-15


def test_structure_constants_recompute():
    basis = gell_mann_basis(3)
    f, d_sym = structure_constants(basis.generators)
    assert np.abs(f - basis.f).max() == 0.0
    assert np.abs(d_sym - basis.d_sym).max() == 0.0


def test_adjoint_generator_d2():
    basis = gell_mann_basis(2)
    t3 = adjoint_generator(basis, 2)
    assert t3.shape == (3, 3)
    assert abs(t3[0, 1] + 1j) < 1e-14 and abs(t3[1, 0] - 1j) < 1e-14
    assert np.abs(t3 + t3.T).max() < 1e-14
    assert abs(np.trace(t3)) < 1e-14
    eigs = np.sort(np.linalg.eigvalsh(t3))
    assert np.abs(eigs - np.array([-1.0, 0.0, 1.0])).max() < 1e-12


def test_adjoint_generator_index_error():
    basis = gell_mann_basis(2)
    with pytest.raises(ValueError):
        adjoint_generator(basis, 3)


def test_adjoint_group_identity():
    basis = gell_mann_basis(3)
    r = adjoint_group_element(basis, np.eye(3))
    assert np.abs(r - np.eye(8)).max() < 1e-12


def test_adjoint_group_z_rotation():
    basis = gell_mann_basis(2)
    theta = 0.7
    u = np.diag([np.exp(-1j * theta / 2), np.exp(1j * theta / 2)])
    r = adjoint_group_element(basis, u)
    want = np.array(
        [
            [np.cos(theta), -np.sin(theta), 0.0],
            [np.sin(theta), np.cos(theta), 0.0],
            [0.0, 0.0, 1.0],
        ]
    )
    assert np.abs(r - want).max() < 1e-12


@pytest.mark.parametrize("d", [2, 3])
def test_adjoint_group_is_special_orthogonal(d):
    basis = gell_mann_basis(d)
    rng = np.random.default_rng(11)
    for _ in range(5):
        r = adjoint_group_element(basis, random_special_unitary(basis, rng))
        assert np.abs(r.T @ r - np.eye(basis.size)).max() < 1e-10
        assert abs(np.linalg.det(r) - 1.0) < 1e-10


@pytest.mark.parametrize("d", [2, 3])
def test_adjoint_group_homomorphism(d):
    basis = gell_mann_basis(d)
    rng = np.random.default_rng(7)
    for _ in range(6):
        g1 = random_special_unitary(basis, rng)
        g2 = random_special_unitary(basis, rng)
        lhs = adjoint_group_element(basis, g1 @ g2)
        rhs = adjoint_group_element(basis, g1) @ adjoint_group_element(basis, g2)
        assert np.abs(lhs - rhs).max() < 1e-10


def test_adjoint_group_rejects_nonunitary():
    basis = gell_mann_basis(2)
    with pytest.raises(ValueError):
        adjoint_group_element(basis, np.array([[1.0, 0.1], [0.0, 1.0]]))


def test_random_special_unitary_properties():
    basis = gell_mann_basis(4)
    rng = np.random.default_rng(3)
    g = random_special_unitary(basis, rng)
    assert np.abs(g.conj().T @ g - np.eye(4)).max() < 1e-12
    assert abs(np.linalg.det(g) - 1.0) < 1e-12


def test_check_unitary_tolerance_and_stacks():
    off = np.diag([1.0 + 1e-9, 1.0])
    assert check_unitary(off, 2, tol=1e-8) is not None
    with pytest.raises(ValueError, match="not unitary"):
        check_unitary(off)  # default tolerance 1e-10
    stack = np.stack([np.eye(3), np.roll(np.eye(3), 1, axis=0), np.eye(3)])
    assert check_unitary(stack, 3, ndim=3).dtype == complex
    stack[2, 0, 1] = 0.1
    with pytest.raises(ValueError, match="not unitary"):
        check_unitary(stack, 3, ndim=3)
    with pytest.raises(ValueError, match="expected dimension 2, got 3"):
        check_unitary(np.eye(3), 2)
    with pytest.raises(ValueError, match="square"):
        check_unitary(stack)  # a stack where one matrix was expected


@pytest.mark.filterwarnings("error")
@pytest.mark.parametrize("entry", [np.nan, np.inf, -np.inf])
def test_check_unitary_rejects_non_finite_entries(entry):
    # refused before the operator-norm SVD, which would warn and not converge
    u = np.eye(2, dtype=complex)
    u[0, 1] = entry
    with pytest.raises(ValueError, match="not unitary"):
        check_unitary(u)
    with pytest.raises(ValueError, match="not unitary"):
        check_unitary(np.stack([np.eye(2), u]), 2, ndim=3)


def test_expi_hermitian_stack_matches_each_matrix():
    rng = np.random.default_rng(5)
    m = rng.normal(size=(4, 3, 3)) + 1j * rng.normal(size=(4, 3, 3))
    h = m + m.conj().transpose(0, 2, 1)
    stacked = expi_hermitian(h)
    for hi, ui in zip(h, stacked):
        assert np.array_equal(ui, expi_hermitian(hi))
        assert np.abs(ui - scipy.linalg.expm(1j * hi)).max() < 1e-12


@pytest.mark.parametrize("bad", [np.nan, np.inf, -np.inf])
def test_expi_hermitian_rejects_non_finite(bad):
    h = np.zeros((3, 2, 2), dtype=complex)
    h[1, 0, 1] = h[1, 1, 0] = bad
    with pytest.raises(ValueError, match="NaN or infinite"):
        expi_hermitian(h)
    with pytest.raises(ValueError, match="NaN or infinite"):
        expi_hermitian(np.diag([0.0, 1j * bad]))


def test_expi_hermitian_of_zero_is_identity_exactly():
    for n in range(1, 6):
        u = expi_hermitian(np.zeros((3, n, n)))
        assert np.array_equal(u, np.broadcast_to(np.eye(n), u.shape))
    assert expi_hermitian(np.zeros((0, 2, 2))).shape == (0, 2, 2)
    with pytest.raises(ValueError, match="square"):
        expi_hermitian(np.zeros((2, 3)))


@pytest.mark.parametrize("d", range(2, 9))
def test_batch_last_product_bits_do_not_depend_on_the_batch(d):
    # the one matrix product of the exponential and of qx simulate: a
    # matrix gets the same bits alone, in batches of 1, 7 and 2049,
    # broadcast against a batch-1 operand, read from a strided view and
    # with an extra batch axis
    rng = np.random.default_rng(40 + d)
    re, im = rng.normal(size=(2, 2, d, d, 2049))
    a, b = re + 1j * im
    full = _product(a, b)
    # into given out and term stacks, the same bits
    assert np.array_equal(_product(a, b, out=np.empty_like(a), term=np.empty_like(a)), full)
    extra = _product(a.reshape(d, d, 3, 683), b.reshape(d, d, 3, 683))
    odd = _product(a[..., 1::2], b[..., 1::2])
    for i in (1, 7, 1001, 2047):
        alone = _product(a[..., i].copy(), b[..., i].copy())
        assert np.array_equal(_product(a[..., i:i + 1], b[..., i:i + 1])[..., 0], alone)
        start = min(max(i - 3, 0), 2049 - 7)
        seven = _product(a[..., start:start + 7], b[..., start:start + 7])
        assert np.array_equal(seven[..., i - start], alone)
        assert np.array_equal(full[..., i], alone)
        assert np.array_equal(_product(a[..., i:i + 1], b)[..., i], alone)
        assert np.array_equal(_product(a, b[..., i:i + 1])[..., i], alone)
        assert np.array_equal(odd[..., i // 2], alone)
        assert np.array_equal(extra[..., i // 683, i % 683], alone)


@pytest.mark.parametrize("n", [3, 4, 6])
def test_taylor_kernel_keeps_the_bits_of_fresh_stacks(n):
    # the products into reused scratch against a fresh stack per product,
    # byte for byte: norms up to 40, so the matrices take from 0 to 6
    # squarings and most squarings are partial, and two zero matrices
    rng = np.random.default_rng(41 + n)
    re, im = rng.normal(size=(2, 700, n, n))
    h = re + 1j * im
    h = h + h.conj().transpose(0, 2, 1)
    h *= (rng.uniform(0.0, 40.0, size=700) / np.linalg.norm(h, 2, axis=(1, 2)))[:, None, None]
    h[[3, 500]] = 0.0
    h = h.transpose(1, 2, 0).copy()
    got = _expi_batch_last(h)
    assert got.tobytes() == oracles.allocating_taylor_exponential(h).tobytes()
    assert np.array_equal(got[..., 3], np.eye(n))


def two_by_two(rng, norms):
    """Hermitian 2x2 matrices tau I + x . sigma of the given spectral norms
    |tau| + |x|, with a nonzero trace and complex off-diagonals."""
    x = rng.normal(size=(len(norms), 3))
    x *= (0.7 * np.asarray(norms) / np.linalg.norm(x, axis=1))[:, None]
    tau = 0.3 * np.asarray(norms) * rng.choice([-1.0, 1.0], size=len(norms))
    return (tau[:, None, None] * np.eye(2) + x[:, 0, None, None] * SX
            + x[:, 1, None, None] * SY + x[:, 2, None, None] * SZ)


def test_expi_hermitian_2x2_closed_form():
    rng = np.random.default_rng(29)
    norms = [0.0, 1e-300, 1e-8, 0.05, 1.0, np.pi, 50.0]
    h = np.concatenate([two_by_two(rng, norms),
                        # sqrt(delta^2 + |h01|^2) overflows here and cos(inf) is NaN
                        [[[1e200, 7e199 - 9e199j], [7e199 + 9e199j, -3e200]]]])
    norm = np.linalg.norm(h, 2, axis=(1, 2))
    np.testing.assert_allclose(norm[:len(norms)], norms, rtol=1e-14)
    u = expi_hermitian(h)
    want = oracles.expi_reference(h)
    assert (np.abs(u - want).max(axis=(1, 2)) <= 1e-14 * np.maximum(1.0, norm)).all()
    gram = u.conj().transpose(0, 2, 1) @ u - np.eye(2)
    assert np.linalg.norm(gram, 2, axis=(1, 2)).max() <= 1e-14
    assert np.array_equal(u[0], np.eye(2))
    # each matrix has the same bits alone, in stacks of 1, 7 and 2049 and
    # read from a strided view
    others = two_by_two(rng, rng.uniform(0.0, 10.0, size=2048))
    for i, hi in enumerate(h):
        alone = expi_hermitian(hi)
        assert np.array_equal(alone, u[i])
        assert np.array_equal(expi_hermitian(hi[None])[0], alone)
        for size, at in ((7, 3), (2049, i * 250)):
            stack = np.insert(others[: size - 1], at, hi, axis=0)
            assert np.array_equal(expi_hermitian(stack)[at], alone)
        strided = np.repeat(np.insert(others[:6], 5, hi, axis=0), 2, axis=0)[::2]
        assert not strided.flags.c_contiguous
        assert np.array_equal(expi_hermitian(strided)[5], alone)


def test_u2_closed_form_keeps_the_bits_of_complex_arithmetic():
    # the closed form written plane by plane against the complex products
    # it replaces, byte for byte: Hermitian 2x2 matrices with a nonzero
    # trace and norms up to 30, so that r passes pi; the same made traceless,
    # tau exactly 0, where the phase product is skipped; and the zero matrix,
    # equal in value (an exactly zero entry may differ in the sign of zero)
    rng = np.random.default_rng(37)
    h = two_by_two(rng, rng.uniform(0.0, 30.0, size=20000)).transpose(1, 2, 0).copy()
    tau, delta, r = _u2_split(h)
    assert tau.all() and (r > np.pi).any()
    assert _expi_batch_last(h).tobytes() == oracles.complex_u2_exponential(h).tobytes()
    h[0, 0], h[1, 1] = delta, -delta
    assert not _u2_split(h)[0].any()
    assert _expi_batch_last(h).tobytes() == oracles.complex_u2_exponential(h).tobytes()
    zero = np.zeros((2, 2, 3), dtype=complex)
    assert np.array_equal(_expi_batch_last(zero), oracles.complex_u2_exponential(zero))
    assert np.array_equal(_expi_batch_last(zero), np.eye(2)[..., None] * np.ones(3))


def test_u2_split_takes_r_from_two_hypots():
    # r = hypot(delta, hypot(Re h01, Im h01)) byte for byte: np.abs(h01) in
    # place of the inner hypot rounds differently and moves whole trajectories
    rng = np.random.default_rng(38)
    h = two_by_two(rng, rng.uniform(0.0, 30.0, size=20000)).transpose(1, 2, 0).copy()
    _, delta, r = _u2_split(h)
    h01 = h[0, 1].copy()
    assert r.tobytes() == np.hypot(delta, np.hypot(h01.real.copy(), h01.imag.copy())).tobytes()
