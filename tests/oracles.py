"""Brute-force oracles: the eigendecomposition exponential, dense ones for
the transfer contractions and the transversal collapse check, the
insertion-by-insertion closed-form check and bond error compressions, a
step-by-step product for the trajectory scan, the einsum rotation of the
KL report and the looped physical-space logical channel; the correlation
closed form with its own h_bac t^c product per call, and the structure
constants as two einsum traces; and the bond error family written as its
own noise."""

from dataclasses import replace
from itertools import product

import numpy as np

from qx import vbs_code as vc
from qx.quantum_ops import KrausChannel
from qx.su_algebra import adjoint_generator


def expi_reference(h):
    """exp(i h) for a Hermitian h or a stack (..., n, n) of them, as
    v e^(iw) v+ from eigh of the Hermitian part: the reference for the
    Taylor exponential of ``qx.su_algebra.expi_hermitian``."""
    h = np.asarray(h, dtype=complex)
    w, v = np.linalg.eigh((h + np.swapaxes(h.conj(), -1, -2)) / 2.0)
    return np.einsum("...ik,...k,...jk->...ij", v, np.exp(1j * w), v.conj())


def explicit_state(code, alpha, insertions=()):
    """Encoded state assembled string by string, with no tensor machinery.

    Walks every physical index string, chain-multiplying Kraus matrices and
    splicing insertion operators at their bonds.  Exponential cost; only for
    validating the vectorized dense encoder at tiny sizes.
    """
    n, d, q = code.n_sites, code.d, code.site_dim
    grouped = {}
    for bond, op in insertions:
        op = np.asarray(op, dtype=complex)
        grouped[bond] = grouped[bond] @ op if bond in grouped else op
    start = np.zeros(d, dtype=complex)
    start[alpha] = 1.0
    if 0 in grouped:
        start = grouped[0] @ start
    out = np.zeros(q**n * d, dtype=complex)
    for string in product(range(q), repeat=n):
        vec = start
        for site, i in enumerate(string, start=1):
            vec = code.kraus[i] @ vec
            if site in grouped:
                vec = grouped[site] @ vec
        flat = 0
        for i in string:
            flat = flat * q + i
        out[flat * d : (flat + 1) * d] = vec
    return out


def dense_overlap(code, alpha, beta, bra_insertions=(), ket_insertions=()):
    """<psi_alpha with bra insertions | psi_beta with ket insertions> from
    dense encodings."""
    bra = vc.encode_dense(code, alpha, insertions=bra_insertions)
    ket = vc.encode_dense(code, beta, insertions=ket_insertions)
    return complex(np.vdot(bra, ket))


def pairwise_closed_form_residuals(code):
    """The two floats of ``cli._closed_form_residuals`` with every single
    and pair insertion contracted from the edge on its own by
    ``edge_overlap``: O(N^3) transfer steps, one closed form per insertion."""
    g = code.basis.generators
    a = np.arange(code.site_dim)
    n_sites = code.n_sites
    det = 0.0
    for bond in range(n_sites + 1):
        got = vc.edge_overlap(code, ket_insertions=[(bond, g)])
        want = vc.detection_closed_form(code, a, bond)
        det = max(det, float(np.abs(got - want).max()))
    corr = 0.0
    for m in range(n_sites):
        for n in range(m + 1, n_sites + 1):
            got = vc.edge_overlap(code, ket_insertions=[(n, g[None, :]), (m, g[:, None])])
            want = vc.correlation_closed_form(code, a[:, None], a[None, :], m, n)
            corr = max(corr, float(np.abs(got - want).max()))
    return det, corr


def tensordot_correlation_closed_form(code, a, b, m, n):
    """``vbs_code.correlation_closed_form`` with h_bac = d_bac + i f_bac
    gathered for the given indices and contracted with the generators on
    each call, instead of read from ``SuBasis.h_t``."""
    basis = code.basis
    h = basis.d_sym[b, a, :] + 1j * basis.f[b, a, :]
    mat = 0.5 * code.chi**n * np.tensordot(h, basis.generators, axes=1)
    diagonal = np.equal(a, b)[..., None, None]
    return mat + diagonal * (code.chi ** (n - m) / (2.0 * code.d) * np.eye(code.d))


def einsum_structure_constants(generators):
    """f_abc = -2i tr([t^a, t^b] t^c) and d_abc = 2 tr({t^a, t^b} t^c),
    each as one einsum over the (q, q, d, d) (anti)commutator stack: the
    reference for ``su_algebra.structure_constants``."""
    g = np.asarray(generators, dtype=complex)
    prod = np.einsum("aij,bjk->abik", g, g)
    comm = prod - prod.transpose(1, 0, 2, 3)
    anti = prod + prod.transpose(1, 0, 2, 3)
    f = -2j * np.einsum("abik,cki->abc", comm, g)
    d_sym = 2.0 * np.einsum("abik,cki->abc", anti, g)
    return f.real, d_sym.real


def pairwise_bond_error_compressions(code, bonds=None, strength=0.1):
    """``vbs_code.bond_error_compressions`` with every block of the family
    contracted from the edge on its own by ``edge_overlap``: (K' + 1)(K' +
    2)/2 calls for K' listed bonds, each of N transfer steps."""
    bonds = vc._bond_list(code, bonds)
    w0, w = vc.bond_error_weights(code, bonds, strength)
    families = [(0, w0 * np.eye(code.d)[None])]
    families += [(n, w * code.basis.generators) for n in bonds]
    start = np.cumsum([0] + [len(ops) for _, ops in families])
    rows = [slice(lo, hi) for lo, hi in zip(start, start[1:])]
    m = np.zeros((start[-1], start[-1], code.d, code.d), dtype=complex)
    for i, (bond_i, ops_i) in enumerate(families):
        for j, (bond_j, ops_j) in enumerate(families[i:], start=i):
            bra, ket = [(bond_i, ops_i[:, None])], [(bond_j, ops_j[None, :])]
            m[rows[i], rows[j]] = vc.edge_overlap(code, bra, ket)
            if j > i:
                m[rows[j], rows[i]] = m[rows[i], rows[j]].conj().transpose(1, 0, 3, 2)
    return m


def apply_site_operator(state, dims, axis, op):
    """Apply an operator to one tensor factor of a flat state vector."""
    tensor = np.asarray(state).reshape(dims)
    moved = np.tensordot(np.asarray(op, dtype=complex), tensor, axes=(1, axis))
    return np.moveaxis(moved, 0, axis).reshape(-1)


def dense_collapse_check(code, site_hamiltonians, coefficients, xi):
    """The four values of ``transversal_collapse_check`` with the generator
    D = sum_j a_j H_j built as a d_Q x d_Q operator from Kronecker products
    and exponentiated whole, by :func:`expi_reference`."""
    dims = code.site_dims
    total = np.zeros((code.d_q, code.d_q), dtype=complex)
    for site, (ham, coeff) in enumerate(zip(site_hamiltonians, coefficients)):
        left = np.eye(int(np.prod(dims[:site])))
        right = np.eye(int(np.prod(dims[site + 1 :])))
        total += coeff * np.kron(np.kron(left, ham), right)
    v = code.isometry
    compressed = v.conj().T @ total @ v
    h = float(np.real(np.trace(compressed) / code.d_l))
    logical_part = compressed - h * np.eye(code.d_l)
    evolved = v.conj().T @ expi_reference(xi * total) @ v
    factored = np.exp(1j * xi * h) * expi_reference(xi * logical_part)
    factorization = float(np.linalg.norm(evolved - factored, 2))
    return h, logical_part, float(np.linalg.norm(logical_part, 2)), factorization


def dense_site_overlap(code, alpha, beta, site_ops):
    """<psi_alpha| product of site operators |psi_beta> applied densely.

    ``site_ops`` lists (site, operator) pairs with sites 1..N on bulk factors
    and N+1 on the edge factor.
    """
    dims = code.site_dims
    ket = vc.encode_dense(code, beta)
    for site, op in site_ops:
        ket = apply_site_operator(ket, dims, site - 1, op)
    bra = vc.encode_dense(code, alpha)
    return complex(np.vdot(bra, ket))


def adjoint_site_matrix(code, a):
    """The Hermitian bulk-site observable matching generator index a."""
    return adjoint_generator(code.basis, a)


def sequential_products(seq):
    """``seq[l] @ ... @ seq[0]`` for every l, one matrix product per step."""
    out = np.empty_like(seq)
    current = np.eye(seq.shape[-1], dtype=seq.dtype)
    for step, u in enumerate(seq):
        current = u @ current
        out[step] = current
    return out


def transfer_superoperator(kraus):
    """Transfer superoperator built from the Kraus family the way every
    transfer application once rebuilt it: vec(x) @ S = vec(sum_a A x A+)."""
    d = kraus.shape[-1]
    flat = kraus.reshape(-1, d * d)
    superop_t = (flat.T @ flat.conj()).reshape(d, d, d, d).transpose(1, 3, 0, 2)
    return superop_t.reshape(d * d, d * d)


def transversal_gate_by_sites(code, site_matrix, edge_matrix):
    """V+ (W^(xN) x M) V by a two-einsum step per site:
    c -> sum_ji W_ji A^j+ c A^i."""
    c = np.asarray(edge_matrix, dtype=complex)
    for _ in range(code.n_sites):
        t1 = np.einsum("jba,bc->jac", code.kraus.conj(), c)
        c = np.einsum("jac,ji,icd->ad", t1, site_matrix, code.kraus)
    return c


def einsum_rotated_report(report, compressions):
    """``report`` with its residual fields rebuilt by the three-operand
    einsum that once rotated the compressions: O(K^4 d_L^2), kept as the
    reference for the two-product rotation."""
    m = np.asarray(compressions, dtype=complex)
    k, d_l = report.error_count, report.logical_dim
    residuals = np.einsum("ki,lj,ijab->klab", report.rotation.conj(), report.rotation, m)
    idx = np.arange(k)
    residuals[idx, idx] -= report.eigenvalues[:, None, None] * np.eye(d_l)
    weights = np.einsum("klab,klab->kl", residuals.conj(), residuals).real
    retained = report.retained
    first_order = float(
        weights[retained, :].sum(axis=1) @ (1.0 / report.eigenvalues[retained]) / (2.0 * d_l)
    )
    return replace(
        report, residuals=residuals, residual_weights=weights, first_order_distance=first_order
    )


def recovered_logical_channel(code, noise, recovery):
    """Logical channel V+ R N V from explicit noise and recovery channels,
    one physical-space product per Kraus pair: the reference for
    ``logical_recovery_channel``."""
    if noise.in_dim != code.d_q or recovery.in_dim != noise.out_dim:
        raise ValueError("channel dimensions do not chain with the code")
    if recovery.out_dim != code.d_q:
        raise ValueError("recovery must return to the physical space")
    v = code.isometry
    kraus = []
    for nk in noise.kraus:
        nv = nk @ v
        for rk in recovery.kraus:
            kraus.append(v.conj().T @ (rk @ nv))
    return KrausChannel.from_kraus(kraus)
