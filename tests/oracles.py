"""Brute-force oracles: the eigendecomposition exponential, dense ones for
the transfer contractions and the transversal collapse check, the
insertion-by-insertion closed-form check and bond error compressions, the
bond error compressions from one ``edge_overlap`` per identity row and
same-bond block, the edge state from its own n steps, a
step-by-step product for the trajectory scan, the dense generator sum,
the complex-arithmetic U(2) exponential of its steps and the Taylor
exponential with a fresh stack per product, the einsum rotation of the
KL report, the KL report rotated by the whole K x K rotation, the
compression tensor from a copied error family, the looped
physical-space logical channel and the entanglement fidelity read from its
Choi matrix; the correlation
closed form with its own h_bac t^c product per call, and the structure
constants as two einsum traces; the bond error family written as its
own noise; the KL report and its ``epsilon`` with one eigenproblem each,
unsplit; the sign charges of the bond error family; and the adjoint
eigensolve behind ``erasure_bound``'s 1/(2N).

Below them sit helpers that no ``qx`` code reads, under the names they had
there, for the tests that pin them: ``apply_channel``,
``cptp_residuals``, ``dilation_isometry`` (with ``ChannelError`` and
``TP_TOL``) and ``partial_trace`` from ``quantum_ops``;
``adjoint_generator`` from ``su_algebra``; ``detect_condition`` from
``qec_core``; ``transfer_power``, ``bulk_state``, ``site_expectation``
and ``effective_noise_channel`` from ``vbs_code``; and the gate-cell table
(``GateCellTable``, ``build_gate_cell_table``, ``cell_assign`` and
``TIE_DECIMALS``), ``compose_error_bound`` and ``trajectory_csv`` from
``quasi_universality``."""

from dataclasses import dataclass, replace
from itertools import product
from math import prod, sqrt

import numpy as np

from qx import vbs_code as vc
from qx.qec_core import (
    _ROW_BLOCK, CUTOFF_REL, CodeIsometry, KLReport, _blocks, _error_family,
)
from qx.quantum_ops import KrausChannel, choi_matrix, omega_matrix, trace_distance
from qx.quasi_universality import SimTrajectory, unitary_distance
from qx.rng import make_generator
from qx.su_algebra import (
    _TAYLOR, SuBasis, _add_identity, _product, _squarings, _u2_split, expi_hermitian,
    gell_mann_basis, random_special_unitary,
)
from qx.vbs_code import VbsCode, _site_term, transfer_apply


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
    """The two arrays of ``cli._closed_form_residuals`` with every single
    and pair insertion contracted from the edge on its own by
    ``edge_overlap``: O(N^3) transfer steps, one closed form per insertion.
    Entry N' of each is the largest residual over insertions whose upper
    bond is at most N'."""
    g = code.basis.generators
    n_sites = code.n_sites
    det, corr = np.zeros(n_sites + 1), np.zeros(n_sites + 1)
    for bond in range(n_sites + 1):
        got = vc.edge_overlap(code, ket_insertions=[(bond, g)])
        want = vc.detection_closed_form(code, bond)
        det[bond:] = np.maximum(det[bond:], np.abs(got - want).max())
    for m in range(n_sites):
        for n in range(m + 1, n_sites + 1):
            got = vc.edge_overlap(code, ket_insertions=[(n, g[:, None]), (m, g[None, :])])
            want = vc.correlation_closed_form(code, m, n)
            corr[n:] = np.maximum(corr[n:], np.abs(got - want).max())
    return det, corr


def tensordot_correlation_closed_form(code, m, n):
    """``vbs_code.correlation_closed_form`` with h_bac = d_bac + i f_bac
    contracted with the generators for every pair [b, a] on each call,
    instead of read from ``SuBasis.h_t``, and the delta_ab term added as a
    masked product over the whole stack."""
    basis, d = code.basis, code.d
    h = basis.d_sym + 1j * basis.f
    mat = np.multiply.outer(0.5 * code.chi**n, np.tensordot(h, basis.generators, axes=1))
    diagonal = np.eye(basis.size)[:, :, None, None] * np.eye(d)
    return mat + np.multiply.outer(code.chi ** (n - m) / (2.0 * d), diagonal)


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


def per_bond_bond_error_compressions(code, bonds=None, strength=0.1):
    """``vbs_code.bond_error_compressions`` with the identity row and the
    same-bond block of each listed bond contracted from the edge on its own
    by ``edge_overlap`` (2B' + 1 calls for B' distinct bonds), and the
    cross-bond blocks written one pair at a time: the reference, bit for
    bit, for the one downward pass."""
    bonds = vc._bond_list(code, bonds)
    d, q = code.d, code.site_dim
    k = 1 + len(bonds) * q
    w0, w = vc.bond_error_weights(code, bonds, strength)
    ident, ops = [(0, w0 * np.eye(d)[None, None])], w * code.basis.generators
    row = {n: vc.edge_overlap(code, ident, [(n, ops[None, :])])[0] for n in set(bonds)}
    same = {n: vc.edge_overlap(code, [(n, ops[:, None])], [(n, ops[None, :])]) for n in set(bonds)}
    half = w * w / (2.0 * d) * np.eye(d)
    m = np.empty((k, k, d, d), dtype=complex)
    m[0, 0] = vc.edge_overlap(code, ident, ident)[0, 0]
    rows = [slice(1 + i * q, 1 + (i + 1) * q) for i in range(len(bonds))]
    for i, (n, r) in enumerate(zip(bonds, rows)):
        m[0, r], m[r, 0] = row[n], row[n].conj().swapaxes(-1, -2)
        m[r, r] = same[n]
        for n2, s in zip(bonds[i + 1 :], rows[i + 1 :]):
            block = same[max(n, n2)]
            if n2 != n:
                block = block.copy()
                diagonal = np.einsum("aaij->aij", block)  # a writeable view of blocks [a, a]
                diagonal -= half
                diagonal += code.chi ** abs(n - n2) * half
            m[r, s], m[s, r] = block, block.conj().transpose(1, 0, 3, 2)
    return m


def stepwise_edge_state(code, alpha, n):
    """Entry n of ``vbs_code.edge_state``'s two stacks, its own n transfer
    steps from |alpha><alpha| and its own closed form 2 chi^n sum_a t^a
    t^a_aa: the reference, bit for bit, for the column from one chain."""
    d = code.d
    iterated = np.diag((np.arange(d) == alpha) - 1.0 / d + 0j)
    for _ in range(n):
        iterated = transfer_apply(code, iterated)
        iterated -= np.trace(iterated) / d * np.eye(d)
    g = code.basis.generators
    closed = 2.0 * code.chi**n * np.einsum("a,aij->ij", g[:, alpha, alpha], g)
    return iterated, closed


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


def dense_algebra(generators, coefficients):
    """sum_k c_k t^k batch-last as (d, d, L), summed over every generator in
    order of k, zero entries included: the reference whose bits
    ``quasi_universality._algebra`` keeps."""
    columns = np.ascontiguousarray(coefficients.T)
    out = generators[0, ..., None] * columns[0]
    for g, c in zip(generators[1:], columns[1:]):
        out += g[..., None] * c
    return out


def complex_u2_exponential(h):
    """exp(i h) for batch-last 2x2 Hermitian h, (2, 2, batch), by the U(2)
    closed form in complex arithmetic, e^(i tau) times cos r I + i (sin r / r)
    h0 with every entry formed as a complex product: the reference whose bits
    ``su_algebra._expi_batch_last`` keeps at n = 2."""
    tau, delta, r = _u2_split(h)
    i_sinc = 1j * np.divide(np.sin(r), r, out=np.ones_like(r), where=r > 0)
    u = np.empty(h.shape, dtype=complex)
    cos_r = np.cos(r)
    u[0, 0] = cos_r + i_sinc * delta
    u[1, 1] = cos_r - i_sinc * delta
    u[0, 1] = i_sinc * h[0, 1]
    u[1, 0] = i_sinc * h[0, 1].conj()
    phase = np.empty(tau.shape, dtype=complex)
    phase.real, phase.imag = np.cos(tau), np.sin(tau)
    u *= phase
    return u


def allocating_taylor_exponential(h):
    """exp(i h) for batch-last Hermitian h, (n, n, batch) with n >= 3, by
    the scaling-and-squaring Taylor kernel with a fresh stack for every
    product and scaled term, each partial squaring on a gathered copy: the
    reference whose bits ``su_algebra._expi_batch_last`` keeps in its
    reused scratch."""
    squarings = _squarings(h)
    x = h * (1j * np.ldexp(1.0, -squarings))
    x2 = _product(x, x)
    y = x2 * _TAYLOR[-1]
    y += _TAYLOR[-2] * x
    _add_identity(y, _TAYLOR[-3])
    for j in range(len(_TAYLOR) // 2 - 2, -1, -1):
        y = _product(y, x2)
        y += _TAYLOR[2 * j + 1] * x
        _add_identity(y, _TAYLOR[2 * j])
    for j in range(int(squarings.max(initial=0))):
        active = np.flatnonzero(squarings > j)
        sub = y[..., active]
        y[..., active] = _product(sub, sub)
    return y


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


def copied_family_compressions(code: CodeIsometry, errors) -> np.ndarray:
    """M[i, j] = V+ E_i+ E_j V in two steps: the stacks copied side by side
    into one (d_Q, K d_L) family, then its Gram product summed over blocks
    of ``_ROW_BLOCK`` rows, each block's conjugate copied: the reference,
    bit for bit, for ``error_compressions``, which gathers each row block
    from the stacks instead."""
    family = _error_family(code, errors)
    gram = family[:_ROW_BLOCK].conj().T @ family[:_ROW_BLOCK]
    for lo in range(_ROW_BLOCK, len(family), _ROW_BLOCK):
        gram += family[lo:lo + _ROW_BLOCK].conj().T @ family[lo:lo + _ROW_BLOCK]
    k, d_l = len(errors), code.d_l
    return gram.reshape(k, d_l, k, d_l).transpose(0, 2, 1, 3)


def unsectored_kl_report(compressions, cutoff_rel=CUTOFF_REL) -> KLReport:
    """The KL report with one ``eigh`` of the whole Gram matrix, modes in
    the reverse of its ascending order: the reference for the block solve
    of ``kl_report_from_compressions``."""
    m = np.asarray(compressions, dtype=complex)
    k, _, d_l, _ = m.shape
    gram = np.einsum("ijaa->ij", m) / d_l
    gram = (gram + gram.conj().T) / 2.0
    eigvals, vecs = np.linalg.eigh(gram)
    order = np.argsort(eigvals)[::-1]
    eigvals, rotation = eigvals[order], vecs[:, order].T
    cutoff = cutoff_rel * max(eigvals.max(), 0.0)
    retained = eigvals > cutoff
    t = (rotation.conj() @ m.reshape(k, -1)).reshape(k, k, d_l * d_l)
    residuals = (rotation @ t).reshape(k, k, d_l, d_l)
    residuals[np.arange(k), np.arange(k)] -= eigvals[:, None, None] * np.eye(d_l)
    weights = np.einsum("klab,klab->kl", residuals.conj(), residuals).real
    first_order = weights[retained, :].sum(axis=1) @ (1.0 / eigvals[retained]) / (2.0 * d_l)
    return KLReport(k, d_l, gram, eigvals, rotation, residuals, weights, retained,
                    int(retained.sum()), float(first_order), float(cutoff), m)


def full_rotation_kl_report(compressions, cutoff_rel=CUTOFF_REL) -> KLReport:
    """The KL report with its Gram blocks solved as in
    ``kl_report_from_compressions`` but the compressions rotated by the whole
    K x K rotation, as K products of K x K by K x d_L^2, zeros across blocks
    included: the reference, bit for bit in eigenvalues and rotation, for
    the block-by-block rotation."""
    m = np.asarray(compressions, dtype=complex)
    k, _, d_l, _ = m.shape
    gram = np.einsum("ijaa->ij", m) / d_l
    gram = (gram + gram.conj().T) / 2.0
    eigvals, vecs = np.empty(k), np.zeros((k, k), dtype=complex)
    for idx in _blocks(*np.nonzero(gram), k):
        rows, cols = idx[:, :, None], idx[:, None, :]
        eigvals[idx], vecs[rows, cols] = np.linalg.eigh(gram[rows, cols])
    order = np.argsort(eigvals, kind="stable")[::-1]
    eigvals, rotation = eigvals[order], vecs[:, order].T
    cutoff = cutoff_rel * max(eigvals.max(), 0.0)
    retained = eigvals > cutoff
    t = (rotation.conj() @ m.reshape(k, -1)).reshape(k, k, d_l * d_l)
    residuals = (rotation @ t).reshape(k, k, d_l, d_l)
    residuals[np.arange(k), np.arange(k)] -= eigvals[:, None, None] * np.eye(d_l)
    weights = np.einsum("klab,klab->kl", residuals.conj(), residuals).real
    first_order = weights[retained, :].sum(axis=1) @ (1.0 / eigvals[retained]) / (2.0 * d_l)
    return KLReport(k, d_l, gram, eigvals, rotation, residuals, weights, retained,
                    int(retained.sum()), float(first_order), float(cutoff), m)


def unsectored_epsilon(report: KLReport) -> float:
    """``epsilon`` as the trace norm of the whole residual Choi matrix: the
    reference for the per-block sum of ``epsilon_from_report``."""
    k, d_l = report.error_count, report.logical_dim
    choi = report.residuals.transpose(0, 3, 1, 2).reshape(k * d_l, k * d_l) / d_l
    return trace_distance(choi, np.zeros_like(choi))


def bond_error_charges(code: VbsCode, bonds=None) -> tuple[np.ndarray, np.ndarray]:
    """Z2 bitmask charges (errors (K,), logical basis (d,)) of the bond error
    family under the sign matrices S = diag(+-1), which act transversally on
    the code: M_ij[a, b] is nonzero only if c_i ^ (1<<a) == c_j ^ (1<<b).  A
    generator on the pair (j, k) has charge (1<<j) ^ (1<<k), read from its
    off-diagonal support; the identity and the diagonal ones have 0."""
    bonds = vc._bond_list(code, bonds)
    bits = 1 << np.arange(code.d)
    support = (code.basis.generators != 0) & ~np.eye(code.d, dtype=bool)
    return np.concatenate([[0], np.tile(support.any(axis=-1) @ bits, len(bonds))]), bits


def erasure_bound_eigensolve(code: VbsCode) -> float:
    """1/(N * widest spectral range) of the adjoint generators -i f_a, from q
    eigensolves of q x q: the reference for ``vbs_code.erasure_bound``."""
    spec = np.linalg.eigvalsh(-1j * code.basis.f)
    return 1.0 / (code.n_sites * float((spec[:, -1] - spec[:, 0]).max()))


def recovered_logical_channel(code, noise, recovery):
    """Logical channel V+ R N V from explicit noise and recovery channels,
    one physical-space product per Kraus pair: the reference for
    ``logical_recovery_channel``."""
    if noise.in_dim != code.d_q or recovery.in_dim != code.d_q:
        raise ValueError("channel dimensions do not chain with the code")
    v = code.isometry
    kraus = []
    for nk in noise.kraus:
        nv = nk @ v
        for rk in recovery.kraus:
            kraus.append(v.conj().T @ (rk @ nv))
    return KrausChannel(kraus)


def choi_fidelity(ch: KrausChannel) -> float:
    """Entanglement fidelity <omega| C |omega> = tr(|omega><omega| C) read
    from the Choi matrix C, unclipped: the reference for the Kraus-trace
    form of ``entanglement_fidelity``."""
    return float(np.vdot(omega_matrix(ch.in_dim), choi_matrix(ch)).real)


TP_TOL = 1e-10
TIE_DECIMALS = 12


class ChannelError(RuntimeError):
    """Raised when a channel fails a structural requirement."""


def apply_channel(ch: KrausChannel, rho: np.ndarray) -> np.ndarray:
    """Apply the channel: sum_i K_i rho K_i^dagger."""
    rho = np.asarray(rho, dtype=complex)
    if rho.shape != (ch.in_dim, ch.in_dim):
        raise ValueError(f"state shape {rho.shape} does not match in_dim {ch.in_dim}")
    return np.einsum("kij,jl,kml->im", ch.kraus, rho, ch.kraus.conj(), optimize=True)


def cptp_residuals(ch: KrausChannel) -> tuple[float, float]:
    """Operator norms of sum K+K - I (trace) and sum K K+ - I (unitality)."""
    k = ch.kraus
    tp = np.einsum("kji,kjl->il", k.conj(), k, optimize=True) - np.eye(ch.in_dim)
    un = np.einsum("kij,klj->il", k, k.conj(), optimize=True) - np.eye(ch.in_dim)
    return float(np.linalg.norm(tp, 2)), float(np.linalg.norm(un, 2))


def dilation_isometry(ch: KrausChannel) -> np.ndarray:
    """Isometry W stacking the Kraus blocks, with the environment index first.

    W maps d -> len(kraus) * d and satisfies W+W = I; tracing the
    environment factor of W rho W+ reproduces :func:`apply_channel`.
    """
    tp, _ = cptp_residuals(ch)
    if tp > TP_TOL:
        raise ChannelError(
            f"dilation undefined: channel is not trace preserving (residual {tp:.3e})"
        )
    return ch.kraus.reshape(-1, ch.in_dim)


def partial_trace(rho: np.ndarray, dims, keep) -> np.ndarray:
    """Trace out all tensor factors not listed in ``keep`` (0-based indices)."""
    rho = np.asarray(rho, dtype=complex)
    dims = [int(d) for d in dims]
    n = len(dims)
    total = prod(dims)
    if rho.shape != (total, total):
        raise ValueError(
            f"state shape {rho.shape} does not match subsystem dims {dims}"
        )
    keep = sorted(set(int(k) for k in keep))
    if not keep or keep[0] < 0 or keep[-1] >= n:
        raise ValueError(f"invalid subsystem selection {keep} for {n} factors")
    tensor = rho.reshape(dims + dims)
    # Trace matched row/col axis pairs back to front; the pair offset is the
    # current row-axis count, which np.trace keeps consistent.
    for ax in reversed(range(n)):
        if ax in keep:
            continue
        tensor = np.trace(tensor, axis1=ax, axis2=ax + tensor.ndim // 2)
    kept_dim = prod(dims[k] for k in keep)
    return tensor.reshape(kept_dim, kept_dim)


def adjoint_generator(basis: SuBasis, a: int) -> np.ndarray:
    """Adjoint-representation generator of t^a, (T^a)_bc = -i f_abc.

    T^a is Hermitian with purely imaginary, antisymmetric entries; its
    spectrum consists of differences of eigenvalues of t^a (for d = 2 this
    gives {+1, 0, -1}).
    """
    if not 0 <= a < basis.size:
        raise ValueError(f"generator index {a} out of range for su({basis.d})")
    return -1j * basis.f[a]


def detect_condition(code: CodeIsometry, errors) -> list[tuple[complex, float]]:
    """Detection data (e_i, residual_i) for each error operator.

    e_i = tr(V+ E_i V)/d_L and residual_i is the operator norm of the
    traceless remainder of V+ E_i V; the error is exactly detected when the
    residual vanishes.
    """
    d_l = code.d_l
    family = _error_family(code, errors)
    compressed = (code.isometry.conj().T @ family).reshape(d_l, -1, d_l).swapaxes(0, 1)
    e = np.trace(compressed, axis1=1, axis2=2) / d_l
    residuals = np.linalg.norm(compressed - e[:, None, None] * np.eye(d_l), 2, axis=(-2, -1))
    return [(complex(ei), float(r)) for ei, r in zip(e, residuals)]


def transfer_power(code: VbsCode, x: np.ndarray, n: int) -> np.ndarray:
    out = np.asarray(x, dtype=complex)
    for _ in range(n):
        out = transfer_apply(code, out)
    return out


def bulk_state(code: VbsCode, alpha: int, n: int) -> np.ndarray:
    """Reduced density matrix of bulk site n, as the complementary-channel
    output rho[i, j] = tr(sigma_n A^j A^i) of sigma_n = E^(n-1)(|alpha><alpha|)."""
    if not 1 <= n <= code.n_sites:
        raise ValueError(f"site index {n} outside 1..{code.n_sites}")
    proj = np.zeros((code.d, code.d), dtype=complex)
    proj[alpha, alpha] = 1.0
    sigma = transfer_power(code, proj, n - 1)
    return np.einsum("ab,jbc,ica->ij", sigma, code.kraus, code.kraus)


def site_expectation(code: VbsCode, a, site: int) -> np.ndarray:
    """Logical matrix of one adjoint site operator via bond expansion,
    equal to d^2 chi^(site-1)/(d^2-1) t^a; an index array ``a`` gives the
    stack of matrices."""
    if not 1 <= site <= code.n_sites:
        raise ValueError(f"site index {site} outside 1..{code.n_sites}")
    return _site_term(code, [], site, code.basis.generators[a])


def effective_noise_channel(
    code: VbsCode, eps, bonds=None
) -> tuple[KrausChannel, np.ndarray, float]:
    """Random-unitary mixture of bond error gates and its one-unitary proxy.

    The mixture averages exp(i chi^n sum_k eps_k t^k) uniformly over the
    given bonds (default 1..N).  The proxy exponentiates the bond-averaged
    scale, which for the default bond set equals :func:`qx.vbs_code.eta`.
    Returns the mixture channel, the proxy unitary, and the trace distance
    between their Choi matrices.
    """
    eps = np.asarray(eps, dtype=float)
    if eps.shape != (code.site_dim,):
        raise ValueError(f"expected {code.site_dim} error components")
    if bonds is None:
        bonds = range(1, code.n_sites + 1)
    bonds = [int(n) for n in bonds]
    if not bonds:
        raise ValueError("bond list must not be empty")
    h = np.einsum("k,kij->ij", eps, code.basis.generators)
    scales = code.chi ** np.array(bonds, dtype=float)
    # one stacked call: the bond gates, then the proxy at the mean scale
    gates = expi_hermitian(np.append(scales, scales.mean())[:, None, None] * h)
    mixture = KrausChannel(gates[:-1] * (1.0 / sqrt(len(bonds))))
    unitary = gates[-1]
    proxy = KrausChannel([unitary])
    discrepancy = trace_distance(choi_matrix(mixture), choi_matrix(proxy))
    return mixture, unitary, discrepancy


@dataclass(frozen=True)
class GateCellTable:
    """Fixed set of representative gates partitioning SU(d) at one accuracy.

    Representatives are pairwise farther apart than the accuracy, so the
    nearest-representative rule assigns non-overlapping cells.  The table
    must be kept fixed for cell indices to define distinct logical gates.
    """

    dim: int
    accuracy: float
    representatives: tuple[np.ndarray, ...]


def build_gate_cell_table(
    dim: int, accuracy: float, n_samples: int, seed: int
) -> GateCellTable:
    """Greedy seeded net: sample SU(d) and keep points clearing the accuracy.

    Identical (dim, accuracy, n_samples, seed) rebuild the identical table.
    The identity is always the first representative.
    """
    if not accuracy > 0.0:
        raise ValueError("accuracy must be positive")
    basis = gell_mann_basis(dim)
    rng = make_generator(seed)
    reps: list[np.ndarray] = [np.eye(dim, dtype=complex)]
    for _ in range(n_samples):
        candidate = random_special_unitary(basis, rng)
        if (unitary_distance(candidate, np.array(reps)) > accuracy).all():
            reps.append(candidate)
    return GateCellTable(dim=dim, accuracy=accuracy, representatives=tuple(reps))


def cell_assign(table: GateCellTable, u: np.ndarray) -> int:
    """Index of the nearest representative; ties resolve to the lowest index.

    Distances are rounded to 12 decimals before comparison so exact midpoints
    resolve deterministically.
    """
    if not table.representatives:
        raise ValueError("gate-cell table is empty")
    distances = unitary_distance(u, np.array(table.representatives))
    return int(np.argmin(np.round(distances, TIE_DECIMALS)))


def compose_error_bound(gate_distances) -> float:
    """Subadditive accumulation bound: the sum of per-gate distances."""
    total = 0.0
    for x in gate_distances:
        if not x >= 0.0:
            raise ValueError("distances must be nonnegative")
        total += float(x)
    return total


def trajectory_csv(trajectory: SimTrajectory) -> str:
    """CSV rendering with columns step, ideal_vs_noisy_distance, envelope."""
    lines = ["step,ideal_vs_noisy_distance,envelope"]
    for step in range(trajectory.length):
        lines.append(
            f"{step + 1},{trajectory.distances[step]:.12g},"
            f"{trajectory.envelopes[step]:.12g}"
        )
    return "\n".join(lines) + "\n"
