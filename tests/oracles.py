"""Brute-force oracles: dense ones for the transfer contractions, and a
step-by-step product for the trajectory scan."""

from itertools import product

import numpy as np

from qx import vbs_code as vc
from qx.su_algebra import adjoint_generator


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


def apply_site_operator(state, dims, axis, op):
    """Apply an operator to one tensor factor of a flat state vector."""
    tensor = np.asarray(state).reshape(dims)
    moved = np.tensordot(np.asarray(op, dtype=complex), tensor, axes=(1, axis))
    return np.moveaxis(moved, 0, axis).reshape(-1)


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
