"""SU(d)-covariant valence-bond codes on a chain of adjoint sites.

A code with parameters (d, N) encodes a d-dimensional logical space into N
bulk sites of dimension d**2 - 1 plus one edge site of dimension d.  The
encoding chain is driven by the Kraus family A^i = sqrt(2d/(d**2-1)) t^i,
whose channel E fixes the maximally mixed state and scales every generator
by chi = -1/(d**2 - 1).

Expectation values are available along two independent routes: transfer
contraction (cost linear in N, any N) and dense brute-force encoding
(bounded by an amplitude cap).  One downward transfer pass of O(N^2) steps
gives every single and pair insertion, in batches of at least one pair, for
the closed-form check and the cross-bond blocks of the bond error family
(:func:`insertion_overlaps`).  Bond bookkeeping: bond n+ sits between
sites n and n+1, so an operator inserted at bond n is separated from the
logical ket by n channel applications; bond N is the edge site itself and
bond 0 is adjacent to the logical ket.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from itertools import product
from math import prod, sqrt

import numpy as np

from .qec_core import CodeIsometry
from .quantum_ops import KrausChannel, choi_matrix, trace_distance
from .su_algebra import (
    SuBasis, adjoint_group_element, check_unitary, expi_hermitian, gell_mann_basis,
)

__all__ = [
    "VbsCode",
    "DENSE_CAP",
    "DENSE_STACK_CAP",
    "PAIR_BATCH_CAP",
    "build",
    "eta",
    "transfer_apply",
    "transfer_power",
    "edge_overlap",
    "insertion_overlaps",
    "encode_dense",
    "dense_isometry",
    "edge_state",
    "bulk_state",
    "detection_closed_form",
    "correlation_closed_form",
    "site_expectation",
    "site_operator_overlaps",
    "site_overlap_closed_forms",
    "sum_rule_check",
    "effective_noise_channel",
    "compressed_transversal_gate",
    "covariant_gate",
    "CovariantGateResult",
    "erasure_bound",
    "bond_error_weights",
    "bond_error_stacks",
    "bond_error_compressions",
    "bond_error_charges",
    "bond_noise",
]

DENSE_CAP = 2_000_000
# amplitudes in one batched encode_dense call, in the K error stacks
# E_i V that the dense kl route allocates, and in the K^2 d^2 entries of
# bond_error_compressions; the dense route holds its stacks twice at its
# peak (the list and its one family copy inside kl_decompose), and
# nothing after kl_decompose has a d_Q axis
DENSE_STACK_CAP = 32_000_000
# amplitudes in one batch of pair insertions in insertion_overlaps (128 KiB),
# for the closed-form check or the cross-bond blocks of bond_error_compressions;
# a batch holds at least one pair, so a large-d code holds one at a time
PAIR_BATCH_CAP = 2**13

BUILD_TOL = 1e-12


class ContractionError(RuntimeError):
    """Raised when dual-route contraction values fail to agree."""


def _superoperator(kraus: np.ndarray, weights=None) -> np.ndarray:
    """The (d^2, d^2) matrix S with vec(sum_ab w_ab K^a X K^b+) = vec(X) @ S,
    vec row-major; weights default to the identity, the channel of ``kraus``."""
    k, d, _ = kraus.shape
    flat = kraus.reshape(k, d * d)
    right = flat.conj() if weights is None else weights @ flat.conj()
    # (flat.T @ right)[(i, j), (l, k)] = sum_ab K^a_ij w_ab conj(K^b_lk)
    superop = (flat.T @ right).reshape(d, d, d, d).transpose(1, 3, 0, 2)
    return superop.reshape(d * d, d * d)


@dataclass(frozen=True)
class VbsCode:
    d: int
    n_sites: int
    basis: SuBasis
    kraus: np.ndarray  # (d**2 - 1, d, d)
    chi: float
    # transfer superoperator of the Kraus family, see _superoperator
    transfer: np.ndarray = field(init=False, repr=False, compare=False)

    def __post_init__(self):
        object.__setattr__(self, "transfer", _superoperator(self.kraus))

    @property
    def site_dim(self) -> int:
        """Bulk site dimension d**2 - 1."""
        return self.basis.size

    @property
    def site_dims(self) -> tuple[int, ...]:
        """Physical tensor factors: N bulk sites, then the edge."""
        return (self.site_dim,) * self.n_sites + (self.d,)

    @property
    def dense_size(self) -> int:
        return self.site_dim**self.n_sites * self.d


def build(d: int, n_sites: int) -> VbsCode:
    """Construct the (d, N) valence-bond code and validate its channel."""
    if d < 2 or n_sites < 1:
        raise ValueError(f"invalid code parameters d={d}, N={n_sites}")
    basis = gell_mann_basis(d)
    q = basis.size
    kraus = np.sqrt(2.0 * d / q) * basis.generators
    chi = -1.0 / q
    code = VbsCode(d=d, n_sites=n_sites, basis=basis, kraus=kraus, chi=chi)
    eye = np.eye(d)
    tp = np.einsum("aji,ajk->ik", kraus.conj(), kraus) - eye
    un = np.einsum("aij,akj->ik", kraus, kraus.conj()) - eye
    if max(np.abs(tp).max(), np.abs(un).max()) > BUILD_TOL:
        raise ContractionError("Kraus family is not trace preserving and unital")
    if np.abs(transfer_apply(code, basis.generators) - chi * basis.generators).max() > BUILD_TOL:
        raise ContractionError("transfer channel does not scale the generators")
    return code


def eta(d: int, n_sites: int) -> float:
    """Per-gate logical error scale (chi/N)(1 - chi^N)/(1 - chi).

    This is the average of chi^n over bonds 1..N; it vanishes as either N or
    d grows, the two directions along which the code becomes exact.
    """
    if d < 2 or n_sites < 1:
        raise ValueError(f"invalid parameters d={d}, N={n_sites}")
    chi = -1.0 / (d * d - 1.0)
    return (chi / n_sites) * (1.0 - chi**n_sites) / (1.0 - chi)


def transfer_apply(code: VbsCode, x: np.ndarray) -> np.ndarray:
    """One application of the transfer channel to an operator or a stack
    (..., d, d), as one matmul with the code's superoperator.

    A lone operator is a single row, which numpy sends through zgemv, and a
    stack goes through zgemm, so the last bits of an operator can differ
    from those of the same operator inside a stack.  Contractions that must
    agree bitwise transfer the same rows the same way:
    :func:`insertion_overlaps` transfers the identity row alone, as
    :func:`edge_overlap` does.
    """
    x = np.asarray(x)
    return (x.reshape(-1, code.d * code.d) @ code.transfer).reshape(x.shape)


def transfer_power(code: VbsCode, x: np.ndarray, n: int) -> np.ndarray:
    out = np.asarray(x, dtype=complex)
    for _ in range(n):
        out = transfer_apply(code, out)
    return out


def _group_insertions(code: VbsCode, insertions) -> dict[int, np.ndarray]:
    """Compose insertions per bond; first listed acts leftmost in the chain.
    Operators may be broadcasting stacks (..., d, d)."""
    grouped: dict[int, np.ndarray] = {}
    for bond, op in insertions:
        if not 0 <= bond <= code.n_sites:
            raise ValueError(f"bond index {bond} outside 0..{code.n_sites}")
        op = np.asarray(op, dtype=complex)
        if op.shape[-2:] != (code.d, code.d):
            raise ValueError(f"insertion operator must be {code.d}x{code.d}")
        grouped[bond] = grouped[bond] @ op if bond in grouped else op
    return grouped


def edge_overlap(code: VbsCode, bra_insertions=(), ket_insertions=()) -> np.ndarray:
    """Logical matrix of overlaps between decorated code states.

    Returns M with M[alpha, beta] = <psi_alpha with bra insertions |
    psi_beta with ket insertions>, contracted by transfer iteration from the
    edge downwards: crossing bond b applies C -> X_b^dagger C Y_b, crossing a
    site applies the transfer channel.  Insertion operators may be stacks
    (..., d, d) that broadcast against each other, giving a stack of logical
    matrices: ``[(n, g[None, :]), (m, g[:, None])]`` yields M[a, b] for t^b at
    bond n and t^a at bond m.
    """
    bra = _group_insertions(code, bra_insertions)
    ket = _group_insertions(code, ket_insertions)
    c = np.eye(code.d, dtype=complex)
    for bond in range(code.n_sites, -1, -1):
        if bond in bra:
            c = bra[bond].conj().swapaxes(-1, -2) @ c
        if bond in ket:
            c = c @ ket[bond]
        if bond > 0:
            c = transfer_apply(code, c)
    return c


def insertion_overlaps(code: VbsCode):
    """Every single and pair generator insertion, in one downward transfer
    pass: the closed-form check and the cross-bond blocks of
    :func:`bond_error_compressions`.

    Yields (m, n, overlaps).  A pair batch has a bond m and an array n of
    consecutive bonds above it, with overlaps[k, a, b] the logical matrix of
    t^b at bond n[k] and t^a at bond m.  The last item has m = None, n =
    0..N and overlaps[n, b] the matrix of t^b at bond n.  Every matrix is
    bitwise the :func:`edge_overlap` of the same insertions.

    The identity row is transferred alone, as in :func:`edge_overlap`, and
    the single-insertion rows together, one transfer per bond.  Pair (m, n)
    branches off row n when the pass reaches bond m and then needs only its
    m remaining steps, so the pass costs O(N^2) transfer steps.  A batch
    holds at most ``PAIR_BATCH_CAP`` amplitudes but always at least one
    pair, and is made only when the pass reaches its bond m.
    """
    d, q, n_sites = code.d, code.site_dim, code.n_sites
    g = code.basis.generators
    # vec(X) @ right[:, a] = vec(X t^a), vec row-major
    right = np.einsum("il,akj->ikalj", np.eye(d), g).reshape(d * d, q * d * d)
    per_batch = max(1, PAIR_BATCH_CAP // (q * q * d * d))
    c = np.eye(d, dtype=complex)
    rows = np.empty((n_sites + 1, q, d, d), dtype=complex)
    for m in range(n_sites, -1, -1):
        rows[m] = c @ g
        for lo in range(m + 1, n_sites + 1, per_batch):
            hi = min(lo + per_batch, n_sites + 1)
            # pairs[k, b, a] = rows[lo + k, b] @ t^a
            pairs = rows[lo:hi].reshape(-1, d * d) @ right
            for _ in range(m):
                pairs = transfer_apply(code, pairs)
            yield m, np.arange(lo, hi), pairs.reshape(hi - lo, q, q, d, d).swapaxes(1, 2)
        if m > 0:
            rows[m:] = transfer_apply(code, rows[m:])
            c = transfer_apply(code, c)
    yield None, np.arange(n_sites + 1), rows


def encode_dense(code: VbsCode, logical, insertions=()) -> np.ndarray:
    """Dense state vectors of encoded (optionally decorated) logical inputs.

    ``logical`` is a basis index or a stack (..., d) of logical vectors.
    Insertion operators may be stacks (..., d, d) that broadcast against
    that batch, as in :func:`edge_overlap`: ``encode_dense(code, np.eye(d),
    [(n, g[:, None])])`` is the (q, d, d_Q) stack of every basis state with
    t^a at bond n.  Returns (..., d_Q), each vector ordered with site 1 as
    the slowest tensor factor and the edge factor last.  Raises before
    allocating when one state exceeds ``DENSE_CAP`` amplitudes or the whole
    batch exceeds ``DENSE_STACK_CAP``; use the transfer operations beyond
    that regime.
    """
    if code.dense_size > DENSE_CAP:
        raise ValueError(
            f"dense encoding needs {code.dense_size} amplitudes, cap is {DENSE_CAP}; "
            "use the transfer-matrix operations instead"
        )
    if np.isscalar(logical):
        vec = np.zeros(code.d, dtype=complex)
        vec[int(logical)] = 1.0
    else:
        vec = np.asarray(logical, dtype=complex)
    grouped = _group_insertions(code, insertions)
    batch = np.broadcast_shapes(vec.shape[:-1], *(op.shape[:-2] for op in grouped.values()))
    if prod(batch) * code.dense_size > DENSE_STACK_CAP:
        raise ValueError(
            f"dense encoding of a batch {batch} needs {prod(batch) * code.dense_size} "
            f"amplitudes, over the budget of {DENSE_STACK_CAP}"
        )
    # (..., strings so far, d): the site strings flattened, site 1 slowest
    tensor = vec[..., None, :]
    # (tensor @ kraus_rows)[..., (i, b)] = sum_g A^i_bg tensor[..., g]
    kraus_rows = code.kraus.reshape(-1, code.d).T
    for bond in range(code.n_sites + 1):
        if bond > 0:
            tensor = tensor @ kraus_rows
            tensor = tensor.reshape(*tensor.shape[:-2], -1, code.d)
        if bond in grouped:
            tensor = tensor @ grouped[bond].swapaxes(-1, -2)
    return tensor.reshape(*tensor.shape[:-2], -1)


def dense_isometry(code: VbsCode):
    """Dense encodings of the logical basis as a code isometry."""
    states = encode_dense(code, np.eye(code.d))
    return CodeIsometry(isometry=states.T, site_dims=code.site_dims)


def edge_state(code: VbsCode, alpha: int, n: int) -> tuple[np.ndarray, np.ndarray]:
    """Edge-site density matrix after n transfer steps, two ways.

    Returns (iterated, closed) where closed = I/d + 2 chi^n sum_a t^a t^a_aa;
    the pair is checked to agree before returning.
    """
    if not 0 <= n <= code.n_sites:
        raise ValueError(f"step count {n} outside 0..{code.n_sites}")
    proj = np.zeros((code.d, code.d), dtype=complex)
    proj[alpha, alpha] = 1.0
    iterated = transfer_power(code, proj, n)
    g = code.basis.generators
    closed = np.eye(code.d) / code.d + 2.0 * code.chi**n * np.einsum(
        "a,aij->ij", g[:, alpha, alpha], g
    )
    if np.abs(iterated - closed).max() > 1e-12:
        raise ContractionError("edge state closed form disagrees with iteration")
    return iterated, closed


def bulk_state(code: VbsCode, alpha: int, n: int) -> np.ndarray:
    """Reduced density matrix of bulk site n, as the complementary-channel
    output rho[i, j] = tr(sigma_n A^j A^i) of sigma_n = E^(n-1)(|alpha><alpha|)."""
    if not 1 <= n <= code.n_sites:
        raise ValueError(f"site index {n} outside 1..{code.n_sites}")
    proj = np.zeros((code.d, code.d), dtype=complex)
    proj[alpha, alpha] = 1.0
    sigma = transfer_power(code, proj, n - 1)
    return np.einsum("ab,jbc,ica->ij", sigma, code.kraus, code.kraus)


def detection_closed_form(code: VbsCode, a, bond) -> np.ndarray:
    """Closed-form logical matrix chi^n t^a for a single bond insertion;
    an index array ``a`` gives the stack of matrices, and a bond array
    shaped to broadcast against it, such as (N + 1, 1, 1, 1), one stack per
    bond."""
    return code.chi**bond * code.basis.generators[a]


def correlation_closed_form(code: VbsCode, a, b, m: int, n) -> np.ndarray:
    """Closed-form logical matrix for the two-bond insertion.

    chi^(n-m) delta_ab I / (2d) + chi^n h_bac t^c / 2 with
    h_bac = d_bac + i f_bac.  The product h_bac t^c / 2 is read from the
    basis (:attr:`qx.su_algebra.SuBasis.h_t`), formed once per basis.
    Index arrays ``a`` and ``b`` broadcast to a stack of matrices; an array
    ``n`` shaped to broadcast against that stack gives one stack per bond.
    """
    mat = code.chi**n * code.basis.h_t[b, a]
    diagonal = np.equal(a, b)[..., None, None]
    return mat + diagonal * (code.chi ** (n - m) / (2.0 * code.d) * np.eye(code.d))


def _site_term(code: VbsCode, upper: list, site: int, t: np.ndarray) -> np.ndarray:
    """Bond expansion of one adjoint site operator below fixed upper insertions."""
    low = edge_overlap(code, ket_insertions=upper + [(site - 1, t)])
    high = edge_overlap(code, ket_insertions=upper + [(site, t)])
    return low - high


def site_expectation(code: VbsCode, a, site: int) -> np.ndarray:
    """Logical matrix of one adjoint site operator via bond expansion,
    equal to d^2 chi^(site-1)/(d^2-1) t^a; an index array ``a`` gives the
    stack of matrices."""
    if not 1 <= site <= code.n_sites:
        raise ValueError(f"site index {site} outside 1..{code.n_sites}")
    return _site_term(code, [], site, code.basis.generators[a])


def site_operator_overlaps(
    code: VbsCode, a, b, m: int, n: int
) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
    """Adjoint site-operator logical matrices via bond expansion.

    Returns (<T_n^a>, <T_n^a t_edge^b>, <T_m^a T_n^b>) for sites 1 <= m < n
    <= N, where T acts through [A^i, t] on the chain.  Index arrays ``a``
    and ``b`` broadcast to stacks, as in :func:`site_overlap_closed_forms`.
    Every entry is checked against its closed form before returning.
    """
    if not 1 <= m < n <= code.n_sites:
        raise ValueError(f"site pair ({m}, {n}) must satisfy 1 <= m < n <= N")
    g = code.basis.generators
    ta, tb = g[a], g[b]
    single = _site_term(code, [], n, ta)
    with_edge = _site_term(code, [(code.n_sites, tb)], n, ta)
    pair = _site_term(code, [(n - 1, tb)], m, ta) - _site_term(code, [(n, tb)], m, ta)
    values = (single, with_edge, pair)
    closed = site_overlap_closed_forms(code, a, b, m, n)
    for got, form in zip(values, closed):
        if np.abs(got - form).max() > 1e-12:
            raise ContractionError("site overlap disagrees with its closed form")
    return values


def site_overlap_closed_forms(
    code: VbsCode, a, b, m: int, n: int
) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
    """Closed-form logical matrices matching :func:`site_operator_overlaps`;
    index arrays ``a`` and ``b`` broadcast to stacks."""
    q = float(code.site_dim)
    d = code.d
    chi = code.chi
    diagonal = np.equal(a, b)[..., None, None] * np.eye(d)
    single = d * d / q * chi ** (n - 1) * code.basis.generators[a]
    with_edge = -d / (2.0 * q) * chi ** (code.n_sites - n) * diagonal
    pair = -(d**3) / (2.0 * q * q) * chi ** (n - m - 1) * diagonal
    return single, with_edge, pair


def sum_rule_check(code: VbsCode, a) -> np.ndarray:
    """Entrywise residual |t^a - edge term - bulk terms| of the telescoping
    decomposition of t^a; an index array ``a`` gives the stack."""
    t = code.basis.generators[a]
    total = edge_overlap(code, ket_insertions=[(code.n_sites, t)])
    for site in range(1, code.n_sites + 1):
        total = total + _site_term(code, [], site, t)
    return np.abs(t - total)


def effective_noise_channel(
    code: VbsCode, eps, bonds=None
) -> tuple[KrausChannel, np.ndarray, float]:
    """Random-unitary mixture of bond error gates and its one-unitary proxy.

    The mixture averages exp(i chi^n sum_k eps_k t^k) uniformly over the
    given bonds (default 1..N).  The proxy exponentiates the bond-averaged
    scale, which for the default bond set equals :func:`eta`.  Returns the
    mixture channel, the proxy unitary, and the trace distance between
    their Choi matrices.
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
    mixture = KrausChannel.from_kraus(gates[:-1] * (1.0 / sqrt(len(bonds))))
    unitary = gates[-1]
    proxy = KrausChannel.from_kraus([unitary])
    discrepancy = trace_distance(choi_matrix(mixture), choi_matrix(proxy))
    return mixture, unitary, discrepancy


def compressed_transversal_gate(
    code: VbsCode, site_matrix: np.ndarray, edge_matrix: np.ndarray
) -> np.ndarray:
    """Logical compression V+ (W^(xN) x M) V of a transversal product gate,
    contracted by the twisted transfer map; cost linear in N."""
    w = np.asarray(site_matrix, dtype=complex)
    c = np.asarray(edge_matrix, dtype=complex)
    d = code.d
    if w.shape != (code.site_dim, code.site_dim) or c.shape != (d, d):
        raise ValueError("factor shapes do not match the code sites")
    # vec(c) @ twist = vec(sum_ji w_ji A^j+ c A^i)
    twist = _superoperator(code.kraus.conj().swapaxes(-1, -2), w)
    c = c.reshape(d * d)
    for _ in range(code.n_sites):
        c = c @ twist
    return c.reshape(d, d)


@dataclass(frozen=True)
class CovariantGateResult:
    site_factor: np.ndarray
    edge_factor: np.ndarray
    n_sites: int
    covariance_residual: float
    logical_gate: np.ndarray
    logical_deviation: float


def covariant_gate(code: VbsCode, g: np.ndarray) -> CovariantGateResult:
    """Transversal realization of a logical special unitary g.

    The physical gate is the adjoint rotation of g on every bulk site and g
    itself on the edge.  The covariance residual is the worst basis-state
    deficit max_alpha |1 - |<psi_(g alpha)| U |psi_alpha>|| and the logical
    deviation measures leakage out of the code space, both contracted by
    transfer so any N is reachable.  The leakage comes through a Gram matrix
    and saturates near sqrt(machine epsilon) for exactly covariant gates;
    qec_core.logical_operator_check gives the full-precision value when the
    dense operator is affordable.
    """
    g = check_unitary(g, code.d)
    site = adjoint_group_element(code.basis, g)
    logical = compressed_transversal_gate(code, site, g)
    diag = np.abs(np.diag(g.conj().T @ logical))
    residual = float(np.max(np.abs(1.0 - diag)))
    gram = np.eye(code.d) - logical.conj().T @ logical
    deviation = float(np.sqrt(max(0.0, np.linalg.eigvalsh(gram).max())))
    return CovariantGateResult(
        site_factor=site,
        edge_factor=g,
        n_sites=code.n_sites,
        covariance_residual=residual,
        logical_gate=logical,
        logical_deviation=deviation,
    )


def erasure_bound(code: VbsCode) -> float:
    """Scale proxy 1/(N * spectral range) from the widest adjoint generator.

    Reported as a relative scaling quantity with unit proportionality
    constant, not an absolute error.
    """
    spec = np.linalg.eigvalsh(-1j * code.basis.f)  # every adjoint generator
    return 1.0 / (code.n_sites * float((spec[:, -1] - spec[:, 0]).max()))


def bond_error_weights(code: VbsCode, bonds, strength: float) -> tuple[float, float]:
    """Kraus weights (identity, per-insertion) for the bond error family.

    Weights are fixed so the family is trace preserving on code states:
    (1-p) + c^2 |bonds| (d^2-1) / (2d) = 1.
    """
    if not 0.0 < strength < 1.0:
        raise ValueError("error strength must lie strictly between 0 and 1")
    c = sqrt(2.0 * code.d * strength / (len(bonds) * code.site_dim))
    return sqrt(1.0 - strength), c


def _bond_list(code: VbsCode, bonds) -> list[int]:
    if bonds is None:
        return [code.n_sites]
    out = [int(n) for n in bonds]
    if not out or not all(0 <= n <= code.n_sites for n in out):
        raise ValueError(f"bond list {out} outside 0..{code.n_sites}")
    return out


def bond_error_stacks(code: VbsCode, bonds=None, strength: float = 0.1) -> list[np.ndarray]:
    """Dense code-state stacks E_i V for the bond error family.

    The family is the weighted identity followed by every generator inserted
    at every listed bond (default: the edge bond N), ordered bond-major.
    Each bond is one batched :func:`encode_dense` call; the K (d_Q, d_L)
    stacks are returned as a list of views into those blocks.
    """
    bonds = _bond_list(code, bonds)
    w0, w = bond_error_weights(code, bonds, strength)
    eye = np.eye(code.d)
    base = encode_dense(code, eye)
    base *= w0
    stacks = [base.T]
    for n in bonds:
        block = encode_dense(code, eye, [(n, code.basis.generators[:, None])])
        block *= w
        stacks += list(block.swapaxes(-1, -2))
    return stacks


def bond_error_compressions(
    code: VbsCode, bonds=None, strength: float = 0.1
) -> np.ndarray:
    """Compression tensor M[i, j] = V+ E_i+ E_j V for the bond error family,
    contracted entirely by transfer so any N is reachable: the identity row
    and the same-bond blocks by :func:`edge_overlap`, the cross-bond blocks
    by one :func:`insertion_overlaps` pass (within 1e-15 of edge_overlap's)."""
    bonds = _bond_list(code, bonds)
    k = 1 + len(bonds) * code.site_dim
    if k * k * code.d * code.d > DENSE_STACK_CAP:
        raise ValueError(
            f"bond error compressions need {k * k * code.d * code.d} amplitudes, "
            f"over the budget of {DENSE_STACK_CAP}"
        )
    w0, w = bond_error_weights(code, bonds, strength)
    families = [(0, w0 * np.eye(code.d)[None])]
    families += [(n, w * code.basis.generators) for n in bonds]
    start = np.cumsum([0] + [len(ops) for _, ops in families])
    rows = [slice(lo, hi) for lo, hi in zip(start, start[1:])]
    m = np.zeros((start[-1], start[-1], code.d, code.d), dtype=complex)
    rows_at = {n: [r for b, r in zip(bonds, rows[1:]) if b == n] for n in bonds}
    for i, (bond_i, ops_i) in enumerate(families):
        for j, (bond_j, ops_j) in enumerate(families[i:], start=i):
            if i and bond_j != bond_i:
                continue  # a cross-bond block, filled from the pass below
            bra, ket = [(bond_i, ops_i[:, None])], [(bond_j, ops_j[None, :])]
            m[rows[i], rows[j]] = edge_overlap(code, bra, ket)
            if j > i:
                m[rows[j], rows[i]] = m[rows[i], rows[j]].conj().transpose(1, 0, 3, 2)
    if len(rows_at) == 1:
        return m
    for low, highs, overlaps in insertion_overlaps(code):
        if low not in rows_at:
            continue  # the single-insertion rows (low None) or an unlisted bond
        # overlaps[k, a, b] is M[(highs[k], b), (low, a)] / w^2: the pass puts
        # t^b right of the matrix carried down to bond highs[k], edge_overlap
        # puts (t^b)+ = t^b (Hermitian generators) left of it; they agree as
        # that matrix is the identity (the transfer is unital)
        for n, block in zip(highs, (w * w) * overlaps.swapaxes(1, 2)):
            for r, s in product(rows_at.get(int(n), ()), rows_at[low]):
                m[r, s], m[s, r] = block, block.conj().transpose(1, 0, 3, 2)
    return m


def bond_error_charges(code: VbsCode, bonds=None) -> tuple[np.ndarray, np.ndarray]:
    """Z2 bitmask charges (errors (K,), logical basis (d,)) of the bond error
    family under the sign matrices S = diag(+-1), which act transversally on
    the code: M_ij[a, b] is nonzero only if c_i ^ (1<<a) == c_j ^ (1<<b),
    the sectors of :func:`qx.qec_core.kl_report_from_compressions`.  A
    generator on the pair (j, k) has charge (1<<j) ^ (1<<k), read from its
    off-diagonal support; the identity and the diagonal ones have 0."""
    bonds = _bond_list(code, bonds)
    bits = 1 << np.arange(code.d)
    support = (code.basis.generators != 0) & ~np.eye(code.d, dtype=bool)
    return np.concatenate([[0], np.tile(support.any(axis=-1) @ bits, len(bonds))]), bits


def bond_noise(code: VbsCode, compressions, strength: float):
    """(D, c) of the bond error family as its own noise, for
    :func:`qx.qec_core.logical_recovery_channel`: the first error is w0 I,
    so D_j = V+ E_j V = M[0, j] / w0 for the family's compressions M, and
    c = [0 | I]."""
    w0, _ = bond_error_weights(code, [code.n_sites], strength)
    k = len(compressions)
    return compressions[0] / w0, np.eye(k, k + 1, 1)
