"""Correctability conditions, canonical recovery, and gate-structure checks.

Errors enter only as code-state stacks E V of shape (d_Q, d_L): a family of
K of them is a sequence of the stacks.  The sum over d_Q is made once, in
:func:`error_compressions`, as one Gram product summed over row blocks
gathered from the stacks, so the stacks are held once plus two row-block
slabs, never side by side in one copy; the report, the recovery, its logical channel and the
subsystem check read only the d_L-sized blocks V+ E_i+ E_j V after it.  A
transversal generator is applied to V one site at a time.  The only
physical d_Q x d_Q arrays are the gates handed to
:func:`logical_operator_check` and :func:`subsystem_gate_factorization`,
:meth:`CodeIsometry.projector`, and the physical-space oracle
:func:`recovery_from_kl`.  The report solves its Gram and ``epsilon``
eigenproblems one block at a time, the blocks read from the exact zeros of
the matrices themselves (one block when there are none).
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .quantum_ops import (
    KrausChannel,
    apply_on_site,
    choi_matrix,
    entanglement_fidelity,
    omega_matrix,
    trace_distance,
)
from .su_algebra import check_unitary, expi_hermitian

__all__ = [
    "CodeIsometry",
    "KLReport",
    "SubsystemSplit",
    "error_compressions",
    "kl_report_from_compressions",
    "kl_decompose",
    "recovery_from_kl",
    "logical_recovery_channel",
    "recovery_error",
    "epsilon_from_report",
    "span_transform",
    "logical_operator_check",
    "transversal_collapse_check",
    "subsystem_kl_check",
    "subsystem_gate_factorization",
    "format_kl_report",
]

ISOMETRY_TOL = 1e-12
CUTOFF_REL = 1e-12
DENSE_RECOVERY_CAP = 4096
# rows per product in _gram: bounds its row-block slab and that slab's
# conjugated copy (1.8 MB each for the 27 columns of the vbs:3:5 bond family)
_ROW_BLOCK = 4096


class DegenerateNoiseError(RuntimeError):
    """All noise eigenvalues fell below the cutoff."""


@dataclass(frozen=True)
class CodeIsometry:
    """An encoding isometry V with V+V = I; the projector is P = V V+."""

    isometry: np.ndarray
    site_dims: tuple[int, ...] | None = None

    def __post_init__(self):
        v = np.asarray(self.isometry, dtype=complex)
        object.__setattr__(self, "isometry", v)
        if v.ndim != 2 or not 0 < v.shape[1] <= v.shape[0]:
            raise ValueError(f"isometry shape {v.shape} is not tall or has no column")
        with np.errstate(all="ignore"):  # a non-finite Gram matrix fails below
            gram = _gram([v]) - np.eye(v.shape[1])
        if not np.abs(gram).max() <= ISOMETRY_TOL:
            raise ValueError("columns are not orthonormal")
        if self.site_dims is not None:
            dims = tuple(int(d) for d in self.site_dims)
            object.__setattr__(self, "site_dims", dims)
            if int(np.prod(dims)) != v.shape[0]:
                raise ValueError("site dimensions do not multiply to d_Q")

    @property
    def d_l(self) -> int:
        return self.isometry.shape[1]

    @property
    def d_q(self) -> int:
        return self.isometry.shape[0]

    def projector(self) -> np.ndarray:
        return self.isometry @ self.isometry.conj().T


def _check_family(code: CodeIsometry, stacks) -> None:
    """Raise ValueError unless ``stacks`` is a non-empty sequence of
    (d_Q, d_L) stacks, a list or an array whose first axis runs over the
    errors."""
    shape = (code.d_q, code.d_l)
    for got in map(np.shape, stacks):
        if got != shape:
            raise ValueError(f"error stack shape {got} is not (d_Q, d_L) = {shape}")
    if not len(stacks):
        raise ValueError("error list must not be empty")


def _error_family(code: CodeIsometry, stacks) -> np.ndarray:
    """Code-state stacks E_i V side by side, as one (d_Q, K*d_L) operand,
    for the physical-space oracle :func:`recovery_from_kl` alone.

    Each stack.T is copied once into a (K, d_L, d_Q) row buffer, whose
    Fortran-ordered transpose is returned.
    """
    _check_family(code, stacks)
    rows = np.empty((len(stacks), code.d_l, code.d_q), dtype=complex)
    for row, stack in zip(rows, stacks):
        row.T[...] = stack
    return rows.reshape(-1, code.d_q).T


def _gram(stacks) -> np.ndarray:
    """A+ A for the K (n, p) ``stacks`` side by side as A, (n, K*p), summed
    over blocks of ``_ROW_BLOCK`` rows: rows lo:hi of every stack are
    gathered into one reused C-ordered (K*p, rows) slab S, and S.conj() @ S.T
    is added.  S.T has the Fortran layout of rows lo:hi of a copy of A, so
    each block product has the bits it would have there; nothing the size
    of A is copied."""
    k, (n, p) = len(stacks), np.shape(stacks[0])
    buffer = np.empty(k * p * min(n, _ROW_BLOCK), dtype=complex)
    gram = None
    for lo in range(0, n, _ROW_BLOCK):
        rows = min(_ROW_BLOCK, n - lo)
        slab = buffer[:k * p * rows].reshape(k * p, rows)
        for part, stack in zip(slab.reshape(k, p, rows), stacks):
            part[...] = stack[lo:lo + rows].T
        term = slab.conj() @ slab.T
        if gram is None:
            gram = term
        else:
            gram += term
    return gram


def error_compressions(code: CodeIsometry, errors) -> np.ndarray:
    """Tensor M[i, j] = V+ E_i+ E_j V of shape (K, K, d_L, d_L)."""
    _check_family(code, errors)
    k, d_l = len(errors), code.d_l
    return _gram(errors).reshape(k, d_l, k, d_l).transpose(0, 2, 1, 3)


@dataclass(frozen=True)
class KLReport:
    """Quasi-correctability decomposition of an error family on a code.

    The compression splits as V+ E_i+ E_j V = gram[i, j] I + traceless part;
    diagonalizing the Gram matrix gives noise eigenvalues (descending) and
    the rotation with F_k = sum_j rotation[k, j] E_j.  ``residuals`` holds
    the rotated traceless parts and ``residual_weights`` their squared
    Frobenius norms; ``first_order_distance`` is their eigenvalue-weighted
    aggregate (1/2 d_L) sum_kl weights[k, l] / eig[k] over retained modes.
    ``compressions`` is the tensor M[i, j] = V+ E_i+ E_j V the report was
    built from, held without a copy; with ``residuals`` it is all that the
    recovery reads, whichever route made it.  The rotation is exactly zero
    between the blocks of the Gram matrix.
    """

    error_count: int
    logical_dim: int
    gram: np.ndarray
    eigenvalues: np.ndarray
    rotation: np.ndarray
    residuals: np.ndarray
    residual_weights: np.ndarray
    retained: np.ndarray
    env_size: int
    first_order_distance: float
    cutoff: float
    compressions: np.ndarray


def _blocks(rows: np.ndarray, cols: np.ndarray, n: int) -> list[np.ndarray]:
    """The connected components of the graph on n nodes with edges
    rows[e] -- cols[e], grouped by :func:`_sector_groups`: each edge hooks
    the larger of its two roots to the smaller, then every node jumps to
    its root, until no edge joins two roots.  So each root is the smallest
    node of its component, and no (n, n) array is formed."""
    root = np.arange(n)
    while True:
        a, b = root[rows], root[cols]
        if np.array_equal(a, b):
            return _sector_groups(root)
        np.minimum.at(root, np.maximum(a, b), np.minimum(a, b))
        while not np.array_equal(up := root[root], root):
            root = up


def _sector_groups(labels: np.ndarray) -> list[np.ndarray]:
    """Positions of each value of ``labels``, one (m, s) array per block
    size s whose rows are the m blocks of that size; plain sorting, as
    ``np.unique`` imports ``numpy.ma``."""
    order = labels.argsort(kind="stable")
    ranked = labels[order]
    bounds = [0, *(np.flatnonzero(ranked[1:] != ranked[:-1]) + 1).tolist(), len(labels)]
    starts: dict[int, list[int]] = {}
    for lo, hi in zip(bounds, bounds[1:]):
        starts.setdefault(hi - lo, []).append(lo)
    return [order[np.array(firsts)[:, None] + np.arange(s)] for s, firsts in starts.items()]


def kl_report_from_compressions(
    compressions: np.ndarray, cutoff_rel: float = CUTOFF_REL
) -> KLReport:
    """Build the quasi-correctability report from V+ E_i+ E_j V tensors.

    The Gram matrix is diagonalized one block at a time, the connected
    components of its nonzero pattern, with one ``eigh`` per block size:
    symmetry (the sign matrices diag(+-1) of an SU(d)-covariant code) makes
    it exactly block sparse, and the rotation and residuals are then
    exactly zero across blocks.  Modes are sorted by descending eigenvalue,
    ties in reverse error order, as on one ``eigh`` of the whole matrix.
    """
    m = np.asarray(compressions, dtype=complex)
    k, _, d_l, _ = m.shape
    gram = np.einsum("ijaa->ij", m) / d_l
    gram = (gram + gram.conj().T) / 2.0
    eigvals, vecs = np.empty(k), np.zeros((k, k), dtype=complex)
    for idx in _blocks(*np.nonzero(gram), k):
        rows, cols = idx[:, :, None], idx[:, None, :]
        eigvals[idx], vecs[rows, cols] = np.linalg.eigh(gram[rows, cols])
    order = np.argsort(eigvals, kind="stable")[::-1]
    eigvals = eigvals[order]
    rotation = vecs[:, order].T
    cutoff = cutoff_rel * max(eigvals.max(), 0.0)
    retained = eigvals > cutoff
    if not retained.any():
        raise DegenerateNoiseError("all noise eigenvalues are below the cutoff")
    # F_k+ F_l compressions: rotate the first error index, then the second
    t = (rotation.conj() @ m.reshape(k, -1)).reshape(k, k, d_l * d_l)
    residuals = (rotation @ t).reshape(k, k, d_l, d_l)
    idx = np.arange(k)
    residuals[idx, idx] -= eigvals[:, None, None] * np.eye(d_l)
    weights = np.einsum("klab,klab->kl", residuals.conj(), residuals).real
    first_order = float(
        weights[retained, :].sum(axis=1) @ (1.0 / eigvals[retained]) / (2.0 * d_l)
    )
    return KLReport(
        error_count=k,
        logical_dim=d_l,
        gram=gram,
        eigenvalues=eigvals,
        rotation=rotation,
        residuals=residuals,
        residual_weights=weights,
        retained=retained,
        env_size=int(retained.sum()),
        first_order_distance=first_order,
        cutoff=float(cutoff),
        compressions=m,
    )


def kl_decompose(code: CodeIsometry, errors, cutoff_rel: float = CUTOFF_REL) -> KLReport:
    """Quasi-correctability report of a sequence of error stacks on a code.

    Nothing with a d_Q axis outlives the call: a caller that passes a list
    it holds nowhere else frees the stacks here.
    """
    return kl_report_from_compressions(error_compressions(code, errors), cutoff_rel=cutoff_rel)


def _completion_remainder(s: np.ndarray) -> tuple[float, np.ndarray]:
    """Damping factor and spectrum of I - damping^2 T+T, given the spectrum s
    of T+T.

    Quasi residuals can push the top of sum R+R = T+T above one, where the
    square-root completion would not exist: every R_k is then damped by the
    common factor 1/sqrt(top) with top = s_max, and otherwise top = 1; the
    remainder is (top - s) / top on both branches.  Symmetry makes the top
    of T+T an exactly degenerate cluster (24 modes at vbs:3:5 bond) that
    rounding splits: ``eigh`` is backward stable, so by Weyl's inequality
    each computed eigenvalue of the n x n operand is off by at most
    c n eps s_max.  Every remainder within bound = 64 n eps (c = 32 on both
    ends of a gap) is set to exactly 0; its square root (up to ~1e-7) would
    otherwise enter the completion.  The same bound decides the branch:
    damping happens iff s_max > 1 + bound.  The remainder is then never
    negative: a damped one is (s_max - s) / s_max >= 0, and an undamped
    1 - s is at least -bound, since s_max <= 1 + bound (a float) and 1 - s
    rounds exactly for s near 1; the snap sets it to 0.
    """
    bound = 64 * len(s) * np.finfo(float).eps
    top = s.max() if s.max() > 1.0 + bound else 1.0
    remainder = (top - s) / top
    remainder[np.abs(remainder) <= bound] = 0.0
    return 1.0 / np.sqrt(top), remainder


def _recovery_kernel(report: KLReport, normalization: str):
    """Factors (W, G, X, C) of a recovery normalization, from the report alone.

    The recovery factor T (d_Q, r*d_L) holds the retained rotated stacks
    F_k V side by side, T[:, (k, a)] = sum_j W[k, j] E_j V[:, a], where W is
    the retained rotation scaled by 1/sqrt(eig_k) except under
    ``transpose``.  T itself is not formed: G = T+T is the retained block of
    the rotated compressions, the residuals plus eig_k I on the diagonal.
    The recovery Kraus elements are V X_k T+ for each retained mode k,
    followed by the completion I - T C T+ unless C is None.  ``X``
    (r, d_L, r*d_L) is the damped block selector (canonical), the plain
    selector (raw), or the blocks of G^(-1/2) on its support (transpose);
    X and C both come from one eigendecomposition of G.
    """
    if normalization not in ("canonical", "transpose", "raw"):
        raise ValueError(f"unknown normalization {normalization!r}")
    kept = report.retained
    eig = report.eigenvalues[kept]
    scale = np.ones_like(eig) if normalization == "transpose" else 1.0 / np.sqrt(eig)
    w = report.rotation[kept] * scale[:, None]
    r, d_l = len(eig), report.logical_dim
    blocks = report.residuals[np.ix_(kept, kept)]
    blocks[np.arange(r), np.arange(r)] += eig[:, None, None] * np.eye(d_l)
    blocks *= np.outer(scale, scale)[:, :, None, None]
    gram = blocks.transpose(0, 2, 1, 3).reshape(r * d_l, r * d_l)
    selector = np.eye(r * d_l).reshape(r, d_l, r * d_l)
    if normalization == "raw":
        return w, gram, selector, None
    s, y = np.linalg.eigh((gram + gram.conj().T) / 2.0)
    keep = s > CUTOFF_REL * max(s.max(), 0.0)
    s, y = s[keep], y[:, keep]
    if normalization == "transpose":
        x = ((y * s**-0.5) @ y.conj().T).reshape(r, d_l, r * d_l)
        return w, gram, x, (y / s) @ y.conj().T
    damping, remainder = _completion_remainder(s)
    coeff = (1.0 - np.sqrt(remainder)) / s
    return w, gram, damping * selector, (y * coeff) @ y.conj().T


def recovery_from_kl(
    code: CodeIsometry, report: KLReport, errors, normalization: str = "canonical"
) -> KrausChannel:
    """Canonical recovery channel built from the diagonalized error family.

    ``errors`` are the code-state stacks E_i V the report was built from;
    this physical-space oracle is the one place that forms the recovery
    factor T of :func:`_recovery_kernel`.

    ``normalization="canonical"`` scales R_k = P F_k+ / sqrt(eig_k).  For
    exact codes the subspaces F_k P are orthogonal, sum R_k+ R_k is a
    projector, and the appended completion element sqrt(I - sum R+R) makes
    the channel trace preserving with no further adjustment.  For quasi
    codes the residuals push sum R+R slightly above one and the square-root
    completion would not exist; all R_k are then damped by the smallest
    common factor restoring positivity before completing, which perturbs the
    channel at the size of the residuals and vanishes in the exact limit.

    ``normalization="transpose"`` uses R_k = P F_k+ M^(-1/2) with
    M = sum_k F_k P F_k+, trace preserving by construction; it coincides
    with the canonical scaling on every exact code.

    ``normalization="raw"`` returns the bare Kraus family
    {P F_k+ / sqrt(eig_k)} with no completion; the map is trace
    non-increasing on quasi codes.
    """
    if code.d_q > DENSE_RECOVERY_CAP:
        raise ValueError(
            f"dense recovery at d_Q={code.d_q} exceeds the cap; "
            "use logical_recovery_channel instead"
        )
    w, _, x, core = _recovery_kernel(report, normalization)
    t = _error_family(code, errors) @ np.kron(w.T, np.eye(code.d_l))
    t_adj = t.conj().T
    kraus = code.isometry @ (x @ t_adj)
    if core is not None:
        kraus = np.concatenate([kraus, (np.eye(code.d_q) - (t @ core) @ t_adj)[None]])
    return KrausChannel(kraus)


def logical_recovery_channel(
    report: KLReport, compressed, coefficients, normalization: str = "canonical"
) -> KrausChannel:
    """Logical channel V+ R N V from d_L-sized blocks alone.

    The noise Kraus operators are N_l = c[l, 0] I + sum_j c[l, j+1] E_j over
    the report's error family, with ``coefficients`` c of shape (L, K+1) and
    ``compressed`` the (K, d_L, d_L) blocks D_j = V+ E_j V.  With
    M = ``report.compressions`` and W from :func:`_recovery_kernel`, block k
    of T+ N_l V is sum_j W*[k, j] (c[l, 0] D_j+ + sum_i c[l, i+1] M[j, i]),
    block k of V+ T is sum_j W[k, j] D_j, and V+ N_l V is
    c[l, 0] I + sum_j c[l, j+1] D_j.  The channel is X_k (T+ N_l V) and
    V+ N_l V - (V+ T) C (T+ N_l V), the recovery of :func:`recovery_from_kl`.
    """
    w, _, x, core = _recovery_kernel(report, normalization)
    k, d_l = report.error_count, report.logical_dim
    d = np.asarray(compressed, dtype=complex)
    c = np.asarray(coefficients, dtype=complex)
    if d.shape != (k, d_l, d_l) or c.shape[1:] != (k + 1,):
        raise ValueError(f"noise shapes {d.shape}, {c.shape} are not {(k, d_l, d_l)}, (L, {k + 1})")
    # V+ E_j+ N_l V for every (l, j), then T+ N_l V as (L, r*d_L, d_L)
    e_noise = np.einsum("li,jiab->ljab", c[:, 1:], report.compressions)
    e_noise += c[:, 0, None, None, None] * d.conj().transpose(0, 2, 1)
    t_noise = np.einsum("kj,ljab->lkab", w.conj(), e_noise).reshape(len(c), -1, d_l)
    kraus = (x[:, None] @ t_noise[None]).reshape(-1, d_l, d_l)
    if core is not None:
        v_t = np.einsum("kj,jab->akb", w, d).reshape(d_l, -1)
        v_noise = np.einsum("lj,jab->lab", c[:, 1:], d) + c[:, 0, None, None] * np.eye(d_l)
        kraus = np.concatenate([kraus, v_noise - (v_t @ core) @ t_noise])
    return KrausChannel(kraus)


def recovery_error(q_channel: KrausChannel):
    """Distance of a logical channel from the identity, from one Choi matrix.

    Returns (choi_trace_distance, diamond_bracket, fidelity, bures) where the
    bracket (2 D, 2 d_L D) sandwiches the diamond-norm distance; the
    fidelity is read from the Kraus traces.
    """
    d_l = q_channel.in_dim
    dist = trace_distance(choi_matrix(q_channel), omega_matrix(d_l))
    fid, bures = entanglement_fidelity(q_channel)
    return dist, (2.0 * dist, 2.0 * d_l * dist), fid, bures


def epsilon_from_report(report: KLReport) -> float:
    """Correctability measure from the two system-to-environment maps.

    The constant map sends every state to the Gram matrix on the environment
    index; the perturbed map adds tr(rho B_kl) on top.  Their Choi matrices
    differ by the Choi matrix of the residual map alone, formed in the
    rotated environment basis (the value is invariant under that rotation),
    so epsilon is half its trace norm (its trace distance from zero), with
    no O(1) part to cancel.  That Choi matrix is exactly block diagonal over
    the connected components of its nonzero pattern, and epsilon is the sum
    over its blocks (Beny & Oreshkov, PRL 104, 120501), each gathered
    straight from ``residuals``, equal sizes stacked into one call.
    """
    k = report.error_count
    d_l = report.logical_dim
    # Choi of rho -> sum_kl tr(rho B_kl) |k><l| : entry ((k,a),(l,b)) = B_kl[b,a]/d_L.
    # flat positions ((k K + l) d_L + b) d_L + a of the nonzero entries, read
    # from their real and imaginary parts with integer division alone (a
    # remainder or a 4-D np.nonzero costs several times as much)
    pos = np.flatnonzero(report.residuals.view(float) != 0) // 2
    head, mode = pos // d_l, pos // (k * d_l * d_l)
    rows, cols = mode * d_l + pos - head * d_l, head - mode * (k * d_l)
    del pos, head, mode
    total = 0.0
    for idx in _blocks(rows, cols, k * d_l):
        mode, a = np.divmod(idx, d_l)
        blocks = report.residuals[mode[:, :, None], mode[:, None, :], a[:, None, :], a[:, :, None]]
        blocks /= d_l
        total += trace_distance(blocks, np.zeros_like(blocks)).sum()
    return float(total)


def span_transform(errors, y: np.ndarray) -> list[np.ndarray]:
    """New error family F_l = sum_i y[l, i] E_i over the span of the inputs."""
    y = np.asarray(y, dtype=complex)
    if y.ndim != 2 or y.shape[1] != len(errors):
        raise ValueError(
            f"transform shape {y.shape} does not match {len(errors)} errors"
        )
    stacked = np.stack([np.asarray(e, dtype=complex) for e in errors])
    return list(np.tensordot(y, stacked, axes=1))


def logical_operator_check(
    u: np.ndarray, code: CodeIsometry
) -> tuple[float, np.ndarray]:
    """Deviation of a unitary from preserving the code space.

    Returns (deviation, compressed) where deviation is the operator norm of
    U P - P U P.  Since U P - P U P = (U V - V G) V+ for G = V+ U V, the norm
    equals the largest singular value of the thin matrix U V - V G, and
    ``compressed`` is G (the induced logical gate whenever the deviation is
    small).
    """
    u = check_unitary(u, code.d_q, tol=1e-8)
    moved = u @ code.isometry
    compressed = code.isometry.conj().T @ moved
    deviation = float(np.linalg.norm(moved - code.isometry @ compressed, 2))
    return deviation, compressed


def transversal_collapse_check(
    code: CodeIsometry, site_hamiltonians, coefficients, xi: float
):
    """Logical decomposition of a transversal generator D = sum_j a_j H_j.

    Returns (h, logical_part, collapse_deviation, factorization_deviation)
    where h is the scalar part of V+ D V, logical_part its traceless
    remainder, collapse_deviation the norm of that remainder, and the last
    entry compares V+ exp(i xi D) V against exp(i xi h) exp(i xi logical_part).
    Each H_j must be Hermitian and acts on tensor factor j alone, so the
    terms commute and exp(i xi D) V = prod_j exp(i xi a_j H_j) V: the check
    applies D and its exponential to the (d_Q, d_L) isometry one site at a
    time, with d_j x d_j exponentials, and forms no d_Q x d_Q operator.
    """
    if code.site_dims is None:
        raise ValueError("code carries no site structure")
    dims = code.site_dims
    coefficients = np.asarray(coefficients, dtype=float)
    if len(site_hamiltonians) != len(dims) or coefficients.shape != (len(dims),):
        raise ValueError("need one Hamiltonian and one coefficient per site")
    v = code.isometry
    moved, evolved = np.zeros_like(v), v
    for site, (ham, coeff) in enumerate(zip(site_hamiltonians, coefficients)):
        if ham is None or coeff == 0.0:
            continue
        ham = np.asarray(ham, dtype=complex)
        if ham.shape != (dims[site], dims[site]):
            raise ValueError(f"site {site} Hamiltonian shape {ham.shape} is wrong")
        if not np.abs(ham - ham.conj().T).max() <= 1e-12:
            raise ValueError(f"site {site} Hamiltonian is not Hermitian")
        moved += apply_on_site(v, dims, site, coeff * ham)
        evolved = apply_on_site(evolved, dims, site, expi_hermitian(xi * coeff * ham))
    compressed = v.conj().T @ moved
    h = float(np.real(np.trace(compressed) / code.d_l))
    logical_part = compressed - h * np.eye(code.d_l)
    collapse = float(np.linalg.norm(logical_part, 2))
    factored = np.exp(1j * xi * h) * expi_hermitian(xi * logical_part)
    factorization = float(np.linalg.norm(v.conj().T @ evolved - factored, 2))
    return h, logical_part, collapse, factorization


@dataclass(frozen=True, kw_only=True)
class SubsystemSplit(CodeIsometry):
    """Code space factored as logical x gauge inside the physical space.

    ``isometry`` maps the d_T * d_J dimensional product space (logical factor
    major) onto the code subspace.
    """

    d_t: int
    d_j: int

    def __post_init__(self):
        super().__post_init__()
        if self.d_t < 1 or self.d_j < 1 or self.d_l != self.d_t * self.d_j:
            raise ValueError("degenerate split: factor dimensions do not match")


def subsystem_kl_check(split: SubsystemSplit, errors):
    """Gauge-structure correctability check on a subsystem split.

    ``errors`` is a sequence of code-state stacks E_i V, as in
    :func:`kl_decompose`.  The operator-QEC condition
    P E_i+ E_j P = I_T x J_ij (Kribs, Laflamme & Poulin, PRL 94, 180501)
    is tested on the compressions: J_ij is fitted by partial trace over the
    logical factor, and the residual is the largest operator-norm deviation
    of V+ E_i+ E_j V from I_T x J_ij.  Returns (J, residual), J of shape
    (K, K, d_J, d_J).
    """
    m = error_compressions(split, errors)
    k, d_t, d_j = m.shape[0], split.d_t, split.d_j
    block = m.reshape(k, k, d_t, d_j, d_t, d_j)
    j_ops = np.einsum("ijtatb->ijab", block) / d_t
    gap = (block - np.einsum("ts,ijab->ijtasb", np.eye(d_t), j_ops)).reshape(m.shape)
    return j_ops, float(np.linalg.norm(gap, 2, axis=(-2, -1)).max())


def subsystem_gate_factorization(u: np.ndarray, split: SubsystemSplit, tol: float = 1e-10):
    """Nearest logical-factor form of a gate on a subsystem split.

    Compresses the gate to the code space, extracts the closest unitary
    acting on the logical factor alone, and reports the deviation
    ||compressed - U_T x I_J||.  Raises when the gate is not unitary or does
    not preserve the code space.
    """
    leak, compressed = logical_operator_check(u, split)
    if leak > tol:
        raise ValueError(f"gate leaks out of the code space (deviation {leak:.3e})")
    block = compressed.reshape(split.d_t, split.d_j, split.d_t, split.d_j)
    traced = np.einsum("tjsj->ts", block) / split.d_j
    w, _, vh = np.linalg.svd(traced)
    u_t = w @ vh  # the unitary polar factor
    deviation = float(
        np.linalg.norm(compressed - np.kron(u_t, np.eye(split.d_j)), 2)
    )
    return u_t, deviation


def _fmt_float(x: float) -> str:
    return format(float(x), ".12g")


def _fmt_vector(v) -> str:
    return "[" + ", ".join(_fmt_float(x) for x in v) + "]"


def format_kl_report(report: KLReport, channel: KrausChannel | None = None) -> str:
    """Stable key-value rendering of a report, 12 significant digits; every
    line is O(K), and the K x K matrices stay on the report.  The distances
    are those of ``channel``, the recovered logical channel, and nan without."""
    dist, bracket = (np.nan, (np.nan, np.nan)) if channel is None else recovery_error(channel)[:2]
    lines = [
        f"error_count: {report.error_count}",
        f"logical_dim: {report.logical_dim}",
        f"environment_size: {report.env_size}",
        f"cutoff: {_fmt_float(report.cutoff)}",
        f"eigenvalues: {_fmt_vector(report.eigenvalues)}",
        f"first_order_distance: {_fmt_float(report.first_order_distance)}",
        f"exact_distance: {_fmt_float(dist)}",
        f"diamond_bracket: {_fmt_vector(bracket)}",
        f"epsilon: {_fmt_float(epsilon_from_report(report))}",
        f"max_residual_weight: {_fmt_float(report.residual_weights.max())}",
        f"total_residual_weight: {_fmt_float(report.residual_weights.sum())}",
    ]
    return "\n".join(lines) + "\n"
