"""Correctability conditions, canonical recovery, and gate-structure checks.

Error operators may be passed either as square matrices on the physical
space or as code-state stacks E V of shape (d_Q, d_L); every quantity below
only ever needs the compressions V+ E_i+ E_j V, so stacks keep large codes
tractable.
"""

from __future__ import annotations

from dataclasses import dataclass
from math import sqrt

import numpy as np
import scipy.linalg

from .quantum_ops import (
    KrausChannel,
    choi_matrix,
    entanglement_fidelity,
    omega_matrix,
    trace_distance,
)
from .su_algebra import expi_hermitian

__all__ = [
    "CodeIsometry",
    "KLReport",
    "SubsystemSplit",
    "detect_condition",
    "error_compressions",
    "kl_report_from_compressions",
    "kl_decompose",
    "recovery_from_kl",
    "recovered_logical_channel",
    "logical_recovery_channel",
    "recovery_error",
    "correctability_epsilon",
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
COMPLETION_TOL = 1e-10
DENSE_RECOVERY_CAP = 4096


class DegenerateNoiseError(RuntimeError):
    """All noise eigenvalues fell below the cutoff."""


class CompletionError(RuntimeError):
    """The recovery completion operand failed to be positive semidefinite."""


@dataclass(frozen=True)
class CodeIsometry:
    """An encoding isometry V with V+V = I; the projector is P = V V+."""

    isometry: np.ndarray
    site_dims: tuple[int, ...] | None = None

    def __post_init__(self):
        v = np.asarray(self.isometry, dtype=complex)
        object.__setattr__(self, "isometry", v)
        if v.ndim != 2 or v.shape[0] < v.shape[1]:
            raise ValueError(f"isometry shape {v.shape} is not tall")
        gram = v.conj().T @ v - np.eye(v.shape[1])
        if np.abs(gram).max() > ISOMETRY_TOL:
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


def _as_stack(code: CodeIsometry, op: np.ndarray) -> np.ndarray:
    op = np.asarray(op, dtype=complex)
    if op.shape == (code.d_q, code.d_q):
        return op @ code.isometry
    if op.shape == (code.d_q, code.d_l):
        return op
    raise ValueError(
        f"operator shape {op.shape} is neither physical ({code.d_q}x{code.d_q}) "
        f"nor a code-state stack ({code.d_q}x{code.d_l})"
    )


def detect_condition(code: CodeIsometry, errors) -> list[tuple[complex, float]]:
    """Detection data (e_i, residual_i) for each error operator.

    e_i = tr(V+ E_i V)/d_L and residual_i is the operator norm of the
    traceless remainder of V+ E_i V; the error is exactly detected when the
    residual vanishes.
    """
    out = []
    eye = np.eye(code.d_l)
    for op in errors:
        compressed = code.isometry.conj().T @ _as_stack(code, op)
        e = complex(np.trace(compressed) / code.d_l)
        out.append((e, float(np.linalg.norm(compressed - e * eye, 2))))
    return out


def error_compressions(code: CodeIsometry, errors) -> np.ndarray:
    """Tensor M[i, j] = V+ E_i+ E_j V of shape (K, K, d_L, d_L)."""
    stacks = np.stack([_as_stack(code, op) for op in errors])
    return np.einsum("iqa,jqb->ijab", stacks.conj(), stacks)


@dataclass
class KLReport:
    """Quasi-correctability decomposition of an error family on a code.

    The compression splits as V+ E_i+ E_j V = gram[i, j] I + traceless part;
    diagonalizing the Gram matrix gives noise eigenvalues (descending) and
    the rotation with F_k = sum_j rotation[k, j] E_j.  ``residuals`` holds
    the rotated traceless parts and ``residual_weights`` their squared
    Frobenius norms; ``first_order_distance`` is their eigenvalue-weighted
    aggregate (1/2 d_L) sum_kl weights[k, l] / eig[k] over retained modes.
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
    error_stacks: tuple[np.ndarray, ...] | None = None
    exact_distance: float | None = None
    diamond_bracket: tuple[float, float] | None = None
    epsilon: float | None = None


def kl_report_from_compressions(
    compressions: np.ndarray, cutoff_rel: float = CUTOFF_REL, error_stacks=None
) -> KLReport:
    """Build the quasi-correctability report from V+ E_i+ E_j V tensors."""
    m = np.asarray(compressions, dtype=complex)
    k, _, d_l, _ = m.shape
    gram = np.einsum("ijaa->ij", m) / d_l
    gram = (gram + gram.conj().T) / 2.0
    eigvals, vecs = np.linalg.eigh(gram)
    order = np.argsort(eigvals)[::-1]
    eigvals = eigvals[order]
    rotation = vecs[:, order].T
    cutoff = cutoff_rel * max(eigvals.max(), 0.0)
    retained = eigvals > cutoff
    if not retained.any():
        raise DegenerateNoiseError("all noise eigenvalues are below the cutoff")
    rotated = np.einsum("ki,lj,ijab->klab", rotation.conj(), rotation, m)
    residuals = rotated.copy()
    idx = np.arange(k)
    residuals[idx, idx] -= eigvals[:, None, None] * np.eye(d_l)
    weights = np.einsum("klab,klab->kl", residuals.conj(), residuals).real
    first_order = float(
        weights[retained, :].sum(axis=1) @ (1.0 / eigvals[retained]) / (2.0 * d_l)
    )
    if error_stacks is not None:
        error_stacks = tuple(np.asarray(s, dtype=complex) for s in error_stacks)
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
        error_stacks=error_stacks,
    )


def kl_decompose(code: CodeIsometry, errors, cutoff_rel: float = CUTOFF_REL) -> KLReport:
    """Quasi-correctability report of an error list on a code."""
    if not len(errors):
        raise ValueError("error list must not be empty")
    stacks = [_as_stack(code, op) for op in errors]
    return kl_report_from_compressions(
        error_compressions(code, stacks), cutoff_rel=cutoff_rel, error_stacks=stacks
    )


def _recovery_kernel(report: KLReport, normalization: str):
    """Thin factors (T, X, C) of a recovery normalization.

    ``T`` (d_Q, r*d_L) holds the retained rotated stacks F_k V side by side,
    scaled by 1/sqrt(eig_k) except under ``transpose``.  The recovery Kraus
    elements are V X_k T+ for each retained mode k, followed by the
    completion I - T C T+ unless C is None.  ``X`` (r, d_L, r*d_L) is the
    damped block selector (canonical), the plain selector (raw), or the
    blocks of (T+T)^(-1/2) on its support (transpose); X and C both come from
    one eigendecomposition of T+T.
    """
    if normalization not in ("canonical", "transpose", "raw"):
        raise ValueError(f"unknown normalization {normalization!r}")
    if report.error_stacks is None:
        raise ValueError("report carries no error stacks; rebuild with kl_decompose")
    rotation = report.rotation[report.retained]
    if normalization != "transpose":
        rotation = rotation / np.sqrt(report.eigenvalues[report.retained])[:, None]
    r, d_l = rotation.shape[0], report.logical_dim
    t = np.einsum("kj,jqa->qka", rotation, np.stack(report.error_stacks))
    t = t.reshape(-1, r * d_l)
    selector = np.eye(r * d_l).reshape(r, d_l, r * d_l)
    if normalization == "raw":
        return t, selector, None
    a = t.conj().T @ t
    s, y = np.linalg.eigh((a + a.conj().T) / 2.0)
    keep = s > CUTOFF_REL * max(s.max(), 0.0)
    s, y = s[keep], y[:, keep]
    if normalization == "transpose":
        x = ((y * s**-0.5) @ y.conj().T).reshape(r, d_l, r * d_l)
        return t, x, (y / s) @ y.conj().T
    # Quasi residuals can push the top of sum R+R = T+T above one, where the
    # square-root completion would not exist: damp every R_k by a common factor.
    damping = 1.0 / np.sqrt(s.max()) if s.max() > 1.0 + COMPLETION_TOL else 1.0
    remainder = 1.0 - damping * damping * s
    if remainder.min() < -COMPLETION_TOL:
        raise CompletionError(
            f"completion operand has eigenvalue {remainder.min():.3e} below zero"
        )
    coeff = (1.0 - np.sqrt(np.clip(remainder, 0.0, None))) / s
    return t, damping * selector, (y * coeff) @ y.conj().T


def recovery_from_kl(
    code: CodeIsometry, report: KLReport, normalization: str = "canonical"
) -> KrausChannel:
    """Canonical recovery channel built from the diagonalized error family.

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
    t, x, core = _recovery_kernel(report, normalization)
    t_adj = t.conj().T
    kraus = list(code.isometry @ (x @ t_adj))
    if core is not None:
        kraus.append(np.eye(code.d_q) - (t @ core) @ t_adj)
    return KrausChannel.from_kraus(kraus)


def recovered_logical_channel(
    code: CodeIsometry, noise: KrausChannel, recovery: KrausChannel
) -> KrausChannel:
    """Logical channel V+ R N V from explicit noise and recovery channels."""
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


def logical_recovery_channel(
    code: CodeIsometry,
    report: KLReport,
    noise_stacks,
    normalization: str = "canonical",
) -> KrausChannel:
    """Logical channel V+ R N V without materializing physical recovery Kraus.

    ``noise_stacks`` are the code-state stacks N_l V of the noise Kraus
    family.  The recovery is the same channel as :func:`recovery_from_kl`;
    only thin products of stacks are formed, so large codes stay cheap.
    """
    t, x, core = _recovery_kernel(report, normalization)
    v_adj = code.isometry.conj().T
    noise = [np.asarray(s, dtype=complex) for s in noise_stacks]
    t_adj = t.conj().T
    t_noise = np.stack([t_adj @ nv for nv in noise])  # T+ N_l V
    kraus = list((x[:, None] @ t_noise[None]).reshape(-1, code.d_l, code.d_l))
    if core is not None:
        v_t_core = (v_adj @ t) @ core
        kraus.extend(v_adj @ nv - v_t_core @ tn for nv, tn in zip(noise, t_noise))
    return KrausChannel.from_kraus(kraus)


def recovery_error(q_channel: KrausChannel):
    """Distance of a logical channel from the identity.

    Returns (choi_trace_distance, diamond_bracket, fidelity, bures) where the
    bracket (2 D, 2 d_L D) sandwiches the diamond-norm distance.
    """
    if not q_channel.is_square:
        raise ValueError("recovery error is defined for square channels")
    d_l = q_channel.in_dim
    dist = trace_distance(choi_matrix(q_channel).matrix, omega_matrix(d_l))
    fid, bures = entanglement_fidelity(q_channel)
    return dist, (2.0 * dist, 2.0 * d_l * dist), fid, bures


def epsilon_from_report(report: KLReport) -> float:
    """Correctability measure from the two system-to-environment maps.

    The constant map sends every state to the Gram matrix on the environment
    index; the perturbed map adds tr(rho B_kl) on top.  Both Choi matrices
    are formed in the rotated environment basis (the value is invariant
    under that rotation) and compared in trace distance.
    """
    k = report.error_count
    d_l = report.logical_dim
    choi_const = np.kron(np.diag(report.eigenvalues), np.eye(d_l)) / d_l
    # Choi of rho -> sum_kl tr(rho B_kl) |k><l| : entry ((k,a),(l,b)) = B_kl[b,a]/d_L.
    choi_resid = report.residuals.transpose(0, 3, 1, 2).reshape(k * d_l, k * d_l) / d_l
    return trace_distance(choi_const + choi_resid, choi_const)


def correctability_epsilon(code: CodeIsometry, errors) -> float:
    """Trace-distance correctability measure of an error list on a code."""
    return epsilon_from_report(kl_decompose(code, errors))


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
    u = np.asarray(u, dtype=complex)
    if u.shape != (code.d_q, code.d_q):
        raise ValueError(f"operator shape {u.shape} does not match d_Q={code.d_q}")
    if np.linalg.norm(u.conj().T @ u - np.eye(code.d_q), 2) > 1e-8:
        raise ValueError("operator is not unitary")
    moved = u @ code.isometry
    compressed = code.isometry.conj().T @ moved
    deviation = float(np.linalg.norm(moved - code.isometry @ compressed, 2))
    return deviation, compressed


def _embed_site_operator(site_dims, site: int, op: np.ndarray) -> np.ndarray:
    left = int(np.prod(site_dims[:site], initial=1))
    right = int(np.prod(site_dims[site + 1 :], initial=1))
    return np.kron(np.kron(np.eye(left), op), np.eye(right))


def transversal_collapse_check(
    code: CodeIsometry, site_hamiltonians, coefficients, xi: float
):
    """Logical decomposition of a transversal generator D = sum_j a_j H_j.

    Returns (h, logical_part, collapse_deviation, factorization_deviation)
    where h is the scalar part of V+ D V, logical_part its traceless
    remainder, collapse_deviation the norm of that remainder, and the last
    entry compares V+ exp(i xi D) V against exp(i xi h) exp(i xi logical_part).
    Each H_j must be Hermitian and supported on its own tensor factor, so the
    terms cannot overlap by construction.
    """
    if code.site_dims is None:
        raise ValueError("code carries no site structure")
    dims = code.site_dims
    coefficients = np.asarray(coefficients, dtype=float)
    if len(site_hamiltonians) != len(dims) or coefficients.shape != (len(dims),):
        raise ValueError("need one Hamiltonian and one coefficient per site")
    total = np.zeros((code.d_q, code.d_q), dtype=complex)
    for site, (ham, coeff) in enumerate(zip(site_hamiltonians, coefficients)):
        if ham is None or coeff == 0.0:
            continue
        ham = np.asarray(ham, dtype=complex)
        if ham.shape != (dims[site], dims[site]):
            raise ValueError(f"site {site} Hamiltonian shape {ham.shape} is wrong")
        if np.abs(ham - ham.conj().T).max() > 1e-12:
            raise ValueError(f"site {site} Hamiltonian is not Hermitian")
        total += coeff * _embed_site_operator(dims, site, ham)
    compressed = code.isometry.conj().T @ total @ code.isometry
    h = float(np.real(np.trace(compressed) / code.d_l))
    logical_part = compressed - h * np.eye(code.d_l)
    collapse = float(np.linalg.norm(logical_part, 2))
    evolved = code.isometry.conj().T @ expi_hermitian(xi * total) @ code.isometry
    factored = np.exp(1j * xi * h) * expi_hermitian(xi * logical_part)
    factorization = float(np.linalg.norm(evolved - factored, 2))
    return h, logical_part, collapse, factorization


@dataclass(frozen=True)
class SubsystemSplit:
    """Code space factored as logical x gauge inside the physical space.

    ``isometry`` maps the d_T * d_J dimensional product space (logical factor
    major) onto the code subspace.
    """

    isometry: np.ndarray
    d_t: int
    d_j: int

    def __post_init__(self):
        v = np.asarray(self.isometry, dtype=complex)
        object.__setattr__(self, "isometry", v)
        if self.d_t < 1 or self.d_j < 1 or v.shape[1] != self.d_t * self.d_j:
            raise ValueError("degenerate split: factor dimensions do not match")
        if np.abs(v.conj().T @ v - np.eye(v.shape[1])).max() > ISOMETRY_TOL:
            raise ValueError("split basis is not orthonormal")

    @property
    def d_q(self) -> int:
        return self.isometry.shape[0]

    def projector(self) -> np.ndarray:
        return self.isometry @ self.isometry.conj().T


def default_gauge_states(d_j: int) -> list[np.ndarray]:
    """A tomography-complete set of d_J^2 pure gauge states."""
    states = [np.eye(d_j, dtype=complex)[:, i] for i in range(d_j)]
    for i in range(d_j):
        for j in range(i + 1, d_j):
            plus = np.zeros(d_j, dtype=complex)
            plus[i] = plus[j] = 1.0 / sqrt(2.0)
            states.append(plus)
            imag = np.zeros(d_j, dtype=complex)
            imag[i] = 1.0 / sqrt(2.0)
            imag[j] = 1j / sqrt(2.0)
            states.append(imag)
    return states


def subsystem_kl_check(split: SubsystemSplit, errors, gauge_states=None):
    """Gauge-structure correctability check on a subsystem split.

    Fits J_ij in V+ E_i+ E_j V = I_T x J_ij by partial trace over the logical
    factor and reports the largest deviation from that product form; the
    rectangular route through gauge states (effective errors T -> H must have
    scalar pairwise compressions) is folded into the same residual.
    """
    v = split.isometry
    d_t, d_j = split.d_t, split.d_j
    ops = [np.asarray(e, dtype=complex) for e in errors]
    stacks = [e @ v for e in ops]
    k = len(stacks)
    j_ops = np.zeros((k, k, d_j, d_j), dtype=complex)
    residual = 0.0
    eye_t = np.eye(d_t)
    for i in range(k):
        for j in range(k):
            block = (stacks[i].conj().T @ stacks[j]).reshape(d_t, d_j, d_t, d_j)
            fitted = np.einsum("tatb->ab", block) / d_t
            j_ops[i, j] = fitted
            gap = block - np.einsum("ts,ab->tasb", eye_t, fitted)
            residual = max(residual, float(np.linalg.norm(gap.reshape(d_t * d_j, d_t * d_j), 2)))
    if gauge_states is None:
        gauge_states = default_gauge_states(d_j)
    if len(gauge_states) < d_j * d_j:
        raise ValueError(f"need at least {d_j * d_j} gauge states")
    v_tensor = v.reshape(split.d_q, d_t, d_j)
    eff = []
    for op in ops:
        for g in gauge_states:
            anchored = np.einsum("qtj,j->qt", v_tensor, np.asarray(g, dtype=complex))
            eff.append(op @ anchored)
    for x in eff:
        for y in eff:
            prod = x.conj().T @ y
            scalar = np.trace(prod) / d_t
            residual = max(residual, float(np.linalg.norm(prod - scalar * eye_t, 2)))
    return j_ops, residual


def subsystem_gate_factorization(u: np.ndarray, split: SubsystemSplit, tol: float = 1e-10):
    """Nearest logical-factor form of a gate on a subsystem split.

    Compresses the gate to the code space, extracts the closest unitary
    acting on the logical factor alone, and reports the deviation
    ||compressed - U_T x I_J||.  Raises when the gate does not preserve the
    code space.
    """
    u = np.asarray(u, dtype=complex)
    moved = u @ split.isometry
    compressed = split.isometry.conj().T @ moved
    leak = float(np.linalg.norm(moved - split.isometry @ compressed, 2))
    if leak > tol:
        raise ValueError(f"gate leaks out of the code space (deviation {leak:.3e})")
    block = compressed.reshape(split.d_t, split.d_j, split.d_t, split.d_j)
    traced = np.einsum("tjsj->ts", block) / split.d_j
    u_t, _ = scipy.linalg.polar(traced)
    deviation = float(
        np.linalg.norm(compressed - np.kron(u_t, np.eye(split.d_j)), 2)
    )
    return u_t, deviation


def _fmt_float(x: float) -> str:
    return format(float(x), ".12g")


def _fmt_vector(v) -> str:
    return "[" + ", ".join(_fmt_float(x) for x in v) + "]"


def _fmt_matrix(m) -> str:
    return "[" + "; ".join(", ".join(_fmt_float(x) for x in row) for row in m) + "]"


def format_kl_report(report: KLReport) -> str:
    """Stable key-value rendering of a report, 12 significant digits."""
    lines = [
        f"error_count: {report.error_count}",
        f"logical_dim: {report.logical_dim}",
        f"environment_size: {report.env_size}",
        f"cutoff: {_fmt_float(report.cutoff)}",
        f"eigenvalues: {_fmt_vector(report.eigenvalues)}",
        f"first_order_distance: {_fmt_float(report.first_order_distance)}",
        "exact_distance: "
        + ("nan" if report.exact_distance is None else _fmt_float(report.exact_distance)),
        "diamond_bracket: "
        + (
            "[nan, nan]"
            if report.diamond_bracket is None
            else _fmt_vector(report.diamond_bracket)
        ),
        "epsilon: " + ("nan" if report.epsilon is None else _fmt_float(report.epsilon)),
        f"max_residual_weight: {_fmt_float(report.residual_weights.max())}",
        f"gram_real: {_fmt_matrix(report.gram.real)}",
        f"gram_imag: {_fmt_matrix(report.gram.imag)}",
        f"residual_weights: {_fmt_matrix(report.residual_weights)}",
    ]
    return "\n".join(lines) + "\n"
