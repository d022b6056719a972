"""Dense complex linear algebra for states, channels, and distance measures.

Operators are plain numpy arrays; tensor-factored spaces are described by
explicit subsystem dimension lists where an operation needs them.
"""

from __future__ import annotations

from dataclasses import dataclass
from math import prod, sqrt

import numpy as np

__all__ = [
    "KrausChannel",
    "apply_channel",
    "cptp_residuals",
    "dilation_isometry",
    "choi_matrix",
    "omega_vector",
    "omega_matrix",
    "trace_distance",
    "entanglement_fidelity",
    "partial_trace",
    "apply_on_site",
]

TP_TOL = 1e-10


class ChannelError(RuntimeError):
    """Raised when a channel fails a structural requirement."""


@dataclass(frozen=True)
class KrausChannel:
    """A completely positive map given by its Kraus operators.

    ``kraus`` is one (K, out_dim, in_dim) complex array; any sequence of
    equally shaped operators is stacked into it.  Trace preservation is a
    property to check (see :func:`cptp_residuals`), not an assumption.  An
    empty Kraus list is allowed when the dimensions are given explicitly; it
    becomes the (0, out_dim, in_dim) zero map.
    """

    kraus: np.ndarray
    in_dim: int
    out_dim: int

    @classmethod
    def from_kraus(cls, kraus) -> "KrausChannel":
        ops = np.asarray(kraus, dtype=complex)
        if ops.ndim != 3 or not len(ops):
            raise ValueError(
                f"cannot infer dimensions from Kraus input of shape {ops.shape}; "
                "expected a nonempty list of matrices"
            )
        return cls(kraus=ops, in_dim=ops.shape[2], out_dim=ops.shape[1])

    def __post_init__(self):
        ops = np.asarray(self.kraus, dtype=complex)
        if ops.shape == (0,):
            ops = ops.reshape(0, self.out_dim, self.in_dim)
        if ops.shape[1:] != (self.out_dim, self.in_dim) or ops.ndim != 3:
            raise ValueError(
                f"Kraus stack shape {ops.shape} does not match "
                f"(K, {self.out_dim}, {self.in_dim})"
            )
        object.__setattr__(self, "kraus", ops)

    @property
    def is_square(self) -> bool:
        return self.in_dim == self.out_dim


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
    un = np.einsum("kij,klj->il", k, k.conj(), optimize=True) - np.eye(ch.out_dim)
    return float(np.linalg.norm(tp, 2)), float(np.linalg.norm(un, 2))


def dilation_isometry(ch: KrausChannel) -> np.ndarray:
    """Isometry W stacking the Kraus blocks, with the environment index first.

    W maps in_dim -> len(kraus) * out_dim and satisfies W+W = I; tracing the
    environment factor of W rho W+ reproduces :func:`apply_channel`.
    """
    tp, _ = cptp_residuals(ch)
    if tp > TP_TOL:
        raise ChannelError(
            f"dilation undefined: channel is not trace preserving (residual {tp:.3e})"
        )
    return ch.kraus.reshape(-1, ch.in_dim)


def omega_vector(dim: int) -> np.ndarray:
    """The maximally entangled state sum_i |ii> / sqrt(dim) on dim x dim."""
    vec = np.zeros(dim * dim, dtype=complex)
    vec[:: dim + 1] = 1.0 / sqrt(dim)
    return vec


def omega_matrix(dim: int) -> np.ndarray:
    vec = omega_vector(dim)
    return np.outer(vec, vec.conj())


def choi_matrix(ch: KrausChannel) -> np.ndarray:
    """Choi matrix (ch x id)(omega) of a square channel.

    With the system factor first, C = (1/d) sum_k vec(K_k) vec(K_k)+, where
    vec is row-major flattening.  The channel is recovered through
    ch(rho) = d * Tr_ref[(I x rho^T) C].
    """
    if not ch.is_square:
        raise ValueError("Choi matrix requires a square channel")
    d = ch.in_dim
    v = ch.kraus.reshape(len(ch.kraus), d * d)
    # np.outer's complex products, summed over k in Kraus order: equal bit for
    # bit to the sequential sum of outer products (einsum's products round
    # differently where np.multiply uses fused multiply-add)
    c = (v[:, :, None] * v.conj()[:, None, :]).sum(axis=0)
    return c / d


def trace_distance(rho: np.ndarray, sigma: np.ndarray):
    """Half the trace norm of rho - sigma, for Hermitian inputs; stacks
    (..., n, n) give an array, each entry with the bits of its matrix alone."""
    rho = np.asarray(rho, dtype=complex)
    sigma = np.asarray(sigma, dtype=complex)
    if rho.shape != sigma.shape or rho.ndim < 2 or rho.shape[-2] != rho.shape[-1]:
        raise ValueError(f"incompatible shapes {rho.shape} and {sigma.shape}")
    diff = rho - sigma
    diff = (diff + diff.conj().swapaxes(-1, -2)) / 2.0
    dist = 0.5 * np.abs(np.linalg.eigvalsh(diff)).sum(axis=-1)
    return float(dist) if rho.ndim == 2 else dist


def entanglement_fidelity(ch: KrausChannel) -> tuple[float, float]:
    """Entanglement fidelity F = <omega| C |omega> and Bures distance sqrt(1-F)."""
    c = choi_matrix(ch)
    omega = omega_vector(ch.in_dim)
    f = float(np.real(omega.conj() @ c @ omega))
    f = min(max(f, 0.0), 1.0)
    return f, sqrt(1.0 - f)


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


def apply_on_site(states: np.ndarray, dims, site: int, op: np.ndarray) -> np.ndarray:
    """``op`` applied to tensor factor ``site`` of the first axis of a
    (d_Q, ...) array, where d_Q = prod(dims); the other axes ride along, so
    a code isometry V (d_Q, d_L) gives the stack (I x op x I) V."""
    states = np.asarray(states)
    dims = [int(d) for d in dims]
    if prod(dims) != states.shape[0]:
        raise ValueError(f"site dimensions {dims} do not multiply to {states.shape[0]}")
    factor = states.reshape(prod(dims[:site]), dims[site], -1)  # (before, site, rest)
    return np.einsum("ab,ibj->iaj", op, factor).reshape(states.shape)
