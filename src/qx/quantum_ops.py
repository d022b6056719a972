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
    "choi_matrix",
    "omega_matrix",
    "trace_distance",
    "entanglement_fidelity",
    "apply_on_site",
]

@dataclass(frozen=True)
class KrausChannel:
    """A completely positive map on a d-dimensional space, given by its
    Kraus operators.

    ``kraus`` is one nonempty (K, d, d) complex array; any sequence of
    equally shaped square operators is stacked into it.  Trace
    preservation, sum K+K = I, is neither assumed nor checked.
    """

    kraus: np.ndarray

    def __post_init__(self):
        ops = np.asarray(self.kraus, dtype=complex)  # ragged input raises here
        if ops.ndim != 3 or not len(ops) or ops.shape[1] != ops.shape[2]:
            raise ValueError(f"Kraus stack shape {ops.shape} is not a nonempty (K, d, d)")
        object.__setattr__(self, "kraus", ops)

    @property
    def in_dim(self) -> int:
        """The dimension d the channel acts on."""
        return self.kraus.shape[-1]


def omega_matrix(dim: int) -> np.ndarray:
    """|omega><omega| for the maximally entangled state sum_i |ii> / sqrt(dim)."""
    vec = np.zeros(dim * dim, dtype=complex)
    vec[:: dim + 1] = 1.0 / sqrt(dim)
    return np.outer(vec, vec.conj())


def choi_matrix(ch: KrausChannel) -> np.ndarray:
    """Choi matrix (ch x id)(omega) of the channel.

    With the system factor first, C = (1/d) sum_k vec(K_k) vec(K_k)+, where
    vec is row-major flattening.  The channel is recovered through
    ch(rho) = d * Tr_ref[(I x rho^T) C].
    """
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
    """Entanglement fidelity F = <omega| C |omega> = sum_k |tr K_k|^2 / d^2,
    read from the Kraus traces with no Choi matrix (Schumacher, PRA 54,
    2614 (1996)), and the Bures distance sqrt(1-F)."""
    d = ch.in_dim
    f = float(np.sum(np.abs(np.trace(ch.kraus, axis1=1, axis2=2)) ** 2)) / (d * d)
    f = min(max(f, 0.0), 1.0)
    return f, sqrt(1.0 - f)


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
