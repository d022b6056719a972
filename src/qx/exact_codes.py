"""Dense stabilizer-code fixtures: the five-qubit code and the [[4,2,2]] code."""

from __future__ import annotations

from functools import reduce

import numpy as np

from .qec_core import CodeIsometry, SubsystemSplit
from .quantum_ops import KrausChannel, apply_on_site

__all__ = [
    "PAULI",
    "pauli_string",
    "weight_one_paulis",
    "weight_one_pauli_stacks",
    "five_qubit_code",
    "four_two_two_code",
    "single_qubit_depolarizing",
    "depolarizing_weights",
    "product_gauge_split",
]

PAULI = {
    "I": np.eye(2, dtype=complex),
    "X": np.array([[0.0, 1.0], [1.0, 0.0]], dtype=complex),
    "Y": np.array([[0.0, -1.0j], [1.0j, 0.0]], dtype=complex),
    "Z": np.array([[1.0, 0.0], [0.0, -1.0]], dtype=complex),
}


def pauli_string(spec: str) -> np.ndarray:
    """Dense operator for a Pauli label string such as "XZZXI"."""
    return reduce(np.kron, (PAULI[c] for c in spec))


def weight_one_paulis(n_qubits: int) -> list[np.ndarray]:
    """All 3n single-qubit Pauli errors, site-major then X, Y, Z."""
    return weight_one_pauli_stacks(np.eye(2**n_qubits))


def weight_one_pauli_stacks(isometry: np.ndarray) -> list[np.ndarray]:
    """The code-state stacks P_i V of :func:`weight_one_paulis`, in its order,
    each formed on one qubit axis of V without a 2^n x 2^n operator."""
    v = np.asarray(isometry, dtype=complex)
    dims = (2,) * (v.shape[0].bit_length() - 1)
    return [apply_on_site(v, dims, site, PAULI[c]) for site in range(len(dims)) for c in "XYZ"]


def _stabilizer_isometry(n_qubits: int, stabilizers, logical_xs) -> np.ndarray:
    """Codewords from projecting |0...0> and applying logical X operators."""
    dim = 2**n_qubits
    proj = np.eye(dim, dtype=complex)
    for spec in stabilizers:
        proj = proj @ (np.eye(dim) + pauli_string(spec)) / 2.0
    seed = proj[:, 0]
    seed = seed / np.linalg.norm(seed)
    columns = [seed]
    for bits in range(1, 2 ** len(logical_xs)):
        word = seed
        for pos, spec in enumerate(logical_xs):
            if bits >> (len(logical_xs) - 1 - pos) & 1:
                word = pauli_string(spec) @ word
        columns.append(word)
    return np.stack(columns, axis=1)


def five_qubit_code() -> CodeIsometry:
    """The [[5,1,3]] code, as a dense 32 x 2 isometry."""
    stabilizers = ["XZZXI", "IXZZX", "XIXZZ", "ZXIXZ"]
    v = _stabilizer_isometry(5, stabilizers, ["XXXXX"])
    return CodeIsometry(isometry=v, site_dims=(2,) * 5)


def four_two_two_code() -> CodeIsometry:
    """The [[4,2,2]] detection code, as a dense 16 x 4 isometry."""
    v = _stabilizer_isometry(4, ["XXXX", "ZZZZ"], ["XXII", "XIXI"])
    return CodeIsometry(isometry=v, site_dims=(2,) * 4)


def single_qubit_depolarizing(n_qubits: int, strength: float) -> KrausChannel:
    """Trace-preserving noise: identity plus uniformly weighted weight-1 Paulis."""
    ops = np.stack([np.eye(2**n_qubits, dtype=complex)] + weight_one_paulis(n_qubits))
    return KrausChannel(depolarizing_weights(n_qubits, strength)[:, None, None] * ops)


def depolarizing_weights(n_qubits: int, strength: float) -> np.ndarray:
    """Kraus weights of :func:`single_qubit_depolarizing`: sqrt(1 - p) on the
    identity, then sqrt(p / 3n) on each weight-one Pauli in its order."""
    if not 0.0 < strength < 1.0:
        raise ValueError("noise strength must lie strictly between 0 and 1")
    if n_qubits < 1:
        raise ValueError("depolarizing noise needs one or more qubits")
    k = 3 * n_qubits
    return np.sqrt([1.0 - strength] + [strength / k] * k)


def product_gauge_split() -> SubsystemSplit:
    """The five-qubit code tensored with one idle gauge qubit, split T x J."""
    base = five_qubit_code()
    iso = np.kron(base.isometry, np.eye(2, dtype=complex))
    return SubsystemSplit(isometry=iso, d_t=2, d_j=2)
