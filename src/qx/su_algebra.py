"""Generalized Gell-Mann bases of su(d), structure constants, adjoint maps."""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

__all__ = [
    "SuBasis",
    "gell_mann_basis",
    "structure_constants",
    "adjoint_generator",
    "adjoint_group_element",
    "invariant_residuals",
    "check_unitary",
    "expi_hermitian",
    "random_special_unitary",
]

REALITY_TOL = 1e-12
UNITARY_TOL = 1e-10


class BasisConsistencyError(RuntimeError):
    """Raised when a generator set fails its defining numerical identities."""


@dataclass(frozen=True)
class SuBasis:
    """Orthonormal Hermitian generators of su(d) with structure constants.

    The generators t^a satisfy tr(t^a t^b) = delta_ab / 2, together with
    [t^a, t^b] = i f_abc t^c and {t^a, t^b} = (delta_ab / d) I + d_abc t^c.

    Ordering: for each k = 2..d the index pairs (j, k) with j < k contribute
    a symmetric then an antisymmetric generator, followed by the diagonal
    generator of rank k - 1.  For d = 2 this is the Pauli ordering
    (sigma_x, sigma_y, sigma_z)/2 and for d = 3 the textbook Gell-Mann
    ordering, so classic values such as f_123 = 1 and d_118 = 1/sqrt(3)
    hold verbatim (indices below are 0-based, so f[0, 1, 2] == 1).
    """

    d: int
    generators: np.ndarray  # (d**2 - 1, d, d) complex
    f: np.ndarray           # (q, q, q) real, totally antisymmetric
    d_sym: np.ndarray       # (q, q, q) real, totally symmetric

    @property
    def size(self) -> int:
        """Number of generators, d**2 - 1."""
        return self.d * self.d - 1


def gell_mann_basis(d: int) -> SuBasis:
    """Build the generalized Gell-Mann basis of su(d).

    Normalization is tr(t^a t^b) = delta_ab / 2.  See :class:`SuBasis` for
    the generator ordering, which is fixed so structure-constant indices are
    stable across runs.
    """
    if d < 2:
        raise ValueError(f"su(d) basis requires d >= 2, got d={d}")
    gens = []
    for k in range(1, d):
        for j in range(k):
            sym = np.zeros((d, d), dtype=complex)
            sym[j, k] = sym[k, j] = 0.5
            gens.append(sym)
            asym = np.zeros((d, d), dtype=complex)
            asym[j, k] = -0.5j
            asym[k, j] = 0.5j
            gens.append(asym)
        diag = np.zeros((d, d), dtype=complex)
        diag[: k + 1, : k + 1] = np.diag([1.0] * k + [-float(k)])
        gens.append(diag / np.sqrt(2.0 * k * (k + 1)))
    generators = np.array(gens)
    f, d_sym = structure_constants(generators)
    return SuBasis(d=d, generators=generators, f=f, d_sym=d_sym)


def structure_constants(generators) -> tuple[np.ndarray, np.ndarray]:
    """Antisymmetric and symmetric structure constants of a generator set.

    f_abc = -2i tr([t^a, t^b] t^c) and d_abc = 2 tr({t^a, t^b} t^c); both
    must be real for a consistent orthonormal Hermitian basis.  Accepts a
    :class:`SuBasis` or a raw generator stack.
    """
    if isinstance(generators, SuBasis):
        generators = generators.generators
    g = np.asarray(generators, dtype=complex)
    prod = np.einsum("aij,bjk->abik", g, g)
    comm = prod - prod.transpose(1, 0, 2, 3)
    anti = prod + prod.transpose(1, 0, 2, 3)
    f_raw = -2j * np.einsum("abik,cki->abc", comm, g)
    d_raw = 2.0 * np.einsum("abik,cki->abc", anti, g)
    residue = max(np.abs(f_raw.imag).max(), np.abs(d_raw.imag).max())
    if residue > REALITY_TOL:
        raise BasisConsistencyError(
            f"structure constants have imaginary residue {residue:.3e}"
        )
    return f_raw.real, d_raw.real


def adjoint_generator(basis: SuBasis, a: int) -> np.ndarray:
    """Adjoint-representation generator of t^a, (T^a)_bc = -i f_abc.

    T^a is Hermitian with purely imaginary, antisymmetric entries; its
    spectrum consists of differences of eigenvalues of t^a (for d = 2 this
    gives {+1, 0, -1}).
    """
    if not 0 <= a < basis.size:
        raise ValueError(f"generator index {a} out of range for su({basis.d})")
    return -1j * basis.f[a]


def adjoint_group_element(basis: SuBasis, u: np.ndarray) -> np.ndarray:
    """Rotation of generator coefficients induced by conjugation with u.

    Returns the real orthogonal matrix R with R_ij = 2 tr(t^i u t^j u+), so
    that u t^j u+ = sum_i R_ij t^i and coefficient vectors of Hermitian
    traceless operators transform as x -> R x.  With this orientation R is a
    group homomorphism: R(u v) = R(u) R(v).
    """
    u = check_unitary(u, basis.d)
    g = basis.generators
    r = 2.0 * np.einsum("iab,bc,jcd,da->ij", g, u, g, u.conj().T)
    if np.abs(r.imag).max() > UNITARY_TOL:
        raise BasisConsistencyError("adjoint rotation has imaginary residue")
    return r.real


def invariant_residuals(basis: SuBasis) -> dict[str, float]:
    """Numerical residuals of every defining identity of the basis.

    Covers Hermiticity, tracelessness, orthonormality, closure of the
    commutator and anticommutator, (anti)symmetry of the structure
    constants, the quadratic Casimir, the Jacobi identity, and Fierz
    completeness.  All residuals are max-norm deviations.
    """
    g = basis.generators
    d = basis.d
    q = basis.size
    eye = np.eye(d)
    res: dict[str, float] = {}
    res["hermiticity"] = float(np.abs(g - g.conj().transpose(0, 2, 1)).max())
    res["tracelessness"] = float(np.abs(np.einsum("aii->a", g)).max())
    overlap = 2.0 * np.einsum("aij,bji->ab", g, g)
    res["orthonormality"] = float(np.abs(overlap - np.eye(q)).max())
    prod = np.einsum("aij,bjk->abik", g, g)
    comm = prod - prod.transpose(1, 0, 2, 3)
    closure = comm - 1j * np.einsum("abc,cik->abik", basis.f, g)
    res["commutator_closure"] = float(np.abs(closure).max())
    anti = prod + prod.transpose(1, 0, 2, 3)
    target = np.einsum("ab,ik->abik", np.eye(q) / d, eye)
    target = target + np.einsum("abc,cik->abik", basis.d_sym, g)
    res["anticommutator_closure"] = float(np.abs(anti - target).max())
    res["f_antisymmetry"] = float(
        max(
            np.abs(basis.f + basis.f.transpose(1, 0, 2)).max(),
            np.abs(basis.f + basis.f.transpose(0, 2, 1)).max(),
        )
    )
    res["d_symmetry"] = float(
        max(
            np.abs(basis.d_sym - basis.d_sym.transpose(1, 0, 2)).max(),
            np.abs(basis.d_sym - basis.d_sym.transpose(0, 2, 1)).max(),
        )
    )
    casimir = np.einsum("aij,ajk->ik", g, g)
    res["casimir"] = float(np.abs(casimir - (q / (2.0 * d)) * eye).max())
    jac = np.einsum("abe,ecd->abcd", basis.f, basis.f, optimize=True)
    jac = jac + np.einsum("cbe,aed->abcd", basis.f, basis.f, optimize=True)
    jac = jac + np.einsum("dbe,ace->abcd", basis.f, basis.f, optimize=True)
    res["jacobi"] = float(np.abs(jac).max())
    fierz = np.einsum("aij,akl->ijkl", g, g)
    fierz_target = 0.5 * (
        np.einsum("il,jk->ijkl", eye, eye) - np.einsum("ij,kl->ijkl", eye, eye) / d
    )
    res["fierz"] = float(np.abs(fierz - fierz_target).max())
    return res


def check_unitary(u: np.ndarray, dim=None, ndim: int = 2, tol: float = UNITARY_TOL) -> np.ndarray:
    """u as a complex array of ``ndim`` axes whose last two form unitaries,
    each within ``tol`` of unitary in operator norm."""
    u = np.asarray(u, dtype=complex)
    if u.ndim != ndim or u.shape[-1] != u.shape[-2]:
        raise ValueError(f"expected a square matrix, got shape {u.shape[ndim - 2:]}")
    if dim is not None and u.shape[-1] != dim:
        raise ValueError(f"expected dimension {dim}, got {u.shape[-1]}")
    gram = np.swapaxes(u.conj(), -1, -2) @ u - np.eye(u.shape[-1])
    if np.any(np.linalg.norm(gram, 2, axis=(-2, -1)) > tol):
        raise ValueError("matrix is not unitary")
    return u


def _expi_eigh(h: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
    """exp(i h) and the eigenvalues of h, for a Hermitian h or a stack
    (..., n, n); the product v e^(iw) v+ is one einsum over the stack."""
    h = np.asarray(h, dtype=complex)
    # symmetrized in place, so neither h nor the symmetric part outlives eigh
    sym = np.swapaxes(np.conj(h), -1, -2)
    sym += h
    del h
    sym /= 2.0
    w, v = np.linalg.eigh(sym)
    del sym
    return np.einsum("...ik,...k,...jk->...ij", v, np.exp(1j * w), v.conj()), w


def expi_hermitian(h: np.ndarray) -> np.ndarray:
    """exp(i h) for a Hermitian h or a stack (..., n, n) of them."""
    return _expi_eigh(h)[0]


def random_special_unitary(
    basis: SuBasis, rng: np.random.Generator, scale: float = 1.0
) -> np.ndarray:
    """Seeded pseudo-random element of SU(d).

    Draws Gaussian weights for the generators and exponentiates; the result
    has unit determinant exactly because the generators are traceless.
    """
    x = rng.normal(0.0, scale, size=basis.size)
    return expi_hermitian(np.einsum("a,aij->ij", x, basis.generators))
