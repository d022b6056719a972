"""Generalized Gell-Mann bases of su(d), structure constants, adjoint maps."""

from __future__ import annotations

from dataclasses import dataclass
from functools import cached_property
from math import factorial

import numpy as np

__all__ = [
    "SuBasis",
    "gell_mann_basis",
    "structure_constants",
    "adjoint_group_element",
    "invariant_residuals",
    "check_unitary",
    "expi_hermitian",
    "random_special_unitary",
]

REALITY_TOL = 1e-12
UNITARY_TOL = 1e-10
# Taylor coefficients 1 / k! of the degree-18 polynomial of _expi_batch_last,
# which serves every n but 2
_TAYLOR = [1.0 / factorial(k) for k in range(19)]


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

    @cached_property
    def h_t(self) -> np.ndarray:
        """The (q, q, d, d) stack h_t[x, y] = (1/2) sum_c (d_xyc + i f_xyc) t^c,
        which is t^x t^y - delta_xy I / (2d); formed on first read and kept."""
        return 0.5 * np.tensordot(self.d_sym + 1j * self.f, self.generators, axes=1)


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
    must be real for a consistent orthonormal Hermitian basis.
    """
    g = np.asarray(generators, dtype=complex)
    q, d = len(g), g.shape[-1]
    prod = np.einsum("aij,bjk->abik", g, g)
    comm = (prod - prod.transpose(1, 0, 2, 3)).reshape(q * q, d * d)
    anti = (prod + prod.transpose(1, 0, 2, 3)).reshape(q * q, d * d)
    # tr(X t^c) = sum_ik X_ik t^c_ki: one (q^2, d^2) @ (d^2, q) product each,
    # against the transposed generators flattened as columns
    columns = g.transpose(0, 2, 1).reshape(q, d * d).T
    f_raw = (-2j * (comm @ columns)).reshape(q, q, q)
    d_raw = (2.0 * (anti @ columns)).reshape(q, q, q)
    residue = max(np.abs(f_raw.imag).max(), np.abs(d_raw.imag).max())
    if residue > REALITY_TOL:
        raise BasisConsistencyError(
            f"structure constants have imaginary residue {residue:.3e}"
        )
    return f_raw.real, d_raw.real


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
    if not np.isfinite(u).all():  # the norm's SVD would not converge
        raise ValueError("matrix is not unitary")
    gram = np.swapaxes(u.conj(), -1, -2) @ u - np.eye(u.shape[-1])
    if np.any(np.linalg.norm(gram, 2, axis=(-2, -1)) > tol):
        raise ValueError("matrix is not unitary")
    return u


def _product(a: np.ndarray, b: np.ndarray, out=None, term=None) -> np.ndarray:
    """a @ b for complex matrices held batch-last, (n, n, ...), whose batch
    axes broadcast.

    Entry (i, j) sums a_ik b_kj over k in order, one elementwise complex
    multiply and one add per k, so each matrix gets the same bits alone as
    broadcast, strided or anywhere in any batch, as long as numpy's complex
    multiply and add round each element alike on every loop they take
    (contiguous or strided, vector body or tail).  tests/test_su_algebra.py
    checks that at n = 2..8.  A BLAS product may switch kernels with the
    batch length, and a sum over a (n, n, n, ...) temporary would hold n
    stacks.  Given ``out`` and ``term``, arrays of the product's shape that
    share no memory with a or b, the sum goes to ``out`` and each k's
    product through ``term``, with the same bits and no allocation.
    """
    out = np.multiply(a[:, :1], b[None, 0], out=out)
    for k in range(1, a.shape[1]):
        out += np.multiply(a[:, k:k + 1], b[None, k], out=term)
    return out


def _add_identity(x: np.ndarray, c: float) -> None:
    """x += c I for batch-last matrices x, (n, n, batch)."""
    for i in range(x.shape[0]):
        x[i, i] += c


def _require_finite(x: np.ndarray) -> None:
    """Raise ValueError unless every entry of x is finite."""
    if not np.isfinite(x).all():
        raise ValueError("exp(i h) needs a finite h: a matrix has a NaN or infinite entry")


def _squarings(h: np.ndarray) -> np.ndarray:
    """Per matrix of a batch-last h, (n, n, batch), the least s >= 0 with
    ||h||_1 2^-s <= 1, the 1-norm bounded by column sums of |Re| + |Im|.
    Raises ValueError for a NaN or infinite entry."""
    column = np.zeros(h.shape[1:])
    for row in h:
        column += np.abs(row.real)
        column += np.abs(row.imag)
    norm = column.max(axis=0)
    _require_finite(norm)
    mantissa, exponent = np.frexp(norm)  # norm = m 2^e with m in [1/2, 1)
    return np.maximum(exponent - (mantissa == 0.5), 0)


def _u2_split(h: np.ndarray):
    """tau, delta and r of batch-last 2x2 Hermitian h = tau I + h0, h0 =
    [[delta, h01], [h01*, -delta]], whose eigenvalues are -r and r."""
    h00, h11 = h[0, 0].real, h[1, 1].real
    tau, delta = 0.5 * h00 + 0.5 * h11, 0.5 * h00 - 0.5 * h11
    return tau, delta, np.hypot(delta, np.hypot(h[0, 1].real, h[0, 1].imag))


def _u2_exponential(u: np.ndarray, r: np.ndarray) -> np.ndarray:
    """Overwrite u, (2, 2, batch), with exp(i h0) = cos r I + i (sin r / r) h0
    for the traceless h0 = [[delta, h01], [h01*, -delta]], given with delta
    in Im u00, Re h01 in Im u01 and Im h01 in Re u10, and r = hypot(delta,
    hypot(Re h01, Im h01)), all finite; returns u.  Each entry is written
    to its real or imaginary plane by a real multiply with sin r / r, which
    is 1 at r = 0.  Every complex product this replaces had a factor with
    an exactly zero part, so the bits are those of the complex arithmetic
    except that an exactly zero entry may differ in the sign of zero."""
    sinc = np.sin(r)
    with np.errstate(invalid="ignore"):  # 0 / 0, set to 1 below
        sinc /= r
    sinc[r == 0.0] = 1.0
    re, im = u.real, u.imag
    np.cos(r, out=re[0, 0])
    re[1, 1] = re[0, 0]
    im[0, 0] *= sinc
    np.negative(im[0, 0], out=im[1, 1])
    re[1, 0] *= sinc
    np.negative(re[1, 0], out=re[0, 1])
    im[0, 1] *= sinc
    im[1, 0] = im[0, 1]
    return u


def _head(stack: np.ndarray, m: int) -> np.ndarray:
    """The first n n m entries of a contiguous batch-last stack (n, n, batch)
    as a contiguous (n, n, m) stack: scratch for a product over m matrices."""
    n = stack.shape[0]
    return stack.reshape(-1)[:n * n * m].reshape(n, n, m)


def _expi_batch_last(h: np.ndarray) -> np.ndarray:
    """exp(i h) for complex Hermitian matrices held batch-last, (n, n,
    batch); returns that layout.

    At n = 2, the closed form of U(2): with h = tau I + h0, h0 traceless,
    h0^2 = r^2 I and exp(i h) = e^(i tau) exp(i h0), exp(i h0) written by
    :func:`_u2_exponential`.  It reads only h00, h11 and h01, so h must be
    exactly Hermitian; r = hypot(delta, |h01|) with delta = (h00 - h11) / 2
    cannot overflow.  The e^(i tau) product is skipped when every tau is 0,
    as for traceless h, since it would be by 1 + 0i.  |h01| must stay the
    inner hypot of its parts: np.abs(h01) rounds differently and moves
    whole trajectories.  For other n, scaling and squaring (Moler and
    Van Loan, SIAM Rev. 45, 3 (2003)): x = i h 2^-s, with s per matrix from
    :func:`_squarings`, has 1-norm at most 1; the degree-18 Taylor
    polynomial of exp(x) is summed by Horner's rule in x^2 with linear
    blocks, 9 products (:func:`_product`); then each matrix is squared s
    times.  Both are elementwise operations on each matrix alone, so a
    matrix has the same bits alone as anywhere in any batch on the terms
    :func:`_product` states, and a zero matrix gives the identity exactly.
    The products write into x^2, a term and two stacks for y, allocated once
    per call and swapped, so a call holds at most x and four stacks and
    faults their pages in once, not once per product.  A NaN or infinite
    entry raises ValueError before any work.
    """
    if h.shape[0] == 2:
        _require_finite(h)
        tau, delta, r = _u2_split(h)
        u = np.empty(h.shape, dtype=complex)
        u.imag[0, 0], u.imag[0, 1], u.real[1, 0] = delta, h[0, 1].real, h[0, 1].imag
        _u2_exponential(u, r)
        if tau.any():
            phase = np.empty(tau.shape, dtype=complex)  # e^(i tau)
            phase.real, phase.imag = np.cos(tau), np.sin(tau)
            u *= phase
        return u
    squarings = _squarings(h)
    x = h * (1j * np.ldexp(1.0, -squarings))  # i h 2^-s, exactly
    x2, term, y, spare = (np.empty_like(x) for _ in range(4))
    _product(x, x, out=x2, term=term)
    # sum_k c_k x^k = sum_j (c_2j + c_2j+1 x) x^2j, Horner in x^2
    np.multiply(x2, _TAYLOR[-1], out=y)
    y += np.multiply(_TAYLOR[-2], x, out=term)
    _add_identity(y, _TAYLOR[-3])
    for j in range(len(_TAYLOR) // 2 - 2, -1, -1):
        y, spare = _product(y, x2, out=spare, term=term), y
        y += np.multiply(_TAYLOR[2 * j + 1], x, out=term)
        _add_identity(y, _TAYLOR[2 * j])
    del x  # a partial squaring gathers into spare and squares into x^2
    for j in range(int(squarings.max(initial=0))):
        active = np.flatnonzero(squarings > j)
        if len(active) == len(squarings):
            y, spare = _product(y, y, out=spare, term=term), y
        else:
            m = len(active)  # mode="clip" takes without buffering; no index is out of range
            sub = np.take(y, active, axis=-1, out=_head(spare, m), mode="clip")
            y[..., active] = _product(sub, sub, out=_head(x2, m), term=_head(term, m))
    return y


def expi_hermitian(h: np.ndarray) -> np.ndarray:
    """exp(i h) for a Hermitian h or a stack (..., n, n) of them.

    Only the Hermitian part (h + h+) / 2 counts.  Both kernels are in
    :func:`_expi_batch_last`.  For n = 2 it is the closed form
    e^(i tau) (cos r I + i (sin r / r) (h - tau I)), with tau = tr h / 2 and
    r half the eigenvalue gap: within 1e-14 max(1, ||h||) of the
    eigendecomposition exponential and within 1e-14 of unitary.  Otherwise
    scaling and squaring with a truncated Taylor series: each matrix is
    scaled by 2^-s to 1-norm theta = 1, the series is summed to order 18,
    whose tail is then below 1.1 / 19! = 9e-18, under 2^-53 (the truncation
    criterion of Al-Mohy and Higham, SIAM J. Matrix Anal. Appl. 31, 970
    (2009)), and the result is squared s times.  So the error is rounding,
    growing about as 2^s eps: for n <= 6 and ||h|| <= 50 the result is
    within 1e-13 max(1, ||h||) of the eigendecomposition exponential and
    within 1e-13 of unitary.  Each matrix gives the same bits alone as in
    any stack: both kernels are elementwise, and their matrix product is
    :func:`_product`.  A NaN or infinite entry raises ValueError before any
    work: its norm would ask for unbounded squarings.
    """
    h = np.asarray(h, dtype=complex)
    if h.ndim < 2 or h.shape[-1] != h.shape[-2]:
        raise ValueError(f"expected square matrices, got shape {h.shape}")
    stack = h.reshape((-1,) + h.shape[-2:]).transpose(1, 2, 0)
    sym = np.empty(stack.shape, dtype=complex)
    with np.errstate(invalid="ignore"):  # inf - inf: the kernel rejects it by name
        np.add(stack, stack.swapaxes(0, 1).conj(), out=sym)
        sym *= 0.5
    return np.ascontiguousarray(_expi_batch_last(sym).transpose(2, 0, 1)).reshape(h.shape)


def random_special_unitary(basis: SuBasis, rng: np.random.Generator) -> np.ndarray:
    """Seeded pseudo-random element of SU(d).

    Draws Gaussian weights for the generators and exponentiates; the result
    has unit determinant exactly because the generators are traceless.
    """
    x = rng.normal(0.0, 1.0, size=basis.size)
    return expi_hermitian(np.einsum("a,aij->ij", x, basis.generators))
