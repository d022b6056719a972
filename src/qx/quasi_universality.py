"""Gate-cell bookkeeping, accuracy budgets, and noisy-computation trajectories."""

from __future__ import annotations

import ctypes
import mmap
import os
import weakref
from dataclasses import dataclass
from functools import cached_property
from math import floor, isfinite, isqrt, prod

import numpy as np

from .rng import make_generator
from .su_algebra import (
    _batch_last, _expi_batch_last, _product, check_unitary, gell_mann_basis,
    random_special_unitary,
)
from . import vbs_code
from .vbs_code import eta

__all__ = [
    "unitary_distance",
    "GateCellTable",
    "build_gate_cell_table",
    "cell_assign",
    "max_gate_count",
    "compose_error_bound",
    "SimTrajectory",
    "simulate_computation",
    "trajectory_csv",
]

UNITARY_TOL = 1e-8
# (L, d, d) complex stacks a trajectory may hold at its peak, noisy, ideal
# and distances read (tracemalloc reads 4.41 at d = 2, 4.48 at d = 3, 4.50
# at d = 4 in the ideal scan, and up to 4.80, 4.71, 4.74 while the chunks run)
SIM_PEAK_STACKS = 5
TIE_DECIMALS = 12
# steps per call of a per-step kernel (_over_chunks).  4096 runs the d = 2
# simulate kernel about 30% faster (it makes about 330 numpy calls per chunk
# whatever its length), but each worker thread's malloc arena keeps the
# high-water mark of its chunk scratch, so peak RSS rises by 1.4 MB at
# L = 1e5; 2048 keeps it below where the eigh kernel had it
CHUNK_STEPS = 2048
# tracemalloc bookkeeping for the array data _mapped_empty maps itself
_TRACK = ctypes.PYFUNCTYPE(ctypes.c_int, ctypes.c_uint, ctypes.c_size_t, ctypes.c_size_t)(
    ("PyTraceMalloc_Track", ctypes.pythonapi))
_UNTRACK = ctypes.PYFUNCTYPE(ctypes.c_int, ctypes.c_uint, ctypes.c_size_t)(
    ("PyTraceMalloc_Untrack", ctypes.pythonapi))


def unitary_distance(u: np.ndarray, v: np.ndarray) -> float | np.ndarray:
    """Global-phase-minimized operator-norm distance between unitaries.

    min over phases of ||u - e^(i phi) v||.  Since v+u is unitary, the
    minimum is reached at the midpoint of the smallest arc enclosing its
    eigenphases: for enclosing width W the distance is 2 sin(W/4).  A stack
    ``v`` of shape (..., d, d) gives the array of distances to each of its
    matrices; a single v gives a float.
    """
    u = check_unitary(u, tol=UNITARY_TOL)
    v = check_unitary(v, u.shape[0], ndim=max(np.ndim(v), 2), tol=UNITARY_TOL)
    distances = _phase_distances(u, v)
    return float(distances) if v.ndim == 2 else distances


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


def max_gate_count(target: float, accuracy: float, synthesis_error: float = 0.0) -> int:
    """Largest gate count m with m * accuracy within the target budget,
    floor((target - synthesis_error) / accuracy)."""
    if not (isfinite(accuracy) and accuracy > 0.0):
        raise ValueError("accuracy must be finite and positive")
    if not (isfinite(target) and 0.0 <= synthesis_error <= target):
        raise ValueError("need a finite target and 0 <= synthesis error <= target")
    count = (target - synthesis_error) / accuracy
    if not isfinite(count):
        raise ValueError("gate count (target - synthesis error) / accuracy is not finite")
    return int(floor(count))


def compose_error_bound(gate_distances) -> float:
    """Subadditive accumulation bound: the sum of per-gate distances."""
    total = 0.0
    for x in gate_distances:
        if not x >= 0.0:
            raise ValueError("distances must be nonnegative")
        total += float(x)
    return total


@dataclass(frozen=True)
class SimTrajectory:
    """One seeded noisy-computation run at the logical level.

    ``noisy[l]`` and ``ideal[l]`` are the cumulative products after step
    l+1.  ``distances[l]`` is the phase-minimized distance between them;
    ``step_errors[l]`` is the distance of the error gate E_l from the
    identity, read off the eigenvalues of its exponent, and ``envelopes``
    accumulates them, an upper bound on ``distances``.  All five are
    computed on first access and cached, ``noisy`` from steps formed again;
    ``final_distance`` reads only the last products, (1, d, d) stacks.
    """

    seed: int
    length: int
    error_scale: float
    gates: np.ndarray
    exponents: np.ndarray
    final_noisy: np.ndarray
    final_ideal: np.ndarray

    @cached_property
    def noisy(self) -> np.ndarray:
        generators = _generator_parts(gell_mann_basis(self.gates.shape[-1]))
        return _cumulative_products(
            _step_products(generators, self.gates, self.exponents, self.error_scale)
        )

    @cached_property
    def ideal(self) -> np.ndarray:
        return _cumulative_products(self.gates)

    @cached_property
    def step_errors(self) -> np.ndarray:
        generators = _generator_parts(gell_mann_basis(self.gates.shape[-1]))
        step_errors = np.empty(self.length)

        def chunk(s: slice) -> None:
            h = np.empty((s.stop - s.start,) + self.gates.shape[1:], dtype=complex)
            _batch_last(h)[...] = _algebra(generators, self.error_scale * self.exponents[s])
            eigs = np.linalg.eigvalsh(h)
            step_errors[s] = _arc_distances(np.mod(eigs + np.pi, 2.0 * np.pi) - np.pi)

        _over_chunks(chunk, self.length)
        return step_errors

    @cached_property
    def envelopes(self) -> np.ndarray:
        return np.cumsum(self.step_errors)

    @cached_property
    def distances(self) -> np.ndarray:
        # on this thread: forming them calls gell_mann_basis and _over_chunks
        noisy, ideal = self.noisy, self.ideal
        distances = np.empty(self.length)

        def chunk(s: slice) -> None:
            distances[s] = _phase_distances(noisy[s], ideal[s])

        _over_chunks(chunk, self.length)
        return distances

    @property
    def final_distance(self) -> float:
        # the stacked kernel on a one-step stack: the bits of distances[-1]
        return float(_phase_distances(self.final_noisy, self.final_ideal)[0])


def _generator_parts(basis) -> np.ndarray:
    """The generators t^k as (q, 2, d, d, 1) real and imaginary parts, ready
    to broadcast against a batch."""
    return np.stack((basis.generators.real, basis.generators.imag), axis=1)[..., None]


def _algebra(generators: np.ndarray, coefficients: np.ndarray) -> np.ndarray:
    """sum_k c_k t^k for each row c of an (L, q) array, batch-last as
    (2, d, d, L) parts; summed term by term in order of k, so each matrix
    has the same bits whatever the batch (a BLAS product would take a
    different kernel for a one-column batch)."""
    columns = np.ascontiguousarray(coefficients.T)
    out = generators[0] * columns[0]
    for g, c in zip(generators[1:], columns[1:]):
        out += g * c
    return out


def _arc_distances(phases: np.ndarray) -> np.ndarray:
    """Phase-minimized distances 2 sin(W/4) for stacked eigenphase rows
    (..., d), each phase in [-pi, pi] as np.angle returns it."""
    ordered = np.sort(phases, axis=-1)
    gaps = np.diff(ordered, axis=-1, append=(ordered[..., :1] + 2.0 * np.pi))
    widths = np.clip(2.0 * np.pi - gaps.max(axis=-1), 0.0, None)
    return 2.0 * np.sin(widths / 4.0)


def _phase_distances(u: np.ndarray, v: np.ndarray) -> np.ndarray:
    """Unchecked :func:`unitary_distance` between broadcasting stacks of
    unitaries (..., d, d), from the eigenphases of v+ u."""
    relative = np.einsum("...ba,...bc->...ac", v.conj(), u)
    return _arc_distances(np.angle(np.linalg.eigvals(relative)))


def _over_chunks(kernel, length: int) -> None:
    """Call ``kernel(s)`` on the consecutive ``CHUNK_STEPS``-long slices s
    of range(length), on up to one thread per usable CPU.

    numpy's linalg gufuncs and ufunc loops release the GIL, and each of
    their per-matrix calls, and each real elementwise operation, gives the
    same bits whatever batch it is in, so a kernel that writes only its own
    slices of preallocated arrays gives results independent of the chunk
    and worker counts.  The workers number at most the usable CPUs and
    length / (3 CHUNK_STEPS): their chunks in flight then span at most a
    third of the length, so kernels whose scratch is a few chunk stacks
    (about 5.4 in :func:`simulate_computation`) add at most a third of that
    in (L, d, d) stacks whatever the CPU count.  One worker runs the slices
    inline, in order; more run on threads joined before return, and a
    kernel's exception re-raises here.  Kernels call no function that perfbench's tracer
    wraps: its one call stack belongs to the calling thread.
    """
    slices = [slice(i, min(i + CHUNK_STEPS, length)) for i in range(0, length, CHUNK_STEPS)]
    try:
        cpus = len(os.sched_getaffinity(0))
    except AttributeError:  # no affinity mask on this platform
        cpus = os.cpu_count() or 1
    workers = min(len(slices), cpus, length // (3 * CHUNK_STEPS))
    if workers <= 1:
        for s in slices:
            kernel(s)
        return
    from concurrent.futures import ThreadPoolExecutor  # not on the import path of qx.cli

    with ThreadPoolExecutor(max_workers=workers) as pool:
        list(pool.map(kernel, slices))


def _mapped_empty(shape, dtype=float) -> np.ndarray:
    """An uninitialised array in an anonymous memory mapping of its own.

    glibc's malloc serves blocks below its dynamic mmap threshold, which
    rises to the largest mapped block freed so far, from the main heap.
    There a small block placed above a freed (L, d, d) stack keeps the
    stack's pages, and the next trajectory's stacks go above it, so peak RSS
    moved by one stack from one run to the next with the other allocations
    of the process.  A mapping of its own is unmapped when its last view
    goes.  tracemalloc counts it as numpy's own array data.
    """
    nbytes = prod(shape) * np.dtype(dtype).itemsize
    pages = mmap.mmap(-1, nbytes)
    array = np.frombuffer(pages, dtype, prod(shape)).reshape(shape)
    address = array.ctypes.data
    if _TRACK(np.lib.tracemalloc_domain, address, nbytes) == 0:
        weakref.finalize(pages, _UNTRACK, np.lib.tracemalloc_domain, address)
    return array


def _step_products(generators, gates, exponents, scale, weights=None) -> np.ndarray:
    """The steps G_l exp(i scale sum_k eps_k t^k), in chunks; with ``weights``
    each gate G_l = exp(i sum_k w_k t^k) is first written into ``gates``."""

    def step(s: slice) -> None:
        if weights is not None:
            _batch_last(gates[s])[...] = _expi_batch_last(_algebra(generators, weights[s]))
        error_gates = _expi_batch_last(_algebra(generators, scale * exponents[s]))
        # into a contiguous buffer: accumulating in the strided view is 2x slower
        product = np.empty(error_gates.shape)
        _product(_batch_last(gates[s]), error_gates, product)
        _batch_last(steps[s])[...] = product

    steps = _mapped_empty(gates.shape, complex)
    _over_chunks(step, len(gates))
    return steps


def _slab_product(a: np.ndarray, b: np.ndarray) -> np.ndarray:
    """a @ b for batch-last (d, d, n) slabs, as elementwise products."""
    return (a[:, :, None] * b[None]).sum(1)


def _block_prefixes(seq: np.ndarray):
    """Yield slab j < b of the blocked scan: with the L steps cut into blocks
    of b = isqrt(L), the last one padded with identities, it holds
    ``seq[kb + j] @ ... @ seq[kb]`` for every block k as (d, d, n_blocks)."""
    length, d, _ = seq.shape
    b = isqrt(length)
    prefix = None
    for j in range(b):
        steps = seq[j::b]
        slab = np.empty((d, d, -(-length // b)), dtype=complex)
        slab[..., : len(steps)] = steps.transpose(1, 2, 0)
        slab[..., len(steps) :] = np.eye(d)[..., None]
        prefix = slab if prefix is None else _slab_product(slab, prefix)
        yield prefix


def _carries(totals: np.ndarray) -> np.ndarray:
    """For each block k, the product of the blocks before it."""
    d, _, n_blocks = totals.shape
    carry = np.empty_like(totals)
    carry[..., 0] = np.eye(d)
    for k in range(1, n_blocks):
        carry[..., k] = totals[..., k - 1] @ carry[..., k - 1]
    return carry


def _cumulative_products(seq: np.ndarray) -> np.ndarray:
    """``seq[l] @ ... @ seq[0]`` for every l of an (L, d, d) stack: b - 1
    in-block prefix steps for all blocks at once, one loop over the blocks
    for the carries and b slab steps applying them, about 3 sqrt(L) batched
    steps.  Holds two (L, d, d) stacks besides ``seq``, the prefixes and the
    result; ``seq``, a temporary argument too, is released between them."""
    length, d, _ = seq.shape
    prefixes = list(_block_prefixes(seq))
    del seq
    carry = _carries(prefixes[-1])
    out = np.empty((carry.shape[-1], len(prefixes), d, d), dtype=complex)
    for j, prefix in enumerate(prefixes):
        out[:, j] = _slab_product(prefix, carry).transpose(2, 0, 1)
    return out.reshape(-1, d, d)[:length]


def _final_product(seq: np.ndarray) -> np.ndarray:
    """``_cumulative_products(seq)[-1:]`` with the same bits, holding two
    slabs instead of two (L, d, d) stacks."""
    last = (len(seq) - 1) % isqrt(len(seq))  # the last step's place in its block
    for j, prefix in enumerate(_block_prefixes(seq)):
        if j == last:
            kept = prefix
    return np.ascontiguousarray(_slab_product(kept, _carries(prefix))[None, ..., -1])


def simulate_computation(
    d: int,
    n_sites: int,
    length: int,
    seed: int,
    gates=None,
    error_scale: float | None = None,
    error_dist: str = "uniform",
) -> SimTrajectory:
    """Alternate logical gates with error gates and track the drift.

    Each step applies a gate U_l followed by E_l = exp(i s sum_k eps_k t^k),
    where s defaults to the (d, N) accuracy scale :func:`qx.vbs_code.eta`
    and the eps components are drawn uniformly from [-1, 1] (or from a unit
    Gaussian with ``error_dist="gaussian"``).  Gates come from an explicit
    sequence or, when omitted, a seeded special-unitary stream; identical
    seeds and parameters reproduce identical trajectories.

    Nothing loops over the L steps in Python.  The per-step work (the gate
    and error exponentials and the step products G_l E_l) runs in fixed
    ``CHUNK_STEPS``-step chunks on up to one thread per usable CPU
    (:func:`_over_chunks`), batch-last and with elementwise real operations
    only (:func:`qx.su_algebra._expi_batch_last`), so it makes no LAPACK
    call per matrix; the random draws stay serial, so no result depends on
    the chunk or worker count.  Only the last element of each cumulative
    product is formed (:func:`_final_product`).  At L = 1e5 and d = 2 a
    trajectory takes about 0.24 s on a 2-vCPU OpenBLAS machine (0.21 s on
    one thread), the two final products 0.025 s of it.  On read, ``noisy``
    (its steps formed again) takes 0.15 s more, ``ideal`` 0.03 s,
    ``distances`` 0.18 s and ``step_errors`` (eigvalsh of the exponents) 0.11 s.

    The peak comes while the chunks run: the gates, the steps, the weights
    and the exponents, 2.75 to 2.94 (L, d, d) complex stacks, plus about 5.4
    chunk stacks of scratch per worker (the exponent, its square, two Horner
    buffers and a product's scratch); tracemalloc reads 3.01, 3.12 and 3.17
    stacks at L = 1e5 and d = 2, 3, 4.  :func:`_over_chunks` keeps workers
    times ``CHUNK_STEPS`` within L / 3, so that stays below about 4.8 stacks
    on any CPU count (64 CPUs read 4.65, 4.56, 4.56 at L = 20000; two
    workers at L = 6 CHUNK_STEPS 4.80, 4.71, 4.74).  Reading ``noisy`` and
    ``ideal`` peaks in the ideal scan at 4.41, 4.48 and 4.50 stacks at
    L = 1e5.  The budget counts ``SIM_PEAK_STACKS`` = 5: a length whose
    5 L d^2 amplitudes exceed :data:`qx.vbs_code.DENSE_STACK_CAP` raises
    ValueError before any random draw (about 1.6e6 steps at d = 2).
    """
    if length < 1:
        raise ValueError("computation length must be at least 1")
    if error_dist not in ("uniform", "gaussian"):
        raise ValueError(f"unknown error distribution {error_dist!r}")
    if SIM_PEAK_STACKS * length * d * d > vbs_code.DENSE_STACK_CAP:
        raise ValueError(
            f"length {length} needs {SIM_PEAK_STACKS} stacks of {length}x{d}x{d} "
            f"amplitudes, over the budget of {vbs_code.DENSE_STACK_CAP}"
        )
    basis = gell_mann_basis(d)
    scale = eta(d, n_sites) if error_scale is None else float(error_scale)
    rng = make_generator(seed)
    weights = None
    # the weights, gates, exponents and steps in mappings of their own; the
    # draws filled in place are the bits of rng.normal(0, 1) and of
    # rng.uniform(-1, 1), which is -1 + 2 u
    if gates is None:
        weights = rng.standard_normal(out=_mapped_empty((length, basis.size)))
        gate_stack = _mapped_empty((length, d, d), complex)
    else:
        try:
            gate_stack = np.asarray(gates, dtype=complex)
        except ValueError:  # ragged: the per-gate check names the first misfit
            for g in gates:
                check_unitary(g, d, tol=UNITARY_TOL)
            raise
        if len(gate_stack) < length:
            raise ValueError(f"need {length} gates, got {len(gate_stack)}")
        gate_stack = check_unitary(gate_stack, d, ndim=3, tol=UNITARY_TOL)[:length]
        gate_stack = np.ascontiguousarray(gate_stack)  # the chunks view it batch-last
    exponents = _mapped_empty((length, basis.size))
    if error_dist == "uniform":
        rng.random(out=exponents)
        exponents *= 2.0
        exponents -= 1.0
    else:
        rng.standard_normal(out=exponents)
    steps = _step_products(_generator_parts(basis), gate_stack, exponents, scale, weights)
    del weights
    final_noisy = _final_product(steps)
    del steps
    return SimTrajectory(
        seed=seed,
        length=length,
        error_scale=scale,
        gates=gate_stack,
        exponents=exponents,
        final_noisy=final_noisy,
        final_ideal=_final_product(gate_stack),
    )


def trajectory_csv(trajectory: SimTrajectory) -> str:
    """CSV rendering with columns step, ideal_vs_noisy_distance, envelope."""
    lines = ["step,ideal_vs_noisy_distance,envelope"]
    for step in range(trajectory.length):
        lines.append(
            f"{step + 1},{trajectory.distances[step]:.12g},"
            f"{trajectory.envelopes[step]:.12g}"
        )
    return "\n".join(lines) + "\n"
