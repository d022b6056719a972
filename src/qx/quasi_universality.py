"""Gate-cell bookkeeping, accuracy budgets, and noisy-computation trajectories."""

from __future__ import annotations

from dataclasses import dataclass
from math import floor, isqrt, pi, sin

import numpy as np

from .rng import make_generator
from .su_algebra import expi_hermitian, gell_mann_basis, random_special_unitary
from . import vbs_code

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
# (L, d, d) complex stacks simulate_computation holds at its peak, rounded up
# (tracemalloc reads 6.75 at d = 2, 6.56 at d = 3, 6.53 at d = 4)
SIM_PEAK_STACKS = 7
TIE_DECIMALS = 12


def _check_unitary(u: np.ndarray, dim: int | None = None, ndim: int = 2) -> np.ndarray:
    """u as a complex array of ``ndim`` axes whose last two form unitaries."""
    u = np.asarray(u, dtype=complex)
    if u.ndim != ndim or u.shape[-1] != u.shape[-2]:
        raise ValueError(f"expected a square matrix, got shape {u.shape[ndim - 2:]}")
    if dim is not None and u.shape[-1] != dim:
        raise ValueError(f"expected dimension {dim}, got {u.shape[-1]}")
    gram = np.swapaxes(u.conj(), -1, -2) @ u - np.eye(u.shape[-1])
    if np.any(np.linalg.norm(gram, 2, axis=(-2, -1)) > UNITARY_TOL):
        raise ValueError("matrix is not unitary")
    return u


def unitary_distance(u: np.ndarray, v: np.ndarray) -> float:
    """Global-phase-minimized operator-norm distance between unitaries.

    min over phases of ||u - e^(i phi) v||.  Since v+u is unitary, the
    minimum is reached at the midpoint of the smallest arc enclosing its
    eigenphases: for enclosing width W the distance is 2 sin(W/4).
    """
    u = _check_unitary(u)
    v = _check_unitary(v, u.shape[0])
    phases = np.sort(np.angle(np.linalg.eigvals(v.conj().T @ u)))
    if phases.size == 1:
        return 0.0
    gaps = np.diff(phases, append=phases[0] + 2.0 * pi)
    width = 2.0 * pi - gaps.max()
    return float(2.0 * sin(max(width, 0.0) / 4.0))


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
    if accuracy <= 0.0:
        raise ValueError("accuracy must be positive")
    basis = gell_mann_basis(dim)
    rng = make_generator(seed)
    reps: list[np.ndarray] = [np.eye(dim, dtype=complex)]
    for _ in range(n_samples):
        candidate = random_special_unitary(basis, rng)
        if all(unitary_distance(candidate, r) > accuracy for r in reps):
            reps.append(candidate)
    return GateCellTable(dim=dim, accuracy=accuracy, representatives=tuple(reps))


def cell_assign(table: GateCellTable, u: np.ndarray) -> int:
    """Index of the nearest representative; ties resolve to the lowest index.

    Distances are rounded to 12 decimals before comparison so exact midpoints
    resolve deterministically.
    """
    if not table.representatives:
        raise ValueError("gate-cell table is empty")
    u = _check_unitary(u, table.dim)
    distances = [
        round(unitary_distance(u, rep), TIE_DECIMALS)
        for rep in table.representatives
    ]
    return int(np.argmin(distances))


def max_gate_count(target: float, accuracy: float, synthesis_error: float = 0.0) -> int:
    """Largest gate count m with m * accuracy within the target budget,
    floor((target - synthesis_error) / accuracy)."""
    if accuracy <= 0.0:
        raise ValueError("accuracy must be positive")
    if synthesis_error < 0.0 or target < synthesis_error:
        raise ValueError("target budget must be at least the synthesis error")
    return int(floor((target - synthesis_error) / accuracy))


def compose_error_bound(gate_distances) -> float:
    """Subadditive accumulation bound: the sum of per-gate distances."""
    total = 0.0
    for x in gate_distances:
        if x < 0.0:
            raise ValueError("distances must be nonnegative")
        total += float(x)
    return total


@dataclass(frozen=True)
class SimTrajectory:
    """One seeded noisy-computation run at the logical level.

    ``distances[l]`` is the phase-minimized distance between the noisy and
    ideal cumulative products after step l+1; ``envelopes`` accumulates the
    per-step error-gate distances, an upper bound on ``distances``.
    """

    seed: int
    length: int
    error_scale: float
    gates: np.ndarray
    exponents: np.ndarray
    step_errors: np.ndarray
    distances: np.ndarray
    envelopes: np.ndarray

    @property
    def final_distance(self) -> float:
        return float(self.distances[-1])


def _batched_expi(h: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
    """exp(i h) and the eigenvalues for a stack of Hermitian matrices."""
    w, v = np.linalg.eigh((h + h.conj().transpose(0, 2, 1)) / 2.0)
    phase = np.exp(1j * w)
    return np.einsum("lik,lk,ljk->lij", v, phase, v.conj()), w


def _arc_distances(phases: np.ndarray) -> np.ndarray:
    """Phase-minimized distances 2 sin(W/4) for stacked eigenphase rows."""
    wrapped = np.sort(np.mod(phases + np.pi, 2.0 * np.pi) - np.pi, axis=1)
    gaps = np.diff(wrapped, axis=1, append=(wrapped[:, :1] + 2.0 * np.pi))
    widths = np.clip(2.0 * np.pi - gaps.max(axis=1), 0.0, None)
    return 2.0 * np.sin(widths / 4.0)


def _cumulative_products(seq: np.ndarray) -> np.ndarray:
    """``seq[l] @ ... @ seq[0]`` for every l of an (L, d, d) stack.

    Two-level blocked scan: the steps are cut into blocks of b = isqrt(L),
    the last one padded with identities, and held as a (b, d, d, n_blocks)
    buffer so that step j of every block is one contiguous batch-last slab.
    The b - 1 in-block prefix steps run for all blocks at once as
    elementwise products, one loop over the blocks chains their totals into
    carries, and b more slab steps apply each block's carry: about 3 sqrt(L)
    batched steps in all.  Holds two (L, d, d) stacks besides ``seq``: the
    buffer and the returned products.
    """
    length, d, _ = seq.shape
    b = isqrt(length)
    n_blocks = -(-length // b)
    full, rem = divmod(length, b)
    buf = np.empty((b, d, d, n_blocks), dtype=complex)
    blocks = buf.transpose(3, 0, 1, 2)
    blocks[:full] = seq[: full * b].reshape(full, b, d, d)
    if rem:
        blocks[full, :rem] = seq[full * b :]
        blocks[full, rem:] = np.eye(d)
    for j in range(1, b):
        buf[j] = (buf[j][:, :, None] * buf[j - 1][None]).sum(1)
    totals = blocks[:, -1]
    carry = np.empty((d, d, n_blocks), dtype=complex)
    carry[..., 0] = np.eye(d)
    for k in range(1, n_blocks):
        carry[..., k] = totals[k - 1] @ carry[..., k - 1]
    for j in range(b):
        buf[j] = (buf[j][:, :, None] * carry[None]).sum(1)
    return blocks.reshape(n_blocks * b, d, d)[:length]


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

    Nothing loops over the L steps in Python: the decompositions run on
    (L, d, d) stacks, and the ideal and noisy cumulative products come from
    one blocked scan each (:func:`_cumulative_products`), about 3 sqrt(L)
    batched steps.  At L = 1e5 and d = 2 a trajectory takes 0.7-1.0 s on a
    2-core OpenBLAS machine; the two scans take about 0.05 s of it, and the
    batched ``eigh``, ``eigvals`` and einsums the rest.

    At its peak, while the error gates are exponentiated, the run holds
    ``SIM_PEAK_STACKS`` = 7 (L, d, d) complex stacks' worth of arrays: five
    stacks (the gates, the generator sum, the eigenvectors, their conjugate
    and the exponentials) plus the weights, exponents, eigenvalues and
    phases, 1.75 stacks at d = 2 (6.75 in all under tracemalloc).  A length
    whose 7 L d^2 amplitudes exceed :data:`qx.vbs_code.DENSE_STACK_CAP`
    raises ValueError before any random draw (about 1.14e6 steps at d = 2).
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
    scale = vbs_code.eta(d, n_sites) if error_scale is None else float(error_scale)
    rng = make_generator(seed)
    if gates is None:
        weights = rng.normal(0.0, 1.0, size=(length, basis.size))
        gate_stack, _ = _batched_expi(
            np.einsum("lk,kij->lij", weights, basis.generators)
        )
    else:
        try:
            gate_stack = np.asarray(gates, dtype=complex)
        except ValueError:  # ragged: the per-gate check names the first misfit
            for g in gates:
                _check_unitary(g, d)
            raise
        if len(gate_stack) < length:
            raise ValueError(f"need {length} gates, got {len(gate_stack)}")
        gate_stack = _check_unitary(gate_stack, d, ndim=3)[:length]
    if error_dist == "uniform":
        exponents = rng.uniform(-1.0, 1.0, size=(length, basis.size))
    else:
        exponents = rng.normal(0.0, 1.0, size=(length, basis.size))
    error_gates, error_eigs = _batched_expi(
        scale * np.einsum("lk,kij->lij", exponents, basis.generators)
    )
    step_errors = _arc_distances(error_eigs)
    noisy = _cumulative_products(gate_stack @ error_gates)  # steps G_l E_l
    del error_gates  # before the ideal scan, or the peak passes SIM_PEAK_STACKS
    ideal = _cumulative_products(gate_stack)
    relative = np.einsum("lba,lbc->lac", ideal.conj(), noisy)
    distances = _arc_distances(np.angle(np.linalg.eigvals(relative)))
    return SimTrajectory(
        seed=seed,
        length=length,
        error_scale=scale,
        gates=gate_stack,
        exponents=exponents,
        step_errors=step_errors,
        distances=distances,
        envelopes=np.cumsum(step_errors),
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
