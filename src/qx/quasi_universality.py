"""Phase-minimized unitary distance, gate-count budgets, and noisy-computation
trajectories."""

from __future__ import annotations

from dataclasses import dataclass
from functools import cached_property
from math import floor, isfinite

import numpy as np

from .rng import make_generator
from .su_algebra import _expi_batch_last, _product, _u2_split, check_unitary, gell_mann_basis
from .vbs_code import eta

__all__ = [
    "unitary_distance",
    "max_gate_count",
    "SimTrajectory",
    "simulate_computation",
]

UNITARY_TOL = 1e-8
# steps per chunk of a per-step kernel, whose scratch is a few chunk stacks
# (4096 was no faster at d = 2); a matrix has the same bits in any chunk
CHUNK_STEPS = 2048


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


@dataclass(frozen=True)
class SimTrajectory:
    """One seeded noisy-computation run at the logical level: its parameters
    and the last noisy and ideal products, (1, d, d) stacks.

    ``gates`` and ``exponents`` are drawn again on each read.  ``noisy[l]``
    and ``ideal[l]`` are the cumulative products after step l+1, the last
    the run's bit for bit, and ``distances[l]`` the distance between them;
    ``step_errors[l]`` is the distance of E_l from the identity and
    ``envelopes`` accumulates them, an upper bound on ``distances``.  These
    five are computed on first read and cached; ``distances`` compares the
    prefixes of the run's scan chunk by chunk, holding nothing L-long.
    """

    seed: int
    length: int
    error_scale: float
    error_dist: str
    explicit_gates: np.ndarray | None
    final_noisy: np.ndarray
    final_ideal: np.ndarray

    def _draws(self):
        generators = gell_mann_basis(self.final_noisy.shape[-1]).generators
        return generators, _chunks(
            generators, self.length, self.seed, self.error_dist, self.explicit_gates)

    @property
    def gates(self) -> np.ndarray:
        if self.explicit_gates is not None:
            return self.explicit_gates
        return _stacked((gates for gates, _ in self._draws()[1]), self.length)

    @property
    def exponents(self) -> np.ndarray:
        return np.concatenate([exponents for _, exponents in self._draws()[1]])

    def _stepped(self):
        """Yield each chunk's steps and gates, batch-last."""
        generators, chunks = self._draws()
        for gates, exponents in chunks:
            yield _steps(generators, gates, exponents, self.error_scale), gates

    def _prefixes(self, chunks) -> np.ndarray:
        """The (L, d, d) stack of the products after each step of the chunks."""
        running = _RunningProduct(self.final_noisy.shape[-1])
        return _stacked((running.feed(chunk, prefixes=True) for chunk in chunks), self.length)

    @cached_property
    def noisy(self) -> np.ndarray:
        return self._prefixes(steps for steps, _ in self._stepped())

    @cached_property
    def ideal(self) -> np.ndarray:
        return self._prefixes(gates for gates, _ in self._draws()[1])

    @cached_property
    def step_errors(self) -> np.ndarray:
        generators, chunks = self._draws()
        step_errors = []
        for _, exponents in chunks:
            h = _algebra(generators, self.error_scale * exponents)
            if h.shape[0] == 2:  # eigenvalues -r and r
                eigs = _u2_split(h)[2][:, None] * np.array([-1.0, 1.0])
            else:
                eigs = np.linalg.eigvalsh(h.transpose(2, 0, 1))
            step_errors.append(_arc_distances(np.mod(eigs + np.pi, 2.0 * np.pi) - np.pi))
        return np.concatenate(step_errors)

    @cached_property
    def envelopes(self) -> np.ndarray:
        return np.cumsum(self.step_errors)

    @cached_property
    def distances(self) -> np.ndarray:
        d = self.final_noisy.shape[-1]
        noisy, ideal = _RunningProduct(d), _RunningProduct(d)
        return np.concatenate([
            _phase_distances(noisy.feed(steps, prefixes=True).transpose(2, 0, 1),
                             ideal.feed(gates, prefixes=True).transpose(2, 0, 1))
            for steps, gates in self._stepped()])

    @property
    def final_distance(self) -> float:
        # the stacked kernel on a one-step stack: the bits of distances[-1]
        return float(_phase_distances(self.final_noisy, self.final_ideal)[0])


def _algebra(generators: np.ndarray, coefficients: np.ndarray) -> np.ndarray:
    """sum_k c_k t^k for the (q, d, d) generators and each row c of an
    (L, q) array, batch-last as (d, d, L); summed term by term in order of
    k, so each matrix has the same bits whatever the batch (a BLAS product
    would take a different kernel for a one-column batch)."""
    columns = np.ascontiguousarray(coefficients.T)
    out = generators[0, ..., None] * columns[0]
    for g, c in zip(generators[1:], columns[1:]):
        out += g[..., None] * c
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


def _chunks(generators, length, seed, error_dist, gates=None):
    """Yield each chunk's gates, batch-last as (d, d, n), and its
    (n, q) error exponents: seeded gates are exp(i sum_k w_k t^k), w the
    bits of one rng.normal(0, 1) of (L, q), and a second generator draws and
    drops those before the rng.uniform(-1, 1) (or rng.normal) that follows."""
    q = len(generators)
    weights, rng = make_generator(seed), make_generator(seed)
    if gates is None:
        dropped = np.empty(CHUNK_STEPS * q)
        for i in range(0, length * q, dropped.size):
            rng.standard_normal(out=dropped[:length * q - i])
    for i in range(0, length, CHUNK_STEPS):
        n = min(CHUNK_STEPS, length - i)
        if gates is None:
            chunk = _expi_batch_last(_algebra(generators, weights.standard_normal((n, q))))
        else:
            chunk = np.ascontiguousarray(gates[i:i + n].transpose(1, 2, 0))
        uniform = error_dist == "uniform"  # rng.uniform(-1, 1) is -1 + 2 u
        yield chunk, rng.random((n, q)) * 2.0 - 1.0 if uniform else rng.standard_normal((n, q))


def _steps(generators, gates, exponents, scale) -> np.ndarray:
    """A chunk's steps G_l exp(i scale sum_k eps_k t^k), batch-last."""
    return _product(gates, _expi_batch_last(_algebra(generators, scale * exponents)))


def _stacked(chunks, length: int) -> np.ndarray:
    """The (L, d, d) stack of batch-last chunks."""
    out, i = None, 0
    for chunk in chunks:
        if out is None:
            out = np.empty((length,) + chunk.shape[:2], dtype=complex)
        out[i:i + chunk.shape[-1]] = chunk.transpose(2, 0, 1)
        i += chunk.shape[-1]
    return out


def _levels(x: np.ndarray) -> list:
    """The aligned pairwise tree over the last axis of batch-last x:
    [x, x1, x2, ...] with x_{k+1}[j] = x_k[2j+1] @ x_k[2j], to one entry."""
    levels = [x]
    while x.shape[-1] > 1:
        x = _product(x[..., 1::2], x[..., :-1:2])
        levels.append(x)
    return levels


class _RunningProduct:
    """x_L @ ... @ x_1 of steps fed in pieces of any length, associated by
    L alone: a piece splits into aligned power-of-two runs, reduced by
    :func:`_levels`, whose totals go on a binary counter, where two of equal
    length merge as newer @ older.  The counter then holds the aligned-tree
    totals over the set bits of the steps taken, chained by :meth:`total`;
    the product after step m, as :meth:`feed` returns it, chains them over
    the set bits of m, so the last is the total bit for bit."""

    def __init__(self, d: int):
        self.runs, self.steps = [], 0  # (steps, product) of aligned runs, the longest first
        self.identity = np.eye(d, dtype=complex)

    def push(self, total: np.ndarray, steps: int) -> None:
        self.steps += steps
        while self.runs and self.runs[-1][0] == steps:
            total = _product(total, self.runs.pop()[1])
            steps *= 2
        self.runs.append((steps, total))

    def feed(self, x: np.ndarray, prefixes: bool = False) -> np.ndarray | None:
        """Take the next steps, batch-last as (d, d, n); with ``prefixes``,
        return the product after each, (d, d, n): in a run, those whose count
        has bit b set take its level-b total on the left, a product per bit."""
        d, _, n = x.shape
        out = np.empty((d, d, n + 1), dtype=complex) if prefixes else None  # after 0 .. n steps
        i = 0
        while i < n:
            aligned = (self.steps & -self.steps).bit_length() or 64
            steps = 1 << (min(aligned, (n - i).bit_length()) - 1)
            levels = _levels(x[..., i:i + steps])
            if prefixes:
                run = out[..., i:i + steps]  # after 0 .. steps - 1 of its steps
                run[...] = self.total()[..., None]
                for b in reversed(range(len(levels) - 1)):
                    rows = run.reshape(d, d, -1, 2, 1 << b)[..., 1, :]
                    rows[...] = _product(levels[b][..., ::2, None], rows)
            self.push(levels[-1][..., 0], steps)
            i += steps
        if prefixes:
            out[..., n] = self.total()
            return out[..., 1:]

    def total(self) -> np.ndarray:
        """The runs chained from I, longest first: a (d, d) matrix."""
        total = self.identity
        for _, run in self.runs:
            total = _product(run, total)
        return total


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

    The run holds nothing L-long but an explicit gate stack: each
    ``CHUNK_STEPS``-step chunk draws its gate weights and error exponents,
    forms its gates and steps G_l E_l with the elementwise kernels of
    :func:`qx.su_algebra._expi_batch_last` and :func:`qx.su_algebra._product`,
    and feeds both to a :class:`_RunningProduct`, so no result depends on
    the chunking.  Its tracemalloc peak, 6.8 chunk stacks at d = 2, 8.3 at
    d = 3 and 8.2 at d = 4, does not grow with L.
    """
    if length < 1:
        raise ValueError("computation length must be at least 1")
    if error_dist not in ("uniform", "gaussian"):
        raise ValueError(f"unknown error distribution {error_dist!r}")
    generators = gell_mann_basis(d).generators
    scale = eta(d, n_sites) if error_scale is None else float(error_scale)
    if gates is not None:
        try:
            stack = np.asarray(gates, dtype=complex)
        except ValueError:  # ragged: the per-gate check names the first misfit
            for g in gates:
                check_unitary(g, d, tol=UNITARY_TOL)
            raise
        if len(stack) < length:
            raise ValueError(f"need {length} gates, got {len(stack)}")
        gates = check_unitary(stack, d, ndim=3, tol=UNITARY_TOL)[:length]
    noisy, ideal = _RunningProduct(d), _RunningProduct(d)
    for chunk, exponents in _chunks(generators, length, seed, error_dist, gates):
        ideal.feed(chunk)
        noisy.feed(_steps(generators, chunk, exponents, scale))
    return SimTrajectory(
        seed=seed,
        length=length,
        error_scale=scale,
        error_dist=error_dist,
        explicit_gates=gates,
        final_noisy=noisy.total()[None],
        final_ideal=ideal.total()[None],
    )
