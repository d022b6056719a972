"""Phase-minimized unitary distance, gate-count budgets, and noisy-computation
trajectories."""

from __future__ import annotations

from dataclasses import dataclass
from functools import cached_property
from math import floor, isfinite

import numpy as np

from .rng import make_generator
from .su_algebra import (
    _expi_batch_last, _product, _require_finite, _u2_exponential, check_unitary, gell_mann_basis,
)
from .vbs_code import eta

__all__ = [
    "unitary_distance",
    "max_gate_count",
    "SimTrajectory",
    "simulate_computation",
]

UNITARY_TOL = 1e-8
# steps per chunk of a per-step kernel at d = 2 (half as many above, see
# _chunk_steps), whose scratch is a few chunk stacks; a matrix has the same
# bits in any chunk
CHUNK_STEPS = 4096


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

    ``gates`` and ``exponents`` are drawn again on each read; explicit gates
    are a read-only copy of the first L given.  ``distances[l]`` is the
    distance between the noisy and ideal products after step l+1, the last
    ``final_distance`` bit for bit; ``step_errors[l]`` is the distance of
    E_l from the identity and ``envelopes`` accumulates them, an upper bound
    on ``distances``.  These three are computed on first read and cached;
    ``distances`` compares the prefixes of the run's scan chunk by chunk,
    holding nothing L-long but its result.
    """

    d: int
    seed: int
    length: int
    error_scale: float
    error_dist: str
    explicit_gates: np.ndarray | None
    final_noisy: np.ndarray
    final_ideal: np.ndarray

    def _generators(self) -> np.ndarray:
        return gell_mann_basis(self.d).generators

    def _gate_stream(self, generators):
        return _gate_chunks(generators, self.length, self.seed, self.explicit_gates)

    def _exponent_stream(self):
        return _exponent_chunks(self.d, self.length, self.seed, self.error_dist,
                                seeded=self.explicit_gates is None)

    @property
    def gates(self) -> np.ndarray:
        if self.explicit_gates is not None:
            return self.explicit_gates
        chunks = self._gate_stream(self._generators())
        return np.concatenate([chunk.transpose(2, 0, 1) for chunk in chunks])

    @property
    def exponents(self) -> np.ndarray:
        return np.concatenate(list(self._exponent_stream()))

    @cached_property
    def step_errors(self) -> np.ndarray:
        generators = self._generators()
        step_errors = []
        for exponents in self._exponent_stream():
            coefficients = self.error_scale * exponents
            if self.d == 2:  # eigenvalues -r and r
                eigs = _u2_parts(generators, coefficients)[1][:, None] * np.array([-1.0, 1.0])
            else:
                eigs = np.linalg.eigvalsh(_algebra(generators, coefficients).transpose(2, 0, 1))
            step_errors.append(_arc_distances(np.mod(eigs + np.pi, 2.0 * np.pi) - np.pi))
        return np.concatenate(step_errors)

    @cached_property
    def envelopes(self) -> np.ndarray:
        return np.cumsum(self.step_errors)

    @cached_property
    def distances(self) -> np.ndarray:
        generators = self._generators()
        noisy, ideal = _RunningProduct(self.d), _RunningProduct(self.d)
        distances = []
        for gates, exponents in zip(self._gate_stream(generators), self._exponent_stream()):
            steps = _steps(generators, gates, exponents, self.error_scale)
            distances.append(_phase_distances(noisy.feed(steps, prefixes=True).transpose(2, 0, 1),
                                              ideal.feed(gates, prefixes=True).transpose(2, 0, 1)))
        return np.concatenate(distances)

    @property
    def final_distance(self) -> float:
        # the stacked kernel on a one-step stack: the bits of distances[-1]
        return float(_phase_distances(self.final_noisy, self.final_ideal)[0])


def _algebra(generators: np.ndarray, coefficients: np.ndarray) -> np.ndarray:
    """sum_k c_k t^k for the (q, d, d) generators and each row c of an
    (L, q) array, batch-last as (d, d, L).  Each entry's real and imaginary
    parts sum t^k c_k in order of k over just the k whose part of t^k is
    nonzero, one multiply and add at a time, and a part with no such k is
    zero: for the Gell-Mann generators the dense complex sum over every k
    adds only exact zeros besides, so the bits are the same, and each
    matrix has the same bits whatever the batch (a BLAS product would take
    a different kernel for a one-column batch)."""
    out = np.zeros(generators.shape[1:] + coefficients.shape[:1], dtype=complex)
    for plane, parts in ((out.real, generators.real), (out.imag, generators.imag)):
        entry = None
        for i, j, k in zip(*np.nonzero(parts.transpose(1, 2, 0))):
            if (i, j) == entry:
                plane[i, j] += parts[k, i, j] * coefficients[:, k]
            else:
                np.multiply(parts[k, i, j], coefficients[:, k], out=plane[i, j])
                entry = (i, j)
    return out


def _u2_parts(generators: np.ndarray, coefficients: np.ndarray):
    """(u, r) for h = sum_k c_k t^k at d = 2 and each row c of an (L, q)
    array: u, (2, 2, L), holds delta in Im u00, Re h01 in Im u01 and Im h01
    in Re u10, as :func:`qx.su_algebra._u2_exponential` reads them, and r =
    hypot(delta, |h01|), all with the bits :func:`_algebra` and
    :func:`qx.su_algebra._u2_split` give, straight from the coefficient
    columns.  h01 and h00 are the products of _algebra; h11 = -h00 and
    halving rounds alike at either sign, so delta = h00 / 2 - h11 / 2 is
    a + a with a = h00 / 2, and tau = a - a is +0.  r is NaN or infinite
    exactly where some coefficient is, so checking r raises ValueError as
    the check of h does."""
    x, y, z = generators  # sigma / 2 in the order x, y, z
    u = np.empty(generators.shape[1:] + coefficients.shape[:1], dtype=complex)
    delta, re01, im01 = u.imag[0, 0], u.imag[0, 1], u.real[1, 0]
    np.multiply(x[0, 1].real, coefficients[:, 0], out=re01)
    np.multiply(y[0, 1].imag, coefficients[:, 1], out=im01)
    np.multiply(z[0, 0].real, coefficients[:, 2], out=delta)
    delta *= 0.5
    delta += delta
    r = np.hypot(re01, im01)
    np.hypot(delta, r, out=r)
    _require_finite(r)
    return u, r


def _exponentials(generators: np.ndarray, coefficients: np.ndarray) -> np.ndarray:
    """exp(i sum_k c_k t^k) for each row c of an (L, q) array, batch-last as
    (d, d, L), with the bits of ``_expi_batch_last(_algebra(generators,
    coefficients))``.  At d = 2 no h is formed: the U(2) closed form is
    written over :func:`_u2_parts`, with no e^(i tau) for tau = 0."""
    if generators.shape[-1] == 2:
        return _u2_exponential(*_u2_parts(generators, coefficients))
    h = _algebra(generators, coefficients)
    del coefficients  # freed before the kernel, whose peak is h and its scratch
    return _expi_batch_last(h)


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


def _chunk_steps(d: int) -> int:
    """Steps per chunk at dimension d: CHUNK_STEPS at d = 2, half of it
    above.  A chunk makes a fixed number of numpy calls, so longer chunks
    spend less per step on calls, but the lengths above d = 2 are measured,
    not derived: at 5e4 steps (fresh processes, 2 vCPUs, three runs each)
    d = 3 ran 0.13-0.15 s at 2048 steps, 0.18-0.19 s at 1024 and
    0.12-0.13 s at 4096, and d = 4 0.24-0.28 s at 2048, 0.26 s at 1024
    and 0.28-0.29 s at 4096, with 3,200-6,100 minor page faults per run at
    any of these lengths."""
    return CHUNK_STEPS if d == 2 else max(1, CHUNK_STEPS // 2)


def _gate_chunks(generators, length, seed, gates=None):
    """Yield each chunk's gates, batch-last as (d, d, n): a copy of the
    explicit ``gates``, or exp(i sum_k w_k t^k), w the bits of one
    rng.normal(0, 1) of (L, q) on the seed's generator."""
    q, weights = len(generators), make_generator(seed)
    chunk = _chunk_steps(generators.shape[-1])
    for i in range(0, length, chunk):
        n = min(chunk, length - i)
        if gates is None:
            yield _exponentials(generators, weights.standard_normal((n, q)))
        else:
            yield np.ascontiguousarray(gates[i:i + n].transpose(1, 2, 0))


def _exponent_chunks(d, length, seed, error_dist, seeded):
    """Yield each chunk's (n, q) error exponents, the bits of one
    rng.uniform(-1, 1) (or rng.normal) of (L, q) on the seed's generator;
    with ``seeded`` gates it first draws and drops their L x q weights."""
    q, chunk, rng = d * d - 1, _chunk_steps(d), make_generator(seed)
    if seeded:
        dropped = np.empty(chunk * q)
        for i in range(0, length * q, dropped.size):
            rng.standard_normal(out=dropped[:length * q - i])
    uniform = error_dist == "uniform"  # rng.uniform(-1, 1) is -1 + 2 u
    for i in range(0, length, chunk):
        n = min(chunk, length - i)
        if uniform:
            exponents = rng.random((n, q))
            exponents *= 2.0
            exponents -= 1.0
            yield exponents
        else:
            yield rng.standard_normal((n, q))


def _steps(generators, gates, exponents, scale) -> np.ndarray:
    """A chunk's steps G_l exp(i scale sum_k eps_k t^k), batch-last."""
    return _product(gates, _exponentials(generators, scale * exponents))


def _levels(x: np.ndarray):
    """Yield the aligned pairwise tree over the last axis of batch-last x:
    x, x1, x2, ... with x_{k+1}[j] = x_k[2j+1] @ x_k[2j], to one entry."""
    yield x
    while x.shape[-1] > 1:
        x = _product(x[..., 1::2], x[..., :-1:2])
        yield x


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
            if prefixes:
                levels = list(_levels(x[..., i:i + steps]))
                total = levels[-1]
                run = out[..., i:i + steps]  # after 0 .. steps - 1 of its steps
                run[...] = self.total()[..., None]
                for b in reversed(range(len(levels) - 1)):
                    rows = run.reshape(d, d, -1, 2, 1 << b)[..., 1, :]
                    rows[...] = _product(levels[b][..., ::2, None], rows)
            else:  # straight to the total, holding no level but the last
                for total in _levels(x[..., i:i + steps]):
                    pass
            self.push(total[..., 0], steps)
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

    The run holds nothing L-long but an explicit gate stack: each chunk of
    ``CHUNK_STEPS`` steps (half as many at d >= 3) draws its gate weights and
    error exponents, forms its gates and steps G_l E_l with the elementwise
    kernels of :func:`_exponentials` (the U(2) closed form written from the
    draws at d = 2, :func:`qx.su_algebra._expi_batch_last` above) and
    :func:`qx.su_algebra._product`, and feeds both to a
    :class:`_RunningProduct`, so no result depends on the chunking.  Its
    tracemalloc peak, 5.3 stacks of its own chunk at d = 2, 8.3 at d = 3 and
    8.2 at d = 4 (at 2e4 and 2e5 steps alike), does not grow with L.  A NaN
    or infinite error scale raises ValueError, as a non-unitary gate does.
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
        gates = check_unitary(stack, d, ndim=3, tol=UNITARY_TOL)[:length].copy()
        gates.flags.writeable = False  # the reads hand it out
    noisy, ideal = _RunningProduct(d), _RunningProduct(d)
    draws = zip(_gate_chunks(generators, length, seed, gates),
                _exponent_chunks(d, length, seed, error_dist, gates is None))
    for chunk, exponents in draws:
        ideal.feed(chunk)
        noisy.feed(_steps(generators, chunk, exponents, scale))
    return SimTrajectory(
        d=d,
        seed=seed,
        length=length,
        error_scale=scale,
        error_dist=error_dist,
        explicit_gates=gates,
        final_noisy=noisy.total()[None],
        final_ideal=ideal.total()[None],
    )
