import os
import tracemalloc

import numpy as np
import pytest

import oracles
from qx import quasi_universality as qu
from qx.rng import make_generator, splitmix64, stable_seed
from qx.su_algebra import _expi_batch_last, expi_hermitian, gell_mann_basis, random_special_unitary
from qx.vbs_code import eta


def test_unitary_distance_basics():
    u = np.diag([1.0, 1.0]).astype(complex)
    assert qu.unitary_distance(u, u) == 0.0
    v = np.diag([1.0, -1.0]).astype(complex)
    assert abs(qu.unitary_distance(u, v) - np.sqrt(2)) < 1e-12


def test_unitary_distance_phase_invariance():
    basis = gell_mann_basis(3)
    rng = make_generator(2)
    u = random_special_unitary(basis, rng)
    v = random_special_unitary(basis, rng)
    d0 = qu.unitary_distance(u, v)
    assert abs(qu.unitary_distance(u, np.exp(0.37j) * v) - d0) < 1e-12
    assert qu.unitary_distance(u, np.exp(-0.9j) * u) < 1e-12


def test_unitary_distance_triangle_inequality():
    basis = gell_mann_basis(2)
    rng = make_generator(5)
    for _ in range(10):
        a = random_special_unitary(basis, rng)
        b = random_special_unitary(basis, rng)
        c = random_special_unitary(basis, rng)
        assert qu.unitary_distance(a, c) <= (
            qu.unitary_distance(a, b) + qu.unitary_distance(b, c) + 1e-12
        )


def test_unitary_distance_rejects_nonunitary():
    with pytest.raises(ValueError):
        qu.unitary_distance(np.array([[1.0, 0.3], [0.0, 1.0]]), np.eye(2))


def test_unitary_distance_stack_matches_each_matrix():
    rng = make_generator(8)
    basis = gell_mann_basis(3)
    u = random_special_unitary(basis, rng)
    stack = np.array([random_special_unitary(basis, rng) for _ in range(5)])
    distances = qu.unitary_distance(u, stack)
    assert distances.shape == (5,)
    single = [qu.unitary_distance(u, v) for v in stack]
    assert all(isinstance(x, float) for x in single)
    assert np.array_equal(distances, single)
    assert qu.unitary_distance(u, stack[None, :2]).shape == (1, 2)
    stack[3, 0, 0] += 0.1
    with pytest.raises(ValueError, match="not unitary"):
        qu.unitary_distance(u, stack)


def test_gate_cell_table_build_and_assign():
    table = oracles.build_gate_cell_table(2, accuracy=0.5, n_samples=200, seed=7)
    reps = table.representatives
    assert len(reps) > 1
    for i in range(len(reps)):
        for j in range(i + 1, len(reps)):
            assert qu.unitary_distance(reps[i], reps[j]) > table.accuracy
    for idx in (0, len(reps) - 1):
        assert oracles.cell_assign(table, reps[idx]) == idx
    assert oracles.cell_assign(table, np.exp(1.1j) * reps[1]) == 1


def test_gate_cell_assignment_within_half_accuracy():
    table = oracles.build_gate_cell_table(2, accuracy=0.6, n_samples=100, seed=3)
    rng = make_generator(4)
    basis = gell_mann_basis(2)
    target = 2
    nudge = expi_hermitian(0.05 * np.einsum(
        "a,aij->ij", rng.normal(size=3), basis.generators
    ))
    probe = nudge @ table.representatives[target]
    if qu.unitary_distance(probe, table.representatives[target]) < table.accuracy / 2:
        assert oracles.cell_assign(table, probe) == target


def test_gate_cell_tie_breaks_to_lowest_index():
    reps = (
        np.eye(2, dtype=complex),
        np.diag([np.exp(1j * np.pi / 8), np.exp(-1j * np.pi / 8)]),
    )
    table = oracles.GateCellTable(dim=2, accuracy=0.05, representatives=reps)
    midpoint = np.diag([np.exp(1j * np.pi / 16), np.exp(-1j * np.pi / 16)])
    assert oracles.cell_assign(table, midpoint) == 0


def test_gate_cell_table_determinism_and_refinement():
    coarse_a = oracles.build_gate_cell_table(2, 0.9, 400, seed=11)
    coarse_b = oracles.build_gate_cell_table(2, 0.9, 400, seed=11)
    assert len(coarse_a.representatives) == len(coarse_b.representatives)
    for x, y in zip(coarse_a.representatives, coarse_b.representatives):
        assert np.abs(x - y).max() == 0.0
    fine = oracles.build_gate_cell_table(2, 0.45, 400, seed=11)
    assert len(fine.representatives) > len(coarse_a.representatives)
    for accuracy in (0.0, -0.1, np.nan):
        with pytest.raises(ValueError, match="accuracy must be positive"):
            oracles.build_gate_cell_table(2, accuracy, 20, seed=1)


def test_max_gate_count():
    assert qu.max_gate_count(0.1, 0.001) == 100
    assert qu.max_gate_count(0.001, 0.001) == 1
    assert qu.max_gate_count(0.01, 0.02) == 0
    assert qu.max_gate_count(0.05, abs(eta(2, 8))) == int(
        np.floor(0.05 / abs(eta(2, 8)))
    )
    with pytest.raises(ValueError):
        qu.max_gate_count(0.01, 0.001, synthesis_error=0.02)
    with pytest.raises(ValueError):
        qu.max_gate_count(0.1, 0.0)
    for args in [(np.inf, 0.001), (np.nan, 0.001), (0.1, 0.001, np.nan), (1.0, 1e-320)]:
        with pytest.raises(ValueError):
            qu.max_gate_count(*args)


def test_compose_error_bound():
    assert oracles.compose_error_bound([0.25, 0.25]) == 0.5
    assert oracles.compose_error_bound([]) == 0.0
    for distances in ([-0.1], [0.1, np.nan]):
        with pytest.raises(ValueError, match="nonnegative"):
            oracles.compose_error_bound(distances)


def test_compose_error_bound_monte_carlo():
    basis = gell_mann_basis(2)
    for trial in range(100):
        rng = make_generator(100, trial)
        ideal = [random_special_unitary(basis, rng) for _ in range(4)]
        nudges = [
            expi_hermitian(
                0.05 * np.einsum("a,aij->ij", rng.normal(size=3), basis.generators)
            )
            for _ in range(4)
        ]
        noisy = [u @ e for u, e in zip(ideal, nudges)]
        bound = oracles.compose_error_bound(
            [qu.unitary_distance(e, np.eye(2)) for e in nudges]
        )
        prod_ideal = np.eye(2)
        prod_noisy = np.eye(2)
        for u, v in zip(ideal, noisy):
            prod_ideal = u @ prod_ideal
            prod_noisy = v @ prod_noisy
        assert qu.unitary_distance(prod_noisy, prod_ideal) <= bound + 1e-10


def test_simulation_zero_error_scale():
    traj = qu.simulate_computation(2, 8, 20, seed=1, error_scale=0.0)
    assert traj.distances.max() < 1e-12
    assert traj.final_distance < 1e-12


def test_simulation_envelope_and_determinism():
    traj = qu.simulate_computation(2, 8, 50, seed=42)
    assert np.all(traj.distances <= traj.envelopes + 1e-10)
    again = qu.simulate_computation(2, 8, 50, seed=42)
    assert oracles.trajectory_csv(traj) == oracles.trajectory_csv(again)
    assert np.abs(traj.gates - again.gates).max() == 0.0


def test_simulation_bigger_chain_reduces_drift():
    short = qu.simulate_computation(2, 8, 60, seed=5)
    long = qu.simulate_computation(2, 16, 60, seed=5)
    assert long.final_distance < short.final_distance


def test_simulation_explicit_gates_and_validation():
    gates = [np.eye(2, dtype=complex)] * 10
    traj = qu.simulate_computation(2, 8, 10, seed=0, gates=gates)
    assert traj.length == 10
    with pytest.raises(ValueError):
        qu.simulate_computation(2, 8, 0, seed=0)
    with pytest.raises(ValueError):
        qu.simulate_computation(2, 8, 11, seed=0, gates=gates)
    with pytest.raises(ValueError):
        qu.simulate_computation(2, 8, 5, seed=0, error_dist="poisson")


def test_explicit_gates_do_not_alias_the_callers_array():
    # the reads draw the gates again, so a caller who reuses the buffer
    # after the run must not change them
    given = random_unitaries(np.random.default_rng(3), 12, 2)
    kept = given[:10].copy()
    traj = qu.simulate_computation(2, 8, 10, seed=0, gates=given)
    given[:] = np.eye(2)
    assert np.array_equal(traj.gates, kept)
    assert traj.final_distance == traj.distances[-1]
    with pytest.raises(ValueError):
        traj.gates[0] = np.eye(2)


def random_unitaries(rng, length, d):
    z = rng.normal(size=(length, d, d)) + 1j * rng.normal(size=(length, d, d))
    return np.linalg.qr(z)[0]


def prefix_scan(seq):
    """The products after each step of an (L, d, d) stack fed whole to a
    running product, as an (L, d, d) stack."""
    running = qu._RunningProduct(seq.shape[-1])
    return running.feed(seq.transpose(1, 2, 0), prefixes=True).transpose(2, 0, 1)


@pytest.mark.parametrize("d", [2, 3, 4])
def test_cumulative_products_match_sequential_oracle(d):
    # squares, non-squares and lengths shorter than one block
    rng = np.random.default_rng(d)
    for length in [1, 2, 3, 4, 5, 15, 16, 17, 99, 100, 101]:
        seq = random_unitaries(rng, length, d)
        got = prefix_scan(seq)
        assert got.shape == (length, d, d)
        np.testing.assert_allclose(got, oracles.sequential_products(seq), rtol=0, atol=1e-12)


@pytest.mark.parametrize("d", [2, 3, 4])
def test_final_product_is_the_last_cumulative_product(d):
    # the streamed total, fed in uneven pieces, against the scan's last
    # element: powers of two and their neighbours (one block among them),
    # one block and a few steps, several blocks and a remainder
    rng = np.random.default_rng(10 + d)
    block = qu.CHUNK_STEPS
    lengths = {2**k + e for k in range(13) for e in (-1, 0, 1)} - {0}
    lengths |= {block - 1, block + 1, 3 * block + 5, 10007}
    for length in sorted(lengths):
        seq = random_unitaries(rng, length, d)
        running = qu._RunningProduct(d)
        cuts = np.sort(rng.integers(0, length + 1, size=3))
        for piece in np.split(seq, cuts):
            running.feed(piece.transpose(1, 2, 0))
        assert np.array_equal(running.total(), prefix_scan(seq)[-1]), (d, length)


@pytest.mark.parametrize("d", [2, 3, 4])
def test_prefixes_fed_in_pieces_match_the_whole(d):
    # pieces cut at odd counts start runs that are not aligned, so each is
    # split into runs the whole sequence never takes; empty pieces too
    rng = np.random.default_rng(20 + d)
    block = qu.CHUNK_STEPS
    lengths = {2**k + e for k in range(13) for e in (-1, 0, 1)} - {0}
    lengths |= {block - 1, block + 1, 3 * block + 5, 10007}
    for length in sorted(lengths):
        seq = random_unitaries(rng, length, d)
        running = qu._RunningProduct(d)
        cuts = np.minimum(np.sort(rng.integers(0, length + 1, size=4) | 1), length)
        got = np.concatenate([
            running.feed(piece.transpose(1, 2, 0), prefixes=True)
            for piece in np.split(seq, cuts)], axis=-1).transpose(2, 0, 1)
        assert np.array_equal(got, prefix_scan(seq)), (d, length)
        assert np.array_equal(got[-1], running.total()), (d, length)
        np.testing.assert_allclose(got, oracles.sequential_products(seq), rtol=0, atol=1e-12)


SEQUENTIAL_CASES = [
    # (error scale, d, explicit gates, error distribution)
    pytest.param(0.0, 3, True, "uniform", id="0.0"),
    pytest.param(0.05, 3, True, "uniform", id="0.05"),
    pytest.param(0.05, 3, True, "gaussian", id="0.05-gaussian"),
] + [
    pytest.param(0.05, d, False, dist, id=f"seeded-d{d}-{dist}")
    for d in (2, 4)
    for dist in ("uniform", "gaussian")
]


@pytest.mark.parametrize("scale, d, explicit, error_dist", SEQUENTIAL_CASES)
def test_simulation_matches_sequential_trajectory(scale, d, explicit, error_dist):
    length = 40
    gates = random_unitaries(np.random.default_rng(11), length, d) if explicit else None
    traj = qu.simulate_computation(
        d, 8, length, seed=4, gates=None if gates is None else list(gates),
        error_scale=scale, error_dist=error_dist,
    )
    if explicit:
        assert np.array_equal(traj.gates, gates)
    basis = gell_mann_basis(d)
    errors = np.array([
        expi_hermitian(scale * np.tensordot(eps, basis.generators, axes=1))
        for eps in traj.exponents
    ])
    ideal = oracles.sequential_products(traj.gates)
    noisy = oracles.sequential_products(traj.gates @ errors)
    want = [qu.unitary_distance(n, i) for n, i in zip(noisy, ideal)]
    # the last step alone gives the same bits as the last of all steps
    assert traj.final_distance == traj.distances[-1]
    np.testing.assert_allclose(traj.distances, want, rtol=1e-12, atol=1e-12)


@pytest.mark.parametrize("error_dist", ["uniform", "gaussian"])
def test_d2_trajectory_matches_the_eigh_exponential(error_dist):
    # the error gates from the eigendecomposition oracle, not from the
    # closed-form kernel the run uses
    length = 2000
    gates = random_unitaries(np.random.default_rng(29), length, 2)
    traj = qu.simulate_computation(2, 8, length, seed=6, gates=gates, error_dist=error_dist)
    h = traj.error_scale * np.tensordot(traj.exponents, gell_mann_basis(2).generators, axes=1)
    ideal = oracles.sequential_products(gates)
    noisy = oracles.sequential_products(gates @ oracles.expi_reference(h))
    want = [qu.unitary_distance(n, i) for n, i in zip(noisy, ideal)]
    np.testing.assert_allclose(traj.distances, want, rtol=1e-12, atol=1e-12)
    assert traj.final_distance == traj.distances[-1]


def test_d2_step_errors_match_eigvalsh():
    # the closed-form eigenvalues -r and r against eigvalsh of the
    # exponents, with r from near 0 to past pi (at error scale 8, r = 4 |eps|
    # reaches 4 sqrt(3))
    traj = qu.simulate_computation(2, 8, 3000, seed=8, error_scale=8.0)
    h = traj.error_scale * np.tensordot(traj.exponents, gell_mann_basis(2).generators, axes=1)
    eigs = np.linalg.eigvalsh(h)
    assert eigs.min() < 0.1 and eigs.max() > 1.5 * np.pi
    want = qu._arc_distances(np.mod(eigs + np.pi, 2.0 * np.pi) - np.pi)
    np.testing.assert_allclose(traj.step_errors, want, rtol=0, atol=1e-14)


def test_simulation_rejects_bad_explicit_gates():
    gates = [np.eye(2, dtype=complex)] * 6
    bad = gates[:3] + [np.diag([1.0, 1.0 + 1e-6])] + gates[4:]
    with pytest.raises(ValueError, match="not unitary"):
        qu.simulate_computation(2, 8, 6, seed=0, gates=bad)
    wrong = gates[:2] + [np.eye(3, dtype=complex)] + gates[3:]
    with pytest.raises(ValueError, match="expected dimension 2, got 3"):
        qu.simulate_computation(2, 8, 6, seed=0, gates=wrong)
    with pytest.raises(ValueError, match="expected dimension 2, got 3"):
        qu.simulate_computation(2, 8, 6, seed=0, gates=[np.eye(3)] * 6)
    # inside the 1e-8 tolerance still passes
    near = gates[:3] + [np.diag([1.0, 1.0 + 1e-9])] + gates[4:]
    assert qu.simulate_computation(2, 8, 6, seed=0, gates=near).length == 6


@pytest.mark.filterwarnings("error")
@pytest.mark.parametrize("entry", [np.nan, np.inf, -np.inf])
def test_simulation_rejects_non_finite_explicit_gates(entry):
    gate = np.eye(2, dtype=complex)
    gate[0, 1] = entry
    with pytest.raises(ValueError, match="not unitary"):
        qu.simulate_computation(2, 8, 2, seed=0, gates=[np.eye(2), gate])


TRAJECTORY_ARRAYS = (
    "gates", "exponents", "step_errors", "envelopes", "distances", "final_noisy", "final_ideal",
)


def chunked_trajectory(monkeypatch, chunk, d, length, explicit, error_dist, seed=4):
    monkeypatch.setattr(qu, "CHUNK_STEPS", chunk)
    gates = random_unitaries(np.random.default_rng(seed), length, d) if explicit else None
    traj = qu.simulate_computation(d, 8, length, seed=seed, gates=gates, error_dist=error_dist)
    return [getattr(traj, name) for name in TRAJECTORY_ARRAYS] + [traj.final_distance]


def assert_chunk_invariant(monkeypatch, chunk, d, length, explicit, error_dist, seed=4):
    got = chunked_trajectory(monkeypatch, chunk, d, length, explicit, error_dist, seed)
    # the reference runs as one chunk
    want = chunked_trajectory(monkeypatch, length, d, length, explicit, error_dist, seed)
    for name, a, b in zip(TRAJECTORY_ARRAYS + ("final_distance",), got, want):
        assert np.array_equal(a, b), (name, chunk, d, length)


@pytest.mark.parametrize("chunk", [1, 7, qu.CHUNK_STEPS], ids=["1", "7", "default"])
@pytest.mark.parametrize("d, explicit, error_dist", [
    (2, False, "uniform"), (3, True, "gaussian"), (4, False, "gaussian"), (4, True, "uniform"),
])
def test_simulation_does_not_depend_on_the_chunking(monkeypatch, chunk, d, explicit, error_dist):
    # one short of a chunk, one chunk, a one-step last chunk, several chunks
    for length in [chunk - 1, chunk, chunk + 1, 3 * chunk + 5]:
        if length >= 1:
            assert_chunk_invariant(monkeypatch, chunk, d, length, explicit, error_dist)


@pytest.mark.parametrize("d", [2, 3, 4])
def test_simulation_peak_within_stated_stack_count(d):
    # the run holds nothing L-long: tracemalloc reads the same peak at 2e4
    # and 2e5 steps, a few stacks of the run's own chunk of scratch (5.3 at
    # d = 2, 8.3 at d = 3, 8.2 at d = 4)
    chunk_stack = qu._chunk_steps(d) * d * d * 16
    qu.simulate_computation(d, 8, 100, seed=3)  # numpy's own first-call buffers
    peaks = []
    for length in (20000, 200000):
        tracemalloc.start()
        try:
            qu.simulate_computation(d, 8, length, seed=3)
            peaks.append(tracemalloc.get_traced_memory()[1])
        finally:
            tracemalloc.stop()
    assert abs(peaks[1] - peaks[0]) <= 0.05 * chunk_stack, peaks
    assert max(peaks) <= 10 * chunk_stack, peaks


@pytest.mark.parametrize("d", [2, 3, 4])
def test_simulation_peak_holds_for_any_cpu_count(monkeypatch, d):
    # the chunks run on the calling thread, so a machine that reports 64
    # CPUs peaks no higher
    monkeypatch.setattr(os, "sched_getaffinity", lambda pid: set(range(64)), raising=False)
    monkeypatch.setattr(os, "cpu_count", lambda: 64)
    test_simulation_peak_within_stated_stack_count(d)


@pytest.mark.parametrize("explicit", [False, True], ids=["seeded", "explicit"])
@pytest.mark.parametrize("dist", ["uniform", "gaussian"])
def test_simulation_draws_keep_the_bits_of_one_draw(monkeypatch, dist, explicit):
    # drawn a chunk at a time, the gate weights and the exponents that
    # follow them keep the bits of one rng.normal and one rng.uniform (or
    # rng.normal) over the whole run
    monkeypatch.setattr(qu, "CHUNK_STEPS", 7)
    length, d = 1000, 3
    gates = random_unitaries(np.random.default_rng(1), length, d) if explicit else None
    traj = qu.simulate_computation(d, 8, length, seed=5, gates=gates, error_dist=dist)
    rng = make_generator(5)
    if not explicit:
        weights = rng.normal(0.0, 1.0, size=(length, d * d - 1))
        generators = gell_mann_basis(d).generators
        want = np.empty((length, d, d), dtype=complex)
        want[...] = qu._expi_batch_last(qu._algebra(generators, weights)).transpose(2, 0, 1)
        assert np.array_equal(traj.gates, want)
    if dist == "uniform":
        want = rng.uniform(-1.0, 1.0, size=(length, d * d - 1))
    else:
        want = rng.normal(0.0, 1.0, size=(length, d * d - 1))
    assert np.array_equal(traj.exponents.view(np.int64), want.view(np.int64))


@pytest.mark.parametrize("d", [2, 3])
def test_each_read_draws_only_its_own_stream(monkeypatch, d):
    # a seeded gates read draws no exponents, and exponents and
    # step_errors draw no gate weights and form no gate exponential
    want = qu.simulate_computation(d, 8, 3000, seed=4)
    gates, exponents, step_errors = want.gates, want.exponents, want.step_errors
    traj = qu.simulate_computation(d, 8, 3000, seed=4)

    def refuse(*args, **kwargs):
        raise AssertionError("the read drew a stream it does not use")

    monkeypatch.setattr(qu, "_exponent_chunks", refuse)
    assert np.array_equal(traj.gates, gates)
    monkeypatch.undo()
    monkeypatch.setattr(qu, "_gate_chunks", refuse)
    monkeypatch.setattr(qu, "_expi_batch_last", refuse)
    assert np.array_equal(traj.exponents, exponents)
    assert np.array_equal(traj.step_errors, step_errors)


def test_simulation_forms_no_product_stack():
    # the run and final_distance hold no (L, d, d) cumulative product;
    # reading distances then stays within the budget
    length, d = 100000, 2
    stack = length * d * d * 16
    tracemalloc.start()
    try:
        traj = qu.simulate_computation(d, 8, length, seed=3)
        traj.final_distance
        _, built = tracemalloc.get_traced_memory()
        traj.distances
        _, read = tracemalloc.get_traced_memory()
    finally:
        tracemalloc.stop()
    assert built <= 3.25 * stack
    assert read <= 5 * stack


def test_reading_distances_holds_nothing_long_but_its_result():
    # distances compares the prefixes of the run's scan chunk by chunk: from
    # 2e4 to 2e5 steps its tracemalloc peak grows by the reals it returns
    # and the per-chunk pieces it concatenates, and stays below one
    # (L, d, d) stack
    d, lengths, peaks = 2, (20000, 200000), []
    chunk_stack = qu.CHUNK_STEPS * d * d * 16
    for length in lengths:
        traj = qu.simulate_computation(d, 8, length, seed=3)
        tracemalloc.start()
        try:
            traj.distances
            peaks.append(tracemalloc.get_traced_memory()[1])
        finally:
            tracemalloc.stop()
    reals = 8 * (lengths[1] - lengths[0])
    assert peaks[1] - peaks[0] <= 2 * reals + 0.05 * chunk_stack, peaks
    assert peaks[1] < lengths[1] * d * d * 16, peaks


def reference_expi(h):
    """The exponential with the complex-arithmetic U(2) form at n = 2."""
    return oracles.complex_u2_exponential(h) if h.shape[0] == 2 else _expi_batch_last(h)


@pytest.mark.parametrize("d, length, error_dist", [
    (2, 100000, "uniform"), (2, 30000, "gaussian"), (3, 5003, "uniform"),
    (4, 777, "uniform"), (2, 4097, "uniform"),
])
def test_seeded_runs_keep_the_bits_of_the_reference_kernels(monkeypatch, d, length, error_dist):
    # the real-plane U(2) form and the sum over nonzero generator entries
    # against the complex form and the dense sum they replace
    names = ("final_noisy", "final_ideal", "distances", "step_errors", "gates")
    traj = qu.simulate_computation(d, 8, length, seed=d, error_dist=error_dist)
    got = [getattr(traj, name) for name in names]
    monkeypatch.setattr(qu, "_algebra", oracles.dense_algebra)
    monkeypatch.setattr(qu, "_expi_batch_last", reference_expi)
    traj = qu.simulate_computation(d, 8, length, seed=d, error_dist=error_dist)
    for name, a in zip(names, got):
        assert a.tobytes() == getattr(traj, name).tobytes(), name


@pytest.mark.parametrize("d", range(2, 9))
def test_chunk_length_is_a_power_of_two(d):
    steps = qu._chunk_steps(d)
    assert steps >= 1 and steps & (steps - 1) == 0, steps


def test_trajectory_csv_format():
    traj = qu.simulate_computation(2, 8, 3, seed=9)
    lines = oracles.trajectory_csv(traj).strip().split("\n")
    assert lines[0] == "step,ideal_vs_noisy_distance,envelope"
    assert len(lines) == 4
    assert lines[1].startswith("1,")


def test_stable_seed_and_splitmix():
    assert splitmix64(0) == splitmix64(0)
    assert splitmix64(1) != splitmix64(2)
    assert stable_seed(7, 0) != stable_seed(7, 1)
    gen_a = make_generator(7, 3)
    gen_b = make_generator(7, 3)
    assert gen_a.integers(0, 2**32) == gen_b.integers(0, 2**32)
