import hashlib
import re
import tracemalloc
from pathlib import Path

import numpy as np
import pytest

import oracles
from qx import cli, qec_core
from qx import su_algebra as su
from qx import exact_codes as ec
from qx import quasi_universality as qu
from qx import vbs_code as vc


def run_cli(args, tmp_path, name):
    out = tmp_path / name
    code = cli.main(args + ["--output", str(out)])
    return code, out.read_bytes() if out.exists() else b""


def test_algebra_command(tmp_path):
    code, text = run_cli(["algebra", "--d", "3"], tmp_path, "alg.txt")
    assert code == 0
    body = text.decode()
    assert "jacobi:" in body and "fierz:" in body and "adjoint_homomorphism:" in body


def test_algebra_rejects_small_dimension(capsys):
    assert cli.main(["algebra", "--d", "1"]) == 2
    assert "qx:" in capsys.readouterr().err


def test_algebra_d6_within_time_budget(tmp_path):
    import time

    start = time.perf_counter()
    code, _ = run_cli(["algebra", "--d", "6"], tmp_path, "alg6.txt")
    assert code == 0
    assert time.perf_counter() - start < 5.0


def test_sweep_csv_contents_and_determinism(tmp_path):
    args = ["sweep", "--d-min", "2", "--d-max", "3", "--n-min", "3", "--n-max", "5"]
    code, first = run_cli(args, tmp_path, "a.csv")
    assert code == 0
    lines = first.decode().strip().split("\n")
    assert lines[0] == cli.SWEEP_HEADER
    assert len(lines) == 1 + 2 * 3
    assert lines[1].startswith("2,3,")
    assert lines[4].startswith("3,3,")
    code2, second = run_cli(args, tmp_path, "b.csv")
    assert code2 == 0 and first == second


def test_sweep_eta_column_value(tmp_path):
    args = ["sweep", "--d-min", "2", "--d-max", "2", "--n-min", "4", "--n-max", "4"]
    _, text = run_cli(args, tmp_path, "eta.csv")
    row = text.decode().strip().split("\n")[1].split(",")
    # values are emitted at 12 significant digits
    assert float(row[3]) == pytest.approx(-5 / 81, rel=1e-11)
    assert float(row[2]) == pytest.approx(-1 / 3, rel=1e-11)


def test_sweep_empty_grid(tmp_path):
    args = ["sweep", "--d-min", "3", "--d-max", "2", "--n-min", "3", "--n-max", "4"]
    code, text = run_cli(args, tmp_path, "empty.csv")
    assert code == 0
    assert text.decode() == cli.SWEEP_HEADER + "\n"


def test_sweep_text_format(tmp_path):
    args = [
        "sweep", "--d-min", "2", "--d-max", "2", "--n-min", "3", "--n-max", "3",
        "--format", "text",
    ]
    code, text = run_cli(args, tmp_path, "point.txt")
    assert code == 0
    assert text.decode().startswith("d: 2\nN: 3\n")


def test_sweep_builds_one_code_per_dimension(tmp_path, monkeypatch):
    # the codes at the other N share the build's basis and its h_t
    built, bases = [], []
    build, gell_mann_basis = vc.build, su.gell_mann_basis

    def build_spy(d, n_sites):
        built.append((d, n_sites))
        return build(d, n_sites)

    def basis_spy(d):
        bases.append(d)
        return gell_mann_basis(d)

    # and one closed-form pass per d, at --n-max, serves every N of it
    passes = []
    insertion_overlaps = vc.insertion_overlaps

    def pass_spy(code):
        passes.append((code.d, code.n_sites))
        return insertion_overlaps(code)

    monkeypatch.setattr(vc, "build", build_spy)
    monkeypatch.setattr(vc, "insertion_overlaps", pass_spy)
    for module in (su, vc):  # vbs_code calls its own binding
        monkeypatch.setattr(module, "gell_mann_basis", basis_spy)
    args = ["sweep", "--d-min", "2", "--d-max", "4", "--n-min", "3", "--n-max", "6"]
    code, text = run_cli(args, tmp_path, "sweep.csv")
    assert code == 0 and len(text.decode().splitlines()) == 1 + 3 * 4
    assert built == [(2, 3), (3, 3), (4, 3)] and bases == [2, 3, 4]
    assert passes == [(2, 6), (3, 6), (4, 6)]


def test_sweep_rows_match_codes_built_alone(tmp_path):
    # every column but the two residuals is that of the code built alone,
    # its edge state from its own N steps; the residuals are the --n-max
    # pass's entries at N, here its oracle's
    args = ["sweep", "--d-min", "2", "--d-max", "3", "--n-min", "3", "--n-max", "5"]
    _, text = run_cli(args, tmp_path, "shared.csv")
    points = []
    for d in (2, 3):
        det, corr = oracles.pairwise_closed_form_residuals(vc.build(d, 5))
        for n in (3, 4, 5):
            code = vc.build(d, n)
            edge, _ = oracles.stepwise_edge_state(code, 0, n)
            points.append(cli._sweep_point(code, 0.1, det[n], corr[n], edge))
    assert text.decode() == cli._format_points(points, "csv")


def test_sweep_exits_1_when_a_residual_fails(tmp_path, monkeypatch):
    # the benchmark grid passes its checks; a correlation closed form off by
    # 1e-9 fails them, and every row is still written
    args = ["sweep", "--d-min", "2", "--d-max", "4", "--n-min", "3", "--n-max", "6"]
    code, text = run_cli(args, tmp_path, "pass.csv")
    assert code == 0
    correlation_closed_form = vc.correlation_closed_form
    monkeypatch.setattr(
        vc, "correlation_closed_form", lambda code, m, n: correlation_closed_form(code, m, n) + 1e-9
    )
    code, text = run_cli(args, tmp_path, "fail.csv")
    lines = text.decode().splitlines()
    assert code == 1 and lines[0] == cli.SWEEP_HEADER and len(lines) == 1 + 3 * 4
    column = cli.SWEEP_HEADER.split(",").index("max_corr_closedform_residual")
    assert all(float(line.split(",")[column]) >= cli.CLOSED_FORM_TOL for line in lines[1:])


@pytest.mark.parametrize(
    "bounds, message",
    [(["--n-min", "0"], "d=2, N=0"), (["--d-min", "1"], "d=1, N=3")],
    ids=["n0", "d1"],
)
def test_sweep_invalid_grid_exits_2(capsys, bounds, message):
    assert cli.main(["sweep"] + bounds) == 2
    out, err = capsys.readouterr()
    assert out == "" and err == f"qx: invalid code parameters {message}\n"


@pytest.mark.parametrize(
    "bounds",
    [["--n-min", "5", "--n-max", "4"], ["--d-min", "1", "--n-min", "0", "--n-max", "-1"],
     ["--d-min", "3", "--d-max", "2", "--n-min", "5", "--n-max", "4"]],
    ids=["n", "n-invalid-d", "both"],
)
def test_sweep_empty_size_range_builds_nothing(tmp_path, bounds):
    code, text = run_cli(["sweep"] + bounds, tmp_path, "empty.csv")
    assert code == 0
    assert text.decode() == cli.SWEEP_HEADER + "\n"


def test_kl_and_simulate_never_read_h_t(tmp_path, monkeypatch):
    reads = []
    h_t = su.SuBasis.h_t

    def spy(basis):
        reads.append(basis.d)
        return h_t.func(basis)

    monkeypatch.setattr(su.SuBasis, "h_t", property(spy))
    for args in (
        ["kl", "--code", "vbs:3:10", "--errors", "bond:all"],
        ["simulate", "--d", "2", "--n", "8", "--length", "500"],
    ):
        code, _ = run_cli(args, tmp_path, "out.txt")
        assert code == 0 and reads == []
    # the spy sees the closed-form check
    code, _ = run_cli(["vbs", "--d", "3", "--n", "3"], tmp_path, "vbs.txt")
    assert code == 0 and set(reads) == {3}


def _physical_columns(text: str) -> str:
    """qx sweep CSV or qx vbs text without the two closed-form residuals,
    which sit at machine noise."""
    lines = text.splitlines()
    if "," not in lines[0]:
        return "".join(f"{line}\n" for line in lines if "_closedform_residual: " not in line)
    rows = [line.split(",") for line in lines]
    keep = [i for i, name in enumerate(rows[0]) if not name.endswith("_closedform_residual")]
    return "".join(",".join(row[i] for i in keep) + "\n" for row in rows)


def test_sweep_edge_column_follows_its_law(tmp_path):
    # the printed column is (d - 1)/d |chi|^N to 1e-12 relative, on top of
    # the half unit in the 12th digit that printing rounds away
    args = ["sweep", "--d-min", "2", "--d-max", "3", "--n-min", "1", "--n-max", "30"]
    code, text = run_cli(args, tmp_path, "edge.csv")
    assert code == 0
    lines = text.decode().splitlines()
    assert len(lines) == 61
    for line in lines[1:]:
        row = dict(zip(cli.SWEEP_HEADER.split(","), line.split(",")))
        d, n = int(row["d"]), int(row["N"])
        law = (d - 1) / d * (1.0 / (d * d - 1)) ** n
        assert abs(float(row["edge_fixedpoint_distance"]) - law) <= 6e-12 * law


def test_readme_glossary_names_every_sweep_column():
    readme = (Path(__file__).resolve().parents[1] / "README.md").read_text()
    glossary = readme.split(cli.SWEEP_HEADER, 1)[1].split("`qx kl` selectors", 1)[0]
    missing = [name for name in cli.SWEEP_HEADER.split(",") if f"\n- `{name}`: " not in glossary]
    assert not missing, f"SWEEP_HEADER columns the README glossary leaves out: {missing}"


# sha256 of the physical columns (chi, eta, edge_fixedpoint_distance,
# epsilon, erasure_bound), captured at commit a13990f and re-captured at
# d54a75a, whose block solve moved epsilon by at most 1.9e-11 relative, and
# after 63ffe64, which forms edge_fixedpoint_distance from the traceless
# edge state and moved six printed values onto (d - 1)/d |chi|^N
PHYSICAL_PINS = [
    (
        ["sweep", "--d-min", "2", "--d-max", "4", "--n-min", "3", "--n-max", "6",
         "--strength", "0.13"],
        "0058d60520dcb55ee259edff7d1bf83581cb9afa72c8a17fb7786da805432b25",
    ),
    (
        ["vbs", "--d", "8", "--n", "4"],
        "e95bfdb72526acb0ddc995f154169c7c499b657b446aad2bf88c895197ace922",
    ),
]


@pytest.mark.parametrize("args, digest", PHYSICAL_PINS, ids=["sweep", "vbs8-4"])
def test_physical_columns_are_pinned(tmp_path, args, digest):
    code, text = run_cli(args, tmp_path, "pin.txt")
    assert code == 0
    assert hashlib.sha256(_physical_columns(text.decode()).encode()).hexdigest() == digest


@pytest.mark.parametrize(
    "d, n_sites, eta",
    [(2, 4, -5 / 81), (2, 40, -1 / 160), (3, 20, -1 / 180)],
    ids=["2-4", "2-40", "3-20"],
)
def test_vbs_command(tmp_path, d, n_sites, eta):
    # eta = (chi/N)(1 - chi^N)/(1 - chi); at N = 40 and 20 chi^N is below 1e-18
    code, text = run_cli(["vbs", "--d", str(d), "--n", str(n_sites)], tmp_path, "vbs.txt")
    assert code == 0
    body = dict(line.split(": ") for line in text.decode().strip().split("\n"))
    assert float(body["eta"]) == pytest.approx(eta, rel=1e-11)
    assert float(body["max_detect_closedform_residual"]) < 1e-10
    assert float(body["max_corr_closedform_residual"]) < 1e-10


@pytest.mark.parametrize(
    "d, n_sites", [(d, n) for d in (2, 3, 4) for n in (3, 4, 5, 6)] + [(2, 40), (3, 20), (6, 5)]
)
def test_closed_form_pass_matches_pairwise_oracle(d, n_sites):
    # the benchmark sweep grid and three large points: the one transfer pass
    # gives exactly the floats of contracting every insertion on its own
    code = vc.build(d, n_sites)
    got, want = cli._closed_form_residuals(code), oracles.pairwise_closed_form_residuals(code)
    np.testing.assert_array_equal(got, want, strict=True)


def test_closed_form_pass_memory_bound():
    # vbs:8:4 runs one pair of 63 * 63 * 64 amplitudes per batch; a batch of
    # every pair at a bond reads about 3.5x the oracle's peak.  Each check
    # gets its own code, so each forms its basis's cached h_t itself
    peaks = []
    for check in (oracles.pairwise_closed_form_residuals, cli._closed_form_residuals):
        code = vc.build(8, 4)
        tracemalloc.start()
        try:
            check(code)
            peaks.append(tracemalloc.get_traced_memory()[1])
        finally:
            tracemalloc.stop()
    assert peaks[1] <= 1.5 * peaks[0]


@pytest.mark.parametrize("d, n_sites", [(8, 4), (6, 5)])
def test_closed_form_pass_peak_in_pair_batch_stacks(d, n_sites):
    # each batch holds one pair at these sizes, a stack of q^2 d^2
    # amplitudes; h_t is formed first, so the peak counts only the check
    code = vc.build(d, n_sites)
    code.basis.h_t
    stack = code.site_dim**2 * d * d * 16
    tracemalloc.start()
    try:
        cli._closed_form_residuals(code)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert peak <= 4.0 * stack


def test_kl_five_qubit(tmp_path):
    code, text = run_cli(
        ["kl", "--code", "five_one_three", "--errors", "pauli1"], tmp_path, "kl.txt"
    )
    assert code == 0
    body = dict(line.split(": ") for line in text.decode().strip().split("\n"))
    assert float(body["exact_distance"]) < 1e-10
    assert float(body["max_residual_weight"]) < 1e-12
    assert int(body["error_count"]) == 15


def test_kl_vbs_epsilon_monotone(tmp_path):
    _, small = run_cli(["kl", "--code", "vbs:2:3", "--errors", "bond"], tmp_path, "k3.txt")
    _, large = run_cli(["kl", "--code", "vbs:2:4", "--errors", "bond"], tmp_path, "k4.txt")
    eps3 = float(dict(l.split(": ") for l in small.decode().strip().split("\n"))["epsilon"])
    eps4 = float(dict(l.split(": ") for l in large.decode().strip().split("\n"))["epsilon"])
    assert 0.0 < eps4 < eps3


def test_kl_vbs_beyond_dense_cap(tmp_path):
    # 3^13 * 2 amplitudes exceed the dense cap; the transfer route still
    # reports, with the dense-only fields as nan
    code, text = run_cli(
        ["kl", "--code", "vbs:2:13", "--errors", "bond"], tmp_path, "big.txt"
    )
    assert code == 0
    body = dict(line.split(": ") for line in text.decode().strip().split("\n"))
    assert body["exact_distance"] == "nan"
    assert float(body["epsilon"]) > 0.0


def test_kl_bond_all_selector(tmp_path):
    code, text = run_cli(
        ["kl", "--code", "vbs:2:4", "--errors", "bond:all"], tmp_path, "all.txt"
    )
    assert code == 0
    body = dict(line.split(": ") for line in text.decode().strip().split("\n"))
    assert int(body["error_count"]) == 1 + 4 * 3


def test_kl_missing_file(capsys):
    assert cli.main(["kl", "--code", "file:missing.mat"]) == 2
    assert "missing.mat" in capsys.readouterr().err


def test_kl_isometry_file_roundtrip(tmp_path):
    iso = vc.dense_isometry(vc.build(2, 2))
    path = tmp_path / "code.mat"
    cli.write_isometry(str(path), iso.isometry)
    loaded = cli.read_isometry(str(path))
    assert np.abs(loaded - iso.isometry).max() < 1e-15
    # 18-dimensional physical space is not qubit-factorable
    code, _ = run_cli(
        ["kl", "--code", f"file:{path}", "--errors", "pauli1"], tmp_path, "file_kl.txt"
    )
    assert code == 2


@pytest.mark.filterwarnings("error")
def test_kl_nan_isometry_file_exits_2(tmp_path, capsys):
    for value in ("nan", "inf", "1e200"):
        path = tmp_path / f"{value}.mat"
        path.write_text(f"2 1\n{value} 0\n0 0\n", encoding="ascii")
        assert cli.main(["kl", "--code", f"file:{path}"]) == 2
        err = capsys.readouterr().err
        assert err.startswith("qx: ") and err.count("\n") == 1 and "orthonormal" in err


@pytest.mark.parametrize("text, message", [
    ("1 1\n1 0\n", "one or more qubits"),  # a 1x1 isometry has no qubit
    ("0 0\n", "not positive"),
    ("2 0\n", "not positive"),
    ("0 1\n", "not positive"),
    ("-1 -1\n1 0\n", "not positive"),
], ids=["1x1", "0x0", "2x0", "0x1", "negative"])
def test_kl_degenerate_isometry_file_exits_2(tmp_path, capsys, text, message):
    path = tmp_path / "degenerate.mat"
    path.write_text(text, encoding="ascii")
    assert cli.main(["kl", "--code", f"file:{path}"]) == 2
    err = capsys.readouterr().err
    assert err.startswith("qx: ") and err.count("\n") == 1 and message in err


def test_kl_qubit_file_code(tmp_path):
    from qx.exact_codes import four_two_two_code

    path = tmp_path / "422.mat"
    cli.write_isometry(str(path), four_two_two_code().isometry)
    code, text = run_cli(
        ["kl", "--code", f"file:{path}", "--errors", "pauli1"], tmp_path, "422.txt"
    )
    assert code == 0
    assert b"error_count: 12" in text


def test_kl_four_two_two(tmp_path):
    code, text = run_cli(
        ["kl", "--code", "four_two_two", "--errors", "pauli1"], tmp_path, "422.txt"
    )
    assert code == 0
    body = dict(line.split(": ") for line in text.decode().strip().split("\n"))
    assert int(body["error_count"]) == 12
    # a distance-2 code only detects: residual weights stay macroscopic
    assert float(body["max_residual_weight"]) > 0.1


def _dense_pauli1_report(iso, strength=0.1):
    """The pauli1 report through the physical-space oracles: dense
    2^n x 2^n Paulis, the recovery's Kraus operators and the noise channel."""
    n_qubits = iso.d_q.bit_length() - 1
    stacks = [p @ iso.isometry for p in ec.weight_one_paulis(n_qubits)]
    report = qec_core.kl_decompose(iso, stacks)
    noise = ec.single_qubit_depolarizing(n_qubits, strength)
    recovery = qec_core.recovery_from_kl(iso, report, stacks)
    q_ch = oracles.recovered_logical_channel(iso, noise, recovery)
    return qec_core.format_kl_report(report, q_ch).encode()


def _kl_fields(text):
    return dict(line.split(": ", 1) for line in text.decode().strip().splitlines())


def test_kl_pauli1_stacks_match_dense_operators(tmp_path):
    # a square isometry: its (d_Q, d_L) stacks have the shape of physical
    # operators, and each noise operator must still apply once
    square = np.linalg.qr(np.arange(16.0).reshape(4, 4) + np.eye(4))[0]
    path = tmp_path / "square.mat"
    cli.write_isometry(str(path), square)
    loaded = qec_core.CodeIsometry(isometry=cli.read_isometry(str(path)))
    for name, iso in (("five_one_three", ec.five_qubit_code()),
                      ("four_two_two", ec.four_two_two_code()),
                      (f"file:{path}", loaded)):
        code, text = run_cli(["kl", "--code", name], tmp_path, "pauli1.txt")
        assert code == 0
        got, want = _kl_fields(text), _kl_fields(_dense_pauli1_report(iso))
        if name == "five_one_three":
            # an exact code: both routes give distances at machine noise
            for key in ("exact_distance", "diamond_bracket"):
                a, b = (np.array(f.pop(key).strip("[]").split(","), float) for f in (got, want))
                assert np.abs(a - b).max() < 1e-14
        assert got == want


def test_kl_pauli1_file_memory_scales_with_stacks(tmp_path):
    # 8 qubits, d_L = 2: 24 stacks of 512 amplitudes (196 kB); the dense
    # operators took about 78 MB
    rng = np.random.default_rng(3)
    iso, _ = np.linalg.qr(rng.normal(size=(256, 2)) + 1j * rng.normal(size=(256, 2)))
    path = tmp_path / "eight.mat"
    cli.write_isometry(str(path), iso)
    tracemalloc.start()
    try:
        code, _ = run_cli(["kl", "--code", f"file:{path}"], tmp_path, "eight.txt")
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert code == 0
    assert peak < 8 * 24 * 256 * 2 * 16


def test_kl_pauli1_over_budget_exits_2(tmp_path, capsys):
    # 17 qubits, d_L = 5: (3 * 17 + 1) * 5 * (2^17 + 2 * 4096) = 36.2M amplitudes > 32M
    rows, cols = 2**17, 5
    lines = ["0 0"] * (rows * cols)
    for j in range(cols):
        lines[j * cols + j] = "1 0"
    path = tmp_path / "big.mat"
    path.write_text(f"{rows} {cols}\n" + "\n".join(lines) + "\n", encoding="ascii")
    assert cli.main(["kl", "--code", f"file:{path}"]) == 2
    err = capsys.readouterr().err
    assert err.startswith("qx: ") and err.count("\n") == 1 and "budget" in err


@pytest.mark.parametrize("n_qubits", [12, 14, 16])
def test_kl_pauli1_budget_counts_the_route_peak(n_qubits, monkeypatch, capsys):
    # the refusal bound counts V, the 3n stacks P_i V and two row-block
    # slabs of them: within 10% of the traced peak of the stacks and their
    # compressions, V included (14.5, 33.8 and 116 MB at d_L = 2)
    rng = np.random.default_rng(n_qubits)
    shape = (2**n_qubits, 2)
    iso, _ = np.linalg.qr(rng.normal(size=shape) + 1j * rng.normal(size=shape))
    monkeypatch.setattr(cli, "read_isometry", lambda path: iso)
    monkeypatch.setattr(vc, "DENSE_STACK_CAP", 0)
    assert cli.main(["kl", "--code", "file:iso"]) == 2
    counted = 16 * int(re.search(r"needs (\d+) amplitudes", capsys.readouterr().err)[1])
    tracemalloc.start()
    try:
        code = qec_core.CodeIsometry(isometry=iso)
        qec_core.error_compressions(code, [iso] + ec.weight_one_pauli_stacks(iso))
        peak = tracemalloc.get_traced_memory()[1] + iso.nbytes
    finally:
        tracemalloc.stop()
    assert abs(counted - peak) <= 0.1 * counted, (counted, peak)


@pytest.mark.filterwarnings("error")
def test_kl_bad_selector(capsys):
    assert cli.main(["kl", "--code", "nonsense"]) == 2
    assert cli.main(["kl", "--code", "vbs:2:3", "--errors", "pauli1"]) == 2
    assert cli.main(["kl", "--code", "five_one_three", "--errors", "bond"]) == 2
    capsys.readouterr()
    for spec in ["bondx", "bond:", "bond:x"]:
        assert cli.main(["kl", "--code", "vbs:2:3", "--errors", spec]) == 2
        err = capsys.readouterr().err
        assert err.startswith("qx: ") and err.count("\n") == 1
    for selector in ["vbs:2:x", "vbs:x:3", "vbs::3"]:
        assert cli.main(["kl", "--code", selector]) == 2
        err = capsys.readouterr().err
        assert err.startswith("qx: bad code selector") and err.count("\n") == 1


def test_refused_allocation_exits_2(monkeypatch, capsys):
    # exit 1 means a numerical check failed; a refused allocation is a
    # usage limit, reported in one line
    def refuse(d, n_sites):
        raise MemoryError("Unable to allocate 16.0 TiB for an array")

    monkeypatch.setattr(vc, "build", refuse)
    for args in (["vbs", "--d", "100", "--n", "1"], ["kl", "--code", "vbs:100:1"]):
        assert cli.main(args) == 2
        err = capsys.readouterr().err
        assert err == "qx: Unable to allocate 16.0 TiB for an array\n"


@pytest.mark.filterwarnings("error")
def test_kl_cutoff_outside_unit_interval_exits_2(tmp_path, capsys):
    # 1 and above retain no mode, a negative cutoff retains zero modes
    for cutoff in ("2", "1", "-1", "nan"):
        args = ["kl", "--code", "vbs:2:4", "--errors", "bond", "--cutoff", cutoff]
        assert cli.main(args) == 2
        err = capsys.readouterr().err
        assert err.startswith("qx: ") and "cutoff" in err and err.count("\n") == 1
    code, text = run_cli(
        ["kl", "--code", "vbs:2:4", "--errors", "bond", "--cutoff", "0"], tmp_path, "zero.txt"
    )
    assert code == 0 and b"cutoff: 0\n" in text


def test_kl_dense_route_bounded_by_stack_size(tmp_path, monkeypatch):
    # vbs:2:3 stacks hold 4 * 54 * 2 = 432 amplitudes for bond and
    # 10 * 54 * 2 = 1080 for bond:all; a cap between them splits the routes
    monkeypatch.setattr(vc, "DENSE_STACK_CAP", 500)
    fields = {}
    for spec in ["bond", "bond:all"]:
        code, text = run_cli(["kl", "--code", "vbs:2:3", "--errors", spec], tmp_path, "r.txt")
        assert code == 0
        fields[spec] = dict(line.split(": ") for line in text.decode().strip().split("\n"))
    assert fields["bond:all"]["exact_distance"] == "nan"
    assert float(fields["bond"]["exact_distance"]) > 0.0


def test_kl_dense_route_memory_bound(tmp_path):
    # the dense route holds the K error stacks twice at its peak: the list
    # from bond_error_stacks while kl_decompose stacks it
    code = vc.build(3, 4)
    stack_bytes = (1 + code.site_dim) * code.dense_size * code.d * 16
    tracemalloc.start()
    try:
        status, _ = run_cli(["kl", "--code", "vbs:3:4", "--errors", "bond"], tmp_path, "r.txt")
        _, peak = tracemalloc.get_traced_memory()
    finally:
        tracemalloc.stop()
    assert status == 0
    assert peak <= 2.6 * stack_bytes


def test_simulate_command(tmp_path):
    args = [
        "simulate", "--d", "2", "--n", "8", "--length", "30",
        "--trials", "5", "--seed", "7",
    ]
    code, first = run_cli(args, tmp_path, "sim1.csv")
    assert code == 0
    lines = first.decode().strip().split("\n")
    assert lines[0] == "trial,final_distance"
    assert len(lines) == 1 + 5 + 2
    assert lines[-2].startswith("mean,") and lines[-1].startswith("max,")
    _, again = run_cli(args, tmp_path, "sim2.csv")
    assert first == again


def test_simulate_reads_only_the_last_step(tmp_path, monkeypatch):
    sizes = []
    phase_distances = qu._phase_distances

    def spy(u, v):
        sizes.append(len(u))
        return phase_distances(u, v)

    monkeypatch.setattr(qu, "_phase_distances", spy)
    args = ["simulate", "--d", "2", "--n", "8", "--length", "500", "--trials", "3"]
    code, _ = run_cli(args, tmp_path, "last.csv")
    assert code == 0
    assert sizes == [1, 1, 1]


def test_simulate_forms_no_cumulative_product_stack(tmp_path, monkeypatch):
    lengths = []
    feed = qu._RunningProduct.feed

    def spy(running, x, prefixes=False):
        if prefixes:
            lengths.append(x.shape[-1])
        return feed(running, x, prefixes)

    monkeypatch.setattr(qu._RunningProduct, "feed", spy)
    args = ["simulate", "--d", "2", "--n", "8", "--length", "500", "--trials", "3"]
    code, _ = run_cli(args, tmp_path, "final.csv")
    assert code == 0 and lengths == []
    # the spy sees the prefixes a library caller asks for
    assert qu.simulate_computation(2, 8, 5, seed=1).distances.shape == (5,)
    assert lengths == [5, 5]


# sha256 of stdout captured at commit 013ecb7, where every per-step
# distance was computed
SIMULATE_PINS = [
    # re-captured at commit 81f2a79, whose closed-form 2x2 exponential moved
    # the final distances by at most 3.4e-14 relative; one printed digit
    # changed, trial 73's 0.0902468984583 -> 0.0902468984582; and again at
    # commit bc82a21, whose product tree moved them by at most 3.3e-14 and
    # trial 73 back to 0.0902468984583, the digest of commit 013ecb7; and
    # again at commit 8cb85cb, whose complex batch-last product moved them
    # by at most 2.4e-14 relative and trial 73 to 0.0902468984582
    # (0.09024689845825026 -> 0.09024689845824982)
    (
        ["--d", "2", "--n", "8", "--length", "100", "--trials", "200", "--seed", "7"],
        "cd91e86888400b72c45637e669cacca90dfa999942eefc5473bb2b2fe3c29da4",
    ),
    (
        ["--d", "3", "--n", "4", "--length", "2000", "--trials", "3"],
        "9f5935315bb18ea89155f9ce7ee72e2ff10091354c986c185ff8d1ff49544078",
    ),
    (
        ["--d", "4", "--n", "3", "--length", "1000", "--error-dist", "gaussian"],
        "26548db07c0cce619acf38c4d9fca3b1798767eaf43d171662f0c7fdf932b443",
    ),
]


@pytest.mark.parametrize("args, digest", SIMULATE_PINS, ids=["readme", "d3", "d4-gaussian"])
def test_simulate_stdout_is_pinned(tmp_path, args, digest):
    code, text = run_cli(["simulate"] + args, tmp_path, "pin.csv")
    assert code == 0
    assert hashlib.sha256(text).hexdigest() == digest


# sha256 of stdout captured at commit 0cc951d, before the error family had
# one layout
KL_PINS = [
    (
        ["--code", "vbs:2:4", "--errors", "bond"],
        "0bce841004f099d52cd84e14c4c47e69de610ab13619dca51032474fc1af09a9",
    ),
    # re-captured at commit 3970aa8, whose row-block Gram product moved
    # exact_distance by 4.1e-11 relative, and at d54a75a, whose block solve
    # moved it by 1.7e-11
    (
        ["--code", "vbs:3:5", "--errors", "bond", "--strength", "0.27"],
        "0abe1cddb5373feda658fd95f71be3bcd7d57cf6a8160722cea04c423d5c4e35",
    ),
    (
        ["--code", "vbs:2:8", "--errors", "bond:all"],
        "20b980174374a2a981369972e086cdf86eca7e2df1e00fee51c133ee7378a2cb",
    ),
    (
        ["--code", "five_one_three"],
        "7be74638a4d9ed8a4fb484fba5558410b4f5f56602d17387a011b1f3f7f1eebe",
    ),
    (
        ["--code", "four_two_two", "--strength", "0.2"],
        "d35d6ab33af8c673f662c6d9db5bd6696d61761177800af0620ab089c476d5b6",
    ),
    # the transfer route, above DENSE_CAP, captured at commit 14f6d8b
    (
        ["--code", "vbs:2:13", "--errors", "bond", "--strength", "0.1"],
        "73e10d6d18df2ca8e622fba5a7e0c8964add08f124f295e224b10f487a378c12",
    ),
    # transfer route, bond:all, captured at commit 3edc10a before the
    # report was solved one sign sector at a time
    (
        ["--code", "vbs:3:10", "--errors", "bond:all"],
        "3e7cd7ae705b01ac4993fbf4f431e50f9407126fdec9b49910370b11fd1248e8",
    ),
    (
        ["--code", "vbs:4:6", "--errors", "bond:all"],
        "53243f01a37d309c5e3e88db476862473873c4ec7f20b9bfd8264c574cbed0f6",
    ),
    # transfer route, captured at commit e2270e0 before the cross-bond
    # blocks of the compression tensor came from one insertion pass
    (
        ["--code", "vbs:2:14", "--errors", "bond:all"],
        "b638fe59a4be2b7405bf46f93564e00877e64836b4aa5d736ed24305967a5315",
    ),
    (
        ["--code", "vbs:5:4", "--errors", "bond:all", "--strength", "0.27"],
        "1687203e09f13cfa25a4bb54eda8a52a989dce6230180b288ba089e85b2c9b39",
    ),
    (
        ["--code", "vbs:3:9", "--errors", "bond:4"],
        "987cc2eabf6ef1e1b0502b8143f1a08fb3e6f10db9ddba5d294c87f1efd07e6e",
    ),
]


@pytest.mark.parametrize(
    "args, digest", KL_PINS,
    ids=["vbs2-4", "vbs3-5", "vbs2-8-all", "513", "422", "vbs2-13-transfer",
         "vbs3-10-all-transfer", "vbs4-6-all-transfer", "vbs2-14-all-transfer",
         "vbs5-4-all-transfer", "vbs3-9-b4-transfer"],
)
def test_kl_stdout_is_pinned(tmp_path, args, digest):
    code, text = run_cli(["kl"] + args, tmp_path, "pin.txt")
    assert code == 0
    assert hashlib.sha256(text).hexdigest() == digest


def test_simulate_single_trial(tmp_path):
    args = ["simulate", "--d", "2", "--n", "4", "--length", "10", "--trials", "1"]
    code, text = run_cli(args, tmp_path, "one.csv")
    assert code == 0
    assert text.decode().strip().split("\n")[1].startswith("0,")


@pytest.mark.filterwarnings("error")
def test_simulate_rejects_nonpositive_trials(capsys):
    for trials in ("0", "-3"):
        args = ["simulate", "--d", "2", "--n", "4", "--length", "10", "--trials", trials]
        assert cli.main(args) == 2
        err = capsys.readouterr().err
        assert err.startswith("qx: ") and err.count("\n") == 1


@pytest.mark.parametrize("command", [
    ["simulate", "--d", "2", "--n", "8", "--length", "5", "--trials", "2"],
    ["algebra", "--d", "2"],
], ids=["simulate", "algebra"])
def test_seed_outside_64_bits_exits_2(tmp_path, capsys, command):
    # masked to 64 bits, 2**64 would print the rows of seed 0 and -3 those of 2**64 - 3
    for seed in (str(2**64), "-3", "-1"):
        code, text = run_cli(command + ["--seed", seed], tmp_path, "seed.txt")
        assert code == 2 and text == b""
        err = capsys.readouterr().err
        assert err == f"qx: seed value {seed} is outside [0, 2**64)\n"
    code, _ = run_cli(command + ["--seed", str(2**64 - 1)], tmp_path, "top.txt")
    assert code == 0


def test_gates_command(tmp_path):
    code, text = run_cli(["gates", "--eta", "0.001", "--target", "0.1"], tmp_path, "g1")
    assert code == 0 and text.decode().strip() == "100"
    code, text = run_cli(["gates", "--eta", "0.02", "--target", "0.01"], tmp_path, "g2")
    assert code == 0 and text.decode().strip() == "0"
    code, text = run_cli(
        ["gates", "--d", "2", "--n", "8", "--target", "0.05"], tmp_path, "g3"
    )
    want = int(np.floor(0.05 / abs(vc.eta(2, 8))))
    assert code == 0 and text.decode().strip() == str(want)


@pytest.mark.filterwarnings("error")
def test_gates_usage_errors(capsys):
    assert cli.main(["gates", "--target", "0.1"]) == 2
    assert cli.main(["gates", "--eta", "0.01", "--target", "0.005",
                     "--synthesis-error", "0.01"]) == 2
    capsys.readouterr()
    for eta in ("inf", "nan", "0", "-0.01"):
        assert cli.main(["gates", "--eta", eta, "--target", "0.1"]) == 2
        captured = capsys.readouterr()
        assert captured.out == ""
        assert captured.err == "qx: accuracy must be finite and positive\n"
    # a non-finite budget or gate count is a usage error, not a traceback
    for flags in (["--eta", "0.001", "--target", "inf"],
                  ["--eta", "1e-320", "--target", "1"],
                  ["--eta", "0.001", "--target", "nan"],
                  ["--eta", "0.001", "--target", "0.1", "--synthesis-error", "nan"]):
        assert cli.main(["gates"] + flags) == 2
        captured = capsys.readouterr()
        assert captured.out == ""
        assert captured.err.startswith("qx: ") and captured.err.count("\n") == 1


def test_usage_exit_code_for_unknown_command():
    with pytest.raises(SystemExit) as exc:
        cli.main(["frobnicate"])
    assert exc.value.code == 2


def test_kl_transfer_route_over_budget_exits_2(monkeypatch, capsys):
    # vbs:3:4 bond:all is on the transfer route at this DENSE_CAP, and its
    # compressions hold K^2 d^2 = 33^2 * 9 amplitudes
    monkeypatch.setattr(vc, "DENSE_CAP", 100)
    monkeypatch.setattr(vc, "DENSE_STACK_CAP", 33 * 33 * 9 - 1)
    assert cli.main(["kl", "--code", "vbs:3:4", "--errors", "bond:all"]) == 2
    err = capsys.readouterr().err
    assert err.startswith("qx: ") and err.count("\n") == 1 and "budget" in err

