import tracemalloc

import numpy as np
import pytest

from qx import cli
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


def test_vbs_command(tmp_path):
    code, text = run_cli(["vbs", "--d", "2", "--n", "4"], tmp_path, "vbs.txt")
    assert code == 0
    body = dict(line.split(": ") for line in text.decode().strip().split("\n"))
    assert float(body["eta"]) == pytest.approx(-5 / 81, rel=1e-11)
    assert float(body["max_detect_closedform_residual"]) < 1e-10


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
    # the dense route holds the K error stacks about twice at its peak: the
    # list from bond_error_stacks while kl_decompose stacks it, then the
    # report's array next to the thin recovery factor T
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


@pytest.mark.filterwarnings("error")
def test_simulate_length_bounded_by_stack_size(tmp_path, monkeypatch, capsys):
    # 7 stacks of 30 * 2 * 2 amplitudes fit a cap of 840; 31 steps do not
    monkeypatch.setattr(vc, "DENSE_STACK_CAP", 840)
    args = ["simulate", "--d", "2", "--n", "8", "--trials", "2", "--seed", "3"]
    code, text = run_cli(args + ["--length", "30"], tmp_path, "ok.csv")
    assert code == 0 and text.decode().startswith("trial,final_distance\n")
    assert cli.main(args + ["--length", "31"]) == 2
    err = capsys.readouterr().err
    assert err.startswith("qx: ") and err.count("\n") == 1


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


def test_usage_exit_code_for_unknown_command():
    with pytest.raises(SystemExit) as exc:
        cli.main(["frobnicate"])
    assert exc.value.code == 2
