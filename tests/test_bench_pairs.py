import importlib.util
import json
from pathlib import Path

import pytest

_PATH = Path(__file__).resolve().parents[1] / "tools" / "bench_pairs.py"
_SPEC = importlib.util.spec_from_file_location("bench_pairs", _PATH)
bench_pairs = importlib.util.module_from_spec(_SPEC)
_SPEC.loader.exec_module(bench_pairs)

ENV = {"commit": "unknown (not a git checkout)", "seed": 0, "qx_file": "src/qx/__init__.py",
       "python": "3.11.7", "numpy": "2.4.6", "scipy": "1.17.1", "openblas": "OpenBLAS x",
       "blas_threads": 2, "nproc": 2}
BETTER = {"op_p50_s": "lower", "ops_per_s": "higher"}
BOUNDS = {"op_p50_s": 0.25, "ops_per_s": 0.25}


def _stdout(p50, rate, correct=True, failed=0):
    """The lines of a run.py run that the writer reads, among others."""
    result = {"correct": correct, "attempted": 100, "failed": failed,
              "metrics": {"op_p50_s": {"value": p50, "unit": "s"},
                          "ops_per_s": {"value": rate, "unit": "1/s"}}}
    return "\n".join(["setup s (import, reference): 0.1,0.06", "env: " + json.dumps(ENV),
                      "op_p50_s: 0.02 s", json.dumps(result)]) + "\n"


def _record(side, seed, *values, **flags):
    return {"side": side, "workload": "sweep", "seed": seed} | bench_pairs.parse_run(
        _stdout(*values, **flags))


def test_parse_seeds():
    assert bench_pairs.parse_seeds("sweep:11-13") == ("sweep", [11, 12, 13])
    assert bench_pairs.parse_seeds("kl_dense:7") == ("kl_dense", [7])
    for spec in ("sweep", "sweep:", "sweep:a-3", ":1-2", "sweep:1-x"):
        with pytest.raises(ValueError):
            bench_pairs.parse_seeds(spec)


def test_parse_run_reads_the_env_line_and_the_final_json_line():
    run = bench_pairs.parse_run(_stdout(0.02, 50.0))
    assert run["env"] == ENV
    assert run["result"]["metrics"]["op_p50_s"]["value"] == 0.02


def test_writer_summarises_sides_and_counts_pairs_won():
    # records arrive in run order, change first on even seeds; the file
    # lists runs in seed order
    records = [
        _record("parent", 1, 0.020, 50.0), _record("change", 1, 0.016, 50.0),
        _record("change", 2, 0.015, 66.0), _record("parent", 2, 0.024, 40.0),
        _record("parent", 3, 0.021, 48.0), _record("change", 3, 0.022, 45.0, correct=False,
                                                   failed=2),
    ]
    commits = {"parent": "abc", "change": "working tree on abc"}
    bench = bench_pairs.bench_file(records, BETTER, BOUNDS, commits, 20.0, "the change")
    assert bench["change"] == "the change"
    assert "--seconds 20 --trace 0" in bench["description"]
    assert "`sweep` 3 pairs (seeds 1-3)" in bench["description"]
    assert bench["env"]["parent"] == {key: ENV[key] for key in bench_pairs.ENV_KEYS} | {
        "commit": "abc"}
    assert bench["env"]["change"]["commit"] == "working tree on abc"
    sweep = bench["workloads"]["sweep"]
    parent, change = sweep["parent"], sweep["change"]
    assert parent["seeds"] == change["seeds"] == [1, 2, 3]
    assert parent["correct"] and not change["correct"]
    assert change["attempted"] == [100, 100, 100] and change["failed"] == [0, 0, 2]
    p50 = parent["metrics"]["op_p50_s"]
    assert p50["runs"] == [0.020, 0.024, 0.021]
    assert p50["median"] == 0.021
    assert p50["quartiles"] == pytest.approx([0.0205, 0.021, 0.0225])
    assert p50["spread"] == pytest.approx(0.004)
    assert change["metrics"]["ops_per_s"]["runs"] == [50.0, 66.0, 45.0]
    # op_p50_s: lower wins; ops_per_s: higher wins, seed 1 is a tie
    assert sweep["pairs_won"] == {"op_p50_s": {"parent": 1, "change": 2},
                                  "ops_per_s": {"parent": 1, "change": 1}}
    json.dumps(bench)  # the file is plain JSON


def test_writer_refuses_unpaired_seeds():
    records = [_record("parent", 1, 0.02, 50.0), _record("change", 2, 0.02, 50.0)]
    with pytest.raises(ValueError, match="different seeds"):
        bench_pairs.bench_file(records, BETTER, BOUNDS, {"parent": "a", "change": "b"}, 20.0,
                               "")


def _verdicts(change_p50, change_rate, pairs=10):
    """The verdicts of canned pairs: over ten, the parent's op_p50_s runs
    are 0.0200, 0.0202, ..., 0.0218 (median 0.0209, quartiles 0.02045 and
    0.02135) and its ops_per_s runs 50, 51, ..., 59; the change's runs are
    the given functions of the parent's and the seed."""
    records = []
    for seed in range(1, pairs + 1):
        p50, rate = 0.0198 + 0.0002 * seed, 49.0 + seed
        records += [_record("parent", seed, p50, rate),
                    _record("change", seed, change_p50(p50, seed), change_rate(rate, seed))]
    commits = {"parent": "a", "change": "b"}
    return bench_pairs.bench_file(records, BETTER, BOUNDS, commits, 20.0, "")["workloads"]["sweep"]


def test_verdicts_tell_an_a_a_like_win_from_a_resolved_gain():
    # nine of ten pairs won by a hair: the median gap sits inside the
    # parent's quartile range, as in an A/A run, so no gain is resolved
    sweep = _verdicts(lambda p, seed: p - 0.0001 if seed < 10 else p + 0.0001,
                      lambda r, seed: r + 0.1 if seed < 10 else r - 0.1)
    assert sweep["pairs_won"] == {"op_p50_s": {"parent": 1, "change": 9},
                                  "ops_per_s": {"parent": 1, "change": 9}}
    assert sweep["verdicts"] == dict.fromkeys(
        BETTER, {"gain_resolved": False, "within_bound": True})
    # a real gain: every pair won, by more than the parent's quartile range
    sweep = _verdicts(lambda p, seed: p - 0.002, lambda r, seed: r + 8.0)
    assert sweep["verdicts"] == dict.fromkeys(
        BETTER, {"gain_resolved": True, "within_bound": True})
    # nor does a large gap over too few pairs
    sweep = _verdicts(lambda p, seed: p - 0.002, lambda r, seed: r + 8.0, pairs=9)
    assert sweep["pairs_won"]["op_p50_s"] == {"parent": 0, "change": 9}
    assert not any(v["gain_resolved"] for v in sweep["verdicts"].values())
    # the gap alone is not enough: eight of ten pairs won
    sweep = _verdicts(lambda p, seed: p - 0.002 if seed < 9 else p + 0.0001,
                      lambda r, seed: r + 8.0 if seed < 9 else r)
    assert sweep["pairs_won"]["op_p50_s"] == {"parent": 2, "change": 8}
    assert not any(v["gain_resolved"] for v in sweep["verdicts"].values())


def test_verdicts_flag_a_regression_past_the_bound():
    # op_p50_s 30% worse, past its 25% bound; ops_per_s 20% lower, inside it
    sweep = _verdicts(lambda p, seed: 1.3 * p, lambda r, seed: 0.8 * r)
    assert sweep["pairs_won"] == {"op_p50_s": {"parent": 10, "change": 0},
                                  "ops_per_s": {"parent": 10, "change": 0}}
    assert sweep["verdicts"] == {
        "op_p50_s": {"gain_resolved": False, "within_bound": False},
        "ops_per_s": {"gain_resolved": False, "within_bound": True},
    }
    # ops_per_s 40% lower is past its bound too
    sweep = _verdicts(lambda p, seed: p, lambda r, seed: 0.6 * r)
    assert sweep["verdicts"]["ops_per_s"]["within_bound"] is False
    assert sweep["verdicts"]["op_p50_s"] == {"gain_resolved": False, "within_bound": True}
