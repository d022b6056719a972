"""Run the benchmark in alternating parent/change pairs and write BENCH_<pr>.json.

    python3 tools/bench_pairs.py --parent HEAD~1 --pr NUMBER \\
        --runs sweep:11-20 --runs kl_transfer:11-12 --runs kl_dense:11-12 \\
        --runs simulate:11-12 --note "what the change does"

Each side is unpacked from git with ``git archive`` into its own directory
and byte-compiled with ``compileall`` (imports read bytecode even where
``PYTHONDONTWRITEBYTECODE`` stops them writing it), so neither side pays
compilation inside a run.  The change is the working tree's tracked files
(``git stash create``, or ``HEAD`` when the tree is clean; new files count
once they are staged).  For each workload and seed the script runs

    python3 perfbench/run.py --workload W --seed S --seconds T --trace 0

in both copies, with T the parent's ``BENCHMARK.json`` ``run_seconds``,
one run at a time, the parent first on odd seeds and the change first on
even seeds.  Each run's ``env:`` line and final JSON line go to
``runs.jsonl`` in the work directory, and the BENCH file is written from
them: per side the seeds, pass flags, operation counts and,
per end-to-end metric, ``median``, ``quartiles`` (inclusive method),
``spread`` and ``runs`` in seed order; per workload the number of pairs
each side won on each metric, ties counting for neither, in the direction
``BENCHMARK.json`` gives, and per metric the claim rule's two verdicts:
``gain_resolved`` (at least ten pairs ran, the change won at least 9 in 10
of them, and its median beats the parent's by more than the parent's
quartile range) and ``within_bound`` (the change's median is worse than
the parent's by at most the metric's ``BENCHMARK.json`` bound, relative to
the parent's median).  The script only reads ``run.py``'s output.
"""

from __future__ import annotations

import argparse
import io
import json
import statistics
import subprocess
import sys
import tarfile
import tempfile
from pathlib import Path

ROOT = Path(__file__).resolve().parents[1]
SIDES = ("parent", "change")
ENV_KEYS = ("python", "numpy", "scipy", "openblas", "blas_threads", "nproc")


def parse_seeds(spec: str) -> tuple[str, list[int]]:
    """'sweep:11-20' -> ('sweep', [11, ..., 20]); 'sweep:7' -> ('sweep', [7])."""
    workload, _, seeds = spec.partition(":")
    first, _, last = seeds.partition("-")
    if not workload or not first.isdecimal() or not (last or first).isdecimal():
        raise ValueError(f"bad run spec {spec!r}; use WORKLOAD:SEED or WORKLOAD:FIRST-LAST")
    return workload, list(range(int(first), int(last or first) + 1))


def parse_run(stdout: str) -> dict:
    """The environment and result of one run.py run: its 'env:' line and its
    final line, a JSON object."""
    lines = stdout.strip().splitlines()
    env = next(json.loads(line[len("env: "):]) for line in lines if line.startswith("env: "))
    return {"env": env, "result": json.loads(lines[-1])}


def _summary(values: list[float]) -> dict:
    quartiles = (statistics.quantiles(values, n=4, method="inclusive")
                 if len(values) > 1 else values * 3)
    return {"median": statistics.median(values), "quartiles": quartiles,
            "spread": max(values) - min(values), "runs": values}


def _side(records: list[dict]) -> dict:
    results = [r["result"] for r in records]
    names = results[0]["metrics"]
    return {
        "seeds": [r["seed"] for r in records],
        "correct": all(x["correct"] for x in results),
        "attempted": [x["attempted"] for x in results],
        "failed": [x["failed"] for x in results],
        "metrics": {name: _summary([x["metrics"][name]["value"] for x in results])
                    for name in names},
    }


def _pairs_won(parent: list[dict], change: list[dict], better: dict[str, str]) -> dict:
    won = {}
    for name, direction in better.items():
        sign = 1.0 if direction == "lower" else -1.0
        counts = dict.fromkeys(SIDES, 0)
        for p, c in zip(parent, change):
            gap = sign * (p["result"]["metrics"][name]["value"]
                          - c["result"]["metrics"][name]["value"])
            if gap:
                counts["change" if gap > 0 else "parent"] += 1
        won[name] = counts
    return won


def _verdicts(sides: dict, won: dict, better: dict[str, str], bounds: dict[str, float]) -> dict:
    verdicts = {}
    for name, direction in better.items():
        sign = 1.0 if direction == "lower" else -1.0
        parent, change = (sides[side]["metrics"][name] for side in SIDES)
        gain = sign * (parent["median"] - change["median"])
        low, _, high = parent["quartiles"]
        pairs = len(parent["runs"])
        verdicts[name] = {
            "gain_resolved": pairs >= 10 and 10 * won[name]["change"] >= 9 * pairs
                             and gain > high - low,
            "within_bound": -gain <= bounds[name] * abs(parent["median"]),
        }
    return verdicts


def bench_file(records: list[dict], better: dict[str, str], bounds: dict[str, float],
               commits: dict[str, str], seconds: float, note: str) -> dict:
    """The BENCH file of a list of run records, each {'side', 'workload',
    'seed', 'env', 'result'}; ``better`` maps each end-to-end metric to
    'lower' or 'higher', and ``bounds`` to its relative bound."""
    workloads, env = {}, {}
    for side in SIDES:
        first = next(r["env"] for r in records if r["side"] == side)
        env[side] = {key: first.get(key) for key in ENV_KEYS} | {"commit": commits[side]}
    for name in dict.fromkeys(r["workload"] for r in records):
        by_side = {side: sorted((r for r in records if r["workload"] == name and r["side"] == side),
                                key=lambda r: r["seed"]) for side in SIDES}
        if [r["seed"] for r in by_side["parent"]] != [r["seed"] for r in by_side["change"]]:
            raise ValueError(f"{name}: the two sides ran different seeds")
        workloads[name] = {side: _side(by_side[side]) for side in SIDES}
        won = _pairs_won(by_side["parent"], by_side["change"], better)
        workloads[name] |= {"pairs_won": won,
                            "verdicts": _verdicts(workloads[name], won, better, bounds)}
    plan = ", ".join(
        f"`{name}` {len(w['parent']['seeds'])} pairs (seeds {w['parent']['seeds'][0]}"
        f"-{w['parent']['seeds'][-1]})" for name, w in workloads.items())
    description = (
        "End-to-end benchmark medians, parent vs change, from the final JSON line of each "
        f"`python3 perfbench/run.py --workload W --seed S --seconds {seconds:g} --trace 0` run, "
        "written by tools/bench_pairs.py. Per metric: `median`, `quartiles` (inclusive method), "
        "`spread` (largest run minus smallest) and `runs` in seed order; `pairs_won` counts the "
        "pairs each side won per metric, ties counting for neither. `verdicts` applies the claim "
        "rule per metric: `gain_resolved` if at least ten pairs ran, the change won at least 9 in "
        "10 of them and its median beats the parent's by more than the parent's quartile range, "
        "`within_bound` if its median is worse than the parent's by at most the metric's "
        "BENCHMARK.json bound, relative to the parent's median. Both trees ran from their own "
        "copies (unpacked with `git archive` and byte-compiled before the first run), one run at "
        f"a time, the parent first on odd seeds and the change first on even seeds. Runs: {plan}."
    )
    return {"description": description, "change": note, "env": env, "workloads": workloads}


def _git(*args: str) -> str:
    return subprocess.run(["git", *args], cwd=ROOT, check=True, capture_output=True,
                          text=True).stdout.strip()


def unpack(rev: str, dest: Path) -> None:
    """Extract ``rev`` into ``dest`` with git archive and byte-compile it."""
    dest.mkdir(parents=True)
    archive = subprocess.run(["git", "archive", "--format=tar", rev], cwd=ROOT, check=True,
                             capture_output=True).stdout
    with tarfile.open(fileobj=io.BytesIO(archive)) as tar:
        tar.extractall(dest, filter="data")
    subprocess.run([sys.executable, "-m", "compileall", "-q", str(dest)], check=True,
                   capture_output=True)


def run_once(tree: Path, workload: str, seed: int, seconds: float) -> dict:
    argv = [sys.executable, "perfbench/run.py", "--workload", workload, "--seed", str(seed),
            "--seconds", str(seconds), "--trace", "0"]
    proc = subprocess.run(argv, cwd=tree, capture_output=True, text=True)
    if proc.returncode != 0:
        raise RuntimeError(f"{' '.join(argv)} in {tree} exited {proc.returncode}: "
                           f"{proc.stderr.strip()[-500:]}")
    return parse_run(proc.stdout)


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--parent", required=True, help="parent revision")
    parser.add_argument("--pr", required=True, help="writes BENCH_<pr>.json at the repo root")
    parser.add_argument("--runs", action="append", required=True, metavar="WORKLOAD:SEEDS",
                        help="a workload and its seeds, e.g. sweep:11-20; repeatable")
    parser.add_argument("--note", default="", help="the BENCH file's 'change' text")
    parser.add_argument("--workdir", default=None,
                        help="where the copies and runs.jsonl go (default: a new temp dir)")
    args = parser.parse_args(argv)
    plan = [parse_seeds(spec) for spec in args.runs]

    change = _git("stash", "create") or "HEAD"
    commits = {"parent": _git("rev-parse", args.parent),
               "change": f"working tree on {_git('rev-parse', 'HEAD')}"}
    work = Path(args.workdir or tempfile.mkdtemp(prefix="bench-pairs-"))
    trees = {side: work / side for side in SIDES}
    unpack(commits["parent"], trees["parent"])
    unpack(change, trees["change"])
    benchmark = json.loads((trees["parent"] / "BENCHMARK.json").read_text())
    seconds = benchmark["run_seconds"]
    better = {m["name"]: m["better"] for m in benchmark["end_to_end"]}
    bounds = {m["name"]: m["bound"] for m in benchmark["end_to_end"]}

    records = []
    with open(work / "runs.jsonl", "w", encoding="utf-8") as log:
        for workload, seeds in plan:
            for seed in seeds:
                for side in (SIDES if seed % 2 else SIDES[::-1]):
                    record = {"side": side, "workload": workload, "seed": seed}
                    record |= run_once(trees[side], workload, seed, seconds)
                    records.append(record)
                    log.write(json.dumps(record) + "\n")
                    log.flush()
                    p50 = record["result"]["metrics"]["op_p50_s"]["value"]
                    print(f"{workload} seed {seed} {side}: op_p50_s {p50:.5f}", flush=True)
    out = ROOT / f"BENCH_{args.pr}.json"
    out.write_text(json.dumps(bench_file(records, better, bounds, commits, seconds, args.note),
                              indent=1) + "\n")
    print(f"wrote {out}; copies and runs.jsonl in {work}")
    return 0


if __name__ == "__main__":
    sys.exit(main())
