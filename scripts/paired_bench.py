"""Paired benchmark runs of two source trees, written as a BENCH_*.json record.

    python3 scripts/paired_bench.py --parent TREE --change TREE --key NAME \\
        --what TEXT [--workload W ...] [--seeds 1701 1710] [--into BENCH_search.json]

Before the first pair, ``python -m compileall -q src perfbench`` writes
the bytecode of both trees.  Runs write none where PYTHONDONTWRITEBYTECODE
is set, so a fresh clone would otherwise compile every module it imports in
every process, about 18 ms for ``src/lefttail`` and 42 ms with
``perfbench``, while a working tree with a warm ``__pycache__`` skips that.

For each workload (by default every one ``perfbench/run.py`` defines) and
each seed, ``perfbench/run.py --trace 0`` runs once in each tree, one run
at a time, for the benchmark's own run length.  Which tree runs first alternates from seed to
seed (the parent first on the first seed), so a host that slows down during
a pair slows both orders equally often.  Each tree runs its own copy of
``perfbench``, so the two copies should be identical.

The record holds the label, the parent commit, the method, the machine,
and per workload the seeds, every pair, each side's median and quartiles
per metric, and the comparison: how many pairs the change won, and the
median and quartiles of the paired change/parent ratio.  Lower is better for
every end-to-end metric.  Quartiles use ``statistics.quantiles(n=4,
method='inclusive')``.  With ``--into`` the record is added to that JSON file
under ``--key``, leaving the bytes of its other records as they are, and at
least 10 seeds are needed: a gain is claimed only when the change wins at
least nine of ten pairs.  Otherwise the record is printed.  Exit code 0 when every run was correct with no
failed operation, 1 otherwise.
"""

from __future__ import annotations

import argparse
import json
import statistics
import subprocess
import sys
from pathlib import Path

sys.path.insert(0, str(Path(__file__).resolve().parents[1]))
from perfbench.run import WORKLOADS  # noqa: E402

METRICS = ("setup_s", "wall_s", "cpu_s", "op_p50_ms", "peak_rss_mb")
#: Fields of a run's full record kept beside its metrics in each pair.
CONTEXT = ("host_steal_s", "rounds")
COMMAND = "python3 perfbench/run.py --workload W --seed S --trace 0"
#: Pairs a record written into a file needs: the rule for claiming a gain
#: reads at least ten.
MIN_RECORD_PAIRS = 10
METHOD = (
    "Each side ran from its own source tree with its own perfbench files, one run at a time. "
    "Pairs alternate which side runs first, the parent first on the first seed. "
    "Quartiles use statistics.quantiles(n=4, method='inclusive'). "
    "ratio_* are the median and quartiles of the paired change/parent ratios; "
    "median_difference is the parent's median minus the change's; lower is better for every metric."
)


def compile_tree(tree: Path) -> None:
    """Write the bytecode of the package and the benchmark in ``tree``;
    ``compileall`` writes it even where PYTHONDONTWRITEBYTECODE is set."""
    subprocess.run([sys.executable, "-m", "compileall", "-q", "src", "perfbench"], cwd=tree, check=True)


def run_once(tree: Path, workload: str, seed: int) -> dict:
    """One untraced run in ``tree``: its metrics, correctness, operation
    counts, and the context fields of its full record."""
    cmd = [sys.executable, "perfbench/run.py", "--workload", workload, "--seed", str(seed), "--trace", "0"]
    proc = subprocess.run(cmd, cwd=tree, capture_output=True, text=True)
    lines = proc.stdout.strip().splitlines()
    if proc.returncode == 2 or not lines:
        raise RuntimeError(f"{tree}: {workload} seed {seed} could not run: {proc.stderr.strip()}")
    out = json.loads(lines[-1])
    record = json.loads((tree / "perfbench" / "results" / f"{workload}-seed{seed}-trace0.json").read_text())
    run = {name: out["metrics"][name]["value"] for name in METRICS}
    run.update({key: record[key] for key in CONTEXT})
    run.update(correct=out["correct"], attempted=out["attempted"], failed=out["failed"])
    run["commit"], run["machine"] = record["commit"], record["machine"]
    return run


def quartiles(xs: list) -> dict:
    q1, median, q3 = statistics.quantiles(xs, n=4, method="inclusive")
    return {"median": median, "q1": q1, "q3": q3}


def compare(pairs: list) -> dict:
    """Each side's quartiles per metric, and the paired comparison."""
    sides = {}
    for side in ("parent", "change"):
        runs = [pair[side] for pair in pairs]
        sides[side] = {name: quartiles([run[name] for run in runs]) for name in (*METRICS, "host_steal_s")}
        sides[side].update(all_correct=all(run["correct"] for run in runs), failed=sum(run["failed"] for run in runs))
    comparison = {}
    for name in METRICS:
        parent = [pair["parent"][name] for pair in pairs]
        change = [pair["change"][name] for pair in pairs]
        ratios = quartiles([c / p for c, p in zip(change, parent)])
        comparison[name] = {
            "change_wins": sum(c < p for c, p in zip(change, parent)),
            "ties": sum(c == p for c, p in zip(change, parent)),
            "pairs": len(pairs),
            "ratio_median": ratios["median"],
            "ratio_q1": ratios["q1"],
            "ratio_q3": ratios["q3"],
            "median_difference": statistics.median(parent) - statistics.median(change),
            "parent_iqr": sides["parent"][name]["q3"] - sides["parent"][name]["q1"],
        }
    return {"sides": sides, "comparison": comparison}


def measure(trees: dict, workload: str, seeds: list, run=run_once) -> dict:
    """The pairs of one workload, the sides alternating which runs first."""
    pairs = []
    for i, seed in enumerate(seeds):
        order = ("parent", "change") if i % 2 == 0 else ("change", "parent")
        pair = {"seed": seed, "first": order[0]}
        for side in order:
            pair[side] = run(trees[side], workload, seed)
            print(f"{workload} seed {seed} {side}: {json.dumps({k: pair[side][k] for k in METRICS})}", file=sys.stderr)
        pairs.append(pair)
    return {"seeds": seeds, "pairs": pairs, **compare(pairs)}


def add_record(path: Path, key: str, record: dict) -> None:
    """Append ``record`` to the JSON object in ``path`` under ``key``,
    indented like the file's first member, without rewriting the others."""
    text = path.read_text(encoding="utf-8")
    data = json.loads(text)
    if key in data:
        raise ValueError(f"{path} already has a record {key!r}")
    indent = len(text.splitlines()[1]) - len(text.splitlines()[1].lstrip())
    body = json.dumps({key: record}, indent=indent)[1:-1].strip("\n")
    new = text.rstrip()[:-1].rstrip() + ",\n" + body + "\n}\n"
    if json.loads(new) != {**data, key: record}:
        raise AssertionError("the record was not added cleanly")
    path.write_text(new, encoding="utf-8")


def main(argv=None) -> int:
    p = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    p.add_argument("--parent", type=Path, required=True, help="source tree of the parent commit")
    p.add_argument("--change", type=Path, required=True, help="source tree of the change")
    p.add_argument("--key", required=True, help="the record's label, and its key with --into")
    p.add_argument("--what", required=True, help="one line on the change the record measures")
    p.add_argument("--workload", action="append", choices=WORKLOADS, help="repeatable; default all")
    p.add_argument("--seeds", type=int, nargs=2, default=(1, MIN_RECORD_PAIRS), metavar=("FIRST", "LAST"))
    p.add_argument("--into", type=Path, help="JSON file to add the record to")
    args = p.parse_args(argv)
    trees = {"parent": args.parent.resolve(), "change": args.change.resolve()}
    seeds = list(range(args.seeds[0], args.seeds[1] + 1))
    if len(seeds) < 2:
        raise SystemExit("error: need at least two seeds for quartiles")
    if args.into and len(seeds) < MIN_RECORD_PAIRS:
        raise SystemExit(f"error: a record added with --into needs at least {MIN_RECORD_PAIRS} seeds, got {len(seeds)}")
    for tree in trees.values():
        compile_tree(tree)
    results = {w: measure(trees, w, seeds) for w in args.workload or WORKLOADS}
    first = next(iter(results.values()))["pairs"][0]
    record = {
        "label": args.key,
        "what": args.what,
        "parent_commit": first["parent"]["commit"],
        "command": COMMAND,
        "method": METHOD,
        "machine": first["parent"]["machine"],
    }
    for workload, result in results.items():
        for pair in result["pairs"]:
            for side in ("parent", "change"):
                del pair[side]["commit"], pair[side]["machine"]
        record[workload] = result
    if args.into:
        add_record(args.into, args.key, record)
    else:
        print(json.dumps(record, indent=1))
    sides = [r["sides"][s] for r in results.values() for s in ("parent", "change")]
    return 0 if all(side["all_correct"] and side["failed"] == 0 for side in sides) else 1


if __name__ == "__main__":
    raise SystemExit(main())
