"""The paired benchmark script's order of runs, summary and record file."""

from __future__ import annotations

import functools
import importlib.util
import json
import pathlib

import pytest

SCRIPT = pathlib.Path(__file__).resolve().parents[1] / "scripts" / "paired_bench.py"
spec = importlib.util.spec_from_file_location("paired_bench", SCRIPT)
paired_bench = importlib.util.module_from_spec(spec)
spec.loader.exec_module(paired_bench)


def fake_runs(log):
    """A runner whose change reads 0.8 of the parent on every metric."""

    def run(tree, workload, seed):
        log.append((tree, seed))
        scale = 0.8 if tree == "change-tree" else 1.0
        values = {name: scale * (seed + k) for k, name in enumerate(paired_bench.METRICS)}
        return {**values, "host_steal_s": 0.5, "rounds": 3, "correct": True, "attempted": 9, "failed": 0}

    return run


def test_sides_alternate_and_ratios_are_paired():
    log = []
    trees = {"parent": "parent-tree", "change": "change-tree"}
    result = paired_bench.measure(trees, "search", [11, 12, 13, 14], run=fake_runs(log))
    assert log == [("parent-tree", 11), ("change-tree", 11), ("change-tree", 12), ("parent-tree", 12),
                   ("parent-tree", 13), ("change-tree", 13), ("change-tree", 14), ("parent-tree", 14)]
    assert [pair["first"] for pair in result["pairs"]] == ["parent", "change", "parent", "change"]
    wall = result["comparison"]["wall_s"]
    assert (wall["change_wins"], wall["ties"], wall["pairs"]) == (4, 0, 4)
    assert [wall[k] for k in ("ratio_q1", "ratio_median", "ratio_q3")] == pytest.approx([0.8] * 3)
    # parent wall_s is seed + 1 over seeds 11..14: median 13.5, inclusive quartiles 12.75 and 14.25
    assert result["sides"]["parent"]["wall_s"] == {"median": 13.5, "q1": 12.75, "q3": 14.25}
    assert wall["parent_iqr"] == pytest.approx(1.5) and wall["median_difference"] == pytest.approx(0.2 * 13.5)
    assert result["sides"]["change"]["all_correct"] and result["sides"]["change"]["failed"] == 0


def test_record_is_added_without_rewriting_the_others(tmp_path):
    path = tmp_path / "BENCH_x.json"
    old = '{\n  "label": "x",\n  "nested": {\n    "a": [1, 2]\n  }\n}\n'
    path.write_text(old)
    paired_bench.add_record(path, "next", {"label": "next", "pairs": [1.5]})
    text = path.read_text()
    assert text.startswith(old[: old.rindex("}")].rstrip() + ",\n")
    assert json.loads(text) == {"label": "x", "nested": {"a": [1, 2]}, "next": {"label": "next", "pairs": [1.5]}}
    with pytest.raises(ValueError, match="already has a record 'next'"):
        paired_bench.add_record(path, "next", {})


def test_arguments_follow_the_benchmark(tmp_path, monkeypatch, capsys):
    # workloads come from perfbench/run.py, and a record written into a file
    # needs ten seeds; both are refused before any run
    monkeypatch.setattr(paired_bench, "run_once", lambda *_: pytest.fail("a run was started"))
    from perfbench.run import WORKLOADS

    assert paired_bench.WORKLOADS == WORKLOADS
    base = ["--parent", "p", "--change", "c", "--key", "k", "--what", "w"]
    with pytest.raises(SystemExit) as refused:
        paired_bench.main([*base, "--workload", "nosuch"])
    assert refused.value.code == 2 and "invalid choice: 'nosuch'" in capsys.readouterr().err
    path = tmp_path / "BENCH_x.json"
    path.write_text('{\n  "label": "x"\n}\n')
    with pytest.raises(SystemExit, match="^error: a record added with --into needs at least 10 seeds, got 9$"):
        paired_bench.main([*base, "--seeds", "1", "9", "--into", str(path)])
    assert path.read_text() == '{\n  "label": "x"\n}\n'


def test_both_trees_are_compiled_before_any_run(tmp_path, monkeypatch, capsys):
    # runs write no bytecode where PYTHONDONTWRITEBYTECODE is set, so each
    # tree's src and perfbench are compiled once, before the first pair
    monkeypatch.setenv("PYTHONDONTWRITEBYTECODE", "1")
    trees = [tmp_path / "parent", tmp_path / "change"]
    for tree in trees:
        for part in ("src/lefttail", "perfbench"):
            (tree / part).mkdir(parents=True)
            (tree / part / "mod.py").write_text("x = 1\n")
    log = []
    runs = fake_runs(log)

    def run(tree, workload, seed):
        for other in trees:
            for part in ("src/lefttail", "perfbench"):
                assert list((other / part / "__pycache__").glob("mod.*.pyc")), (other, part)
        return {**runs(f"{tree.name}-tree", workload, seed), "commit": "c", "machine": "m"}

    monkeypatch.setattr(paired_bench, "measure", functools.partial(paired_bench.measure, run=run))
    argv = ["--parent", str(trees[0]), "--change", str(trees[1]), "--key", "k", "--what", "w"]
    assert paired_bench.main([*argv, "--workload", "cli", "--seeds", "1", "2"]) == 0
    assert log == [("parent-tree", 1), ("change-tree", 1), ("change-tree", 2), ("parent-tree", 2)]
    assert json.loads(capsys.readouterr().out)["cli"]["comparison"]["wall_s"]["change_wins"] == 2
