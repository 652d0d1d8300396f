"""Mutation run over ``tests/data/mutants.json``: every mutant must fail a test.

    python3 scripts/mutants.py

Each entry of the data file names a source file, an exact old text, the new
text that replaces it, what the change breaks, and the test ids expected to
kill it.  The named tests first run once on an unmutated copy of the tree,
where they must pass, or a failure under a mutant would show nothing.  Then
each mutant gets its own fresh copy of the tree in a temporary directory,
with its old text replaced, and its named tests run there with pytest.

Prints a kill matrix, one line per mutant: killed, survived or error, and
per named test K (it failed) or . (it passed).  A mutant is killed when any
of its named tests fails.  Exit code 0 when every mutant was killed, 1 when
one survived or a run errored or took over TIMEOUT seconds.
"""

from __future__ import annotations

import json
import os
import shutil
import subprocess
import sys
import tempfile
import time
from pathlib import Path

ROOT = Path(__file__).resolve().parents[1]
DATA = ROOT / "tests" / "data" / "mutants.json"
#: What a copy of the tree holds: enough to import the package and run its tests.
COPIED = ("src", "tests", "perfbench", "scripts", "pyproject.toml")
IGNORED = shutil.ignore_patterns("__pycache__", "results", ".pytest_cache", ".hypothesis")
#: Seconds one pytest run may take: a mutant can make a loop run for ever
#: (no draw budget and 2**63 trials), and every named test takes seconds.
TIMEOUT = 600.0


def copy_tree(into: Path) -> Path:
    into.mkdir()
    for name in COPIED:
        source = ROOT / name
        if source.is_dir():
            shutil.copytree(source, into / name, ignore=IGNORED)
        else:
            shutil.copy2(source, into / name)
    return into


def apply(tree: Path, mutant: dict) -> None:
    path = tree / mutant["file"]
    text = path.read_text(encoding="utf-8")
    if text.count(mutant["old"]) != 1:
        raise ValueError(f"{mutant['id']}: the old text occurs {text.count(mutant['old'])} times in {mutant['file']}")
    path.write_text(text.replace(mutant["old"], mutant["new"]), encoding="utf-8")


def failed_in(failed: set, test: str) -> bool:
    """Whether a named test (a file, class, function or parametrised case) failed."""
    return any(node == test or node.startswith((test + "::", test + "[")) for node in failed)


def run_tests(tree: Path, tests: list) -> tuple:
    """``(status, failed node ids)`` of one pytest run in ``tree``; the status
    is "passed", "failed" or why the run gave no verdict."""
    env = dict(os.environ, PYTHONPATH=os.pathsep.join(filter(None, ["src", os.environ.get("PYTHONPATH")])))
    cmd = [sys.executable, "-m", "pytest", "-q", "-p", "no:cacheprovider", "-rfE", *tests]
    try:
        proc = subprocess.run(cmd, cwd=tree, env=env, capture_output=True, text=True, timeout=TIMEOUT)
    except subprocess.TimeoutExpired:
        return f"timed out after {TIMEOUT:g} s", set()
    failed = {line.split()[1] for line in proc.stdout.splitlines() if line.startswith(("FAILED ", "ERROR "))}
    # exit code 2 with errors listed: a test module that no longer imports
    code = 1 if proc.returncode == 2 and failed else proc.returncode
    status = {0: "passed", 1: "failed"}.get(code, f"pytest exit code {proc.returncode}")
    return status, failed


def main() -> int:
    mutants = json.loads(DATA.read_text(encoding="utf-8"))
    tests = sorted({test for m in mutants for test in m["killed_by"]})
    with tempfile.TemporaryDirectory(prefix="lefttail-mutants-") as scratch:
        status, failed = run_tests(copy_tree(Path(scratch) / "clean"), tests)
        if status != "passed":
            print(f"the named tests do not pass on the unmutated tree ({status}): {sorted(failed)}")
            return 1
        width = max(len(m["id"]) for m in mutants)
        verdicts = []
        for k, mutant in enumerate(mutants):
            tree = copy_tree(Path(scratch) / f"mutant{k}")
            apply(tree, mutant)
            start = time.perf_counter()
            status, failed = run_tests(tree, mutant["killed_by"])
            shutil.rmtree(tree)
            verdict = {"failed": "killed", "passed": "survived"}.get(status, "error")
            verdicts.append(verdict)
            marks = "  ".join(f"{'K' if failed_in(failed, t) else '.'} {t}" for t in mutant["killed_by"])
            note = "" if verdict != "error" else f"  ({status})"
            print(f"{mutant['id']:<{width}}  {verdict:<8}  {time.perf_counter() - start:5.1f} s  {marks}{note}", flush=True)
    counts = {v: verdicts.count(v) for v in ("killed", "survived", "error")}
    print(f"{len(mutants)} mutants: {counts['killed']} killed, {counts['survived']} survived, {counts['error']} errors")
    return 0 if counts["killed"] == len(mutants) else 1


if __name__ == "__main__":
    raise SystemExit(main())
