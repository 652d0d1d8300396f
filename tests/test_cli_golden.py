"""Golden CLI output: every subcommand's stdout, stderr and exit code, byte for byte.

Each case runs ``cli.main`` in process and is compared with the bytes
recorded in ``data/cli_golden.json``.  A change that must keep the CLI's
output can rely on this file instead of comparing invocations by hand.
``--help`` and argparse usage errors are left out, as their layout
depends on the terminal width and the Python version.

To record the data file again after an intended output change, run

    PYTHONPATH=src python tests/test_cli_golden.py

and review the diff of ``data/cli_golden.json``.
"""

from __future__ import annotations

import contextlib
import io
import json
import pathlib

import pytest

DATA = pathlib.Path(__file__).with_name("data")
GOLDEN = DATA / "cli_golden.json"

# "{data}" in an argument stands for the committed data directory
CASES = [
    ["bound", "--lambda", "2.5", "--method", "theorem1", "--n", "4"],
    ["bound", "--lambda", "0.5", "--method", "theorem1", "--n", "4"],
    ["bound", "--lambda", "4", "--method", "theorem1", "--n", "4", "--precision", "17"],
    ["bound", "--lambda", "2.5", "--method", "theorem1", "--n", "4", "--precision", "2000"],
    ["bound", "--lambda", "2.5", "--method", "theorem1-limit"],
    ["bound", "--lambda", "0.1", "--method", "theorem1-limit"],
    ["bound", "--lambda", "2.5", "--method", "hoeffding", "--n", "4"],
    ["bound", "--lambda", "1.2", "--method", "hoeffding", "--n", "1000000", "--precision", "12"],
    ["bound", "--lambda", "2.5", "--method", "bentkus", "--n", "4"],
    ["bound", "--lambda", "2.5", "--method", "bentkus-simple", "--n", "4"],
    ["bound", "--lambda", "3", "--method", "corollary1", "--precision", "17"],
    ["bound", "--lambda", "0.5", "--method", "hoeffding", "--n", "4"],
    ["bound", "--lambda", "4", "--method", "bentkus-simple", "--n", "4"],
    ["bound", "--lambda", "5", "--method", "theorem1", "--n", "4"],
    ["bound", "--lambda", "2", "--method", "theorem1"],
    ["bound", "--lambda", "2", "--method", "theorem1", "--n", "0"],
    ["bound", "--lambda", "nan", "--method", "theorem1-limit"],
    ["bound", "--lambda", "1", "--method", "corollary1", "--precision", "-1"],
    # an n that a double cannot hold is a domain error on every path
    ["bound", "--lambda", "2", "--method", "theorem1", "--n", str(10**400)],
    ["bound", "--lambda", "0", "--method", "theorem1", "--n", str(10**400)],
    ["compare", "--lambda-min", "0", "--lambda-max", "4", "--step", "0.25", "--n", "4"],
    ["compare", "--lambda-min", "0", "--lambda-max", "4", "--step", "0.25", "--n", "4", "--raw"],
    ["compare", "--lambda-min", "0", "--lambda-max", "1", "--step", "0.5", "--n", "1"],
    ["compare", "--lambda-min", "0", "--lambda-max", "2", "--step", "0.3", "--n", "2", "--precision", "10"],
    ["compare", "--lambda-min", "0", "--lambda-max", "30", "--step", "0.5", "--n", "1000000"],
    ["compare", "--lambda-min", "0", "--lambda-max", "4", "--step", "0", "--n", "4"],
    ["compare", "--lambda-min", "0", "--lambda-max", "5", "--step", "0.5", "--n", "4"],
    ["compare", "--lambda-min", "0", "--lambda-max", "4", "--step", "1e-9", "--n", "4"],
    ["compare", "--lambda-min", "0", "--lambda-max", "4", "--step", "1e-320", "--n", "4"],
    ["compare", "--lambda-min", "0", "--lambda-max", "4", "--step", "1", "--n", str(10**400)],
    ["compare", "--lambda-min", "0", "--lambda-max", "0", "--step", "1", "--n", "0"],
    ["compare", "--lambda-min", "0", "--lambda-max", "4", "--step", "1", "--n", "4", "--precision", "-2"],
    # the row count's slack makes a candidate at 1.0, above lambda-max, which is dropped
    ["compare", "--lambda-min", "0", "--lambda-max", "0.9999999995", "--step", "1", "--n", "4"],
    ["verify", "tightness", "--lambda", "2", "--n", "4"],
    ["verify", "tightness", "--lambda", "1.3", "--n", "1000"],
    ["verify", "tightness", "--lambda", "1", "--n", "1"],
    ["verify", "tightness", "--lambda", "0.5", "--n", "4"],
    ["verify", "tightness", "--lambda", "2", "--n", str(10**400)],
    ["verify", "lemma4", "--n", "3", "--lambda", "1.5", "--resolution", "0.1"],
    ["verify", "lemma4", "--n", "3", "--lambda", "1.5", "--resolution", "nan"],
    ["verify", "two-point", "--n", "2", "--lambda", "1.2", "--resolution", "0.1"],
    # three and four summands, where a row's tail sums over its prefix's outcomes
    ["verify", "two-point", "--n", "3", "--lambda", "1.25", "--resolution", "0.125"],
    ["verify", "two-point", "--n", "4", "--lambda", "2.6", "--resolution", "0.25"],
    ["verify", "two-point", "--n", "3", "--lambda", "0.697", "--resolution", "0.1"],
    ["verify", "two-point", "--n", "9", "--lambda", "1.2", "--resolution", "0.1"],
    ["verify", "inequalities"],
    ["verify", "inequalities", "--n-max", "12", "--lambda-step", "0.7"],
    ["verify", "inequalities", "--n-max", "0"],
    ["solve-r", "--tol", "1e-12"],
    ["solve-r", "--tol", "1e-8", "--precision", "17"],
    ["solve-r", "--tol", "5e-324"],
    ["solve-r", "--tol", "0.5"],
    ["mc", "--spec", "{data}/mc_spec.json", "--trials", "20000", "--seed", "3"],
    ["mc", "--spec", "{data}/mc_spec.json", "--trials", "20000", "--seed", "3", "--precision", "17"],
    ["mc", "--spec", "{data}/mc_spec.json", "--trials", "10"],
    ["mc", "--spec", "{data}/mc_spec.json", "--trials", "20000", "--seed", "-1"],
    # trials times summands over the draw budget is refused before any draw
    ["mc", "--spec", "{data}/mc_spec.json", "--trials", str(2**63)],
    # probabilities that sum to 1 within 1e-12 give a float mean just above n;
    # the bound is taken at the mean capped at n
    ["mc", "--spec", "{data}/mc_mean_overshoot.json", "--trials", "1000"],
    ["mc", "--spec", "{data}/mc_not_objects.json", "--trials", "10000"],
    ["mc", "--spec", "{data}/no-such-spec.json", "--trials", "10000"],
]


def _key(argv: list[str]) -> str:
    return " ".join(argv)


def run(argv: list[str]) -> dict:
    """Run ``cli.main`` on ``argv``; the data directory reads "{data}" in
    the arguments and in the output, so the record does not depend on
    where the repository is."""
    from lefttail import cli

    here = str(DATA)
    out, err = io.StringIO(), io.StringIO()
    with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
        code = cli.main([a.replace("{data}", here) for a in argv])
    return {
        "code": code,
        "stdout": out.getvalue().replace(here, "{data}"),
        "stderr": err.getvalue().replace(here, "{data}"),
    }


@pytest.fixture(scope="module")
def golden() -> dict:
    return json.loads(GOLDEN.read_text(encoding="utf-8"))


def test_every_case_is_recorded(golden):
    assert list(golden) == [_key(argv) for argv in CASES]


@pytest.mark.parametrize("argv", CASES, ids=_key)
def test_output_bytes(argv, golden):
    assert run(argv) == golden[_key(argv)]


if __name__ == "__main__":
    record = {_key(argv): run(argv) for argv in CASES}
    GOLDEN.write_text(json.dumps(record, indent=1) + "\n", encoding="utf-8")
