"""Extreme numeric arguments end in an exit code, never in a traceback.

Every subcommand and ``verify`` target runs in process with each of its
numeric options set, one at a time, to each value of ``EXTREMES``; the other
arguments stay at small valid settings, so the searches and tables are
cheap.  Each call must return 0, 1 or 2 and raise nothing; an argparse usage
error (``SystemExit(2)``) counts as returning 2.
"""

from __future__ import annotations

import contextlib
import io
import pathlib

import pytest

from lefttail.bounds import METHODS
from lefttail.cli import main

EXTREMES = ["0", "1", "-1", "nan", "inf", "-inf", "5e-324", "1e-320", "1e308", "1e400", str(10**400), str(2**63)]

SPEC = str(pathlib.Path(__file__).with_name("data") / "mc_spec.json")

# (base argv, options swept over EXTREMES); each option is in the base argv
BASES = [
    *((["bound", "--lambda", "1.5", "--n", "3", "--method", m, "--precision", "6"], ["--lambda", "--n", "--precision"])
      for m in METHODS),
    (["compare", "--lambda-min", "0", "--lambda-max", "1", "--step", "0.5", "--n", "2", "--precision", "6"],
     ["--lambda-min", "--lambda-max", "--step", "--n", "--precision"]),
    (["compare", "--lambda-min", "0", "--lambda-max", "1", "--step", "0.5", "--n", "2", "--raw"], ["--step", "--n"]),
    (["verify", "lemma4", "--n", "2", "--lambda", "1.5", "--resolution", "0.1"], ["--n", "--lambda", "--resolution"]),
    (["verify", "two-point", "--n", "2", "--lambda", "1.5", "--resolution", "0.5"], ["--n", "--lambda", "--resolution"]),
    (["verify", "tightness", "--lambda", "1.5", "--n", "3"], ["--lambda", "--n"]),
    (["verify", "inequalities", "--n-max", "12", "--lambda-step", "0.7"], ["--n-max", "--lambda-step"]),
    (["solve-r", "--tol", "1e-8", "--precision", "6"], ["--tol", "--precision"]),
    (["mc", "--spec", SPEC, "--trials", "1000", "--seed", "0", "--precision", "6"], ["--trials", "--seed", "--precision"]),
]

def _command(argv: list[str]) -> str:
    return " ".join(argv[:2]) if argv[0] == "verify" else argv[0]


def _calls():
    for base, options in BASES:
        for option in options:
            i = base.index(option) + 1
            for value in EXTREMES:
                yield [*base[:i], value, *base[i + 1:]]


def _code(argv: list[str]):
    """The exit code of one call, or the exception it raised."""
    with contextlib.redirect_stdout(io.StringIO()), contextlib.redirect_stderr(io.StringIO()):
        try:
            return main(argv)
        except SystemExit as exc:
            return exc.code
        except Exception as exc:  # noqa: BLE001 - any exception is the failure reported
            return exc


@pytest.mark.parametrize("command", sorted({_command(base) for base, _ in BASES}))
def test_extreme_arguments_exit_cleanly(command):
    calls = [argv for argv in _calls() if _command(argv) == command]
    assert calls
    bad = [(" ".join(argv), code) for argv in calls if (code := _code(argv)) not in (0, 1, 2)]
    assert not bad, f"{len(bad)} of {len(calls)} calls: {bad[:5]}"
