"""The README's examples give the output they show.

Every ``lefttail ...`` line directly followed by a ``# -> `` line is run
through ``cli.main`` and its stdout compared with that line.  In the
library example, each ``lt.`` expression directly followed by a ``# ``
comment is evaluated and its repr compared with the comment, up to a
`` -- `` remark.
"""

from __future__ import annotations

import contextlib
import io
import pathlib
import shlex

import pytest

import lefttail as lt
from lefttail import cli

README = pathlib.Path(__file__).resolve().parents[1] / "README.md"


def _pairs(prefix: str, comment: str) -> list[tuple[str, str]]:
    """(line, shown) for each README line starting with ``prefix`` whose
    next line starts with ``comment``; ``shown`` is the rest of that line."""
    lines = README.read_text(encoding="utf-8").splitlines()
    return [(a, b[len(comment) :]) for a, b in zip(lines, lines[1:]) if a.startswith(prefix) and b.startswith(comment)]


CLI_EXAMPLES = _pairs("lefttail ", "# -> ")
LIBRARY_EXAMPLES = _pairs("lt.", "# ")


def test_examples_are_found():
    assert len(CLI_EXAMPLES) == 5
    assert [line for line, _ in LIBRARY_EXAMPLES][0] == "lt.finite_n_bound(2.0, 4)"


@pytest.mark.parametrize("line, shown", CLI_EXAMPLES, ids=[line for line, _ in CLI_EXAMPLES])
def test_cli_example(line, shown):
    out = io.StringIO()
    with contextlib.redirect_stdout(out):
        code = cli.main(shlex.split(line)[1:])
    assert (code, out.getvalue()) == (0, shown + "\n")


@pytest.mark.parametrize("line, shown", LIBRARY_EXAMPLES, ids=[line for line, _ in LIBRARY_EXAMPLES])
def test_library_example(line, shown):
    assert repr(eval(line, {"lt": lt})) == shown.split(" -- ")[0]
