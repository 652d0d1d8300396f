"""The committed mutant list stays applicable to today's source.

``scripts/mutants.py`` applies each entry of ``data/mutants.json`` to a copy
of the tree and runs the tests named to kill it; that takes minutes, so
tier-1 checks only that every entry still applies and names tests that
exist.
"""

from __future__ import annotations

import json
import pathlib
import re

import pytest

ROOT = pathlib.Path(__file__).resolve().parents[1]
MUTANTS = json.loads((ROOT / "tests" / "data" / "mutants.json").read_text(encoding="utf-8"))


def test_entries_are_complete_and_distinct():
    assert len(MUTANTS) >= 12
    assert len({m["id"] for m in MUTANTS}) == len(MUTANTS)
    for m in MUTANTS:
        assert set(m) == {"id", "file", "old", "new", "breaks", "killed_by"}, m["id"]
        assert m["old"] != m["new"] and m["breaks"] and m["killed_by"], m["id"]


@pytest.mark.parametrize("mutant", MUTANTS, ids=[m["id"] for m in MUTANTS])
def test_old_text_occurs_once(mutant):
    assert (ROOT / mutant["file"]).read_text(encoding="utf-8").count(mutant["old"]) == 1


@pytest.mark.parametrize("mutant", MUTANTS, ids=[m["id"] for m in MUTANTS])
def test_killers_exist(mutant):
    # a test id is a file, then classes and a function, each defined in it
    for test in mutant["killed_by"]:
        path, *names = test.split("::")
        text = (ROOT / path).read_text(encoding="utf-8")
        for name in names:
            assert re.search(rf"^\s*(def|class) {re.escape(name)}\b", text, re.MULTILINE), test
