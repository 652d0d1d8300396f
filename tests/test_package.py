"""The package namespace re-exports each module's public names, and the
closed-form paths (the package import and the numpy-free subcommands) load
neither numpy nor ``dataclasses``."""

from __future__ import annotations

import json
import subprocess
import sys

import lefttail
from lefttail import bounds, extremal, inequalities, oracles
from lefttail.bounds import METHODS


def fresh(code: str) -> object:
    """Run ``code`` in a new interpreter and decode the JSON it prints last."""
    proc = subprocess.run([sys.executable, "-c", code], capture_output=True, text=True, check=True)
    return json.loads(proc.stdout.strip().split("\n")[-1])


def test_all_is_the_union_of_the_module_lists():
    modules = (bounds, extremal, inequalities, oracles)
    assert sorted(lefttail.__all__) == sorted(set().union(*(m.__all__ for m in modules)))
    for name in lefttail.__all__:
        assert getattr(lefttail, name) is not None


def test_star_import_gives_exactly_all():
    namespace: dict = {}
    exec("from lefttail import *", namespace)
    del namespace["__builtins__"]
    assert sorted(namespace) == sorted(lefttail.__all__)
    assert namespace["maximize_bernoulli_tail"] is oracles.maximize_bernoulli_tail


def test_dir_lists_every_name_and_module():
    listed = dir(lefttail)
    assert set(lefttail.__all__) <= set(listed)
    assert {"bounds", "extremal", "inequalities", "oracles", "__version__"} <= set(listed)


def test_unknown_name_raises_attribute_error():
    assert not hasattr(lefttail, "no_such_name")


def test_bare_import_loads_no_numpy_until_an_array_module_is_used():
    seen = fresh(
        """
import json, sys
import lefttail, lefttail.cli
assert lefttail.CLOSED_FORM_TOL == 1e-12
before = "numpy" in sys.modules
modules = [lefttail.oracles.__name__, lefttail.inequalities.__name__]
search = lefttail.maximize_bernoulli_tail.__module__
print(json.dumps([before, modules, search, "numpy" in sys.modules]))
"""
    )
    assert seen == [False, ["lefttail.oracles", "lefttail.inequalities"], "lefttail.oracles", True]


def test_closed_form_subcommands_load_no_numpy():
    calls = [["bound", "--lambda", "2.5", "--method", m, "--n", "4"] for m in METHODS]
    calls += [
        ["compare", "--lambda-min", "0", "--lambda-max", "4", "--step", "0.5", "--n", "4"],
        ["compare", "--lambda-min", "0", "--lambda-max", "30", "--step", "0.5", "--n", "1000000", "--raw"],
        ["solve-r", "--tol", "1e-10"],
        ["verify", "tightness", "--lambda", "2.5", "--n", "4"],
    ]
    # importing dataclasses costs 7-10 ms per CLI child, which is why the
    # closed-form results are named tuples; a module that a bare
    # interpreter already holds is not counted
    bare = fresh("import contextlib, io, json, sys; print(json.dumps(sorted(sys.modules)))")
    heavy = sorted({"numpy", "dataclasses"} - set(bare))
    assert "numpy" in heavy
    seen = fresh(
        f"""
import contextlib, io, json, sys
from lefttail.cli import main
loaded = [[m for m in {heavy!r} if m in sys.modules]]
codes = []
for argv in {calls!r}:
    with contextlib.redirect_stdout(io.StringIO()):
        codes.append(main(argv))
    loaded.append([m for m in {heavy!r} if m in sys.modules])
print(json.dumps([codes, loaded]))
"""
    )
    assert seen == [[0] * len(calls), [[]] * (len(calls) + 1)]

