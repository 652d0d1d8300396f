"""The package namespace re-exports each module's public names."""

from __future__ import annotations

import lefttail
from lefttail import bounds, extremal, inequalities, oracles


def test_all_is_the_union_of_the_module_lists():
    modules = (bounds, extremal, inequalities, oracles)
    assert sorted(lefttail.__all__) == sorted(set().union(*(m.__all__ for m in modules)))
    for name in lefttail.__all__:
        assert getattr(lefttail, name) is not None
