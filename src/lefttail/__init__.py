"""Tail bounds for P(S <= 1) where S sums independent [0,1]-valued variables.

The package evaluates the two-branch finite-n bound, its n-free limit, the
classical Hoeffding and Bentkus comparators, and the solved exponential
form; exhibits the extremal (shifted) binomial distributions that make the
finite-n bound tight; and ships brute-force, grid, and Monte Carlo oracles
that verify the supporting inequalities numerically.

The closed forms (``bounds``, ``extremal``) need only :mod:`math` and are
imported with the package.  The array modules (``inequalities``,
``oracles``) import numpy, so they load on first use of one of their names
(PEP 562); ``import lefttail`` alone does not load numpy.
"""

import importlib

from lefttail import bounds, extremal
from lefttail.bounds import *  # noqa: F403
from lefttail.extremal import *  # noqa: F403

__version__ = "0.1.0"

_LAZY = ("inequalities", "oracles")


def _lazy_modules():
    return [importlib.import_module(f"{__name__}.{name}") for name in _LAZY]


def __getattr__(name):
    if name in _LAZY:
        return importlib.import_module(f"{__name__}.{name}")
    if name == "__all__":
        return [*bounds.__all__, *extremal.__all__, *(n for m in _lazy_modules() for n in m.__all__)]
    # tools probe modules for dunder names (__wrapped__, __test__, ...);
    # answering them must not load numpy
    if not name.startswith("__"):
        for module in _lazy_modules():
            if name in module.__all__:
                return getattr(module, name)
    raise AttributeError(f"module {__name__!r} has no attribute {name!r}")


def __dir__():
    return sorted({*globals(), *_LAZY, *__getattr__("__all__")})
