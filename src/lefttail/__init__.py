"""Tail bounds for P(S <= 1) where S sums independent [0,1]-valued variables.

The package evaluates the two-branch finite-n bound, its n-free limit, the
classical Hoeffding and Bentkus comparators, and the solved exponential
form; exhibits the extremal (shifted) binomial distributions that make the
finite-n bound tight; and ships brute-force, grid, and Monte Carlo oracles
that verify the supporting inequalities numerically.
"""

from lefttail import bounds, extremal, inequalities, oracles
from lefttail.bounds import *  # noqa: F403
from lefttail.extremal import *  # noqa: F403
from lefttail.inequalities import *  # noqa: F403
from lefttail.oracles import *  # noqa: F403

__version__ = "0.1.0"

__all__ = [*bounds.__all__, *extremal.__all__, *inequalities.__all__, *oracles.__all__]
