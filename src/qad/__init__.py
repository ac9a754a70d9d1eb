"""qad: quantification of asymmetric dependence.

Estimates the directional dependence q(X, Y) and q(Y, X) of bivariate samples
through empirical checkerboard copulas and conditional-distribution metrics,
with permutation-based significance, conditional prediction tables, pairwise
dependence matrices with influence/network analysis, and a simulation harness
with closed-form ground truths.

The package re-exports each submodule's ``__all__`` and nothing else: a name
becomes public by adding it to its module's ``__all__``.
"""

from . import copula, errors, estimator, pairwise, prediction, simulate, tables
from .copula import *  # noqa: F403
from .errors import *  # noqa: F403
from .estimator import *  # noqa: F403
from .pairwise import *  # noqa: F403
from .prediction import *  # noqa: F403
from .simulate import *  # noqa: F403
from .tables import *  # noqa: F403

__version__ = "0.1.0"

__all__ = [
    name
    for module in (copula, estimator, prediction, pairwise, simulate, tables, errors)
    for name in module.__all__
]
