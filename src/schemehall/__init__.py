"""Hall subsets of solvable association schemes.

The package validates association schemes and finite hypergroups,
enumerates their closed subsets, builds quotients and homomorphisms,
decides solvability, and computes Hall subsets for a set of primes:
existence, mutual conjugacy, and extension of closed subsets, each
produced constructively through the thin quotient group and re-checked
against exhaustive searches.
"""
# Each submodule's __all__ is the one list of the names it exports; the
# package surface is their union.  `from .quotient import *` rebinds the
# name `quotient` to the function, so the lists are read from sys.modules.
from .arith import *  # noqa: F401,F403
from .errors import *  # noqa: F401,F403
from .formats import *  # noqa: F401,F403
from .catalogue import *  # noqa: F401,F403
from .groups import *  # noqa: F401,F403
from .hall import *  # noqa: F401,F403
from .hypergroup import *  # noqa: F401,F403
from .quotient import *  # noqa: F401,F403
from .report import *  # noqa: F401,F403
from .scheme import *  # noqa: F401,F403
from .solvability import *  # noqa: F401,F403

__version__ = "0.1.0"

__all__ = list(dict.fromkeys([
    "__version__",
    *(
        name
        for module in (
            "arith", "errors", "formats", "catalogue", "groups", "hall",
            "hypergroup", "quotient", "report", "scheme", "solvability",
        )
        for name in __import__("sys").modules[f"{__name__}.{module}"].__all__
    ),
]))
