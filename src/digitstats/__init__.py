"""Exact digit statistics of s-ary expansions and digit-stream constructions.

The package computes digit frequencies and digit means with exact
rational arithmetic, expands rationals into eventually periodic digit
strings, builds streams with prescribed digit statistics (including a
ternary stream whose digit mean converges while its digit-0 frequency
oscillates, and one whose mean has no limit at all), and verifies the
uniform-digit behaviour of random streams with a reproducible Monte
Carlo harness.
"""

from . import construct, core, errors, rationals, simulate, stats
from .construct import *
from .core import *
from .errors import *
from .rationals import *
from .simulate import *
from .stats import *

__version__ = "0.1.0"

__all__ = [
    "__version__",
    *errors.__all__,
    *rationals.__all__,
    *core.__all__,
    *stats.__all__,
    *construct.__all__,
    *simulate.__all__,
]
