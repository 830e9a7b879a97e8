"""Split-pattern avoidance for permutations.

Decides containment and avoidance of the split patterns 3|12 and 23|1 with
respect to a position, counts the avoidance classes exactly by brute force
and by closed form, and verifies the generating-function identities relating
the counts to modified Bessel series, coefficient by coefficient over exact
rationals.  The public names are each module's ``__all__``, re-exported
here.
"""

from . import counting, perms, series
from .perms import *  # noqa: F403
from .counting import *  # noqa: F403
from .series import *  # noqa: F403

__all__ = [*perms.__all__, *counting.__all__, *series.__all__]

__version__ = "0.1.0"
