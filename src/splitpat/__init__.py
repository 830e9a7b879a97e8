"""Split-pattern avoidance for permutations.

Decides containment and avoidance of the split patterns 3|12 and 23|1 with
respect to a position, counts the avoidance classes exactly by brute force
and by closed form, and verifies the generating-function identities relating
the counts to modified Bessel series, coefficient by coefficient over exact
rationals.  The public names are each module's ``__all__``, re-exported
here.  ``perms`` runs on import; ``counting``, ``series`` and ``verify`` are
in ``sys.modules`` from the start but each runs on the first read of one of
its attributes (``importlib.util.LazyLoader``), and their re-exports are
looked up on use (PEP 562), so a command runs only the layers it calls.
"""

import sys
from importlib.util import LazyLoader, find_spec, module_from_spec

from . import perms
from .perms import *  # noqa: F403


def _lazy(name: str):
    spec = find_spec(f"{__name__}.{name}")
    spec.loader = LazyLoader(spec.loader)
    sys.modules[spec.name] = module = module_from_spec(spec)
    spec.loader.exec_module(module)
    return module


counting, series, verify = map(_lazy, ("counting", "series", "verify"))


def __getattr__(name: str):
    if name == "__all__":
        return [*perms.__all__, *counting.__all__, *series.__all__]
    for module in (counting, series):
        if name in module.__all__:
            return getattr(module, name)
    raise AttributeError(f"module {__name__!r} has no attribute {name!r}")


def __dir__() -> list[str]:
    return sorted({*globals(), *__getattr__("__all__")})


__version__ = "0.1.0"
