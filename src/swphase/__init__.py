"""Stratonovich-Weyl kernels, Wigner functions, and postulate verification for N-level systems.

The public names are those of each module's `__all__`, re-exported here.
"""
from . import algebra, config, errors, group, kernel, states, wigner
from .algebra import *  # noqa: F403
from .config import *  # noqa: F403
from .errors import *  # noqa: F403
from .group import *  # noqa: F403
from .kernel import *  # noqa: F403
from .states import *  # noqa: F403
from .wigner import *  # noqa: F403

__version__ = "0.1.0"

__all__ = [name for module in (config, errors, algebra, states, kernel, group, wigner) for name in module.__all__]
