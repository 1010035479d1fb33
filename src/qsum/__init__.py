"""Quantum summation (amplitude estimation): exact gate-level simulation,
the closed-form outcome law, and exhaustive verification of its worst- and
average-case probabilistic error bounds.

Each public name is declared once, in its module's `__all__`; the package
re-exports those lists."""

from . import boolfn, bounds, closedform, simulator
from .boolfn import *  # noqa: F401,F403
from .bounds import *  # noqa: F401,F403
from .closedform import *  # noqa: F401,F403
from .simulator import *  # noqa: F401,F403

__version__ = "0.1.0"

__all__ = [*boolfn.__all__, *bounds.__all__, *closedform.__all__, *simulator.__all__,
           "__version__"]
