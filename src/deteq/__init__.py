"""Deterministic equivalents for deformed Gaussian matrices with variance profiles."""

# each module's __all__ declares its public names; the package re-exports them
from .profiles import *  # noqa: F403
from .dyson import *  # noqa: F403
from .density import *  # noqa: F403
from .dilation import *  # noqa: F403
from .outliers import *  # noqa: F403
from .sampling import *  # noqa: F403
from . import density, dilation, dyson, outliers, profiles, sampling

__version__ = "0.1.0"

__all__ = [name for module in (profiles, dyson, density, dilation, outliers, sampling)
           for name in module.__all__]
