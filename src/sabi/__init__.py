"""Spectral simulator for Born-Infeld / Maxwell electromagnetism, its
pressureless-MHD high-field limit, and Euler vorticity, with stochastic Lie
transport by divergence-free correlation fields."""

from .errors import ConfigError, ConstraintError, NumericalError, SabiError
from .grid import GridSpec

__version__ = "0.1.0"

__all__ = [
    "ConfigError",
    "ConstraintError",
    "NumericalError",
    "SabiError",
    "GridSpec",
    "load_config",
    "run_ensemble",
    "__version__",
]


def __getattr__(name):
    # deferred imports keep `import sabi` light when only the grid is used
    if name == "load_config":
        from .config import load_config

        return load_config
    if name == "run_ensemble":
        from .runner import run_ensemble

        return run_ensemble
    raise AttributeError(f"module {__name__!r} has no attribute {name!r}")
