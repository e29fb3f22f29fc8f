"""monosee: a Galerkin simulation lab for monotone stochastic evolution equations.

Variational-triple discretizations of nonlinear dissipative SPDEs (stochastic
porous-medium and reaction-diffusion equations among them), drift-implicit
resolvent stepping, Yosida regularization, backward equations by regression
Monte Carlo, functional/Volterra Picard iteration, and the Bihari comparison
bounds that certify uniqueness and convergence.
"""

__version__ = "0.1.0"

from .errors import (
    ConfigError,
    MonoseeError,
    NonconvergenceError,
    RegressionError,
)

__all__ = [
    "ConfigError",
    "MonoseeError",
    "NonconvergenceError",
    "RegressionError",
    "__version__",
]
