"""Spectra and dynamics of quantum models with a polynomially deformed sl(2).

The deformation is carried by a structure function psi: a polynomial whose
values on an integer ladder give the squared matrix elements of the raising
operator.  Models (such as three-boson frequency conversion) decompose into
finite blocks labeled by integrals of motion; each block gets an exact
tridiagonal spectrum, an equidistant su(2) reference, a coherent-state
variational approximation, and spectral time evolution.
"""

from . import algebra, dynamics, reference, solver, three_boson, variational
from .algebra import *  # noqa: F401,F403
from .dynamics import *  # noqa: F401,F403
from .reference import *  # noqa: F401,F403
from .solver import *  # noqa: F401,F403
from .three_boson import *  # noqa: F401,F403
from .variational import *  # noqa: F401,F403

# each module's __all__ is its public API; the package re-exports all of them
__all__ = sorted(
    {
        name
        for module in (algebra, dynamics, reference, solver, three_boson, variational)
        for name in module.__all__
    }
)

__version__ = "0.1.0"
