"""Spectra and dynamics of quantum models with a polynomially deformed sl(2).

The deformation is carried by a structure function psi: a polynomial whose
values on an integer ladder give the squared matrix elements of the raising
operator.  Models (such as three-boson frequency conversion) decompose into
finite blocks labeled by integrals of motion; each block gets an exact
tridiagonal spectrum, an equidistant su(2) reference, a coherent-state
variational approximation, and spectral time evolution.

Submodules and their names load on first use (PEP 562), so a command
pays only for the modules it runs.
"""

import importlib

# each module's __all__ is its public API; the package re-exports all of
# them.  A name is looked up in this order, importing only the modules up
# to its own.
_MODULES = ("algebra", "solver", "three_boson", "variational", "reference", "dynamics")
# cli is named too, so that `from polysl2 import cli` loads cli alone
_SUBMODULES = (*_MODULES, "cli")

__version__ = "0.1.0"


def __getattr__(name: str):
    """A submodule, __all__ or an exported name, loaded on first use."""
    if name in _SUBMODULES:
        return importlib.import_module(f"{__name__}.{name}")
    if name == "__all__":
        value = sorted({attr for m in _MODULES for attr in __getattr__(m).__all__})
    else:
        home = next((m for m in _MODULES if name in __getattr__(m).__all__), None)
        if home is None:
            raise AttributeError(f"module {__name__!r} has no attribute {name!r}")
        value = getattr(__getattr__(home), name)
    globals()[name] = value
    return value


def __dir__():
    return sorted({*globals(), *_SUBMODULES, *__getattr__("__all__")})
