"""Finite-dimensional quantum probability engine.

Eventualities are Hilbert subspaces; observables are orthogonal channel
families; states are unit-trace positive hermitian operators. On top of
the probability calculus (joint tables, conditioning, collapse, Luder
decoherence, composite lifting and reduction) sit observer-weighting
schemes and lifetime distributions. Scenario files and shipped presets
feed the same machinery through the qprob command line tool.

Each library module declares its exports in its own `__all__`; the
package re-exports exactly those names, so a name is declared once.
"""

from . import engine, errors, hilbert, lattice, observables, scenario, weighting
from .engine import *
from .errors import *
from .hilbert import *
from .lattice import *
from .observables import *
from .scenario import *
from .weighting import *

__version__ = "0.1.0"

__all__ = ["__version__", *hilbert.__all__, *lattice.__all__, *observables.__all__, *engine.__all__,
           *weighting.__all__, *scenario.__all__, *errors.__all__]
