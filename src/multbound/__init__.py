"""Multiplicity bound verification for Artinian Hilbert functions.

Builds the lex-ideal Betti diagram for a Hilbert function, minimizes it by
consecutive cancellation, checks the multiplicity bounds on the resulting
shifts, filters non-realizable violating diagrams, and cross-checks against
an exact Koszul-homology Betti engine for monomial ideals.

Each module's __all__ lists its public names; the package exports their union.
"""

from . import betti, errors, hilbert, koszul, monomial, scanner, verdict
from .betti import *
from .errors import *
from .hilbert import *
from .koszul import *
from .monomial import *
from .scanner import *
from .verdict import *

__version__ = "0.1.0"

__all__ = sorted(
    name
    for module in (betti, errors, hilbert, koszul, monomial, scanner, verdict)
    for name in module.__all__
)
