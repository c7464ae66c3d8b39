"""Teleportation of a general mixed qubit over a Werner-like resource.

Density-matrix simulation of the full protocol, the closed-form fidelity
and its extremes (assured, sphere-averaged, maximal), and numeric
cross-checks for every closed form.
"""

from . import analytics, density, protocol, states, verify
from .analytics import *
from .density import *
from .protocol import *
from .states import *
from .verify import *

__version__ = "0.1.0"

__all__ = analytics.__all__ + density.__all__ + protocol.__all__ + states.__all__ + verify.__all__
