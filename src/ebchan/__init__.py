"""Entanglement breaking channels in Holevo form.

A channel here is a finite list of pairs (F_k, R_k): a POVM of effects and
the density matrices they steer to.  The induced column-stochastic matrix
S = (tr(F_i R_j)) shares its nonzero spectrum with the channel's linear
action, and primitivity of the channel reduces to primitivity of S plus
invertibility of the summed states.  This package builds such channels,
computes both representations, and decides and quantifies primitivity on
each side, with explicit witnesses for every negative verdict.
"""

from . import (channel, checks, errors, linalg, primitivity, sampling, serialization,
               stochastic)
from .channel import *
from .checks import *
from .errors import *
from .linalg import *
from .primitivity import *
from .sampling import *
from .serialization import *
from .stochastic import *

__version__ = "0.1.0"

__all__ = [name for module in (channel, checks, errors, linalg, primitivity, sampling,
                               serialization, stochastic)
           for name in module.__all__]
