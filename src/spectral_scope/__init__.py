"""Recover the observable eigenvalue spectrum of an unknown networked system
from a short scalar output sequence.

A single observed output of a linear multiagent network determines, through
the rank and kernel of a Hankel matrix of at most 2n samples, every
eigenvalue of the coupling matrix that the initial state and output weighting
actually excite. This package bundles the estimator pipeline (one entry
point, ``estimate_spectrum``, for discrete, sampled continuous and networked
records), simulators that produce such sequences, random graph generators
for test networks, and oracle machinery to verify estimates against dense
eigensolvers.

A public name is declared once, in the ``__all__`` of the module that defines
it; the package re-exports the ``__all__`` of its six core modules. The
command line (``cli``) and the JSON writer (``jsontext``) are not re-exported.
"""

from . import clustering, dynamics, estimator, graphs, oracle, scenarios
from .clustering import *
from .dynamics import *
from .estimator import *
from .graphs import *
from .oracle import *
from .scenarios import *

__version__ = "0.1.0"

__all__ = [
    *clustering.__all__,
    *dynamics.__all__,
    *estimator.__all__,
    *graphs.__all__,
    *oracle.__all__,
    *scenarios.__all__,
]
