"""Deterministic simulator for hierarchical mobile-agent network management.

The package models a managed network as a weighted graph, grows a
hierarchy of domain managers through discovery events, and prices the
management traffic of three approaches: centralized request/response
polling, a single flat-bed agent sweeping every node, and the
hierarchical model where each domain manager polls locally and reports
upward. Costs are computed in exact rational arithmetic and reported in
bytes or rendered kilobytes.
"""

from . import costs, errors, hierarchy, report, simulation, topology
from .topology import *
from .hierarchy import *
from .costs import *
from .simulation import *
from .report import *
from .errors import *

__version__ = "1.0.0"

# Each module's __all__ is its public surface; the package exports their union.
__all__ = [
    "__version__",
    *topology.__all__,
    *hierarchy.__all__,
    *costs.__all__,
    *simulation.__all__,
    *report.__all__,
    *errors.__all__,
]
