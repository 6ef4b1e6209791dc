"""Exact n-point correlation functions on integrable modules over the
infinite-dimensional Lie algebras of types A, B, C, D, with q-dimension
formulas, classical-group dimensions, and a brute-force fermionic
Fock-space oracle."""

__version__ = "1.0.0"

from .combinat import FrobeniusCoords, ModuleLabel, Partition
from .correlators import CorrelatorRequest, correlator, qdim
from .fock_oracle import FockState, OpSpec, SectorSpec, trace
from .qseries import LaurentRing, QSeries, RatFuncRing, RationalRing

__all__ = [
    "CorrelatorRequest", "FockState", "FrobeniusCoords", "LaurentRing",
    "ModuleLabel", "OpSpec", "Partition", "QSeries", "RatFuncRing",
    "RationalRing", "SectorSpec", "correlator", "qdim", "trace",
    "__version__",
]
