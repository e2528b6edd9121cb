"""rt-TDDFT propagators: PT-CN (the paper's scheme) and baselines."""

from .base import DivergedStepError, Propagator, StepStatistics
from .crank_nicolson import CrankNicolsonPropagator
from .etrs import ETRSPropagator
from .pt_cn import PTCNPropagator
from .rk4 import RK4Propagator

__all__ = [
    "DivergedStepError",
    "Propagator",
    "StepStatistics",
    "CrankNicolsonPropagator",
    "ETRSPropagator",
    "PTCNPropagator",
    "RK4Propagator",
]
