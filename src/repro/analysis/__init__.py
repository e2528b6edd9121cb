"""Reporting utilities and the paper's numbers with their budgets."""

from . import paper_data
from .paper_data import (
    CPU_BASELINE_CORES,
    CPU_BASELINE_TIME_S,
    FIG6_GPU_COUNTS,
    PAPER_SCALARS,
    TABLE1,
    TABLE1_GPU_COUNTS,
    TABLE2,
    WEAK_SCALING_ATOMS,
)
from .reporting import format_table

__all__ = [
    "paper_data",
    "CPU_BASELINE_CORES",
    "CPU_BASELINE_TIME_S",
    "FIG6_GPU_COUNTS",
    "PAPER_SCALARS",
    "TABLE1",
    "TABLE1_GPU_COUNTS",
    "TABLE2",
    "WEAK_SCALING_ATOMS",
    "format_table",
]
