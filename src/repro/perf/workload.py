"""Problem-size description of the paper's silicon workloads.

Maps an atom count to the quantities that drive cost: number of occupied
wavefunctions (``N_e = 2 N_atom`` for 4-valence-electron silicon with doubly
occupied bands), number of plane-wave grid points per wavefunction (``N_G``,
648 000 for 1536 atoms at the paper's 10 Ha cutoff), the density grid, the
sizes of the density and overlap matrix the collectives move and the per-rank
band counts for a given GPU count.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from ..pw.structures import paper_silicon_series

__all__ = ["SiliconWorkload"]

#: Wavefunction grid points per conventional 8-atom cell at the paper's cutoff
#: (60 x 90 x 120 grid for the 4 x 6 x 8 supercell -> 15^3 per cell).
_GRID_POINTS_PER_CELL_EDGE = 15


@dataclass(frozen=True)
class SiliconWorkload:
    """Cost-relevant sizes of one silicon supercell calculation.

    Attributes
    ----------
    natoms:
        Number of silicon atoms.
    supercell:
        Replication ``(nx, ny, nz)`` of the 8-atom conventional cell.
    """

    natoms: int
    supercell: tuple[int, int, int]

    def __post_init__(self) -> None:
        nx, ny, nz = self.supercell
        if 8 * nx * ny * nz != self.natoms:
            raise ValueError(
                f"supercell {self.supercell} holds {8 * nx * ny * nz} atoms, not {self.natoms}"
            )

    # ------------------------------------------------------------------
    # Electronic structure sizes
    # ------------------------------------------------------------------
    @property
    def n_bands(self) -> int:
        """Occupied, doubly-degenerate wavefunctions (paper: N_e = 3072 for Si1536)."""
        return 2 * self.natoms

    @property
    def wavefunction_grid(self) -> tuple[int, int, int]:
        """Wavefunction FFT grid dimensions (15 points per cell edge)."""
        nx, ny, nz = self.supercell
        return (
            _GRID_POINTS_PER_CELL_EDGE * nx,
            _GRID_POINTS_PER_CELL_EDGE * ny,
            _GRID_POINTS_PER_CELL_EDGE * nz,
        )

    @property
    def n_planewaves(self) -> int:
        """Grid points per wavefunction, the paper's ``N_G``."""
        g = self.wavefunction_grid
        return g[0] * g[1] * g[2]

    @property
    def density_grid(self) -> tuple[int, int, int]:
        """Charge-density grid (twice the wavefunction resolution per axis)."""
        g = self.wavefunction_grid
        return (2 * g[0], 2 * g[1], 2 * g[2])

    @property
    def n_density_points(self) -> int:
        """Number of density grid points."""
        g = self.density_grid
        return g[0] * g[1] * g[2]

    # ------------------------------------------------------------------
    # Memory footprints
    # ------------------------------------------------------------------
    def density_bytes(self) -> int:
        """Size of the real-space charge density (double precision real)."""
        return self.n_density_points * 8

    def overlap_matrix_bytes(self) -> int:
        """Size of one ``N_e x N_e`` complex overlap matrix."""
        return self.n_bands * self.n_bands * 16

    def bands_per_rank(self, n_ranks: int) -> float:
        """Average bands per rank in the band-index distribution."""
        if n_ranks < 1:
            raise ValueError("n_ranks must be >= 1")
        if n_ranks > self.n_bands:
            raise ValueError(
                f"band-index parallelization limited to {self.n_bands} ranks for {self.natoms} atoms"
            )
        return self.n_bands / n_ranks

    def nonlocal_projector_bytes(self) -> int:
        """Memory of the real-space nonlocal projectors stored on every rank.

        The paper quotes 432 MB for Si1536; real-space projectors are sparse
        (non-zero only near their atom), so the sparsity 0.0034 is calibrated
        to reproduce that figure with 8 projectors per silicon atom.
        """
        dense = self.natoms * 8 * self.n_planewaves * 16
        return int(dense * 0.0034)

    # ------------------------------------------------------------------
    @classmethod
    def from_atom_count(cls, natoms: int) -> "SiliconWorkload":
        """Build the workload for one of the paper's systems (or any 8n atom count)."""
        series = paper_silicon_series()
        if natoms in series:
            return cls(natoms, series[natoms])
        if natoms % 8 != 0:
            raise ValueError("silicon supercells must contain a multiple of 8 atoms")
        cells = natoms // 8
        # factor into a roughly cubic supercell
        nx = int(round(cells ** (1.0 / 3.0)))
        nx = max(1, nx)
        while cells % nx != 0:
            nx -= 1
        remaining = cells // nx
        ny = int(round(np.sqrt(remaining)))
        ny = max(1, ny)
        while remaining % ny != 0:
            ny -= 1
        nz = remaining // ny
        return cls(natoms, (nx, ny, nz))
