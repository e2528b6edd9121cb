"""The test-side scatter and gather of the paper kernels' band-index layout.

The system never scatters a serial wavefunction onto ranks or gathers one
back (it runs only ``repro.parallel.comm``), so the two live here, with the
tests that check ``repro.parallel.paper_kernels`` against the serial bodies.
Neither moves data over the communicator, so neither is logged on it.
"""

from repro.parallel.paper_kernels import DistributedWavefunction, band_distribution, gspace_distribution
from repro.pw import Wavefunction


def scatter(wavefunction: Wavefunction, comm) -> DistributedWavefunction:
    """A serial wavefunction in the band-index distribution over ``comm``'s ranks."""
    bands = band_distribution(wavefunction.nbands, comm.size)
    return DistributedWavefunction(
        basis=wavefunction.basis,
        comm=comm,
        band_blocks=bands.split(wavefunction.coefficients, axis=0),
        bands=bands,
        gspace=gspace_distribution(wavefunction.npw, comm.size),
        occupations=wavefunction.occupations.copy(),
    )


def gather(distributed: DistributedWavefunction) -> Wavefunction:
    """The serial wavefunction a band-distributed one holds."""
    coefficients = distributed.bands.join(distributed.band_blocks, axis=0)
    return Wavefunction(distributed.basis, coefficients, distributed.occupations)
