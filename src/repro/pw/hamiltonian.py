"""The time-dependent Kohn–Sham Hamiltonian ``H(t, P(t))`` (Eq. 2 of the paper).

``H = -1/2 Laplacian + V_ext(t) + V_Hxc[P] + V_X[P]`` where

* the kinetic term is diagonal in reciprocal space,
* ``V_ext`` contains the local and nonlocal pseudopotentials plus the
  time-dependent external (laser) field,
* ``V_Hxc`` is the Hartree plus semi-local exchange-correlation potential, a
  local multiplicative potential depending on the density, and
* ``V_X`` is the (screened) Fock exchange integral operator depending on the
  full density matrix.

The class below assembles these pieces. The three operations the propagators,
the trajectory records and the ground-state solver need have one body each,
the stacked kernels at the end of this module: :func:`update_potentials_many`
(recompute ``V_Hxc`` and the exchange orbitals, Alg. 1 line 5),
:func:`apply_many` (``H Psi``, the kernel whose cost dominates the paper's
runtime breakdown: kinetic, local FFT, nonlocal, and the Fock pair loop of
Alg. 2) and :func:`energies_many` (the total-energy breakdown a trajectory
records). A lockstep group calls them on a stack of jobs;
:meth:`Hamiltonian.update_potential`, :meth:`Hamiltonian.apply` and
:meth:`Hamiltonian.energy` are their width-1 calls.

Bit-identity contract
---------------------
The kernels must produce, per job, exactly the floats of the same job in a
stack of any other width — a stack of one included. That holds because only
three kinds of operation are batched across jobs:

* FFTs — pocketfft transforms every leading-axis slice independently, so a
  stacked transform equals J single-job transforms bit for bit;
* elementwise/broadcast arithmetic — each slice sees the same multiplier
  values in the same expression order at every width;
* sums over the trailing axes (the energy's kinetic sum and grid integrals) —
  each job's slice is contiguous and is reduced alone, in the same order at
  every width.

Everything GEMM-shaped (nonlocal projectors, exchange, subspace overlaps,
Anderson extrapolation, Cholesky) stays a per-job loop on per-job slices:
batching would change BLAS blocking and therefore the floats. Anderson mixing
is band-batched *inside* a job (one stacked solve over the job's bands, the
same call at every stack width) and never across jobs.
"""

from __future__ import annotations

from collections.abc import Sequence
from dataclasses import dataclass
from typing import Callable

import numpy as np

from .basis import Wavefunction
from .density import compute_density, compute_density_many
from .exchange import ExchangeOperator
from .grid import FFTGrid, PlaneWaveBasis
from .poisson import hartree_potential
from .pseudopotential import LocalPotentialBuilder, NonlocalPotential, ewald_energy
from .structures import Structure
from .xc import LDAFunctional

__all__ = [
    "Hamiltonian",
    "EnergyBreakdown",
    "HamiltonianCounters",
    "stack_coefficients",
    "apply_many",
    "update_potentials_many",
    "energies_many",
]


@dataclass
class EnergyBreakdown:
    """Decomposition of the total energy, all terms in Hartree."""

    kinetic: float = 0.0
    external: float = 0.0
    nonlocal_psp: float = 0.0
    hartree: float = 0.0
    xc: float = 0.0
    exact_exchange: float = 0.0
    ewald: float = 0.0
    laser: float = 0.0

    @property
    def total(self) -> float:
        """Sum of all contributions."""
        return (
            self.kinetic
            + self.external
            + self.nonlocal_psp
            + self.hartree
            + self.xc
            + self.exact_exchange
            + self.ewald
            + self.laser
        )


@dataclass
class HamiltonianCounters:
    """Counts of the expensive kernels, mirroring the paper's profiling.

    ``fock_applications`` counts *logical* applications — every ``H Psi`` with
    exchange, the quantity of the paper's Fig. 6 — whether the exchange
    operator computed it or served it from its per-orbital-set memo; the work
    actually done is in :class:`~repro.pw.exchange.ExchangeCounters`.
    ``apply_calls`` counts every ``H Psi``, with or without the exchange term:
    on a hybrid PT-CN run the difference of the two is the inner iterations
    that reused the exchange term of an earlier one.
    """

    apply_calls: int = 0
    fock_applications: int = 0
    potential_updates: int = 0


class Hamiltonian:
    """Plane-wave Kohn–Sham Hamiltonian with optional hybrid exchange.

    Parameters
    ----------
    basis:
        Plane-wave basis for the orbitals.
    structure:
        Atomic structure (species + positions) providing the pseudopotentials.
    hybrid_mixing:
        Fock exchange fraction ``alpha``; 0 disables hybrid exchange
        (semi-local functional), 0.25 is the HSE/PBE0 value used by the paper.
    screening_length:
        Screening parameter ``mu`` of the short-range exchange kernel; ``None``
        selects the bare (PBE0-style) kernel.
    external_field:
        Optional callable ``t -> ndarray(grid.shape)`` returning the external
        scalar potential of the laser at time ``t`` (length gauge), or ``None``.
    include_nonlocal:
        Whether to build the Kleinman–Bylander nonlocal projectors.
    """

    def __init__(
        self,
        basis: PlaneWaveBasis,
        structure: Structure,
        hybrid_mixing: float = 0.25,
        screening_length: float | None = 0.106,
        external_field: Callable[[float], np.ndarray] | None = None,
        include_nonlocal: bool = True,
    ):
        self.basis = basis
        self.grid: FFTGrid = basis.grid
        self.structure = structure
        self.hybrid_mixing = float(hybrid_mixing)
        self.external_field = external_field
        self.counters = HamiltonianCounters()

        species_list = structure.species_list
        positions_list = structure.positions_by_species

        self._local_builder = LocalPotentialBuilder(self.grid)
        self.v_ionic = self._local_builder.build(species_list, positions_list)

        if include_nonlocal:
            self.nonlocal_psp = NonlocalPotential(basis, species_list, positions_list)
        else:
            self.nonlocal_psp = NonlocalPotential(basis, [], [])

        self.xc = LDAFunctional(exchange_scale=max(0.0, 1.0 - self.hybrid_mixing))

        if self.hybrid_mixing > 0:
            self.exchange: ExchangeOperator | None = ExchangeOperator(
                basis,
                mixing_fraction=self.hybrid_mixing,
                screening_length=screening_length,
            )
        else:
            self.exchange = None

        self.kinetic_diagonal = basis.kinetic_energies.copy()

        # mutable state updated by update_potential()
        self.density: np.ndarray | None = None
        self.v_hartree = np.zeros(self.grid.shape)
        self.v_xc = np.zeros(self.grid.shape)
        self._xc_energy = 0.0
        self.time = 0.0
        self._v_external_t = np.zeros(self.grid.shape)
        self._v_local: np.ndarray | None = None

        self._ewald = ewald_energy(
            self.grid.cell,
            structure.positions,
            structure.valence_charges,
        )

    # ------------------------------------------------------------------
    # Cloning (batched multi-job stepping)
    # ------------------------------------------------------------------
    def clone(self) -> "Hamiltonian":
        """An independent Hamiltonian sharing every immutable ingredient.

        The expensive, structure-determined pieces — ionic potential,
        nonlocal projectors, kinetic diagonal, Ewald energy — are shared by
        reference; only the mutable SCF state (density, potentials, time,
        exchange orbitals) is fresh. This is what lets a batched group give
        every job its own time-dependent state without re-paying the
        structure setup per job.
        """
        twin = object.__new__(Hamiltonian)
        twin.basis = self.basis
        twin.grid = self.grid
        twin.structure = self.structure
        twin.hybrid_mixing = self.hybrid_mixing
        twin.external_field = self.external_field
        twin.counters = HamiltonianCounters()
        twin._local_builder = self._local_builder
        twin.v_ionic = self.v_ionic
        twin.nonlocal_psp = self.nonlocal_psp
        twin.xc = self.xc
        if self.exchange is not None:
            twin.exchange = ExchangeOperator(
                self.basis,
                mixing_fraction=self.exchange.mixing_fraction,
                screening_length=self.exchange.screening_length,
                kernel=self.exchange.kernel,
            )
        else:
            twin.exchange = None
        twin.kinetic_diagonal = self.kinetic_diagonal
        twin.density = None
        twin.v_hartree = np.zeros(self.grid.shape)
        twin.v_xc = np.zeros(self.grid.shape)
        twin._xc_energy = 0.0
        twin.time = 0.0
        twin._v_external_t = np.zeros(self.grid.shape)
        twin._v_local = None
        twin._ewald = self._ewald
        return twin

    @property
    def _kinetic_single(self) -> np.ndarray:
        """``float32`` kinetic diagonal for the complex64 tier (cached)."""
        cached = getattr(self, "_kinetic_f32", None)
        if cached is None:
            cached = self.kinetic_diagonal.astype(np.float32)
            self._kinetic_f32 = cached
        return cached

    # ------------------------------------------------------------------
    # State updates
    # ------------------------------------------------------------------
    @property
    def n_electrons(self) -> float:
        """Number of valence electrons of the structure."""
        return float(np.sum(self.structure.valence_charges))

    def set_time(self, time: float) -> None:
        """Set the simulation time, refreshing the external laser potential."""
        self.time = float(time)
        if self.external_field is not None:
            self._v_external_t = np.asarray(self.external_field(self.time), dtype=float)
            self._v_local = None
            if self._v_external_t.shape != self.grid.shape:
                raise ValueError(
                    "external_field must return an array matching the grid shape"
                )
        # without a field the zero potential from __init__/clone() is kept;
        # reallocating it every step would churn a grid-sized array per call

    def update_potential(
        self,
        wavefunction: Wavefunction,
        density: np.ndarray | None = None,
        update_exchange: bool = True,
    ) -> np.ndarray:
        """Recompute ``V_Hxc`` (and the exchange orbitals) from a wavefunction.

        This is Alg. 1 line 5 of the paper ("Update the potential and the
        Hamiltonian H_f"), the width-1 call of :func:`update_potentials_many`.
        Returns the density used; ``density`` may be passed precomputed.
        """
        densities = None if density is None else np.asarray(density)[None]
        return update_potentials_many([self], [wavefunction], densities, update_exchange=[update_exchange])[0]

    # ------------------------------------------------------------------
    # Operator application
    # ------------------------------------------------------------------
    @property
    def local_potential(self) -> np.ndarray:
        """Total local potential ``V_ion + V_H + V_xc + V_laser(t)`` on the grid.

        The assembled sum is cached between potential/field updates — the
        propagators read it once per Hamiltonian application, which would
        otherwise re-add the four grids on every access.
        """
        v = self._v_local
        if v is None:
            v = self.v_ionic + self.v_hartree + self.v_xc + self._v_external_t
            self._v_local = v
        return v

    def apply(self, coefficients: np.ndarray, include_exchange: bool = True) -> np.ndarray:
        """Evaluate ``H Psi`` for a block of plane-wave coefficients.

        The width-1 call of :func:`apply_many`. ``coefficients`` is an
        ``(nbands, npw)`` block or one ``(npw,)`` band; ``include_exchange=False``
        skips the Fock exchange term (the ground state's semi-local first
        round).
        """
        coefficients = np.asarray(coefficients)
        if coefficients.dtype != np.complex64:  # complex64 tier stays single precision
            coefficients = np.asarray(coefficients, dtype=np.complex128)
        if coefficients.ndim == 1:
            return apply_many([self], coefficients[None, None], [include_exchange])[0, 0]
        return apply_many([self], coefficients[None], [include_exchange])[0]

    # ------------------------------------------------------------------
    # Energies
    # ------------------------------------------------------------------
    def energy(self, wavefunction: Wavefunction) -> EnergyBreakdown:
        """Total energy breakdown for a wavefunction set: the width-1 call of
        :func:`energies_many`.

        The density-dependent terms are evaluated from the density of
        ``wavefunction`` (not from the density the Hamiltonian holds, which
        after an SCF is the mixed one), so the method serves both the ground
        state and a propagated state. Side-effect free: the exchange orbitals
        and the potentials are left as they were.
        """
        density = compute_density(wavefunction, self.grid)
        v_hartree = hartree_potential(self.grid, density)
        xc_energy = self.xc.evaluate(density, self.grid.volume_element).energy
        return energies_many([self], [wavefunction], density[None], v_hartree[None], [xc_energy])[0]

    def total_energy(self, wavefunction: Wavefunction) -> float:
        """Total energy (Hartree) for a wavefunction set."""
        return self.energy(wavefunction).total

    # ------------------------------------------------------------------
    def preconditioner(self) -> np.ndarray:
        """Simple Tetter–Payne–Allan-style diagonal preconditioner.

        Returns a positive array of shape ``(npw,)`` approximating
        ``1 / (|G|^2/2 + 1)``; used by the iterative eigensolver.
        """
        return 1.0 / (self.kinetic_diagonal + 1.0)


# ----------------------------------------------------------------------
# The stacked kernels (one body each; see the bit-identity contract above)
# ----------------------------------------------------------------------
def _per_job(flag: bool | Sequence[bool], njobs: int) -> Sequence[bool]:
    """One flag for the whole stack, or the per-job flags as given."""
    return [flag] * njobs if isinstance(flag, bool) else flag


def stack_coefficients(wavefunctions) -> np.ndarray:
    """Stack per-job coefficient blocks into a ``(njobs, nbands, npw)`` array."""
    return np.stack([wf.coefficients for wf in wavefunctions])


def apply_many(
    hamiltonians: list[Hamiltonian],
    coeff_stack: np.ndarray,
    include_exchange: bool | Sequence[bool] = True,
    psi_real: np.ndarray | None = None,
) -> np.ndarray:
    """``H_j Psi_j`` for every job of a stack, FFTs batched across jobs.

    Per job: kinetic, local, nonlocal, exchange, in that order, with the two
    orbital transforms of the local term executed once for the whole stack,
    and one ``apply_calls`` (plus one ``fock_applications`` with exchange).
    ``psi_real`` may be passed when the caller already transformed
    ``coeff_stack`` to real space (the stage density needs the very same
    array): the forward transform is then skipped entirely.
    ``include_exchange`` may be one flag per job: the jobs of a lockstep stack
    need not all apply the Fock operator in the same call.
    """
    coeff_stack = np.asarray(coeff_stack)
    basis = hamiltonians[0].basis
    kinetic = hamiltonians[0].kinetic_diagonal
    potentials = [ham.local_potential for ham in hamiltonians]
    # a stack of one is a view of its potential; np.stack would copy the grid
    v_stack = potentials[0][None] if len(potentials) == 1 else np.stack(potentials)
    if coeff_stack.dtype == np.complex64:
        # float64 multipliers would promote the whole product back to double
        kinetic = hamiltonians[0]._kinetic_single
        v_stack = v_stack.astype(np.float32)
    for ham in hamiltonians:
        ham.counters.apply_calls += 1

    out = coeff_stack * kinetic[None, None, :]
    if psi_real is None:
        psi_real = basis.to_real_space(coeff_stack)
    # the product is a temporary, so the transform may scratch it
    out += basis.from_real_space(v_stack[:, None, ...] * psi_real, overwrite=True)

    include = _per_job(include_exchange, len(hamiltonians))
    for j, ham in enumerate(hamiltonians):
        out[j] += ham.nonlocal_psp.apply(coeff_stack[j])
        if include[j] and ham.exchange is not None:
            out[j] += ham.exchange.apply(coeff_stack[j])
            ham.counters.fock_applications += 1
    return out


def update_potentials_many(
    hamiltonians: list[Hamiltonian],
    wavefunctions: "list[Wavefunction | None]",
    densities: np.ndarray | None = None,
    psi_real: np.ndarray | None = None,
    update_exchange: bool | Sequence[bool] = True,
) -> np.ndarray:
    """Refresh every job's ``V_Hxc`` with the density/Hartree FFTs batched.

    ``densities`` may be passed precomputed (the PT-CN inner loop reuses the
    densities it computed for the convergence check); otherwise they
    are evaluated for the whole stack in one transform — or with zero
    transforms when ``psi_real`` carries the already-transformed orbitals.
    The Hartree solve and the xc evaluation run batched over the stack (both
    produce bit-identical slices); only the exchange-orbital update remains
    per-job, and takes its job's slice of ``psi_real`` instead of
    transforming the coefficients again. ``update_exchange`` may be one flag
    per job; a job that keeps its exchange orbitals and whose density is
    passed in needs no ``Wavefunction`` (its entry may be ``None``). Returns
    the stacked densities.
    """
    basis = hamiltonians[0].basis
    grid = basis.grid
    if densities is None:
        occupations = np.stack([wf.occupations for wf in wavefunctions])
        if psi_real is None:
            psi_real = basis.to_real_space(stack_coefficients(wavefunctions))
        densities = compute_density_many(basis, None, occupations, psi_real=psi_real)
    v_hartree = hartree_potential(grid, densities)
    xc = hamiltonians[0].xc
    if all(ham.xc is xc for ham in hamiltonians):
        xc_results = xc.evaluate_many(densities, grid.volume_element)
    else:  # heterogeneous functionals: each job's own
        xc_results = [ham.xc.evaluate(rho, grid.volume_element) for ham, rho in zip(hamiltonians, densities)]
    update = _per_job(update_exchange, len(hamiltonians))
    for j, ham in enumerate(hamiltonians):
        ham.density = densities[j]
        ham.v_hartree = v_hartree[j]
        ham.v_xc = xc_results[j].potential
        ham._xc_energy = xc_results[j].energy
        ham._v_local = None
        if ham.exchange is not None and update[j]:
            ham.exchange.set_orbitals(wavefunctions[j], psi_real=None if psi_real is None else psi_real[j])
        ham.counters.potential_updates += 1
    return densities


def energies_many(
    hamiltonians: list[Hamiltonian],
    wavefunctions: list[Wavefunction],
    densities: np.ndarray,
    v_hartree: np.ndarray,
    xc_energies: Sequence[float],
) -> list[EnergyBreakdown]:
    """Every job's :class:`EnergyBreakdown`, the grid integrals batched.

    ``densities[j]`` is the density of ``wavefunctions[j]``, and
    ``v_hartree[j]`` / ``xc_energies[j]`` the Hartree potential and xc energy
    of that density: a stepped group's Hamiltonians hold them already (see
    :func:`update_potentials_many`), :meth:`Hamiltonian.energy` computes them
    for its one job. The kinetic sum and the grid integrals run over the
    stack, each job reducing its own contiguous slice, so a job's energy does
    not depend on the width of its stack; the GEMM-shaped terms (nonlocal,
    exact exchange) stay per job.
    """
    grid = hamiltonians[0].grid
    coeff = stack_coefficients(wavefunctions)
    occ = np.stack([wf.occupations for wf in wavefunctions])
    kinetic = np.real(
        np.sum(occ[:, :, None] * (np.abs(coeff) ** 2) * hamiltonians[0].kinetic_diagonal, axis=(-2, -1))
    )
    hartree = 0.5 * np.real(grid.integrate(densities * v_hartree))
    external = np.real(grid.integrate(densities * np.stack([ham.v_ionic for ham in hamiltonians])))
    laser = np.real(grid.integrate(densities * np.stack([ham._v_external_t for ham in hamiltonians])))
    return [
        EnergyBreakdown(
            kinetic=float(kinetic[j]),
            external=float(external[j]),
            nonlocal_psp=ham.nonlocal_psp.energy(wf.coefficients, wf.occupations),
            hartree=float(hartree[j]),
            xc=float(xc_energies[j]),
            exact_exchange=ham.exchange.energy(wf) if ham.exchange is not None else 0.0,
            ewald=ham._ewald,
            laser=float(laser[j]),
        )
        for j, (ham, wf) in enumerate(zip(hamiltonians, wavefunctions))
    ]
