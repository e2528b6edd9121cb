"""The time-dependent Kohn–Sham Hamiltonian ``H(t, P(t))`` (Eq. 2 of the paper).

``H = -1/2 Laplacian + V_ext(t) + V_Hxc[P] + V_X[P]`` where

* the kinetic term is diagonal in reciprocal space,
* ``V_ext`` contains the local and nonlocal pseudopotentials plus the
  time-dependent external (laser) field,
* ``V_Hxc`` is the Hartree plus semi-local exchange-correlation potential, a
  local multiplicative potential depending on the density, and
* ``V_X`` is the (screened) Fock exchange integral operator depending on the
  full density matrix.

The class below assembles these pieces and exposes the two operations the
propagators need: :meth:`update_potential` (recompute ``V_Hxc`` and the
exchange orbitals from a wavefunction/density) and :meth:`apply` (evaluate
``H Psi`` for a coefficient block), which is the ``HΨ`` kernel whose cost
dominates the paper's runtime breakdown.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Callable

import numpy as np

from .basis import Wavefunction
from .density import compute_density
from .exchange import ExchangeOperator
from .grid import FFTGrid, PlaneWaveBasis
from .poisson import hartree_energy, hartree_potential
from .pseudopotential import (
    LocalPotentialBuilder,
    NonlocalPotential,
    PseudopotentialSpecies,
    ewald_energy,
)
from .structures import Structure
from .xc import LDAFunctional

__all__ = ["Hamiltonian", "EnergyBreakdown", "HamiltonianCounters"]


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

    def reset(self) -> None:
        """Zero all counters."""
        self.apply_calls = 0
        self.fock_applications = 0
        self.potential_updates = 0


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
        xc_functional: LDAFunctional | None = None,
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

        if xc_functional is None:
            xc_functional = LDAFunctional(exchange_scale=max(0.0, 1.0 - self.hybrid_mixing))
        self.xc = xc_functional

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

    @property
    def _local_single(self) -> np.ndarray:
        """``float32`` :attr:`local_potential` for the complex64 tier (cached)."""
        v_local = self.local_potential
        cached = getattr(self, "_v_local_f32", None)
        if cached is None or cached[0] is not v_local:
            cached = self._v_local_f32 = (v_local, v_local.astype(np.float32))
        return cached[1]

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
        v_hartree: np.ndarray | None = None,
        xc_result: "XCResult | None" = None,
        psi_real: np.ndarray | None = None,
    ) -> np.ndarray:
        """Recompute ``V_Hxc`` (and the exchange orbitals) from a wavefunction.

        This is Alg. 1 line 5 of the paper ("Update the potential and the
        Hamiltonian H_f"). Returns the density used. ``density``, ``v_hartree``
        and ``xc_result`` may be passed precomputed — the batched stepping
        engine evaluates all three for a whole job stack at once and hands
        each Hamiltonian its slice. ``psi_real`` may carry
        ``wavefunction.to_real_space()`` — the propagators transform each
        iterate once — for the density and the exchange orbitals to take.
        """
        if density is None:
            density = compute_density(wavefunction, self.grid, psi_real=psi_real)
        self.density = density
        self.v_hartree = hartree_potential(self.grid, density) if v_hartree is None else v_hartree
        if xc_result is None:
            xc_result = self.xc.evaluate(density, self.grid.volume_element)
        self.v_xc = xc_result.potential
        self._xc_energy = xc_result.energy
        self._v_local = None
        if self.exchange is not None and update_exchange:
            self.exchange.set_orbitals(wavefunction, psi_real=psi_real)
        self.counters.potential_updates += 1
        return density

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

    def apply(self, coefficients: np.ndarray, include_exchange: bool = True, psi_real=None) -> np.ndarray:
        """Evaluate ``H Psi`` for a block of plane-wave coefficients.

        Parameters
        ----------
        coefficients:
            ``(nbands, npw)`` complex array.
        include_exchange:
            If False, skip the Fock exchange term (used by semi-local
            preconditioners and the ground state's semi-local first round).
        psi_real:
            Optional precomputed ``basis.to_real_space(coefficients)``; the
            forward transform of the local term is then skipped.
        """
        coefficients = np.asarray(coefficients)
        if coefficients.dtype != np.complex64:  # complex64 tier stays single precision
            coefficients = np.asarray(coefficients, dtype=np.complex128)
        single = coefficients.ndim == 1
        if single:
            coefficients = coefficients[None, :]
        self.counters.apply_calls += 1

        kinetic = self.kinetic_diagonal
        v_local = self.local_potential
        if coefficients.dtype == np.complex64:
            # float64 multipliers would promote the whole product back to double
            kinetic = self._kinetic_single
            v_local = self._local_single

        # kinetic: diagonal in G space
        out = coefficients * kinetic[None, :]

        # local potential: FFT to real space, multiply, FFT back (the product
        # is a temporary, so the transform may scratch it)
        if psi_real is None:
            psi_real = self.basis.to_real_space(coefficients)
        out += self.basis.from_real_space(v_local[None, ...] * psi_real, overwrite=True)

        # nonlocal pseudopotential
        out += self.nonlocal_psp.apply(coefficients)

        # hybrid exchange
        if include_exchange and self.exchange is not None:
            out += self.exchange.apply(coefficients)
            self.counters.fock_applications += 1
        return out[0] if single else out

    def apply_to_wavefunction(self, wavefunction: Wavefunction) -> Wavefunction:
        """Convenience wrapper returning a :class:`Wavefunction` of ``H Psi``."""
        return Wavefunction(
            self.basis, self.apply(wavefunction.coefficients), wavefunction.occupations
        )

    # ------------------------------------------------------------------
    # Energies
    # ------------------------------------------------------------------
    def energy(
        self,
        wavefunction: Wavefunction,
        density: np.ndarray | None = None,
        v_hartree: np.ndarray | None = None,
        xc_result: "XCResult | None" = None,
    ) -> EnergyBreakdown:
        """Total energy breakdown for a wavefunction set.

        The density-dependent terms are evaluated from the density of
        ``wavefunction`` (not from the cached SCF density) so the method can be
        used both during SCF and for reporting along a trajectory. ``density``,
        ``v_hartree`` and ``xc_result`` may be passed precomputed — the batched
        record keeping reuses the end-of-step density and evaluates Hartree/xc
        for a whole job stack at once.
        """
        if density is None:
            density = compute_density(wavefunction, self.grid)
        occ = wavefunction.occupations
        coeff = wavefunction.coefficients

        kinetic = float(
            np.real(
                np.sum(occ[:, None] * (np.abs(coeff) ** 2) * self.kinetic_diagonal[None, :])
            )
        )
        v_h = hartree_potential(self.grid, density) if v_hartree is None else v_hartree
        e_hartree = hartree_energy(self.grid, density, v_h)
        e_external = float(np.real(self.grid.integrate(density * self.v_ionic)))
        e_laser = float(np.real(self.grid.integrate(density * self._v_external_t)))
        if xc_result is None:
            xc_result = self.xc.evaluate(density, self.grid.volume_element)
        e_nl = self.nonlocal_psp.energy(coeff, occ)
        e_x = self.exchange.energy(wavefunction) if self.exchange is not None else 0.0
        return EnergyBreakdown(
            kinetic=kinetic,
            external=e_external,
            nonlocal_psp=e_nl,
            hartree=e_hartree,
            xc=xc_result.energy,
            exact_exchange=e_x,
            ewald=self._ewald,
            laser=e_laser,
        )

    def total_energy(
        self,
        wavefunction: Wavefunction,
        density: np.ndarray | None = None,
        v_hartree: np.ndarray | None = None,
        xc_result: "XCResult | None" = None,
    ) -> float:
        """Total energy (Hartree) for a wavefunction set."""
        return self.energy(
            wavefunction, density=density, v_hartree=v_hartree, xc_result=xc_result
        ).total

    # ------------------------------------------------------------------
    def preconditioner(self, shift: float = 1.0) -> np.ndarray:
        """Simple Tetter–Payne–Allan-style diagonal preconditioner.

        Returns a positive array of shape ``(npw,)`` approximating
        ``1 / (|G|^2/2 + shift)``; used by the iterative eigensolver.
        """
        return 1.0 / (self.kinetic_diagonal + shift)
