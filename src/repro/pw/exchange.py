"""The Fock exchange operator (Eq. 3 / Alg. 2 of the paper), serial reference.

Applying the (possibly screened) Fock exchange operator to a block of orbitals,

.. math::

    (V_X[P] \\psi_j)(r) = -\\alpha \\sum_{i=1}^{N_e} \\psi_i(r)
        \\int K(r - r') \\psi_i^*(r') \\psi_j(r') \\, dr',

requires solving ``N_e^2`` Poisson-like equations, each one forward + one
backward FFT thanks to the convolutional kernel. In a CPU implementation this
takes ~95 % of the total rt-TDDFT run time (Section 1 and 3 of the paper),
which is exactly why the paper (a) reduces the number of applications with the
PT-CN integrator and (b) accelerates each application on GPUs.

Each pair once
--------------
Every propagator applies the operator to the very orbitals that define it
(``V_X[Psi] Psi``: Alg. 1 lines 1 and 6, every RK4 stage, the energy record).
Then the pair densities form a Hermitian block, ``rho_ji = conj(rho_ij)``, and
for a real kernel with ``K(-G) = K(G)`` so do the pair potentials,
``v_ji = conj(v_ij)``. The operator therefore solves only the ``i <= j``
triangle — ``N(N+1)/2`` Poisson equations instead of ``N^2`` — and scatters
each potential to both bands it serves,

.. math::

    out_j \\mathrel{+}= w_i \\psi_i v_{ij}, \\qquad
    out_i \\mathrel{+}= w_j \\psi_j \\overline{v_{ij}} \\quad (i < j),

reusing the real-space orbitals of :meth:`~ExchangeOperator.set_orbitals` as
the target transform. Which path runs is decided from the data alone:

* **triangle** — the target block equals the exchange orbitals *by value*
  (compared against a private copy, so neither object identity nor a later
  in-place write to the caller's array can change the answer) and the kernel
  is inversion-even (:attr:`~repro.pw.poisson.CoulombKernel.inversion_even`,
  checked once per kernel);
* **rectangular** — any other target (eigensolver blocks) or a
  kernel that is not even: every occupied ``i`` against every target ``j``.

Both run through one pair-block kernel that differs only in its index set;
pair densities are pushed through the cached FFT plan in large stacks on a
preallocated scratch buffer.

The self-application ``V_X[Psi] Psi`` is memoised per orbital set:
:meth:`~ExchangeOperator.set_orbitals` with value-equal coefficients and
occupations is a no-op, and the memo lives until a different set replaces it.
The energy record after a step and the first Hamiltonian application of the
next step therefore share one Fock application, and so do, in the PT gauge,
that step's first inner iterations: PT-CN starts on the memo once
:meth:`~ExchangeOperator.holds` confirms it is the term of the step's own
``Psi_n``. :class:`ExchangeCounters`
count the work actually done; the *logical* applications of Fig. 6 are
counted one level up (``HamiltonianCounters.fock_applications``,
``StepStatistics.hamiltonian_applications``) and do not change.

This module provides the serial reference implementation used by the physics
engine and as the ground truth for the distributed Alg. 2 implementation in
:mod:`repro.parallel.exchange_parallel`.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .basis import Wavefunction
from .grid import FFTGrid, PlaneWaveBasis
from .poisson import CoulombKernel, bare_coulomb_kernel, screened_exchange_kernel

__all__ = ["ExchangeOperator", "ExchangeCounters"]

#: size of the pair-density scratch one operator keeps: the most pair
#: densities sent through the FFT plan in one call (all 136 of Si8's triangle
#: fit; larger grids go through in several stacks)
_STACK_BYTES = 4 << 20


@dataclass
class ExchangeCounters:
    """Operation counters of a Fock exchange application.

    The counters mirror the quantities the paper reports — Poisson-like
    solves, FFTs (two per solve plus the transforms of the orbitals) — and
    count the work *done*: ``N (N+1)/2`` solves for a self-application on the
    triangle path, ``N_occupied * N_target`` on the rectangular one, nothing
    for an application served from the memo.
    """

    poisson_solves: int = 0
    ffts: int = 0
    applications: int = 0

    def reset(self) -> None:
        """Zero all counters."""
        self.poisson_solves = 0
        self.ffts = 0
        self.applications = 0


@dataclass
class _OrbitalSet:
    """The exchange orbitals an operator currently holds."""

    coefficients: np.ndarray  # private copy: what "the same orbitals" means
    occupations: np.ndarray
    real: np.ndarray  # (nbands, n1, n2, n3)
    self_applied: np.ndarray | None = None  # memo of V_X[Psi] Psi

    def holds(self, coefficients: np.ndarray, occupations: np.ndarray | None = None) -> bool:
        """Whether ``coefficients`` (and ``occupations``) equal this set by value."""
        own = self.coefficients
        if coefficients.dtype != own.dtype or not np.array_equal(coefficients, own):
            return False
        return occupations is None or np.array_equal(occupations, self.occupations)


def _triangle_rows(occupied: np.ndarray) -> list[tuple[int, int, int]]:
    """Rows ``(i, j0, j1)`` covering the pairs ``i <= j < n`` in which at
    least one orbital is occupied (a pair of two empty orbitals feeds no band)."""
    n = occupied.size
    rows = []
    for i in range(n):
        if occupied[i]:
            rows.append((i, i, n))
            continue
        partners = i + 1 + np.flatnonzero(occupied[i + 1 :])
        for run in np.split(partners, np.flatnonzero(np.diff(partners) > 1) + 1):
            if run.size:
                rows.append((i, int(run[0]), int(run[-1]) + 1))
    return rows


def _stacks(rows: list[tuple[int, int, int]], capacity: int):
    """Cut ``rows`` into pieces ``(i, j0, j1, offset)`` and group them into
    stacks of at most ``capacity`` pairs; yields ``(pieces, n_pairs)``."""
    pieces, used = [], 0
    for i, j0, j1 in rows:
        while j0 < j1:
            take = min(j1 - j0, capacity - used)
            pieces.append((i, j0, j0 + take, used))
            j0 += take
            used += take
            if used == capacity:
                yield pieces, used
                pieces, used = [], 0
    if pieces:
        yield pieces, used


class ExchangeOperator:
    """Screened or bare Fock exchange operator for a plane-wave basis.

    Parameters
    ----------
    basis:
        Plane-wave basis of the orbitals the operator acts on.
    mixing_fraction:
        The hybrid mixing fraction ``alpha`` (0.25 for HSE06/PBE0).
    screening_length:
        If given, use the short-range erfc-screened kernel with parameter
        ``mu`` (HSE-style); otherwise the bare Coulomb kernel.
    kernel:
        Optional explicit :class:`CoulombKernel`, overriding the two options
        above (used in tests).

    Notes
    -----
    The operator depends on the *exchange orbitals* ``{psi_i}`` that define the
    density matrix ``P``: call :meth:`set_orbitals` before :meth:`apply`. In
    the PT-CN inner SCF these are the iterate ``Psi_f`` of the last fresh
    iteration, ``Psi_n`` before the first (Alg. 1 line 5; iterations in
    between keep the operator and read :meth:`self_application`).
    """

    def __init__(
        self,
        basis: PlaneWaveBasis,
        mixing_fraction: float = 0.25,
        screening_length: float | None = None,
        kernel: CoulombKernel | None = None,
    ):
        if mixing_fraction < 0:
            raise ValueError("mixing_fraction must be non-negative")
        self.basis = basis
        self.grid: FFTGrid = basis.grid
        self.mixing_fraction = float(mixing_fraction)
        self.screening_length = screening_length
        if kernel is not None:
            self.kernel = kernel
        elif screening_length is not None:
            self.kernel = screened_exchange_kernel(self.grid, screening_length)
        else:
            self.kernel = bare_coulomb_kernel(self.grid)
        self.counters = ExchangeCounters()
        self._orbitals: _OrbitalSet | None = None
        self._scratch: np.ndarray | None = None

    # ------------------------------------------------------------------
    @property
    def has_orbitals(self) -> bool:
        """Whether exchange orbitals have been set."""
        return self._orbitals is not None

    def holds(self, coefficients: np.ndarray, occupations: np.ndarray | None = None) -> bool:
        """Whether the exchange orbitals are ``coefficients`` (and
        ``occupations``) by value: :meth:`self_application` is then
        ``V_X[Psi] Psi`` of exactly that block."""
        held = self._orbitals
        return held is not None and held.holds(coefficients, occupations)

    def set_orbitals(self, wavefunction: Wavefunction, psi_real: np.ndarray | None = None) -> None:
        """Set the orbitals defining the density matrix ``P`` of ``V_X[P]``.

        The orbitals are transformed to the real-space grid once and cached,
        mirroring the paper's strategy of keeping wavefunctions resident on the
        GPU during the Fock loop. Setting the orbitals the operator already
        holds (equal coefficients and occupations) does nothing, so their
        transform and memoised self-application survive. ``psi_real`` may
        carry ``wavefunction.to_real_space()`` when the caller already holds
        it (kept by reference, never written): no transform is done or counted.
        """
        if wavefunction.basis is not self.basis and wavefunction.basis.npw != self.basis.npw:
            raise ValueError("exchange orbitals must live on the operator's basis")
        if self.holds(wavefunction.coefficients, wavefunction.occupations):
            return
        self._orbitals = _OrbitalSet(
            coefficients=wavefunction.coefficients.copy(),
            occupations=wavefunction.occupations.copy(),
            real=wavefunction.to_real_space() if psi_real is None else psi_real,
        )
        if psi_real is None:
            self.counters.ffts += wavefunction.nbands

    # ------------------------------------------------------------------
    def apply(self, coefficients: np.ndarray) -> np.ndarray:
        """Apply ``V_X`` to a block of orbital coefficients.

        Parameters
        ----------
        coefficients:
            Array of shape ``(nbands, npw)`` (band-index storage, one row per
            band exactly as each MPI task holds ``N_e' = N_e / N_p`` bands in
            the paper).

        Returns
        -------
        ndarray
            ``V_X Psi`` in the same representation.
        """
        coefficients = np.asarray(coefficients)
        if coefficients.dtype != np.complex64:  # complex64 tier stays single precision
            coefficients = np.asarray(coefficients, dtype=np.complex128)
        if self.mixing_fraction == 0.0:
            return np.zeros_like(coefficients)
        orbitals = self._orbitals
        if orbitals is None:
            raise RuntimeError("call set_orbitals() before apply()")
        if coefficients.ndim == 1:
            coefficients = coefficients[None, :]

        if orbitals.holds(coefficients):
            return self.self_application().copy()
        target_real = self.basis.to_real_space(coefficients)  # (nb, n1, n2, n3)
        self.counters.ffts += target_real.shape[0]
        return self._pair_sum(orbitals, target_real)

    def self_application(self) -> np.ndarray:
        """``V_X[Psi] Psi`` of the orbitals held — the memo itself, computed
        on first use and to be read, not written. PT-CN's frozen-term
        iterations take their exchange term from here: it stays that of the
        last :meth:`set_orbitals` for as long as no other set replaces it
        (:meth:`holds` tells a caller whose term it is)."""
        orbitals = self._orbitals
        if orbitals is None:
            raise RuntimeError("call set_orbitals() before self_application()")
        if orbitals.self_applied is None:
            orbitals.self_applied = self._pair_sum(orbitals, None)
        return orbitals.self_applied

    def _pair_sum(self, orbitals: _OrbitalSet, target_real: np.ndarray | None) -> np.ndarray:
        """``V_X`` on ``target_real``, or on the orbitals themselves for ``None``.

        One kernel for both paths: pair densities ``conj(psi_i) * target_j``
        of an index set, stacked, convolved, scattered. The self-application
        on an even kernel takes the ``i <= j`` triangle and scatters every
        potential to both of its bands; everything else takes the rectangle
        of occupied ``i`` against all targets.
        """
        psi = orbitals.real
        # spin-degenerate occupations: the exchange sums over occupied *spin*
        # orbitals of one spin channel, so the weight per doubly occupied band
        # is occ/2 (cast to the tier's real dtype: float64 weights would
        # promote the complex64 tier's accumulation to double)
        weights = (orbitals.occupations / 2.0).astype(psi.real.dtype)
        occupied = weights != 0.0
        mirror = target_real is None and self.kernel.inversion_even
        if target_real is None:
            target_real = psi
        if mirror:
            rows = _triangle_rows(occupied)
        else:
            rows = [(int(i), 0, target_real.shape[0]) for i in np.flatnonzero(occupied)]

        conj_psi = np.conj(psi)
        weighted = weights[:, None, None, None] * psi
        conj_weighted = np.conj(weighted) if mirror else None
        out_real = np.zeros_like(target_real)
        scratch = self._pair_scratch(np.result_type(psi.dtype, target_real.dtype))
        for pieces, n_pairs in _stacks(rows, scratch.shape[0]):
            for i, j0, j1, offset in pieces:
                np.multiply(conj_psi[i], target_real[j0:j1], out=scratch[offset : offset + j1 - j0])
            potential = self.kernel.apply_to_density(scratch[:n_pairs], overwrite=True)
            self.counters.poisson_solves += n_pairs
            self.counters.ffts += 2 * n_pairs
            for i, j0, j1, offset in pieces:
                block = potential[offset : offset + j1 - j0]  # v_ij, j0 <= j < j1
                if mirror:
                    # out_i += sum_{j > i} w_j psi_j conj(v_ij); the diagonal
                    # pair is its own mirror and only scatters below
                    m = max(j0, i + 1)
                    if m < j1:
                        out_real[i] += np.conj(
                            np.einsum("j...,j...->...", conj_weighted[m:j1], block[m - j0 :])
                        )
                if occupied[i]:
                    block *= weighted[i]  # the potential stack is scratch
                    out_real[j0:j1] += block
        out_real *= -self.mixing_fraction
        self.counters.applications += 1
        self.counters.ffts += target_real.shape[0]
        return self.basis.from_real_space(out_real, overwrite=True)

    def _pair_scratch(self, dtype: np.dtype) -> np.ndarray:
        """The operator's pair-density buffer ``(stack, n1, n2, n3)``."""
        scratch = self._scratch
        if scratch is None or scratch.dtype != dtype:
            capacity = max(1, _STACK_BYTES // (self.grid.size * np.dtype(dtype).itemsize))
            scratch = self._scratch = np.empty((capacity,) + self.grid.shape, dtype=dtype)
        return scratch

    # ------------------------------------------------------------------
    def energy(self, wavefunction: Wavefunction) -> float:
        """Fock exchange energy ``-alpha/2 sum_ij f_i f_j /4 * (ij|K|ji)`` ...

        Evaluated as ``1/2 sum_j f_j <psi_j | V_X | psi_j>`` with the exchange
        orbitals taken from ``wavefunction`` itself (the standard expression
        for the exchange energy of a single determinant).
        """
        previous = self._orbitals
        self.set_orbitals(wavefunction)  # keeps `previous` if these are its orbitals
        vx_psi = self.apply(wavefunction.coefficients)
        per_band = np.real(np.einsum("ng,ng->n", wavefunction.coefficients.conj(), vx_psi))
        energy = 0.5 * float(np.sum(wavefunction.occupations * per_band))
        # restore any previously set orbitals (with their memo) so energy
        # evaluation has no side effects
        self._orbitals = previous
        return energy

    def expected_poisson_solves(self, n_target_bands: int) -> int:
        """Poisson solves of one application to a general block of
        ``n_target_bands`` (paper: ``N_e^2`` for the full occupied set; the
        self-application of an even kernel needs only ``N_e (N_e + 1) / 2``)."""
        if self._orbitals is None:
            raise RuntimeError("exchange orbitals not set")
        return int(self._orbitals.real.shape[0]) * int(n_target_bands)
