"""Batched multi-job kernels for lockstep propagation.

A sweep group's jobs share one ground state, one basis and one grid; they
differ only in dt/propagator/laser. Stacking their ``(nbands, npw)``
coefficient blocks along a leading job axis turns J per-job FFT calls into
one batched call through the cached plans of :mod:`repro.pw.fft` — the
cross-*job* generalisation of the many-bands-per-transform idiom of
production plane-wave codes.

Bit-identity contract
---------------------
Everything here must produce, per job, exactly the floats the single-block
operators (:meth:`~repro.pw.hamiltonian.Hamiltonian.apply` /
``update_potential``, which the ground-state solver and the tests' written-out
reference steps use) produce, whatever the width of the stack. That holds
because only two kinds of operation are batched:

* FFTs — pocketfft transforms every leading-axis slice independently, so a
  stacked transform equals J single-job transforms bit for bit;
* elementwise/broadcast arithmetic — each slice sees the same multiplier
  values in the same expression order as the single-block code.

Everything GEMM-shaped (nonlocal projectors, exchange, subspace overlaps,
Anderson extrapolation, Cholesky) stays a per-job loop on per-job slices:
batching would change BLAS blocking and therefore the floats. Anderson mixing
is band-batched *inside* a job (one stacked solve over the job's bands, the
same call at every stack width) and never across jobs.
"""

from __future__ import annotations

from collections.abc import Sequence

import numpy as np

from ..pw.basis import Wavefunction
from ..pw.density import compute_density_many
from ..pw.hamiltonian import Hamiltonian
from ..pw.poisson import hartree_potential

__all__ = ["stack_coefficients", "apply_many", "update_potentials_many"]


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

    Mirrors :meth:`~repro.pw.hamiltonian.Hamiltonian.apply` per slice — same
    term order (kinetic, local, nonlocal, exchange), same multiplier values,
    same counter increments — with the two orbital transforms of the local
    term executed once for the whole stack. ``psi_real`` may be passed when
    the caller already transformed ``coeff_stack`` to real space (the stage
    density needs the very same array): the forward transform is then skipped
    entirely. ``include_exchange`` may be one flag per job: the jobs of a
    lockstep stack need not all apply the Fock operator in the same call.
    """
    coeff_stack = np.asarray(coeff_stack)
    basis = hamiltonians[0].basis
    kinetic = hamiltonians[0].kinetic_diagonal
    v_stack = np.stack([ham.local_potential for ham in hamiltonians])
    if coeff_stack.dtype == np.complex64:
        kinetic = hamiltonians[0]._kinetic_single
        v_stack = v_stack.astype(np.float32)
    for ham in hamiltonians:
        ham.counters.apply_calls += 1

    out = coeff_stack * kinetic[None, None, :]
    if psi_real is None:
        psi_real = basis.to_real_space(coeff_stack)
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
    if densities is None:
        occupations = np.stack([wf.occupations for wf in wavefunctions])
        if psi_real is None:
            psi_real = basis.to_real_space(stack_coefficients(wavefunctions))
        densities = compute_density_many(basis, None, occupations, psi_real=psi_real)
    v_hartree = hartree_potential(basis.grid, densities)
    xc = hamiltonians[0].xc
    if all(ham.xc is xc for ham in hamiltonians):
        xc_results = xc.evaluate_many(densities, basis.grid.volume_element)
    else:  # heterogeneous functionals: evaluate per job inside update_potential
        xc_results = [None] * len(hamiltonians)
    update = _per_job(update_exchange, len(hamiltonians))
    for j, ham in enumerate(hamiltonians):
        ham.update_potential(
            wavefunctions[j],
            density=densities[j],
            update_exchange=update[j],
            v_hartree=v_hartree[j],
            xc_result=xc_results[j],
            psi_real=None if psi_real is None else psi_real[j],
        )
    return densities
