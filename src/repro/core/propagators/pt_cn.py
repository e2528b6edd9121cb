"""The parallel transport Crank–Nicolson propagator (Alg. 1 of the paper).

PT-CN solves, at each step, the implicit nonlinear equation (Eq. 5)

.. math::

    \\Psi_{n+1} + \\tfrac{i\\Delta t}{2}\\{H_{n+1}\\Psi_{n+1}
        - \\Psi_{n+1}(\\Psi_{n+1}^* H_{n+1} \\Psi_{n+1})\\}
    = \\Psi_n - \\tfrac{i\\Delta t}{2}\\{H_n\\Psi_n - \\Psi_n(\\Psi_n^* H_n \\Psi_n)\\},

where the right-hand side (``Psi_{n+1/2}``) is fixed during the step and the
left-hand side is solved by a self-consistent fixed-point iteration accelerated
with Anderson mixing. Because the parallel transport gauge makes the orbital
dynamics as slow as the density dynamics, time steps of 10–50 attoseconds are
possible, versus ~0.5 as for RK4 — and every saved step saves one or more Fock
exchange applications, the dominant cost for hybrid functionals.

Refreshing the Fock term
------------------------
The inner solve contracts at the same rate whether or not the exchange term
follows the iterate, while the exchange term itself is close to converged
after a few refreshes (the weak coupling the two-level SCF of ACE exploits:
Lin, JCTC 12, 2242; Jia & Lin, CPC 240, 21). A job with exact exchange
therefore does not apply the Fock operator in every inner iteration. A *fresh*
iteration is Alg. 1's lines 5-7 as printed, on an emptied Anderson history; it
is followed by at most ``_FROZEN_ITERATIONS`` *frozen* ones, whose residual is
``H_sl[rho^k] Psi^k + V_X[Psi^m] Psi^m`` — potential, density, preconditioner
and Anderson step of the current iterate ``Psi^k``, exchange term of the last
fresh iterate ``Psi^m``, read from the operator's self-application memo — and
then the term is refreshed. Line 9's test can end the step only after a fresh
iteration, whose update is a plain preconditioned step of the exact residual,
so the fixed point is Alg. 1's own and ``scf_tolerance`` is read more strictly
than by an extrapolated update. (Carrying the Anderson history across a
refresh would mix residuals of two different operators into the accepting
update: the sizing prototype saw that converge falsely, and on this engine it
costs exact applications and doubles the deviation from a tight run. An
operator that is lagged and never re-checked changes the fixed point. Neither
is done here.) A job without exchange runs Alg. 1 as printed.

The step *starts* on a held term where the gauge allows it. Line 1 has just
applied ``V_X[Psi_n] Psi_n`` and the operator's memo still holds it; in the
parallel transport gauge the orbitals move as slowly as the density, so that
vector is as good for the first iterates ``Psi_n - i dt/2 R_n + ...`` as the
term of any later fresh iterate is for the two after it, and the step's first
exact application is its first *refresh*. In the Schrödinger gauge
(``parallel_transport=False``, the CN ablation) the same vector turns with the
orbital phases ``exp(-i eps_i dt)`` and a frozen start costs applications
(hybrid H2, 50 as, 1e-6: 11 -> 14; PT gauge: 5 -> 4), so there the first
iteration is fresh. The rule reads the propagator's own ``parallel_transport``
flag and nothing else: the asymmetry is what the gauge is for. A job whose
operator does not hold ``Psi_n`` by value after line 1 (its exchange orbitals
were re-set between steps) also starts fresh.
"""

from __future__ import annotations

import numpy as np

from ...pw.basis import Wavefunction
# compute_density is bound here, though unused, because benchmarks/layers pins
# its by-identity patching on this module's from-import of it
from ...pw.density import compute_density, compute_density_many, density_error  # noqa: F401
from ...pw.hamiltonian import Hamiltonian
from ...pw.orthogonalization import cholesky_orthonormalize, orthonormality_error
from ..anderson import AndersonMixer
from ..batching import apply_many, update_potentials_many
from ..gauge import pt_residual
from .base import Propagator, StepStatistics

__all__ = ["PTCNPropagator"]

#: inner iterations of a hybrid job that reuse the exchange term of a fresh
#: iteration before the term is refreshed (1 / 3 / 4 measured slower on Si8)
_FROZEN_ITERATIONS = 2
#: a fresh update that changes the density by less than this many
#: ``scf_tolerance`` is followed by another fresh one: close to acceptance a
#: frozen iteration cannot end the step, so it would only add to the count
_REFRESH_ONLY_BELOW = 10.0


class PTCNPropagator(Propagator):
    """Parallel transport + Crank–Nicolson implicit propagator (PT-CN).

    Parameters
    ----------
    hamiltonian:
        The Kohn–Sham Hamiltonian (hybrid or semi-local).
    scf_tolerance:
        Convergence threshold on the relative density change between SCF
        iterations (the paper uses 1e-6).
    max_scf_iterations:
        Safety bound on the inner iteration count, fresh and frozen ones
        alike. The paper reports ~22 iterations on average at 50 as steps;
        this engine, which mixes the preconditioned residual, executes 7
        there on Si8 HSE06 at a tolerance of 1e-5 (3 of them with an exact
        Fock application) and 10-11 at 1e-6 (4-5).
    anderson_history:
        Maximum Anderson mixing dimension (paper: 20).
    anderson_beta:
        Anderson relaxation parameter.
    orthogonalize:
        Whether to re-orthonormalize the orbitals at the end of each step
        (Alg. 1 line 11). Disabling is only useful for diagnostics.
    parallel_transport:
        If True (default) the projection term ``Psi (Psi^* H Psi)`` is
        included, i.e. the dynamics use the PT gauge; if False the scheme
        degenerates to the plain Crank–Nicolson fixed-point iteration in the
        Schrödinger gauge (used for ablation studies).
    """

    name = "PT-CN"
    implicit = True

    def __init__(
        self,
        hamiltonian: Hamiltonian,
        scf_tolerance: float = 1e-6,
        max_scf_iterations: int = 30,
        anderson_history: int = 20,
        anderson_beta: float = 1.0,
        orthogonalize: bool = True,
        parallel_transport: bool = True,
    ):
        super().__init__(hamiltonian)
        if scf_tolerance <= 0:
            raise ValueError("scf_tolerance must be positive")
        self.scf_tolerance = float(scf_tolerance)
        self.max_scf_iterations = int(max_scf_iterations)
        self.anderson_history = int(anderson_history)
        self.anderson_beta = float(anderson_beta)
        self.orthogonalize = bool(orthogonalize)
        self.parallel_transport = bool(parallel_transport)

    # ------------------------------------------------------------------
    def _rhs_term(self, coefficients: np.ndarray, h_coefficients: np.ndarray) -> np.ndarray:
        """``H Psi - Psi (Psi^* H Psi)`` in the PT gauge, ``H Psi`` otherwise."""
        if self.parallel_transport:
            return pt_residual(coefficients, h_coefficients)
        return h_coefficients

    def _inverse_jacobian_diagonal(self, c_n: np.ndarray, h_cn: np.ndarray, dt: float) -> np.ndarray:
        """``1 / (1 + i dt/2 (T_G - tau_i + sigma_i))`` per band, in double.

        Line 6's residual has Jacobian ``1 + i dt/2 (H - eps_i)`` (PT gauge;
        ``eps_i = 0`` otherwise). With the potential at its band average
        ``eps_i - tau_i`` the diagonal is the kinetic energy about the band's
        own ``tau_i = <psi_i|T|psi_i>``, shifted back by ``sigma_i =
        Re <psi_i|H_n|psi_i>`` in the Schrödinger gauge. Built from ``Psi_n``
        alone, so it is one fixed linear operator over a step's Anderson history.
        """
        kinetic = self.hamiltonian.kinetic_diagonal
        weights = np.abs(c_n) ** 2
        norms = weights.sum(axis=1)
        shift = -np.sum(weights * kinetic, axis=1) / norms
        if not self.parallel_transport:
            shift += np.sum(c_n.conj() * h_cn, axis=1).real / norms
        return 1.0 / (1.0 + 0.5j * dt * (kinetic[None, :] + shift[:, None]))

    # bound in this class's own namespace (not only inherited): span tracers
    # such as benchmarks/layers resolve their targets with ``vars(cls)``
    step = Propagator.step

    # ------------------------------------------------------------------
    @classmethod
    def step_many(
        cls,
        propagators: "list[PTCNPropagator]",
        wavefunctions: list[Wavefunction],
        times: list[float],
        dts: list[float],
    ) -> tuple[list[Wavefunction], list[StepStatistics]]:
        """Lockstep PT-CN steps for a stack of jobs (Alg. 1).

        Every line of Alg. 1 runs for the whole stack: the FFT-bound pieces
        (orbital transforms, densities, Hartree solves) as single batched
        calls over the jobs still iterating, the GEMM/convergence pieces per
        job. Every iterate is transformed to real space once; its density, the
        exchange orbitals and the local term of ``H Psi`` all take that array.
        Jobs whose inner SCF converges — each against its own tolerance and
        iteration cap — drop out of the active set, so a tight-tolerance job
        never forces extra work on an already-converged one. Whether an
        iteration of a hybrid job is fresh or frozen (module docstring)
        follows from that job's own gauge and iterations, so one pass may
        apply the exact operator for some jobs and not for others. Per job,
        the result does not depend on the width of the stack.

        ``StepStatistics.hamiltonian_applications`` counts applications of
        the full Hamiltonian (line 1 and the fresh iterations),
        ``scf_iterations`` every inner iteration, and a hybrid job reports
        the difference in ``extra["frozen_exchange_iterations"]``.
        """
        njobs = len(propagators)
        basis = wavefunctions[0].basis
        grid = propagators[0].hamiltonian.grid
        hams = [p.hamiltonian for p in propagators]
        occs = [wf.occupations for wf in wavefunctions]
        occ_stack = np.stack(occs)
        c_n = np.stack([wf.coefficients for wf in wavefunctions])

        # Line 1: residual R_n with every Hamiltonian at its own t_n,
        # consistent with the current orbitals
        for j, ham in enumerate(hams):
            ham.set_time(times[j])
        psi_r_n = cls._start_of_step(propagators, wavefunctions)
        h_cn = apply_many(hams, c_n, psi_real=psi_r_n)
        r_n = np.empty_like(h_cn)
        precond = []  # per job: line 6's inverse Jacobian diagonal, once a step
        for j, p in enumerate(propagators):
            r_n[j] = p._rhs_term(c_n[j], h_cn[j])
            precond.append(p._inverse_jacobian_diagonal(c_n[j], h_cn[j], dts[j]))

        # Line 2: the fixed right-hand sides Psi_{n+1/2}
        factors = np.asarray([0.5j * dt for dt in dts], dtype=np.complex128)
        if c_n.dtype == np.complex64:
            factors = factors.astype(np.complex64)
        c_half = c_n - factors[:, None, None] * r_n
        c_f = c_half.copy()

        # Line 3: densities of the initial iterates; Hamiltonians at t_{n+1}.
        # The transform of each iterate is cached and reused by the next
        # apply_many call (bit-identical, see compute_density_many).
        for j, ham in enumerate(hams):
            ham.set_time(times[j] + dts[j])
        psi_cache = basis.to_real_space(c_f)
        sub_c_cache = c_f
        cache_jobs = list(range(njobs))
        rho_f = compute_density_many(basis, c_f, occ_stack, psi_real=psi_cache)

        mixers = [
            AndersonMixer(
                history_size=p.anderson_history,
                mixing_parameter=p.anderson_beta,
                per_band=True,
            )
            for p in propagators
        ]

        # per job: whether the Hamiltonian carries exact exchange, and how many
        # of the coming iterations reuse the exchange term of the last fresh one
        hybrid = [ham.exchange is not None for ham in hams]
        # PT gauge only (module docstring): the step opens frozen, on the
        # V_X[Psi_n] Psi_n line 1 applied, if the operator's memo is still that
        frozen_left = [
            _FROZEN_ITERATIONS
            if p.parallel_transport and hybrid[j] and hams[j].exchange.holds(c_n[j], occs[j])
            else 0
            for j, p in enumerate(propagators)
        ]

        errs = [float("inf")] * njobs
        iters = [0] * njobs
        h_applications = [1] * njobs  # the R_n evaluation above
        converged = [False] * njobs
        active = list(range(njobs))
        iteration = 0
        while active:
            iteration += 1
            active = [j for j in active if iteration <= propagators[j].max_scf_iterations]
            if not active:
                break
            sub_hams = [hams[j] for j in active]
            # a fresh iteration rebuilds and applies the exact operator (every
            # iteration of a job without exchange is one); a frozen one keeps
            # V_X[Psi^m] Psi^m of the last fresh iterate Psi^m, or of Psi_n
            fresh = [frozen_left[j] == 0 for j in active]

            # the cached transform of the current iterates (computed
            # alongside their densities) serves lines 5 and 6
            if active == cache_jobs:
                sub_c, sub_psi = sub_c_cache, psi_cache
            else:
                rows = [cache_jobs.index(j) for j in active]
                sub_c, sub_psi = sub_c_cache[rows], psi_cache[rows]

            # Line 5: update potentials from the current iterates (only the
            # exchange-orbital update reads the Wavefunction)
            sub_wfs = [
                Wavefunction(basis, c_f[j], occs[j]) if hybrid[j] and is_fresh else None
                for j, is_fresh in zip(active, fresh)
            ]
            update_potentials_many(
                sub_hams,
                sub_wfs,
                densities=np.stack([rho_f[j] for j in active]),
                psi_real=sub_psi,
                update_exchange=fresh,
            )

            # Line 6: fixed-point residuals
            h_cf = apply_many(sub_hams, sub_c, include_exchange=fresh, psi_real=sub_psi)
            for idx, j in enumerate(active):
                iters[j] = iteration
                if fresh[idx]:
                    h_applications[j] += 1
                    if hybrid[j]:
                        # the residual below belongs to a new operator, and
                        # the update that may be accepted is a plain step of it
                        mixers[j].reset()
                else:
                    h_cf[idx] += hams[j].exchange.self_application()
                r_f = sub_c[idx] + 0.5j * dts[j] * propagators[j]._rhs_term(sub_c[idx], h_cf[idx]) - c_half[j]
                # Line 7: Anderson mixing of the preconditioned residual (per
                # job; the mixer extrapolates in double, and the scatter back
                # into the stack casts only on the complex64 screening tier)
                c_f[j] = mixers[j].update(sub_c[idx], precond[j] * r_f)

            # Line 8: densities of the new iterates (one transform, cached
            # for the next iteration's apply_many)
            sub_c_cache = np.stack([c_f[j] for j in active])
            psi_cache = basis.to_real_space(sub_c_cache)
            cache_jobs = list(active)
            rho_new = compute_density_many(
                basis, sub_c_cache, occ_stack[active], psi_real=psi_cache
            )

            # Line 9: per-job convergence on the density change, accepted only
            # where the update came from the exact residual
            still_active = []
            for idx, j in enumerate(active):
                errs[j] = density_error(rho_new[idx], rho_f[j], grid)
                rho_f[j] = rho_new[idx]
                tolerance = propagators[j].scf_tolerance
                if fresh[idx] and errs[j] < tolerance:
                    converged[j] = True
                    continue
                still_active.append(j)
                if not fresh[idx]:
                    frozen_left[j] -= 1
                elif hybrid[j] and errs[j] >= _REFRESH_ONLY_BELOW * tolerance:
                    frozen_left[j] = _FROZEN_ITERATIONS
            active = still_active

        # Line 11: orthogonalize per job
        out_wfs: list[Wavefunction] = []
        ortho_errs: list[float] = []
        for j, p in enumerate(propagators):
            wf_f = Wavefunction(basis, c_f[j], occs[j])
            ortho_errs.append(orthonormality_error(wf_f))
            if p.orthogonalize:
                wf_f = cholesky_orthonormalize(wf_f)
                if wf_f.coefficients.dtype != c_n.dtype:  # complex64 tier: the
                    wf_f = wf_f.astype(c_n.dtype)  # triangular solve promotes
            out_wfs.append(wf_f)

        cls._end_of_step(propagators, out_wfs)

        statistics = [
            StepStatistics(
                scf_iterations=iters[j],
                hamiltonian_applications=h_applications[j],
                density_error=errs[j],
                converged=converged[j],
                orthogonality_error=ortho_errs[j],
                # every inner iteration is either a full application or frozen
                extra=(
                    {"frozen_exchange_iterations": iters[j] - (h_applications[j] - 1)}
                    if hybrid[j]
                    else {}
                ),
            )
            for j in range(njobs)
        ]
        return out_wfs, statistics
