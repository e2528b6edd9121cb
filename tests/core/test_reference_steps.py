"""Independent references for the one propagation engine.

``src/`` holds exactly one implementation per scheme — the stacked
``step_many`` — so the second opinion lives here: Alg. 1 (PT-CN / CN), the RK4
baseline and ETRS written out plainly for one job, with nothing but
``to_real_space``, ``Hamiltonian.update_potential`` / ``apply``,
:class:`~repro.core.anderson.AndersonMixer` and ``cholesky_orthonormalize``.
No job axis, no transform handed around, no end-of-step cache: every
potential rebuild and every ``H Psi`` transforms its own orbitals, and every
step starts by rebuilding the potential from the state it is given (RK4 with
frozen stages, by definition, keeps the one it finds).

Alg. 1 is written out twice: as printed, which is what a semi-local job
runs, and with the Fock term refreshed every third iteration at most, which
is what a job with exact exchange runs — in the PT gauge starting on the term
line 1 applied, in the Schrödinger gauge on a fresh one.

``Propagator.step`` must reproduce these bit for bit — coefficients and
statistics, hybrid and semi-local, over consecutive steps (the second step is
where the engine's kept transform comes into play).
"""

from __future__ import annotations

import numpy as np
import pytest

from repro.core import (
    CrankNicolsonPropagator,
    ETRSPropagator,
    PTCNPropagator,
    RK4Propagator,
)
from repro.core.anderson import AndersonMixer
from repro.pw import Hamiltonian, Wavefunction
from repro.pw.laser import GaussianLaserPulse
from repro.pw.orthogonalization import cholesky_orthonormalize


def _density(wavefunction: Wavefunction) -> np.ndarray:
    psi = wavefunction.to_real_space()
    return np.sum(wavefunction.occupations[:, None, None, None] * np.abs(psi) ** 2, axis=0)


def _orthonormality_error(coefficients: np.ndarray) -> float:
    overlap = coefficients.conj() @ coefficients.T
    return float(np.max(np.abs(overlap - np.eye(len(coefficients)))))


def reference_ptcn_step(
    ham,
    wavefunction,
    time,
    dt,
    *,
    parallel_transport=True,
    scf_tolerance=1e-6,
    max_scf_iterations=30,
    anderson_history=20,
):
    """Alg. 1 of the paper for one job, line by line."""
    basis, occ, c_n = wavefunction.basis, wavefunction.occupations, wavefunction.coefficients
    volume_element = ham.grid.volume_element

    def rhs(c, h_c):
        # H Psi - Psi (Psi^* H Psi) in the PT gauge, H Psi in the Schroedinger gauge
        return h_c - (c.conj() @ h_c.T).T @ c if parallel_transport else h_c

    # Line 1: R_n with the Hamiltonian at t_n, consistent with Psi_n
    ham.set_time(time)
    ham.update_potential(wavefunction)
    h_cn = ham.apply(c_n)
    r_n = rhs(c_n, h_cn)
    # the preconditioner of line 7, fixed for the step: the inverse diagonal of
    # line 6's Jacobian 1 + i dt/2 (H - eps_i), band by band, with H's diagonal
    # taken as the kinetic energy about the band's own <T> (PT gauge) or about
    # <T> - Re<H_n> (Schroedinger gauge, where no eps_i is subtracted)
    kinetic = ham.kinetic_diagonal
    inverse_diagonal = np.empty(c_n.shape, dtype=np.complex128)
    for band, (c, h_c) in enumerate(zip(c_n, h_cn)):
        weight = np.abs(c) ** 2
        shift = -np.sum(weight * kinetic) / np.sum(weight)
        if not parallel_transport:
            shift += np.sum(c.conj() * h_c).real / np.sum(weight)
        inverse_diagonal[band] = 1.0 / (1.0 + 0.5j * dt * (kinetic + shift))
    # Line 2: the fixed right-hand side Psi_{n+1/2}
    c_half = c_n - 0.5j * dt * r_n
    c_f = c_half.copy()
    # Line 3: the Hamiltonian at t_{n+1}
    ham.set_time(time + dt)
    mixer = AndersonMixer(history_size=anderson_history, per_band=True)
    err, iterations, converged = float("inf"), 0, False
    for iterations in range(1, max_scf_iterations + 1):
        # Line 5: potential (and exchange orbitals) from the current iterate
        rho_f = ham.update_potential(Wavefunction(basis, c_f, occ))
        # Line 6: fixed-point residual
        r_f = c_f + 0.5j * dt * rhs(c_f, ham.apply(c_f)) - c_half
        # Line 7: Anderson mixing of the preconditioned residual
        c_f = mixer.update(c_f, inverse_diagonal * r_f)
        # Lines 8-9: density of the new iterate, convergence on its change
        rho_new = _density(Wavefunction(basis, c_f, occ))
        charge = float(np.sum(np.abs(rho_f)) * volume_element)
        err = float(np.sqrt(np.sum(np.abs(rho_new - rho_f) ** 2) * volume_element) / charge)
        if err < scf_tolerance:
            converged = True
            break
    # Line 11: orthogonalize
    ortho_err = _orthonormality_error(c_f)
    new_wf = cholesky_orthonormalize(Wavefunction(basis, c_f, occ))
    ham.update_potential(new_wf)
    return new_wf, (iterations, iterations + 1, err, converged, ortho_err)


def reference_hybrid_ptcn_step(
    ham,
    wavefunction,
    time,
    dt,
    *,
    parallel_transport=True,
    scf_tolerance=1e-6,
    max_scf_iterations=30,
    anderson_history=20,
):
    """Alg. 1 for one job with exact exchange, the Fock term refreshed rather
    than recomputed every inner iteration.

    An iteration is *fresh* — lines 5-7 as written, on an emptied Anderson
    history — or *frozen*: the semi-local potential follows the iterate while
    the exchange term stays ``W = V_X[Psi^m] Psi^m`` of the last fresh iterate.
    A fresh iteration is followed by two frozen ones, unless its own update
    moved the density by less than ten tolerances; only a fresh update can end
    the step. In the PT gauge line 1's ``V_X[Psi_n] Psi_n`` is the first such
    term and the step opens with its two frozen iterations; in the Schrödinger
    gauge, where that vector turns with the orbital phases, it opens fresh.
    """
    basis, occ, c_n = wavefunction.basis, wavefunction.occupations, wavefunction.coefficients
    volume_element = ham.grid.volume_element

    def rhs(c, h_c):
        return h_c - (c.conj() @ h_c.T).T @ c if parallel_transport else h_c

    # Lines 1-3 and the preconditioner: as in the semi-local reference, with
    # H_n Psi_n taken apart to keep its exchange term
    ham.set_time(time)
    ham.update_potential(wavefunction)
    w = ham.exchange.apply(c_n)
    h_cn = ham.apply(c_n, include_exchange=False) + w
    r_n = rhs(c_n, h_cn)
    kinetic = ham.kinetic_diagonal
    inverse_diagonal = np.empty(c_n.shape, dtype=np.complex128)
    for band, (c, h_c) in enumerate(zip(c_n, h_cn)):
        weight = np.abs(c) ** 2
        shift = -np.sum(weight * kinetic) / np.sum(weight)
        if not parallel_transport:
            shift += np.sum(c.conj() * h_c).real / np.sum(weight)
        inverse_diagonal[band] = 1.0 / (1.0 + 0.5j * dt * (kinetic + shift))
    c_half = c_n - 0.5j * dt * r_n
    c_f = c_half.copy()
    ham.set_time(time + dt)
    mixer = AndersonMixer(history_size=anderson_history, per_band=True)
    err, iterations, converged = float("inf"), 0, False
    exact_applications, frozen_iterations = 1, 0
    # the iterations to come that keep the exchange term w
    schedule = ["frozen", "frozen"] if parallel_transport else []
    for iterations in range(1, max_scf_iterations + 1):
        wf_f = Wavefunction(basis, c_f, occ)
        fresh = not schedule
        if fresh:
            # Line 5 with the exchange orbitals, line 6 with the exact operator
            rho_f = ham.update_potential(wf_f)
            h_sl = ham.apply(c_f, include_exchange=False)
            w = ham.exchange.apply(c_f)
            exact_applications += 1
            mixer.reset()
        else:
            # Line 5 for V_Hxc only; the exchange orbitals stay those of Psi^m
            schedule.pop()
            rho_f = ham.update_potential(wf_f, update_exchange=False)
            h_sl = ham.apply(c_f, include_exchange=False)
            frozen_iterations += 1
        r_f = c_f + 0.5j * dt * rhs(c_f, h_sl + w) - c_half
        c_f = mixer.update(c_f, inverse_diagonal * r_f)
        rho_new = _density(Wavefunction(basis, c_f, occ))
        charge = float(np.sum(np.abs(rho_f)) * volume_element)
        err = float(np.sqrt(np.sum(np.abs(rho_new - rho_f) ** 2) * volume_element) / charge)
        if fresh:
            if err < scf_tolerance:
                converged = True
                break
            if err >= 10.0 * scf_tolerance:
                schedule = ["frozen", "frozen"]
    ortho_err = _orthonormality_error(c_f)
    new_wf = cholesky_orthonormalize(Wavefunction(basis, c_f, occ))
    ham.update_potential(new_wf)
    return new_wf, (iterations, exact_applications, err, converged, ortho_err, frozen_iterations)


def reference_rk4_step(ham, wavefunction, time, dt, *, self_consistent_stages=True):
    """Classical RK4 on ``dPsi/dt = -i H(t, Psi) Psi`` for one job."""
    basis, occ, c0 = wavefunction.basis, wavefunction.occupations, wavefunction.coefficients

    def derivative(c, t):
        ham.set_time(t)
        if self_consistent_stages:
            ham.update_potential(Wavefunction(basis, c, occ))
        return -1j * ham.apply(c)

    k1 = derivative(c0, time)
    k2 = derivative(c0 + 0.5 * dt * k1, time + 0.5 * dt)
    k3 = derivative(c0 + 0.5 * dt * k2, time + 0.5 * dt)
    k4 = derivative(c0 + dt * k3, time + dt)
    new_wf = Wavefunction(basis, c0 + (dt / 6.0) * (k1 + 2.0 * k2 + 2.0 * k3 + k4), occ)
    ham.set_time(time + dt)
    ham.update_potential(new_wf)
    return new_wf, (0, 4, float("nan"), True, _orthonormality_error(new_wf.coefficients))


def reference_etrs_step(ham, wavefunction, time, dt, *, taylor_order=4):
    """ETRS for one job: ``exp(-i dt/2 H_{n+1}) exp(-i dt/2 H_n) Psi_n`` with
    ``H_{n+1}`` built from a full-step predictor, Taylor exponentials."""
    basis, occ, c0 = wavefunction.basis, wavefunction.occupations, wavefunction.coefficients

    def exponential(c, tau):
        out, term = c.copy(), c.copy()
        for order in range(1, taylor_order + 1):
            term = (-1j * tau / order) * ham.apply(term)
            out = out + term
        return out

    ham.set_time(time)
    ham.update_potential(wavefunction)
    predictor = exponential(c0, dt)
    half = exponential(c0, 0.5 * dt)
    ham.set_time(time + dt)
    ham.update_potential(Wavefunction(basis, predictor, occ))
    new_wf = Wavefunction(basis, exponential(half, 0.5 * dt), occ)
    ham.update_potential(new_wf)
    return new_wf, (0, 3 * taylor_order, float("nan"), True, _orthonormality_error(new_wf.coefficients))


#: scheme -> (engine class, written-out reference, reference-only kwargs, params, dt)
SCHEMES = {
    "ptcn": (PTCNPropagator, reference_ptcn_step, {}, {"scf_tolerance": 1e-7}, 1.0),
    "ptcn-loose-capped": (
        PTCNPropagator, reference_ptcn_step, {},
        {"scf_tolerance": 1e-12, "max_scf_iterations": 4, "anderson_history": 2},
        1.0,
    ),
    "cn": (
        CrankNicolsonPropagator, reference_ptcn_step, {"parallel_transport": False},
        {"max_scf_iterations": 12}, 0.1,
    ),
    "rk4": (RK4Propagator, reference_rk4_step, {}, {}, 0.2),
    "rk4-frozen-stages": (RK4Propagator, reference_rk4_step, {}, {"self_consistent_stages": False}, 0.2),
    "etrs": (ETRSPropagator, reference_etrs_step, {}, {}, 0.2),
    "etrs-order-2": (ETRSPropagator, reference_etrs_step, {}, {"taylor_order": 2}, 0.2),
}


@pytest.fixture(params=[0.25, 0.0], ids=["hybrid", "semi-local"])
def driven_chain(request, chain_basis, chain_structure, chain_ground_state):
    """The hydrogen chain under a laser pulse (so every ``set_time`` matters),
    hybrid or semi-local, with its converged two-band starting state."""
    pulse = GaussianLaserPulse(
        amplitude=0.01, omega=0.35, t0=0.5, sigma=1.0, polarization=[1, 0, 0], phase=np.pi / 2
    )
    ham = Hamiltonian(
        chain_basis,
        chain_structure,
        hybrid_mixing=request.param,
        screening_length=None,
        external_field=pulse.potential_factory(chain_basis.grid),
    )
    return ham, chain_ground_state[1].wavefunction


@pytest.mark.parametrize("scheme", sorted(SCHEMES))
def test_step_reproduces_the_written_out_scheme_bit_for_bit(scheme, driven_chain):
    base_ham, wf0 = driven_chain
    engine_cls, reference, reference_only, params, dt = SCHEMES[scheme]
    if reference is reference_ptcn_step and base_ham.exchange is not None:
        reference = reference_hybrid_ptcn_step

    engine = engine_cls(base_ham.clone(), **params)
    engine.prepare(wf0, 0.0)
    reference_ham = base_ham.clone()
    reference_ham.set_time(0.0)  # what prepare() does, written out
    reference_ham.update_potential(wf0)

    wf, reference_wf = wf0, wf0
    for step in range(2):
        wf, stats = engine.step(wf, step * dt, dt)
        reference_wf, expected = reference(
            reference_ham, reference_wf, step * dt, dt, **reference_only, **params
        )
        assert np.array_equal(wf.coefficients, reference_wf.coefficients), f"step {step}"
        got = (
            stats.scf_iterations,
            stats.hamiltonian_applications,
            stats.density_error,
            stats.converged,
            stats.orthogonality_error,
            *stats.extra.values(),  # hybrid PT-CN / CN: the frozen-term iterations
        )
        assert np.array_equal(np.asarray(got, dtype=float), np.asarray(expected, dtype=float),
                              equal_nan=True), f"step {step}: {got} != {expected}"
    # both Hamiltonians end holding the potential of the accepted state
    assert np.array_equal(engine.hamiltonian.density, reference_ham.density)
    assert np.array_equal(engine.hamiltonian.local_potential, reference_ham.local_potential)
