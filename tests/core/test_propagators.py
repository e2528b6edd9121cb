"""Tests for the rt-TDDFT propagators (RK4, CN, PT-CN, ETRS).

These are the central algorithmic tests of the reproduction: the PT-CN scheme
must (a) conserve norms and energy, (b) agree with RK4 on the gauge-invariant
observables even though the orbitals themselves differ by a gauge rotation,
and (c) remain stable at time steps where the explicit schemes are useless —
which is the entire point of the paper.
"""

import numpy as np
import pytest

from repro.constants import attoseconds_to_au
from repro.core import (
    CrankNicolsonPropagator,
    ETRSPropagator,
    PTCNPropagator,
    RK4Propagator,
    density_matrix_distance,
)
from repro.core.observables import dipole_moment, electron_number
from repro.pw import Hamiltonian, Wavefunction, compute_density


@pytest.fixture()
def propagation_setup(h2_ground_state, h2_basis, h2_structure):
    """A hybrid Hamiltonian with a laser plus the converged H2 ground state."""
    from repro.pw.laser import GaussianLaserPulse

    _, result = h2_ground_state
    pulse = GaussianLaserPulse(
        amplitude=0.01, omega=0.35, t0=4.0, sigma=2.0, polarization=[1, 0, 0], phase=np.pi / 2
    )
    ham = Hamiltonian(
        h2_basis,
        h2_structure,
        hybrid_mixing=0.25,
        screening_length=None,
        external_field=pulse.potential_factory(h2_basis.grid),
    )
    return ham, result.wavefunction


@pytest.fixture()
def exchange_schedule(monkeypatch):
    """Per ``apply_many`` call of a width-1 PT-CN / CN step (line 1, then the
    inner iterations): whether it applied the exchange operator, and the
    operator's Poisson solve count when it returned."""
    from repro.core.propagators import pt_cn

    calls = []
    original = pt_cn.apply_many

    def recording(hams, coefficients, include_exchange=True, **kwargs):
        out = original(hams, coefficients, include_exchange=include_exchange, **kwargs)
        (flag,) = [include_exchange] if isinstance(include_exchange, bool) else include_exchange
        calls.append((flag, hams[0].exchange.counters.poisson_solves))
        return out

    monkeypatch.setattr(pt_cn, "apply_many", recording)
    return calls


class TestRK4:
    def test_norm_approximately_conserved(self, propagation_setup):
        ham, wf0 = propagation_setup
        rk4 = RK4Propagator(ham)
        rk4.prepare(wf0, 0.0)
        dt = attoseconds_to_au(2.0)
        wf, stats = rk4.step(wf0, 0.0, dt)
        assert stats.hamiltonian_applications == 4
        assert stats.orthogonality_error < 1e-5

    def test_matches_exact_linear_evolution(self, h2_basis, h2_structure, rng):
        """With a frozen Hamiltonian, RK4 must match the exact exponential propagator."""
        import scipy.linalg as sla

        from repro.pw.eigensolver import dense_eigensolve

        ham = Hamiltonian(h2_basis, h2_structure, hybrid_mixing=0.0)
        wf = Wavefunction.random(h2_basis, 1, rng=rng)
        ham.update_potential(wf)
        # build the dense frozen Hamiltonian
        h_dense = ham.apply(np.eye(h2_basis.npw, dtype=complex)).T
        h_dense = 0.5 * (h_dense + h_dense.conj().T)
        dt = 0.02
        exact = sla.expm(-1j * dt * h_dense) @ wf.coefficients[0]
        rk4 = RK4Propagator(ham, self_consistent_stages=False)
        new_wf, _ = rk4.step(wf, 0.0, dt)
        assert np.max(np.abs(new_wf.coefficients[0] - exact)) < 1e-6

    def test_unstable_at_large_time_step(self, propagation_setup):
        """RK4 blows up at the PT-CN step size — the paper's motivation for PT."""
        ham, wf0 = propagation_setup
        rk4 = RK4Propagator(ham)
        rk4.prepare(wf0, 0.0)
        dt = attoseconds_to_au(50.0)
        wf = wf0
        with np.errstate(over="ignore", invalid="ignore", divide="ignore"):
            for step in range(5):
                wf, _ = rk4.step(wf, step * dt, dt)
        norms = wf.norms()
        blew_up = (not np.all(np.isfinite(norms))) or np.max(np.abs(norms - 1.0)) > 0.1
        assert blew_up


class TestPTCN:
    def test_step_converges_and_orthonormal(self, propagation_setup):
        ham, wf0 = propagation_setup
        ptcn = PTCNPropagator(ham, scf_tolerance=1e-7, max_scf_iterations=40)
        ptcn.prepare(wf0, 0.0)
        dt = attoseconds_to_au(50.0)
        wf, stats = ptcn.step(wf0, 0.0, dt)
        assert stats.converged
        assert wf.is_orthonormal(tol=1e-8)
        assert stats.scf_iterations <= 40

    def test_norm_conservation_many_steps(self, propagation_setup):
        ham, wf0 = propagation_setup
        ptcn = PTCNPropagator(ham, scf_tolerance=1e-6, max_scf_iterations=30)
        ptcn.prepare(wf0, 0.0)
        dt = attoseconds_to_au(50.0)
        wf = wf0
        for step in range(4):
            wf, _ = ptcn.step(wf, step * dt, dt)
        assert electron_number(wf) == pytest.approx(2.0, abs=1e-8)

    def test_field_free_energy_conservation(self, h2_ground_state):
        """Without a laser, the total energy along a PT-CN trajectory is conserved."""
        ham, result = h2_ground_state
        wf0 = result.wavefunction
        ptcn = PTCNPropagator(ham, scf_tolerance=1e-8, max_scf_iterations=50)
        ptcn.prepare(wf0, 0.0)
        dt = attoseconds_to_au(25.0)
        e0 = ham.total_energy(wf0)
        wf = wf0
        for step in range(4):
            wf, _ = ptcn.step(wf, step * dt, dt)
        e1 = ham.total_energy(wf)
        assert abs(e1 - e0) < 5e-5

    def test_stationary_state_remains_stationary(self, h2_ground_state):
        """The ground state is a fixed point of the PT dynamics (up to a phase that
        the PT gauge removes): the density matrix must not move."""
        ham, result = h2_ground_state
        wf0 = result.wavefunction
        ptcn = PTCNPropagator(ham, scf_tolerance=1e-8, max_scf_iterations=50)
        ptcn.prepare(wf0, 0.0)
        dt = attoseconds_to_au(50.0)
        wf, _ = ptcn.step(wf0, 0.0, dt)
        assert density_matrix_distance(wf.coefficients, wf0.coefficients) < 5e-3

    def test_agrees_with_rk4_on_observables(self, propagation_setup):
        """PT-CN at 10 as and RK4 at 1 as must give the same density/dipole after 20 as:
        the gauge differs, the physics does not."""
        ham, wf0 = propagation_setup
        total_time = attoseconds_to_au(20.0)

        ptcn = PTCNPropagator(ham, scf_tolerance=1e-8, max_scf_iterations=50)
        ptcn.prepare(wf0, 0.0)
        dt_pt = attoseconds_to_au(10.0)
        wf_pt = wf0
        for step in range(2):
            wf_pt, _ = ptcn.step(wf_pt, step * dt_pt, dt_pt)

        rk4 = RK4Propagator(ham)
        rk4.prepare(wf0, 0.0)
        dt_rk = attoseconds_to_au(1.0)
        wf_rk = wf0
        for step in range(20):
            wf_rk, _ = rk4.step(wf_rk, step * dt_rk, dt_rk)

        rho_pt = compute_density(wf_pt)
        rho_rk = compute_density(wf_rk)
        scale = np.max(np.abs(rho_rk))
        assert np.max(np.abs(rho_pt - rho_rk)) / scale < 2e-3
        d_pt = dipole_moment(wf_pt)
        d_rk = dipole_moment(wf_rk)
        assert np.max(np.abs(d_pt - d_rk)) < 2e-3

    def test_invalid_tolerance(self, propagation_setup):
        ham, _ = propagation_setup
        with pytest.raises(ValueError):
            PTCNPropagator(ham, scf_tolerance=0.0)

    def test_counts_hamiltonian_applications(self, propagation_setup):
        ham, wf0 = propagation_setup
        ptcn = PTCNPropagator(ham, scf_tolerance=1e-6, max_scf_iterations=30)
        ptcn.prepare(wf0, 0.0)
        wf, stats = ptcn.step(wf0, 0.0, attoseconds_to_au(50.0))
        # one application of the full Hamiltonian for R_n plus one per inner
        # iteration that does not reuse the exchange term of an earlier one
        frozen = stats.extra["frozen_exchange_iterations"]
        assert 0 < frozen < stats.scf_iterations
        assert stats.hamiltonian_applications == stats.scf_iterations - frozen + 1
        assert ham.counters.fock_applications == stats.hamiltonian_applications
        assert ham.counters.apply_calls == stats.scf_iterations + 1


class TestCrankNicolsonAblation:
    def test_cn_is_ptcn_without_projection(self, propagation_setup):
        ham, wf0 = propagation_setup
        cn = CrankNicolsonPropagator(ham)
        assert cn.parallel_transport is False
        assert isinstance(cn, PTCNPropagator)

    def test_ptcn_converges_faster_than_cn_at_large_step(self, propagation_setup):
        """At a 50 as step the PT gauge needs fewer (or at worst equal) SCF iterations
        than the Schrödinger gauge — the orbital dynamics are slower by design."""
        ham, wf0 = propagation_setup
        dt = attoseconds_to_au(50.0)

        ptcn = PTCNPropagator(ham, scf_tolerance=1e-6, max_scf_iterations=60)
        ptcn.prepare(wf0, 0.0)
        _, stats_pt = ptcn.step(wf0, 0.0, dt)

        cn = CrankNicolsonPropagator(ham, scf_tolerance=1e-6, max_scf_iterations=60)
        cn.prepare(wf0, 0.0)
        _, stats_cn = cn.step(wf0, 0.0, dt)

        assert stats_pt.scf_iterations <= stats_cn.scf_iterations

    def test_only_the_pt_gauge_starts_on_the_term_it_holds(self, propagation_setup, exchange_schedule):
        """Line 1 leaves ``V_X[Psi_n] Psi_n`` in the operator's memo. In the PT
        gauge the orbitals are as slow as the density, the term is good for the
        first iterates and the step's first exact application is a refresh
        (4 full applications at 50 as / 1e-6; 5 when the step opened fresh). In
        the Schrödinger gauge the same vector turns with the orbital phases
        and a frozen start costs applications (11 -> 14), so CN opens fresh.
        That asymmetry is what the gauge is for."""
        ham, wf0 = propagation_setup
        dt = attoseconds_to_au(50.0)

        ptcn = PTCNPropagator(ham.clone(), scf_tolerance=1e-6, max_scf_iterations=60)
        ptcn.prepare(wf0, 0.0)
        _, stats = ptcn.step(wf0, 0.0, dt)
        # one band, one pair: the Poisson solves do not move between line 1
        # and the first refresh
        assert exchange_schedule[:4] == [(True, 1), (False, 1), (False, 1), (True, 2)]
        assert stats.converged and stats.hamiltonian_applications <= 4
        frozen = stats.extra["frozen_exchange_iterations"]
        assert frozen == stats.scf_iterations - (stats.hamiltonian_applications - 1)
        assert ptcn.hamiltonian.exchange.counters.applications == stats.hamiltonian_applications

        exchange_schedule.clear()
        cn = CrankNicolsonPropagator(ham.clone(), scf_tolerance=1e-6, max_scf_iterations=60)
        cn.prepare(wf0, 0.0)
        _, stats_cn = cn.step(wf0, 0.0, dt)
        assert exchange_schedule[1][0] is True
        assert stats_cn.converged
        assert stats_cn.hamiltonian_applications > stats.hamiltonian_applications

    def test_foreign_exchange_orbitals_are_no_starting_term(
        self, chain_hybrid_hamiltonian, chain_ground_state, exchange_schedule
    ):
        """The frozen start reads the vector line 1 applied. A caller that
        re-set the exchange orbitals between steps gets the rectangular path
        at line 1 (as before) and a fresh first iteration, never the memo of
        the foreign set."""
        wf0 = chain_ground_state[1].wavefunction
        propagator = PTCNPropagator(chain_hybrid_hamiltonian.clone())
        exchange = propagator.hamiltonian.exchange
        propagator.prepare(wf0, 0.0)
        wf1, _ = propagator.step(wf0, 0.0, 1.0)
        assert [fresh for fresh, _ in exchange_schedule[:3]] == [True, False, False]
        assert exchange.holds(wf1.coefficients, wf1.occupations)

        exchange_schedule.clear()
        exchange.set_orbitals(wf0)
        (wf2,), (stats,) = PTCNPropagator.step_many([propagator], [wf1], [1.0], [1.0])
        assert [fresh for fresh, _ in exchange_schedule[:4]] == [True, True, False, False]
        assert stats.converged
        assert stats.extra["frozen_exchange_iterations"] == stats.scf_iterations - (
            stats.hamiltonian_applications - 1
        )


class TestETRS:
    def test_single_step_norm(self, propagation_setup):
        ham, wf0 = propagation_setup
        etrs = ETRSPropagator(ham, taylor_order=4)
        etrs.prepare(wf0, 0.0)
        wf, stats = etrs.step(wf0, 0.0, attoseconds_to_au(2.0))
        assert stats.hamiltonian_applications == 12
        assert np.max(np.abs(wf.norms() - 1.0)) < 1e-6

    def test_matches_rk4_small_step(self, propagation_setup):
        ham, wf0 = propagation_setup
        dt = attoseconds_to_au(1.0)
        etrs = ETRSPropagator(ham)
        etrs.prepare(wf0, 0.0)
        wf_e, _ = etrs.step(wf0, 0.0, dt)
        rk4 = RK4Propagator(ham)
        rk4.prepare(wf0, 0.0)
        wf_r, _ = rk4.step(wf0, 0.0, dt)
        assert density_matrix_distance(wf_e.coefficients, wf_r.coefficients) < 1e-5

    def test_invalid_order(self, propagation_setup):
        ham, _ = propagation_setup
        with pytest.raises(ValueError):
            ETRSPropagator(ham, taylor_order=0)


@pytest.fixture()
def count_transforms(monkeypatch):
    """Counts 3-D transforms through ``FFTPlan.fftn`` / ``ifftn`` (a batched
    call counts once per leading-axis slice)."""
    from repro.pw.fft import FFTPlan

    counts = {"transforms": 0}

    def counting(original):
        def counted(self, values, overwrite=False):
            counts["transforms"] += int(np.prod(np.shape(values)[:-3], dtype=int))
            return original(self, values, overwrite=overwrite)

        return counted

    monkeypatch.setattr(FFTPlan, "fftn", counting(FFTPlan.fftn))
    monkeypatch.setattr(FFTPlan, "ifftn", counting(FFTPlan.ifftn))
    return counts


class TestTransformBudget:
    """Every iterate is transformed to real space once: the density, the
    exchange orbitals and the local term of ``H Psi`` share that array — the
    same budget through either entry point of the one engine (``step``, and
    ``step_many`` called with a stack of one)."""

    def _two_steps(self, propagator, wf0, dt, counts, lockstep, neighbour=None):
        """Transforms, Poisson solves and statistics of two consecutive steps
        (``neighbour``: a second job stepped in the same stack)."""
        exchange = propagator.hamiltonian.exchange.counters
        stack = [propagator] if neighbour is None else [propagator, neighbour]
        for member in stack:
            member.prepare(wf0, 0.0)
        wfs, rows = [wf0] * len(stack), []
        wf = wf0
        for step in range(2):
            before = counts["transforms"], exchange.poisson_solves
            if lockstep:
                wfs, (stats, *_) = type(propagator).step_many(
                    stack, wfs, [step * dt] * len(stack), [dt] * len(stack)
                )
                wf = wfs[0]
            else:
                wf, stats = propagator.step(wf, step * dt, dt)
            rows.append(
                (
                    counts["transforms"] - before[0],
                    exchange.poisson_solves - before[1],
                    stats.scf_iterations,
                    stats.extra.get("frozen_exchange_iterations", 0),
                )
            )
        return wf, rows

    @pytest.mark.parametrize("lockstep", [False, True], ids=["solo", "width-1 lockstep"])
    def test_hybrid_ptcn_step(self, chain_hybrid_hamiltonian, chain_ground_state, count_transforms, lockstep):
        wf0 = chain_ground_state[1].wavefunction
        n = wf0.nbands
        propagator = PTCNPropagator(chain_hybrid_hamiltonian.clone(), scf_tolerance=1e-7)
        _, rows = self._two_steps(propagator, wf0, 1.0, count_transforms, lockstep)
        for transforms, solves, k, frozen in rows:
            assert k >= 2 and frozen >= 1
            # orbital transforms: H psi_n (local + exchange back-transforms;
            # psi_n itself was transformed by prepare() or the previous step),
            # the initial iterate, per iteration the new iterate + H psi_f (a
            # frozen-term iteration has no exchange back-transform), the
            # accepted state; Hartree: one solve per potential rebuild; Fock:
            # two per pair
            orbital = (2 + 1 + 3 * k - frozen + 1) * n
            hartree = 2 * (k + 1)
            assert transforms == orbital + hartree + 2 * solves

    @pytest.mark.parametrize("lockstep", [False, True], ids=["solo", "width-1 lockstep"])
    def test_hybrid_rk4_step(self, chain_hybrid_hamiltonian, chain_ground_state, count_transforms, lockstep):
        wf0 = chain_ground_state[1].wavefunction
        n = wf0.nbands
        propagator = RK4Propagator(chain_hybrid_hamiltonian.clone())
        _, rows = self._two_steps(propagator, wf0, 0.2, count_transforms, lockstep)
        for transforms, solves, *_ in rows:
            # four stages of (stage transform + H psi), the first stage's
            # transform and rebuild kept from prepare() or the previous step;
            # the end state
            orbital = (4 * 3 - 1 + 1) * n
            hartree = 2 * (4 - 1 + 1)
            assert transforms == orbital + hartree + 2 * solves

    def test_solo_and_lockstep_do_the_same_exchange_work(
        self, chain_hybrid_hamiltonian, chain_ground_state, count_transforms
    ):
        """A job does the same exchange work — and ends on the same bits —
        alone and as the first job of a width-2 stack."""
        wf0 = chain_ground_state[1].wavefunction
        results = []
        for lockstep in (False, True):
            propagator = PTCNPropagator(chain_hybrid_hamiltonian.clone())
            neighbour = PTCNPropagator(chain_hybrid_hamiltonian.clone(), scf_tolerance=1e-3)
            wf, rows = self._two_steps(
                propagator, wf0, 1.0, count_transforms, lockstep,
                neighbour=neighbour if lockstep else None,
            )
            results.append(
                (
                    wf.coefficients,
                    [counts for _, *counts in rows],  # transforms are the stack's
                    propagator.hamiltonian.exchange.counters,
                )
            )
        assert np.array_equal(results[0][0], results[1][0])
        assert results[0][1] == results[1][1]
        assert results[0][2] == results[1][2]
        # the exchange operator never transformed an orbital set itself: each
        # one, prepare()'s included, arrived with its transform (two
        # back-transforms per pair and one per band per application remain)
        done = results[0][2]
        assert done.ffts == 2 * done.poisson_solves + wf0.nbands * done.applications

    def test_handed_in_transform_changes_no_result(self, chain_hybrid_hamiltonian, chain_ground_state):
        wf = chain_ground_state[1].wavefunction
        psi = wf.to_real_space()
        assert np.array_equal(compute_density(wf, psi_real=psi), compute_density(wf))

        plain, handed = chain_hybrid_hamiltonian.clone(), chain_hybrid_hamiltonian.clone()
        rho_plain = plain.update_potential(wf)
        rho_handed = handed.update_potential(wf, psi_real=psi)
        assert np.array_equal(rho_handed, rho_plain)
        assert np.array_equal(handed.v_hartree, plain.v_hartree)
        assert np.array_equal(handed.v_xc, plain.v_xc)
        assert plain.exchange.counters.ffts == wf.nbands
        assert handed.exchange.counters.ffts == 0
        reference = plain.apply(wf.coefficients)
        assert np.array_equal(handed.apply(wf.coefficients, psi_real=psi), reference)
        assert np.array_equal(handed.apply(wf.coefficients), reference)

    def test_kept_transform_needs_the_same_arrays_and_is_dropped_by_prepare(
        self, chain_hybrid_hamiltonian, chain_ground_state, count_transforms
    ):
        wf0 = chain_ground_state[1].wavefunction
        propagator = PTCNPropagator(chain_hybrid_hamiltonian.clone())
        ham = propagator.hamiltonian
        propagator.prepare(wf0, 0.0)
        wf1, _ = propagator.step(wf0, 0.0, 1.0)
        kept = propagator._lockstep_cache["psi"]
        assert kept.shape == (1, wf1.nbands) + wf1.basis.grid.shape
        assert np.array_equal(kept[0], wf1.to_real_space())

        def start_of_step(wavefunction):
            """(transform handed out, orbital transforms made, potential rebuilds)"""
            before = count_transforms["transforms"], ham.counters.potential_updates
            psi = PTCNPropagator._start_of_step([propagator], [wavefunction])
            rebuilds = ham.counters.potential_updates - before[1]
            hartree = 2 * rebuilds  # one forward + one back transform per Poisson solve
            return psi, count_transforms["transforms"] - before[0] - hartree, rebuilds

        # the very arrays the step ended on: nothing is transformed or rebuilt
        psi, transforms, rebuilds = start_of_step(wf1)
        assert psi is kept and (transforms, rebuilds) == (0, 0)
        # a potential rebuilt from anything else is rebuilt back, from the kept transform
        ham.update_potential(wf0)
        psi, transforms, rebuilds = start_of_step(wf1)
        assert psi is kept and (transforms, rebuilds) == (0, 1)
        # an equal copy is not the array the step ended on
        psi, transforms, rebuilds = start_of_step(wf1.copy())
        assert psi is not kept and np.array_equal(psi, kept)
        assert (transforms, rebuilds) == (wf1.nbands, 1)

        # prepare() drops it for the initial state's, which a step starts on
        propagator.prepare(wf0, 0.0)
        started = propagator._lockstep_cache["psi"]
        assert started is not kept and propagator._lockstep_cache["coeffs"] is wf0.coefficients
        psi, transforms, rebuilds = start_of_step(wf0)
        assert psi is started and (transforms, rebuilds) == (0, 0)

    def test_a_stack_starts_on_the_rows_its_jobs_ended_on(
        self, chain_hybrid_hamiltonian, chain_ground_state, count_transforms
    ):
        """Each job keeps its own end state: jobs prepared apart start a stack
        together, and a stack that lost a member goes on, from copies of
        their kept rows — no transform, no potential rebuild."""
        wf0 = chain_ground_state[1].wavefunction
        a, b = (PTCNPropagator(chain_hybrid_hamiltonian.clone()) for _ in range(2))
        hams = [a.hamiltonian, b.hamiltonian]

        def start_of_step(propagators, wavefunctions):
            """(transform handed out, transforms made, potential rebuilds)"""
            before = count_transforms["transforms"], [ham.counters.potential_updates for ham in hams]
            psi = PTCNPropagator._start_of_step(propagators, wavefunctions)
            rebuilds = [ham.counters.potential_updates - n for ham, n in zip(hams, before[1])]
            return psi, count_transforms["transforms"] - before[0], rebuilds

        for propagator in (a, b):
            propagator.prepare(wf0, 0.0)
        kept = [p._lockstep_cache["psi"] for p in (a, b)]
        psi, transforms, rebuilds = start_of_step([a, b], [wf0, wf0])
        assert np.array_equal(psi, np.concatenate(kept))
        assert (transforms, rebuilds) == (0, [0, 0])

        (_, wf_b), _ = PTCNPropagator.step_many([a, b], [wf0, wf0], [0.0, 0.0], [1.0, 0.5])
        stack = a._lockstep_cache["psi"]
        assert b._lockstep_cache["psi"] is stack and b._lockstep_cache["row"] == 1
        psi, transforms, rebuilds = start_of_step([b], [wf_b])
        assert np.array_equal(psi, stack[1:])
        assert (transforms, rebuilds) == (0, [0, 0])

    @pytest.mark.parametrize("scheme", [RK4Propagator, PTCNPropagator], ids=["rk4", "pt-cn"])
    def test_a_run_transforms_its_initial_state_once(
        self, chain_hybrid_hamiltonian, chain_ground_state, monkeypatch, scheme
    ):
        """``prepare()`` builds the density and the exchange orbitals of a
        hybrid job from one transform of Psi_0 (n bands, plus the Hartree
        solve: n + 1 inverse transforms), and the run's first step starts on
        it without an inverse transform of its own."""
        from repro.core.dynamics import TDDFTSimulation
        from repro.core.propagators.base import Propagator
        from repro.pw.fft import FFTPlan

        wf0 = chain_ground_state[1].wavefunction
        propagator = scheme(chain_hybrid_hamiltonian.clone())
        counts = {"inverse": 0}
        inverse = FFTPlan.ifftn

        def counted_inverse(self, values, overwrite=False):
            counts["inverse"] += int(np.prod(np.shape(values)[:-3], dtype=int))
            return inverse(self, values, overwrite=overwrite)

        def counted(name, function):
            def wrapper(*args, **kwargs):
                before = counts["inverse"]
                try:
                    return function(*args, **kwargs)
                finally:
                    counts[name] = counts.get(name, 0) + counts["inverse"] - before

            return wrapper

        monkeypatch.setattr(FFTPlan, "ifftn", counted_inverse)
        monkeypatch.setattr(propagator, "prepare", counted("prepare", propagator.prepare))
        monkeypatch.setattr(
            Propagator, "_start_of_step", staticmethod(counted("start", Propagator._start_of_step))
        )
        trajectory = TDDFTSimulation(propagator.hamiltonian, propagator, record_energy=False).run(
            wf0, 0.2 if scheme is RK4Propagator else 1.0, 1
        )
        assert trajectory.n_steps == 1
        assert (counts["prepare"], counts["start"]) == (wf0.nbands + 1, 0)


@pytest.fixture(scope="module")
def si8_hse_session():
    """Si8 (ecut 2.5, nonlocal pseudopotential) under the paper's pulse, HSE06
    propagation from a semi-local ground state — the production shape, where
    ``dt/2 * T_max`` is 2.6 at 50 as. Requests differ only in ``params`` /
    ``n_steps``, so the session converges one ground state for all of them."""
    from repro.api import Session, SimulationConfig

    return Session(
        SimulationConfig.from_dict(
            {
                "system": {
                    "structure": "diamond_silicon",
                    "params": {"empirical": False, "include_nonlocal": True},
                },
                "basis": {"ecut": 2.5, "grid_factor": 1.0},
                "xc": {
                    "hybrid_mixing": 0.25,
                    "screening_length": 0.106,
                    "include_nonlocal": True,
                    "gs_hybrid_mixing": 0.0,
                },
                "laser": {"pulse": "paper", "params": {"amplitude": 0.002, "duration_fs": 1.2}},
                "propagator": {"name": "ptcn", "params": {}},
                # Si8's linear-mixing SCF settles into a two-cycle near 1e-2
                "run": {"time_step_as": 50.0, "n_steps": 1, "gs_scf_tolerance": 1.5e-2,
                        "gs_max_scf_iterations": 40},
            }
        )
    )


class TestPreconditionedInnerSolve:
    """Line 7 mixes the residual divided by the diagonal of line 6's Jacobian
    (built from ``Psi_n``, once a step), and a hybrid job refreshes its Fock
    term instead of recomputing it every inner iteration: fewer applications
    of the exact operator to a stopping rule that only an exact-residual
    update can meet, and no stagnation floor below it."""

    def test_tight_tolerance_is_reached_on_si8_hse(self, si8_hse_session):
        # the raw residual stagnates at a density change of ~4e-9 here
        trajectory = si8_hse_session.propagate(
            params={"scf_tolerance": 1e-9, "max_scf_iterations": 60}
        )
        (stats,) = trajectory.step_statistics
        assert stats.converged and stats.density_error < 1e-9

    def test_exact_applications_at_the_benchmark_tolerance(self, si8_hse_session):
        # regression bound: 5 (line 1 + 4 fresh iterations; 4 frozen ones, the
        # first two on line 1's term) on the step out of the ground state, 4
        # on the steps after it; 8 when every iteration applied the exact operator
        trajectory = si8_hse_session.propagate(params={"scf_tolerance": 1e-5})
        (stats,) = trajectory.step_statistics
        frozen = stats.extra["frozen_exchange_iterations"]
        assert stats.converged and stats.hamiltonian_applications <= 5
        assert stats.scf_iterations == stats.hamiltonian_applications - 1 + frozen
        assert 0 < frozen <= 2 * (stats.hamiltonian_applications - 1)

    # (dt, steps, applications when every inner iteration applied the exact
    # operator — measured at the commit before the refresh schedule); the
    # schedule takes 33 / 14 / 18 on the same host (41 / 17 / 24 opening fresh)
    @pytest.mark.parametrize(
        "time_step_as, n_steps, single_loop_applications",
        [(50.0, 8, 65), (25.0, 4, 23), (10.0, 6, 26)],
    )
    def test_never_more_exact_applications_than_the_single_loop(
        self, si8_hse_session, time_step_as, n_steps, single_loop_applications
    ):
        trajectory = si8_hse_session.propagate(
            time_step_as=time_step_as, n_steps=n_steps, params={"scf_tolerance": 1e-5}
        )
        assert all(s.converged for s in trajectory.step_statistics)
        applications = sum(s.hamiltonian_applications for s in trajectory.step_statistics)
        assert applications <= single_loop_applications

    def test_paper_tolerance_tracks_the_tight_trajectory(self, si8_hse_session):
        """The paper's ``scf_tolerance=1e-6`` against a 1e-9 reference over
        4 steps of 50 as: the stopping rule's error in the observables."""
        loose = si8_hse_session.propagate(n_steps=4, params={"scf_tolerance": 1e-6})
        tight = si8_hse_session.propagate(
            n_steps=4, params={"scf_tolerance": 1e-9, "max_scf_iterations": 60}
        )
        assert all(s.converged for s in loose.step_statistics + tight.step_statistics)
        applications = [
            sum(s.hamiltonian_applications for s in t.step_statistics) for t in (loose, tight)
        ]
        assert applications[0] < applications[1]
        assert np.max(np.abs(loose.energies - tight.energies)) < 1e-3  # Ha
        assert np.max(np.abs(loose.dipoles - tight.dipoles)) < 1e-2  # e Bohr

    def test_equal_tolerance_accuracy_is_no_worse_than_the_single_loop(self, si8_hse_session):
        """8 steps of 50 as at the paper's 1e-6 against a 1e-10 reference:
        accepting only exact-residual updates reads the tolerance more
        strictly, so the trajectory may not deviate more than the one the
        single loop produced (2.45e-4 Ha, 2.18e-3 e Bohr; now 9.3e-5, 6.2e-4)."""
        paper = si8_hse_session.propagate(n_steps=8, params={"scf_tolerance": 1e-6})
        reference = si8_hse_session.propagate(
            n_steps=8, params={"scf_tolerance": 1e-10, "max_scf_iterations": 60}
        )
        assert all(s.converged for s in paper.step_statistics + reference.step_statistics)
        assert np.max(np.abs(paper.energies - reference.energies)) <= 2.45e-4  # Ha
        assert np.max(np.abs(paper.dipoles - reference.dipoles)) <= 2.18e-3  # e Bohr

    def test_paper_tolerance_costs_what_the_loose_one_did_at_a_fraction_of_its_error(
        self, si8_hse_session
    ):
        """Cost at error, not cost at tolerance: 8 steps of 50 as against a
        1e-10 reference. Starting on line 1's term lowers the count at every
        tolerance (1e-5: 41 -> 33 applications, 1e-6: 50 -> 42) and, at *equal*
        tolerance, raises the deviation from the tight run (1e-5: 1.2e-3 ->
        2.4e-3 Ha, 4.8e-3 -> 1.3e-2 e Bohr; 1e-6: 9.3e-5 -> 1.5e-4 Ha, 6.2e-4
        -> 7.8e-4 e Bohr). The trade that pays is across tolerances: 1e-6 now
        costs what 1e-5 did when the step opened fresh (41) and is an order of
        magnitude closer to the reference than 1e-5 is."""
        runs = {
            tolerance: si8_hse_session.propagate(n_steps=8, params={"scf_tolerance": tolerance})
            for tolerance in (1e-5, 1e-6)
        }
        reference = si8_hse_session.propagate(
            n_steps=8, params={"scf_tolerance": 1e-10, "max_scf_iterations": 60}
        )
        assert all(
            s.converged for t in (*runs.values(), reference) for s in t.step_statistics
        )
        applications = sum(s.hamiltonian_applications for s in runs[1e-6].step_statistics)
        assert applications <= 43
        for series in ("energies", "dipoles"):
            loose, paper = (
                np.max(np.abs(getattr(runs[t], series) - getattr(reference, series)))
                for t in (1e-5, 1e-6)
            )
            assert 5.0 * paper <= loose, series

    def test_capped_member_of_a_stack_fails_alone(self, chain_hybrid_hamiltonian, chain_ground_state):
        """A job that runs out of inner iterations ends ``converged=False``
        with what it did reported; its neighbours in the lockstep stack finish
        on the bits they get alone."""
        wf0 = chain_ground_state[1].wavefunction
        params = [{}, {"max_scf_iterations": 3}, {"scf_tolerance": 1e-8}]

        def stack():
            propagators = [PTCNPropagator(chain_hybrid_hamiltonian.clone(), **kw) for kw in params]
            for propagator in propagators:
                propagator.prepare(wf0, 0.0)
            return propagators

        solo = [p.step(wf0, 0.0, 1.0) for p in stack()]
        wfs, statistics = PTCNPropagator.step_many(stack(), [wf0] * 3, [0.0] * 3, [1.0] * 3)
        for (solo_wf, solo_stats), wf, stats in zip(solo, wfs, statistics):
            assert np.array_equal(wf.coefficients, solo_wf.coefficients)
            assert stats == solo_stats
        assert [stats.converged for stats in statistics] == [True, False, True]
        capped = statistics[1]
        # the two iterations on line 1's exchange term, then the first refresh:
        # its update missed the tolerance and the cap fell before a second one
        assert capped.scf_iterations == 3 and capped.hamiltonian_applications == 2
        assert capped.extra == {"frozen_exchange_iterations": 2}
        assert capped.density_error >= 1e-6

    def test_schroedinger_gauge_needs_no_more_iterations(self, propagation_setup):
        """CN (no eps_i subtracted, so the diagonal is shifted back by
        ``Re <psi_i|H_n|psi_i>``) on the 50 as step of the gauge ablation
        above: 28 iterations with the raw residual."""
        ham, wf0 = propagation_setup
        cn = CrankNicolsonPropagator(ham, scf_tolerance=1e-6, max_scf_iterations=60)
        cn.prepare(wf0, 0.0)
        _, stats = cn.step(wf0, 0.0, attoseconds_to_au(50.0))
        assert stats.converged and stats.scf_iterations <= 28

    @pytest.mark.parametrize("dtype", [np.complex128, np.complex64])
    def test_built_once_a_step_and_independent_of_the_stack_width(
        self, chain_hybrid_hamiltonian, chain_ground_state, monkeypatch, dtype
    ):
        wf0 = chain_ground_state[1].wavefunction.astype(dtype)
        built = []
        original = PTCNPropagator._inverse_jacobian_diagonal

        def spy(self, *args):
            built.append(original(self, *args))
            return built[-1]

        monkeypatch.setattr(PTCNPropagator, "_inverse_jacobian_diagonal", spy)
        dts = [0.5, 1.0, 2.0]

        def stack():
            propagators = [PTCNPropagator(chain_hybrid_hamiltonian.clone()) for _ in dts]
            for propagator in propagators:
                propagator.prepare(wf0, 0.0)
            return propagators

        solo = [p.step(wf0, 0.0, dt) for p, dt in zip(stack(), dts)]
        assert len(built) == len(dts)  # one a step, however many iterations
        assert all(stats.scf_iterations > 1 for _, stats in solo)
        assert all(p.dtype == np.complex128 and p.shape == wf0.coefficients.shape for p in built)

        wfs, statistics = PTCNPropagator.step_many(stack(), [wf0] * 3, [0.0] * 3, dts)
        assert len(built) == 2 * len(dts)
        for (solo_wf, solo_stats), wf, stats, alone, stacked in zip(
            solo, wfs, statistics, built[:3], built[3:]
        ):
            assert np.array_equal(alone, stacked)
            assert wf.coefficients.dtype == dtype
            assert np.array_equal(wf.coefficients, solo_wf.coefficients)
            assert stats == solo_stats
