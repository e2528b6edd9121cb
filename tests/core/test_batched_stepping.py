"""Lockstep stepping: ``step_many`` and the ``run_batched`` driver.

``step_many`` is the only implementation of each scheme (the written-out
references it is pinned against live in ``test_reference_steps.py``); the
contract under test here is *width independence*: at ``complex128``, job j of
a width-N stack gets — element-wise — exactly the arrays and statistics the
same job gets at width 1 (``step`` / ``TDDFTSimulation.run``). The property
is checked for every registered propagator class (hypothesis-driven over
step-size combinations, with per-job parameters mixed inside one stack), and
then end-to-end for the :func:`repro.core.dynamics.run_batched` driver,
including peeling jobs with different step counts and mixed propagator
classes in one group.
"""

from __future__ import annotations

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.api import PROPAGATORS
from repro.core.dynamics import BatchedRun, TDDFTSimulation, run_batched


def canonical_propagator_names() -> list[str]:
    """One name per distinct registered factory (aliases collapsed)."""
    seen: dict = {}
    for name in PROPAGATORS.names():
        seen.setdefault(PROPAGATORS.get(name), name)
    return sorted(seen.values())


def _solo_step(factory, base_ham, wavefunction, dt, **params):
    """The job alone: ``step``, the width-1 call of ``step_many``."""
    propagator = factory(base_ham.clone(), **params)
    propagator.prepare(wavefunction, 0.0)
    return propagator.step(wavefunction, 0.0, dt)


#: per-job parameters cycled over the jobs of one stack, so every stack mixes
#: tolerances / iteration caps / frozen stages / Taylor orders
_MIXED_PARAMS = {
    "pt-cn": [{}, {"scf_tolerance": 1e-9}, {"max_scf_iterations": 3}],
    "cn": [{}, {"scf_tolerance": 1e-9}, {"max_scf_iterations": 3}],
    "rk4": [{}, {"self_consistent_stages": False}],
    "etrs": [{}, {"taylor_order": 2}, {"taylor_order": 5}],
}


@pytest.mark.parametrize("name", canonical_propagator_names())
@given(dts=st.lists(st.sampled_from([0.5, 1.0, 2.0]), min_size=2, max_size=4))
@settings(max_examples=3, deadline=None)
def test_step_many_is_elementwise_identical_to_solo_steps(name, dts, h2_ground_state):
    """For every registered propagator, job j of a stacked ``step_many`` call
    equals the same job stepped alone (width 1) bit for bit (complex128)."""
    base_ham, result = h2_ground_state
    factory = PROPAGATORS.get(name)
    wf0 = result.wavefunction
    variants = _MIXED_PARAMS[name]
    params = [variants[j % len(variants)] for j in range(len(dts))]

    solo = [_solo_step(factory, base_ham, wf0, dt, **p) for dt, p in zip(dts, params)]

    propagators = [factory(base_ham.clone(), **p) for p in params]
    for propagator in propagators:
        propagator.prepare(wf0, 0.0)
    batched_wfs, batched_stats = type(propagators[0]).step_many(
        propagators, [wf0] * len(dts), [0.0] * len(dts), list(dts)
    )

    for (solo_wf, solo_stats), wf, stats in zip(solo, batched_wfs, batched_stats):
        assert np.array_equal(solo_wf.coefficients, wf.coefficients)
        assert stats.scf_iterations == solo_stats.scf_iterations
        assert stats.hamiltonian_applications == solo_stats.hamiltonian_applications
        assert stats.converged == solo_stats.converged
        assert stats.extra == solo_stats.extra
        _assert_float_equal(stats.density_error, solo_stats.density_error)
        _assert_float_equal(stats.orthogonality_error, solo_stats.orthogonality_error)


def _assert_float_equal(a: float, b: float) -> None:
    if np.isnan(a) and np.isnan(b):
        return
    assert a == b


def _statistics(trajectory) -> list[tuple]:
    """Every ``StepStatistics`` of a trajectory as comparable tuples (the
    explicit schemes' NaN density error as its ``repr``)."""
    return [
        (s.scf_iterations, s.hamiltonian_applications, repr(s.density_error), s.converged,
         s.orthogonality_error)
        for s in trajectory.step_statistics
    ]


def test_ptcn_batch_with_different_tolerances_converges_each_job(h2_ground_state):
    """Jobs drop out of the lockstep SCF against their *own* tolerance — a
    loose job must not inherit the tight job's iteration count (each count is
    the one the job gets alone)."""
    base_ham, result = h2_ground_state
    factory = PROPAGATORS.get("ptcn")
    wf0 = result.wavefunction
    tolerances = [1e-3, 1e-9]

    solo_stats = [
        _solo_step(lambda h, t=t: factory(h, scf_tolerance=t), base_ham, wf0, 1.0)[1]
        for t in tolerances
    ]
    propagators = [factory(base_ham.clone(), scf_tolerance=t) for t in tolerances]
    for propagator in propagators:
        propagator.prepare(wf0, 0.0)
    _, batched_stats = type(propagators[0]).step_many(
        propagators, [wf0, wf0], [0.0, 0.0], [1.0, 1.0]
    )

    assert [s.scf_iterations for s in batched_stats] == [s.scf_iterations for s in solo_stats]
    assert batched_stats[0].scf_iterations < batched_stats[1].scf_iterations


@pytest.mark.parametrize(
    "dtype, parallel_transport",
    [(np.complex128, True), (np.complex64, True), (np.complex128, False)],
    ids=["complex128", "complex64", "schroedinger-gauge"],
)
def test_hybrid_refresh_phase_is_per_job(
    chain_hybrid_hamiltonian, chain_ground_state, monkeypatch, dtype, parallel_transport
):
    """Whether a hybrid job's inner iteration applies the exact Fock operator
    or reuses the term of an earlier one follows from that job's own
    iterations only: in a width-3 stack mixing tolerances and step sizes the
    jobs are in different phases in the same pass, and each still gets the
    floats, statistics and exchange counters it gets at width 1."""
    from repro.core.propagators import pt_cn

    wf0 = chain_ground_state[1].wavefunction.astype(dtype)
    params = [{"scf_tolerance": 1e-4}, {"scf_tolerance": 1e-8}, {"scf_tolerance": 1e-6}]
    dts = [0.5, 2.0, 1.0]
    built = []  # Wavefunctions the engine builds: only set_orbitals reads one

    class CountedWavefunction(pt_cn.Wavefunction):
        def __init__(self, *args):
            built.append(1)
            super().__init__(*args)

    def stack():
        propagators = [
            pt_cn.PTCNPropagator(
                chain_hybrid_hamiltonian.clone(), parallel_transport=parallel_transport, **kw
            )
            for kw in params
        ]
        for propagator in propagators:
            propagator.prepare(wf0, 0.0)
        return propagators

    def two_steps(propagators, wfs, dts):
        rows = []
        for step in range(2):
            times = [step * dt for dt in dts]
            wfs, statistics = pt_cn.PTCNPropagator.step_many(propagators, wfs, times, dts)
            rows.append(statistics)
        return wfs, rows

    solo_stack = stack()
    alone = [two_steps([p], [wf0], [dt]) for p, dt in zip(solo_stack, dts)]
    stacked = stack()
    monkeypatch.setattr(pt_cn, "Wavefunction", CountedWavefunction)
    wfs, rows = two_steps(stacked, [wf0] * 3, dts)

    for j, ((solo_wfs, solo_rows), wf) in enumerate(zip(alone, wfs)):
        assert wf.coefficients.dtype == dtype
        assert np.array_equal(wf.coefficients, solo_wfs[0].coefficients)
        assert [row[j] for row in rows] == [row[0] for row in solo_rows]
        assert stacked[j].hamiltonian.exchange.counters == solo_stack[j].hamiltonian.exchange.counters
        assert stacked[j].hamiltonian.counters == solo_stack[j].hamiltonian.counters
    # the stack really mixed phases: the jobs froze different iterations
    frozen = [[stats.extra["frozen_exchange_iterations"] for stats in row] for row in rows]
    assert len({tuple(step) for step in zip(*frozen)}) > 1
    # one Wavefunction per fresh iteration (the exchange orbitals) and one per
    # job per step (line 11): none for an iteration that keeps its term
    fresh = sum(stats.hamiltonian_applications - 1 for row in rows for stats in row)
    assert all(stats.converged for row in rows for stats in row)
    assert len(built) == fresh + 2 * len(dts)


def test_frozen_start_is_per_job(
    chain_hybrid_hamiltonian, chain_basis, chain_structure, chain_ground_state
):
    """A PT-gauge hybrid job opens its step on the exchange term line 1
    applied; the job next to it has no exchange and the third runs into its
    cap on the very iteration that refreshes the term. Over two steps each
    gets the floats, statistics and counters it gets at width 1."""
    from repro.core.propagators.pt_cn import PTCNPropagator
    from repro.pw import Hamiltonian

    wf0 = chain_ground_state[1].wavefunction
    semi_local = Hamiltonian(chain_basis, chain_structure, hybrid_mixing=0.0)
    members = [
        (chain_hybrid_hamiltonian, {}),
        (semi_local, {}),
        (chain_hybrid_hamiltonian, {"max_scf_iterations": 3}),
    ]

    def stack():
        propagators = [PTCNPropagator(ham.clone(), **kw) for ham, kw in members]
        for propagator in propagators:
            propagator.prepare(wf0, 0.0)
        return propagators

    def two_steps(propagators):
        wfs, rows = [wf0] * len(propagators), []
        for step in range(2):
            wfs, statistics = PTCNPropagator.step_many(
                propagators, wfs, [float(step)] * len(propagators), [1.0] * len(propagators)
            )
            rows.append(statistics)
        return wfs, rows

    solo_stack, stacked = stack(), stack()
    alone = [two_steps([p]) for p in solo_stack]
    wfs, rows = two_steps(stacked)
    for j, ((solo_wfs, solo_rows), wf) in enumerate(zip(alone, wfs)):
        assert np.array_equal(wf.coefficients, solo_wfs[0].coefficients)
        assert [row[j] for row in rows] == [row[0] for row in solo_rows]
        assert stacked[j].hamiltonian.counters == solo_stack[j].hamiltonian.counters
    for j in (0, 2):
        assert stacked[j].hamiltonian.exchange.counters == solo_stack[j].hamiltonian.exchange.counters
    hybrid, plain, capped = zip(*rows)
    # two frozen iterations open every hybrid step; the capped job's third is
    # its only refresh, the job without exchange runs Alg. 1 as printed
    assert all(s.converged and s.extra["frozen_exchange_iterations"] >= 2 for s in hybrid)
    assert all(s.converged and s.extra == {} for s in plain)
    assert all(s.hamiltonian_applications == s.scf_iterations + 1 for s in plain)
    assert [(s.converged, s.scf_iterations, s.hamiltonian_applications, s.extra) for s in capped] == [
        (False, 3, 2, {"frozen_exchange_iterations": 2})
    ] * 2


class TestRunBatched:
    def _simulation(self, base_ham, name: str, **params) -> TDDFTSimulation:
        propagator = PROPAGATORS.get(name)(base_ham.clone(), **params)
        return TDDFTSimulation(propagator.hamiltonian, propagator)

    def test_matches_solo_runs_and_peels_finished_jobs(self, h2_ground_state):
        """Every job of a mixed group — all four registered schemes, ETRS at
        two Taylor orders — gets the trajectory it gets alone (``run``, the
        one-job group)."""
        base_ham, result = h2_ground_state
        wf0 = result.wavefunction
        # different step counts: jobs peel off after 2 lockstep iterations
        jobs = [
            ("ptcn", 0.8, 3, {}),
            ("ptcn", 1.2, 2, {}),
            ("rk4", 0.4, 3, {}),
            ("etrs", 0.4, 2, {"taylor_order": 2}),
            ("etrs", 0.3, 3, {}),
            ("cn", 0.1, 2, {"max_scf_iterations": 8}),
        ]

        solo = []
        for name, dt, n_steps, params in jobs:
            simulation = self._simulation(base_ham, name, **params)
            solo.append(simulation.run(wf0, dt, n_steps, metadata={"dt": dt}))

        runs = [
            BatchedRun(
                simulation=self._simulation(base_ham, name, **params),
                initial_state=wf0,
                time_step=dt,
                n_steps=n_steps,
                metadata={"dt": dt},
            )
            for name, dt, n_steps, params in jobs
        ]
        batched = run_batched(runs)

        assert len(batched) == len(solo)
        for reference, trajectory in zip(solo, batched):
            assert trajectory.n_steps == reference.n_steps
            for field in (
                "times",
                "energies",
                "dipoles",
                "electron_numbers",
                "scf_iterations",
                "hamiltonian_applications",
                "density_errors",
            ):
                assert np.array_equal(
                    getattr(trajectory, field), getattr(reference, field), equal_nan=True
                ), field
            assert np.array_equal(
                trajectory.final_wavefunction.coefficients,
                reference.final_wavefunction.coefficients,
            )
            assert _statistics(trajectory) == _statistics(reference)
            assert trajectory.metadata == reference.metadata
            assert trajectory.wall_time > 0.0

    def test_hybrid_group_matches_solo_and_shares_the_exchange_path(
        self, chain_hybrid_hamiltonian, chain_ground_state
    ):
        """A hybrid PT-CN + RK4 group (2 occupied bands, so the pair triangle
        is a real saving) in lockstep equals the one-job runs bit for bit.
        The Fock operator picks its path and serves its memo by the *value*
        of the coefficients it is handed, so whatever the width of the stack
        a job's slice sits in, it does exactly the same exchange work."""
        wf0 = chain_ground_state[1].wavefunction
        jobs = [("ptcn", 1.0, 2), ("rk4", 0.4, 2)]

        def simulation(name):
            return self._simulation(chain_hybrid_hamiltonian, name)

        solo_sims = [simulation(name) for name, _, _ in jobs]
        solo = [sim.run(wf0, dt, n) for sim, (_, dt, n) in zip(solo_sims, jobs)]
        batched_sims = [simulation(name) for name, _, _ in jobs]
        batched = run_batched(
            [
                BatchedRun(simulation=sim, initial_state=wf0, time_step=dt, n_steps=n)
                for sim, (_, dt, n) in zip(batched_sims, jobs)
            ]
        )

        for reference, trajectory in zip(solo, batched):
            for field in ("energies", "dipoles", "electron_numbers", "hamiltonian_applications"):
                assert np.array_equal(getattr(trajectory, field), getattr(reference, field)), field
            assert np.array_equal(
                trajectory.final_wavefunction.coefficients,
                reference.final_wavefunction.coefficients,
            )
        for solo_sim, batched_sim in zip(solo_sims, batched_sims):
            done = solo_sim.hamiltonian.exchange.counters
            assert batched_sim.hamiltonian.exchange.counters == done
            # every application was a self-application on the 3-pair triangle;
            # logically there were fock_applications + 3 energy records, of
            # which each step's first application reused the record before it
            assert done.poisson_solves == 3 * done.applications
            assert done.applications == solo_sim.hamiltonian.counters.fock_applications + 3 - 2

    def test_empty_batch_returns_empty(self):
        assert run_batched([]) == []

    def test_validates_step_count_and_step_size(self, h2_ground_state):
        base_ham, result = h2_ground_state
        wf0 = result.wavefunction

        def run_with(**overrides):
            kwargs = dict(
                simulation=self._simulation(base_ham, "ptcn"),
                initial_state=wf0,
                time_step=1.0,
                n_steps=2,
            )
            kwargs.update(overrides)
            return BatchedRun(**kwargs)

        with pytest.raises(ValueError, match="n_steps"):
            run_batched([run_with(n_steps=0)])
        with pytest.raises(ValueError, match="time_step"):
            run_batched([run_with(time_step=-1.0)])

    def test_rejects_mixed_bases(self, h2_ground_state, chain_ground_state):
        h2_ham, h2_result = h2_ground_state
        chain_ham, chain_result = chain_ground_state
        runs = [
            BatchedRun(
                simulation=self._simulation(h2_ham, "ptcn"),
                initial_state=h2_result.wavefunction,
                time_step=1.0,
                n_steps=1,
            ),
            BatchedRun(
                simulation=self._simulation(chain_ham, "ptcn"),
                initial_state=chain_result.wavefunction,
                time_step=1.0,
                n_steps=1,
            ),
        ]
        with pytest.raises(ValueError, match="basis"):
            run_batched(runs)


class TestHamiltonianClone:
    def test_clone_shares_immutables_but_not_state(self, h2_ground_state):
        base_ham, result = h2_ground_state
        time_before = base_ham.time
        twin = base_ham.clone()
        assert twin.basis is base_ham.basis
        assert twin.structure is base_ham.structure
        assert twin.v_ionic is base_ham.v_ionic
        assert twin.density is None
        assert twin.time == 0.0
        assert twin.counters.apply_calls == 0
        # mutating the clone's time-dependent state leaves the original alone
        twin.set_time(3.0)
        twin.update_potential(result.wavefunction)
        assert base_ham.time == time_before
        assert not np.shares_memory(twin.v_hartree, base_ham.v_hartree)

    def test_clones_apply_identically(self, h2_ground_state):
        base_ham, result = h2_ground_state
        twins = [base_ham.clone() for _ in range(2)]
        for twin in twins:
            twin.update_potential(result.wavefunction)
        coeffs = result.wavefunction.coefficients
        assert np.array_equal(twins[0].apply(coeffs), twins[1].apply(coeffs))


def test_stacked_kernels_take_the_exchange_flags_per_job(h2_ground_state, rng):
    """``apply_many(include_exchange=[...])`` and
    ``update_potentials_many(update_exchange=[...])`` do, per job, what the
    single-block calls do with that job's flag — floats and counters — and a
    job that keeps its exchange orbitals needs no ``Wavefunction``."""
    from repro.core.batching import apply_many, update_potentials_many
    from repro.pw import Wavefunction, compute_density

    base_ham, result = h2_ground_state
    wf0 = result.wavefunction
    wf1 = Wavefunction(wf0.basis, wf0.coefficients * np.exp(0.3j), wf0.occupations)
    target = rng.standard_normal(wf0.coefficients.shape) + 0j
    flags = [True, False, True]

    stacked = [base_ham.clone() for _ in flags]
    single = [base_ham.clone() for _ in flags]
    for ham in stacked + single:
        ham.update_potential(wf0)

    densities = np.stack([compute_density(wf1, base_ham.grid)] * len(flags))
    update_potentials_many(
        stacked, [wf1 if flag else None for flag in flags], densities=densities, update_exchange=flags
    )
    out = apply_many(stacked, np.stack([target] * len(flags)), include_exchange=flags)
    for ham, flag, row in zip(single, flags, out):
        ham.update_potential(wf1, density=densities[0], update_exchange=flag)
        assert np.array_equal(row, ham.apply(target, include_exchange=flag))
    assert [ham.counters for ham in stacked] == [ham.counters for ham in single]
    assert [ham.exchange.counters for ham in stacked] == [ham.exchange.counters for ham in single]
    # job 1 kept the orbitals of wf0 and skipped the Fock term altogether
    assert stacked[1].counters.fock_applications == 0
    assert stacked[1].exchange.counters.applications == 0
