"""Tests for the TDDFT simulation driver."""

import numpy as np
import pytest

from repro.constants import attoseconds_to_au
from repro.core import ETRSPropagator, PTCNPropagator, RK4Propagator, TDDFTSimulation
from repro.core.dynamics import BatchedRun, run_batched
from repro.core.observables import dipole_moment
from repro.pw import Hamiltonian
from support import electron_number


@pytest.fixture()
def driver_setup(h2_ground_state):
    ham, result = h2_ground_state
    prop = PTCNPropagator(ham, scf_tolerance=1e-6, max_scf_iterations=30)
    return ham, prop, result.wavefunction


class TestRun:
    def test_trajectory_lengths(self, driver_setup):
        ham, prop, wf0 = driver_setup
        sim = TDDFTSimulation(ham, prop)
        traj = sim.run(wf0, attoseconds_to_au(25.0), 3)
        assert traj.n_steps == 3
        assert len(traj.times) == 4
        assert traj.energies.shape == (4,)
        assert traj.dipoles.shape == (4, 3)
        assert len(traj.step_statistics) == 3

    def test_times_uniform(self, driver_setup):
        ham, prop, wf0 = driver_setup
        sim = TDDFTSimulation(ham, prop)
        dt = attoseconds_to_au(20.0)
        traj = sim.run(wf0, dt, 2)
        assert np.allclose(np.diff(traj.times), dt)

    def test_electron_number_column(self, driver_setup):
        ham, prop, wf0 = driver_setup
        sim = TDDFTSimulation(ham, prop)
        traj = sim.run(wf0, attoseconds_to_au(25.0), 2)
        assert np.allclose(traj.electron_numbers, 2.0, atol=1e-8)

    def test_field_free_energy_drift_small(self, driver_setup):
        ham, prop, wf0 = driver_setup
        sim = TDDFTSimulation(ham, prop)
        traj = sim.run(wf0, attoseconds_to_au(25.0), 3)
        assert traj.energy_drift < 1e-4

    def test_initial_state_not_modified(self, driver_setup):
        ham, prop, wf0 = driver_setup
        before = wf0.coefficients.copy()
        sim = TDDFTSimulation(ham, prop)
        sim.run(wf0, attoseconds_to_au(25.0), 2)
        assert np.allclose(wf0.coefficients, before)

    def test_disable_recording(self, driver_setup):
        ham, prop, wf0 = driver_setup
        sim = TDDFTSimulation(ham, prop, record_energy=False, record_dipole=False)
        traj = sim.run(wf0, attoseconds_to_au(25.0), 1)
        assert np.isnan(traj.energies[0])
        assert np.isnan(traj.dipoles[0, 0])

    def test_validation(self, driver_setup):
        ham, prop, wf0 = driver_setup
        sim = TDDFTSimulation(ham, prop)
        with pytest.raises(ValueError):
            sim.run(wf0, attoseconds_to_au(25.0), 0)
        with pytest.raises(ValueError):
            sim.run(wf0, -1.0, 2)

    def test_summary_statistics(self, driver_setup):
        ham, prop, wf0 = driver_setup
        sim = TDDFTSimulation(ham, prop)
        traj = sim.run(wf0, attoseconds_to_au(25.0), 2)
        assert traj.average_scf_iterations > 0
        assert traj.total_hamiltonian_applications >= traj.n_steps
        assert traj.converged.tolist() == [True] * (traj.n_steps + 1)
        assert traj.unconverged_steps == 0

    def test_dipole_along(self, driver_setup):
        ham, prop, wf0 = driver_setup
        sim = TDDFTSimulation(ham, prop)
        traj = sim.run(wf0, attoseconds_to_au(25.0), 1)
        z = traj.dipole_along([0, 0, 1])
        assert np.allclose(z, traj.dipoles[:, 2])


class TestRunIsRunBatchedOfOneJob:
    """``run`` is ``run_batched`` of one job, and the width of a group is an
    execution detail: a job stepped alone and the same job inside a wider
    group give the same trajectory, bit for bit, records included."""

    _PROPAGATORS = {
        "ptcn": (PTCNPropagator, 1.0, {}),
        "rk4": (RK4Propagator, 0.3, {}),
        "etrs": (ETRSPropagator, 0.3, {"taylor_order": 3}),
    }

    @pytest.mark.parametrize("record", [True, False], ids=["records on", "records off"])
    @pytest.mark.parametrize("hybrid", [True, False], ids=["hybrid", "semi-local"])
    @pytest.mark.parametrize("name", sorted(_PROPAGATORS))
    def test_bit_identical(self, name, hybrid, record, chain_hybrid_hamiltonian, chain_ground_state):
        base_ham, result = chain_ground_state  # the semi-local Hamiltonian
        if hybrid:
            base_ham = chain_hybrid_hamiltonian
        wf0 = result.wavefunction
        factory, dt, params = self._PROPAGATORS[name]

        def simulation(cls=factory, **kwargs):
            propagator = cls(base_ham.clone(), **kwargs)
            return TDDFTSimulation(
                propagator.hamiltonian, propagator, record_energy=record, record_dipole=record
            )

        alone_sim = simulation(**params)
        (alone,) = run_batched([BatchedRun(alone_sim, wf0, dt, 2, metadata={"name": name})])
        # the same job third in a group of four: a same-scheme neighbour at
        # another step size (and default parameters, so ETRS mixes Taylor
        # orders in one stack) that outlives it, one that finishes first, and
        # another scheme stepping in its own stack
        other = RK4Propagator if factory is PTCNPropagator else PTCNPropagator
        grouped_sim = simulation(**params)
        grouped = run_batched(
            [
                BatchedRun(simulation(), wf0, 0.5 * dt, 3),
                BatchedRun(simulation(), wf0, 0.7 * dt, 1),
                BatchedRun(grouped_sim, wf0, dt, 2, metadata={"name": name}),
                BatchedRun(simulation(other), wf0, 0.2, 2),
            ]
        )[2]
        for column in alone._ARRAY_FIELDS:
            assert np.array_equal(
                getattr(grouped, column), getattr(alone, column), equal_nan=True
            ), column
        assert np.array_equal(
            grouped.final_wavefunction.coefficients, alone.final_wavefunction.coefficients
        )
        assert grouped.metadata == alone.metadata
        for got, expected in zip(grouped.step_statistics, alone.step_statistics, strict=True):
            assert (got.scf_iterations, got.hamiltonian_applications, got.converged) == (
                expected.scf_iterations, expected.hamiltonian_applications, expected.converged
            )
            assert np.array_equal(
                [got.density_error, got.orthogonality_error],
                [expected.density_error, expected.orthogonality_error],
                equal_nan=True,
            )
        # (potential rebuilds are not compared: a neighbour leaving the stack
        # makes the next step repeat, verbatim, the rebuild its predecessor
        # ended on)
        done, expected = grouped_sim.hamiltonian.counters, alone_sim.hamiltonian.counters
        assert (done.apply_calls, done.fock_applications) == (
            expected.apply_calls, expected.fock_applications
        )
        if hybrid:
            assert grouped_sim.hamiltonian.exchange.counters == alone_sim.hamiltonian.exchange.counters

    def test_records_are_those_of_the_returned_state(self, chain_hybrid_hamiltonian, chain_ground_state):
        """The stored density/Hartree/xc the records read belong to the
        state the step returned: recomputing from the orbitals through the
        width-1 calls of the same bodies gives the same floats."""
        wf0 = chain_ground_state[1].wavefunction
        ham = chain_hybrid_hamiltonian.clone()
        sim = TDDFTSimulation(ham, PTCNPropagator(ham))
        traj = sim.run(wf0, 1.0, 2)
        final = traj.final_wavefunction
        assert traj.energies[-1] == ham.total_energy(final)
        assert np.array_equal(traj.dipoles[-1], dipole_moment(final))
        assert traj.electron_numbers[-1] == electron_number(final)
