"""Session end-to-end: config-driven results match the hand-wired path.

The module-scoped fixtures run the quickstart-sized H2 system once through
``run_tddft`` and once through the explicit five-layer wiring; the tests then
assert bit-level equality of the two paths, caching behaviour, propagator
comparison and npz round-trips.
"""

import numpy as np
import pytest

from repro.api import SimulationConfig, Session, compare_propagators, run_tddft
from repro.constants import attoseconds_to_au
from repro.core import PTCNPropagator, TDDFTSimulation, Trajectory
from repro.pw import (
    FFTGrid,
    GaussianLaserPulse,
    GroundStateResult,
    GroundStateSolver,
    Hamiltonian,
    PlaneWaveBasis,
    choose_grid_shape,
    hydrogen_molecule,
)

N_STEPS = 2  # quickstart physics, trimmed for test runtime

QUICKSTART_DICT = {
    "system": {"structure": "hydrogen_molecule", "params": {"box": 10.0, "bond_length": 1.4}},
    "basis": {"ecut": 3.0, "grid_factor": 1.0},
    "xc": {"hybrid_mixing": 0.25, "screening_length": None},
    "laser": {
        "pulse": "gaussian",
        "params": {
            "amplitude": 0.005,
            "omega": 0.35,
            "t0_as": 150.0,
            "sigma_as": 60.0,
            "polarization": [1.0, 0.0, 0.0],
        },
    },
    "propagator": {"name": "ptcn", "params": {"scf_tolerance": 1e-6, "max_scf_iterations": 30}},
    "run": {"time_step_as": 50.0, "n_steps": N_STEPS, "gs_scf_tolerance": 1e-7},
}


@pytest.fixture(scope="module")
def api_session():
    session = Session(SimulationConfig.from_dict(QUICKSTART_DICT))
    session.propagate()
    return session


@pytest.fixture(scope="module")
def hand_wired():
    """The identical run assembled object by object, as quickstart.py used to."""
    structure = hydrogen_molecule(box=10.0, bond_length=1.4)
    ecut = 3.0
    grid = FFTGrid(structure.cell, choose_grid_shape(structure.cell, ecut, factor=1.0))
    basis = PlaneWaveBasis(grid, ecut)
    pulse = GaussianLaserPulse(
        amplitude=0.005,
        omega=0.35,
        t0=attoseconds_to_au(150.0),
        sigma=attoseconds_to_au(60.0),
        polarization=[1.0, 0.0, 0.0],
    )
    # the ground state is field-free; the field is switched on by the propagation
    field_free = Hamiltonian(basis, structure, hybrid_mixing=0.25, screening_length=None)
    ground_state = GroundStateSolver(field_free, scf_tolerance=1e-7).solve()
    hamiltonian = Hamiltonian(
        basis,
        structure,
        hybrid_mixing=0.25,
        screening_length=None,
        external_field=pulse.potential_factory(grid),
    )
    propagator = PTCNPropagator(hamiltonian, scf_tolerance=1e-6, max_scf_iterations=30)
    simulation = TDDFTSimulation(hamiltonian, propagator)
    trajectory = simulation.run(ground_state.wavefunction, attoseconds_to_au(50.0), N_STEPS)
    return ground_state, trajectory


# ---------------------------------------------------------------------------
# Equivalence with the explicit path
# ---------------------------------------------------------------------------


def test_run_tddft_matches_hand_wired_path(api_session, hand_wired):
    _, reference = hand_wired
    trajectory = api_session.propagate()
    assert isinstance(trajectory, Trajectory)
    assert trajectory.n_steps == N_STEPS
    np.testing.assert_allclose(trajectory.energies, reference.energies, rtol=0, atol=1e-12)
    np.testing.assert_allclose(trajectory.dipoles, reference.dipoles, rtol=0, atol=1e-12)
    np.testing.assert_allclose(
        trajectory.electron_numbers, reference.electron_numbers, rtol=0, atol=1e-12
    )
    np.testing.assert_array_equal(trajectory.scf_iterations, reference.scf_iterations)
    np.testing.assert_array_equal(
        trajectory.hamiltonian_applications, reference.hamiltonian_applications
    )


def test_ground_state_matches_hand_wired_path(api_session, hand_wired):
    reference, _ = hand_wired
    result = api_session.ground_state()
    assert result.converged == reference.converged
    assert result.scf_iterations == reference.scf_iterations
    assert result.total_energy == pytest.approx(reference.total_energy, abs=1e-12)
    np.testing.assert_allclose(result.eigenvalues, reference.eigenvalues, rtol=0, atol=1e-12)


def test_one_call_run_tddft_is_equivalent(hand_wired):
    _, reference = hand_wired
    trajectory = run_tddft(SimulationConfig.from_dict(QUICKSTART_DICT))
    np.testing.assert_allclose(trajectory.energies, reference.energies, rtol=0, atol=1e-12)


# ---------------------------------------------------------------------------
# Caching
# ---------------------------------------------------------------------------


def test_session_caches_ground_state_and_trajectories(api_session):
    assert api_session.ground_state() is api_session.ground_state()
    assert api_session.propagate() is api_session.propagate()
    assert api_session.hamiltonian is api_session.hamiltonian
    assert len(api_session.trajectories) == 1


def test_propagate_is_propagate_many_of_one_request(api_session):
    """One cache, one engine: ``propagate(r)`` and ``propagate_many([r])[0]``
    are the same trajectory object, whichever ran first and however wide the
    call that computed it."""
    configured = api_session.propagate()
    assert api_session.propagate_many([{}])[0] is configured
    short, again = api_session.propagate_many([{"n_steps": 1}, {}])
    assert again is configured
    assert api_session.propagate(n_steps=1) is short


def test_propagate_overrides_create_distinct_cache_entries(api_session):
    short = api_session.propagate(n_steps=1)
    assert short.n_steps == 1
    assert short is api_session.propagate(n_steps=1)
    assert short is not api_session.propagate()
    assert len(api_session.trajectories) == 2


def test_alias_shares_cache_and_configured_params(api_session):
    # "pt-cn" is a registry alias of the configured "ptcn": same params, same cache entry
    assert api_session.propagate("pt-cn") is api_session.propagate()


def test_duplicate_labels_never_shadow_trajectories(api_session):
    before = len(api_session._trajectories)
    api_session.propagate(n_steps=1, params={"scf_tolerance": 1e-7})
    api_session.propagate(n_steps=1, params={"scf_tolerance": 1e-5})
    assert len(api_session.trajectories) == len(api_session._trajectories) == before + 2


def test_performance_report_lists_all_runs(api_session):
    report = api_session.performance_report()
    assert "PT-CN" in report
    assert "ground state" in report
    assert "Fock applies" in report


# ---------------------------------------------------------------------------
# compare_propagators
# ---------------------------------------------------------------------------


def test_compare_propagators_ptcn_vs_rk4():
    config = SimulationConfig.from_dict(
        {
            "system": {"structure": "hydrogen_molecule", "params": {"box": 8.0, "bond_length": 1.4}},
            "basis": {"ecut": 2.0},
            "xc": {"hybrid_mixing": 0.25, "screening_length": None},
            "run": {"time_step_as": 1.0, "n_steps": 2, "gs_scf_tolerance": 1e-6},
        }
    )
    runs = compare_propagators(config, ["ptcn", "rk4"])
    assert list(runs) == ["ptcn", "rk4"]
    for trajectory in runs.values():
        assert isinstance(trajectory, Trajectory)
        assert trajectory.n_steps == 2
        assert np.all(np.isfinite(trajectory.energies))
    # field-free short window: the two integrators agree on the energy
    assert runs["ptcn"].energies[-1] == pytest.approx(runs["rk4"].energies[-1], abs=1e-5)


# ---------------------------------------------------------------------------
# Cache isolation and sharing (SCF call counting)
# ---------------------------------------------------------------------------


def test_sessions_with_different_configs_never_share_ground_state(tiny_config, count_scf_solves):
    """Cache staleness guard: the ground-state cache is strictly per-session,
    so a config change can never be served a stale SCF result."""
    first = Session(tiny_config)
    second = Session(tiny_config.with_overrides({"basis.ecut": 1.5}))
    gs_first = first.ground_state()
    gs_second = second.ground_state()
    assert len(count_scf_solves) == 2
    assert gs_first is not gs_second
    assert gs_first.total_energy != gs_second.total_energy


def test_sessions_with_equal_configs_still_solve_independently(tiny_config, count_scf_solves):
    """Two sessions over the same config are isolated instances — one's
    cache mutating can never leak into the other."""
    a = Session(tiny_config)
    b = Session(tiny_config)
    gs_a = a.ground_state()
    gs_b = b.ground_state()
    assert len(count_scf_solves) == 2
    assert gs_a is not gs_b
    assert gs_a.total_energy == pytest.approx(gs_b.total_energy, abs=1e-12)


def test_compare_propagators_converges_exactly_one_ground_state(tiny_config, count_scf_solves):
    runs = compare_propagators(tiny_config, ["ptcn", "rk4", "etrs"])
    assert len(count_scf_solves) == 1
    assert list(runs) == ["ptcn", "rk4", "etrs"]


def test_propagate_attaches_provenance_metadata(api_session):
    trajectory = api_session.propagate()
    metadata = trajectory.metadata
    assert metadata["propagator"] == "ptcn"
    assert metadata["integrator"] == "PT-CN"
    assert metadata["time_step_as"] == 50.0
    assert metadata["config"] == api_session.config.to_dict()
    import repro

    assert metadata["repro_version"] == repro.__version__


# ---------------------------------------------------------------------------
# Serialization round trips
# ---------------------------------------------------------------------------


def test_trajectory_npz_round_trip(api_session, tmp_path):
    trajectory = api_session.propagate()
    path = tmp_path / "trajectory.npz"
    trajectory.save_npz(path)
    loaded = Trajectory.load_npz(path, api_session.basis)
    for name in Trajectory._ARRAY_FIELDS:
        np.testing.assert_array_equal(getattr(loaded, name), getattr(trajectory, name))
    assert loaded.wall_time == trajectory.wall_time
    assert loaded.metadata == trajectory.metadata  # provenance survives the archive
    np.testing.assert_array_equal(
        loaded.final_wavefunction.coefficients, trajectory.final_wavefunction.coefficients
    )
    np.testing.assert_array_equal(
        loaded.final_wavefunction.occupations, trajectory.final_wavefunction.occupations
    )
    # without a basis the observables still load, and re-saving fails clearly
    partial = Trajectory.load_npz(path)
    assert partial.final_wavefunction is None
    np.testing.assert_array_equal(partial.energies, trajectory.energies)
    with pytest.raises(ValueError, match="without a basis"):
        partial.save_npz(path)


def test_trajectory_to_dict_is_json_serializable(api_session):
    import json

    trajectory = api_session.propagate()
    data = trajectory.to_dict()
    json.dumps(data)
    assert data["energies"] == list(trajectory.energies)
    assert data["wall_time"] == trajectory.wall_time


def test_ground_state_npz_round_trip(api_session, tmp_path):
    import json

    result = api_session.ground_state()
    json.dumps(result.to_dict())
    path = tmp_path / "ground_state.npz"
    result.save_npz(path)
    loaded = GroundStateResult.load_npz(path, api_session.basis)
    assert loaded.total_energy == result.total_energy
    assert loaded.converged == result.converged
    assert loaded.scf_iterations == result.scf_iterations
    np.testing.assert_array_equal(loaded.eigenvalues, result.eigenvalues)
    np.testing.assert_array_equal(
        loaded.wavefunction.coefficients, result.wavefunction.coefficients
    )
    partial = GroundStateResult.load_npz(path)
    assert partial.wavefunction is None
    with pytest.raises(ValueError, match="without a basis"):
        partial.save_npz(path)


# ---------------------------------------------------------------------------
# Trajectory.dipole_along guard (satellite)
# ---------------------------------------------------------------------------


def test_dipole_along_rejects_zero_direction(api_session):
    trajectory = api_session.propagate()
    with pytest.raises(ValueError, match="nonzero"):
        trajectory.dipole_along([0.0, 0.0, 0.0])
    projected = trajectory.dipole_along([2.0, 0.0, 0.0])  # normalised internally
    np.testing.assert_allclose(projected, trajectory.dipoles[:, 0])
