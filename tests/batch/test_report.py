"""SweepReport aggregation on synthetic results (no physics engine involved)."""

import json

import numpy as np
import pytest

from repro.batch import JobResult, SweepReport
from repro.core.dynamics import Trajectory


def _trajectory(dt: float, n_steps: int, energy: float = -1.0, slope: float = 0.0) -> Trajectory:
    """A fabricated trajectory with linear-in-time energy/dipole series."""
    times = np.arange(n_steps + 1) * dt
    return Trajectory.from_dict(
        {
            "times": times.tolist(),
            "energies": (energy + slope * times).tolist(),
            "dipoles": [[slope * t, 0.0, 0.0] for t in times],
            "electron_numbers": [2.0] * (n_steps + 1),
            "scf_iterations": [0] + [3] * n_steps,
            "hamiltonian_applications": [0] + [4] * n_steps,
            "density_errors": [0.0] * (n_steps + 1),
            "wall_time": 0.5,
            "metadata": {"integrator": "FAKE"},
        }
    )


def _result(index, propagator, dt, n_steps, *, status="completed", slope=0.0) -> JobResult:
    traj = _trajectory(dt, n_steps, slope=slope) if status != "failed" else None
    summary = {}
    if traj is not None:
        summary = {
            "propagator": propagator,
            "integrator": propagator.upper(),
            "time_step_as": dt,
            "n_steps": n_steps,
            "hamiltonian_applications": 4 * n_steps,
            "average_scf_iterations": 3.0,
            "energy_drift": abs(slope) * dt * n_steps,
            "wall_time": 0.5,
            "final_energy": float(traj.energies[-1]),
            "final_electron_number": 2.0,
            "final_dipole": [float(x) for x in traj.dipoles[-1]],
        }
    return JobResult(
        index=index,
        job_id=f"job{index:04d}-aaaa",
        point={"propagator.name": propagator, "run.time_step_as": dt},
        config={"propagator": {"name": propagator}},
        status=status,
        summary=summary,
        trajectory=traj,
        error="RuntimeError: boom" if status == "failed" else None,
    )


@pytest.fixture()
def report() -> SweepReport:
    # same 8 au window covered at three step sizes plus one failure; the
    # dt=2 run has a slightly sloped energy/dipole to give nonzero errors
    return SweepReport(
        [
            _result(3, "rk4", 2.0, 4, slope=1e-3),
            _result(0, "ptcn", 1.0, 8),
            _result(1, "ptcn", 2.0, 4),
            _result(2, "rk4", 1.0, 8),
            _result(4, "cn", 1.0, 8, status="failed"),
        ],
        axes=["propagator.name", "run.time_step_as"],
    )


class TestBasics:
    def test_results_sorted_by_index(self, report):
        assert [r.index for r in report] == [0, 1, 2, 3, 4]

    def test_completed_and_failed_partition(self, report):
        assert len(report) == 5
        assert len(report.completed) == 4
        assert [r.status for r in report.failed] == ["failed"]

    def test_result_for_unknown_id_lists_known(self, report):
        with pytest.raises(KeyError, match="job0000-aaaa"):
            report.result_for("nope")


class TestTables:
    def test_to_table_has_axis_columns_and_all_jobs(self, report):
        table = report.to_table()
        assert "propagator.name" in table and "run.time_step_as" in table
        assert len(table.splitlines()) == 2 + 5
        assert "failed" in table

    def test_fig6_table_excludes_failures(self, report):
        table = report.fig6_table()
        assert len(table.splitlines()) == 2 + 4
        assert "PTCN" in table and "RK4" in table

    def test_pivot_grid(self, report):
        table = report.pivot("hamiltonian_applications")
        lines = table.splitlines()
        assert lines[0].split()[0] == "propagator"
        assert len(lines) == 2 + 2  # ptcn and rk4 rows; failed cn never ran
        assert "32" in table and "16" in table

    def test_json_round_trip_preserves_everything(self, report):
        data = json.loads(report.to_json())
        rebuilt = SweepReport(
            [JobResult.from_dict(j) for j in data["jobs"]], axes=data["axes"]
        )
        assert rebuilt.to_dict() == report.to_dict()
        assert rebuilt.results[0].trajectory.metadata == {"integrator": "FAKE"}


class TestAccuracy:
    def test_reference_defaults_to_smallest_dt(self, report):
        assert report.reference_result().job_id == "job0000-aaaa"

    def test_identical_series_have_zero_error(self, report):
        errors = report.accuracy_errors()
        # dt=2 PT-CN run lies on the same flat series as the dt=1 reference
        assert errors["job0001-aaaa"]["energy_error"] == pytest.approx(0.0, abs=1e-15)
        assert errors["job0001-aaaa"]["dipole_error"] == pytest.approx(0.0, abs=1e-15)

    def test_sloped_series_error_matches_final_deviation(self, report):
        errors = report.accuracy_errors()
        # slope 1e-3 over an 8 au window, reference is flat
        assert errors["job0003-aaaa"]["energy_error"] == pytest.approx(8e-3)
        assert errors["job0003-aaaa"]["dipole_error"] == pytest.approx(8e-3)

    def test_explicit_reference_and_table_marker(self, report):
        table = report.accuracy_table(reference_job_id="job0002-aaaa")
        assert "(reference)" in table
        assert len(table.splitlines()) == 2 + 4

    def test_failed_reference_rejected(self, report):
        with pytest.raises(ValueError, match="did not complete"):
            report.reference_result("job0004-aaaa")

    def test_no_completed_jobs_rejected(self):
        empty = SweepReport([_result(0, "cn", 1.0, 2, status="failed")])
        with pytest.raises(ValueError, match="no completed jobs"):
            empty.reference_result()


class TestScalingTable:
    def _execution(self):
        return {
            "backend": "distributed",
            "schedule": "makespan_balanced",
            "ranks": 2,
            "n_groups": 2,
            "n_jobs": 4,
            "per_rank": [
                {"rank": 0, "node": 0, "link": "nvlink", "groups": 1, "jobs": 2,
                 "predicted_seconds": 2.5, "observed_seconds": 0.4,
                 "predicted_energy_j": 10.0, "comm_seconds": 0.001,
                 "dispatch_bytes": 100, "result_bytes": 400},
                {"rank": 1, "node": 1, "link": "ib", "groups": 1, "jobs": 2,
                 "predicted_seconds": 1.5, "observed_seconds": 0.3,
                 "predicted_energy_j": 6.0, "comm_seconds": 0.002,
                 "dispatch_bytes": 100, "result_bytes": 400},
            ],
        }

    def test_per_rank_predicted_vs_observed_rows(self, report):
        report.execution = self._execution()
        table = report.scaling_table()
        lines = table.splitlines()
        assert "predicted [s]" in lines[0] and "observed [s]" in lines[0]
        assert "energy [J]" in lines[0]
        assert len(lines) == 2 + 2 + 1  # header, separator, 2 ranks, footer
        assert "nvlink" in table and "ib" in table
        assert "predicted makespan = 2.5 s" in lines[-1]
        assert "observed 0.4 s" in lines[-1]
        assert "predicted energy = 16 J" in lines[-1]
        assert "1000 B" in lines[-1]

    def test_non_distributed_backends_get_a_pointer(self, report):
        report.execution = {"backend": "serial", "n_groups": 2, "n_jobs": 4}
        assert "backend='distributed'" in report.scaling_table()

    def test_execution_table_carries_links_and_wall_costs(self, report):
        report.execution = self._execution()
        table = report.execution_table()
        assert "link" in table.splitlines()[0] and "comm [s]" in table.splitlines()[0]
        assert "nvlink" in table and "ib" in table


def _kick_result(index, n_atoms, omega, *, pulse="delta_kick", strength=0.01) -> JobResult:
    """A delta-kick job whose dipole oscillates at ``omega`` (Ha)."""
    dt, n_steps = 0.4, 160
    times = np.arange(n_steps + 1) * dt
    dipole = 0.05 * np.sin(omega * times)
    traj = Trajectory.from_dict(
        {
            "times": times.tolist(),
            "energies": [-1.0] * (n_steps + 1),
            "dipoles": [[float(d), 0.0, 0.0] for d in dipole],
            "electron_numbers": [2.0] * (n_steps + 1),
            "scf_iterations": [0] + [3] * n_steps,
            "hamiltonian_applications": [0] + [4] * n_steps,
            "density_errors": [0.0] * (n_steps + 1),
            "wall_time": 0.1,
            "metadata": {"integrator": "PT-CN"},
        }
    )
    return JobResult(
        index=index,
        job_id=f"job{index:04d}-kick",
        point={"system.params.n_atoms": n_atoms},
        config={
            "laser": {"pulse": pulse, "params": {"strength": strength, "polarization": [1, 0, 0]}},
        },
        status="completed",
        summary={"time_step_as": 10.0, "n_steps": n_steps, "wall_time": 0.1},
        trajectory=traj,
    )


class TestSpectra:
    def test_spectra_peak_at_the_driving_frequency(self):
        """The spectrum of a sinusoidal dipole peaks at its frequency, for
        every job of the sweep."""
        report = SweepReport(
            [_kick_result(0, 2, omega=0.3), _kick_result(1, 4, omega=0.6)],
            axes=["system.params.n_atoms"],
        )
        spectra = report.spectra(damping=0.005, max_energy=1.0, n_frequencies=800)
        assert set(spectra) == {"job0000-kick", "job0001-kick"}
        for job_id, omega in (("job0000-kick", 0.3), ("job0001-kick", 0.6)):
            s = spectra[job_id]
            peak = s.frequencies[np.argmax(np.abs(s.strength))]
            assert peak == pytest.approx(omega, abs=0.02)

    def test_spectrum_table_aggregates_across_sizes(self):
        report = SweepReport(
            [_kick_result(0, 2, omega=0.3), _kick_result(1, 4, omega=0.6)],
            axes=["system.params.n_atoms"],
        )
        table = report.spectrum_table(damping=0.005, max_energy=1.0)
        lines = table.splitlines()
        assert "system.params.n_atoms" in lines[0] and "peak [eV]" in lines[0]
        assert len(lines) == 2 + 2

    def test_kick_alias_resolves_and_others_are_skipped(self):
        """A mixed sweep yields spectra for exactly its delta-kick runs; the
        registry alias 'kick' counts."""
        aliased = _kick_result(0, 2, omega=0.3, pulse="kick")
        plain = _result(1, "ptcn", 1.0, 8)  # gaussian-free config, no kick
        report = SweepReport([aliased, plain])
        spectra = report.spectra(max_energy=1.0)
        assert set(spectra) == {"job0000-kick"}

    def test_an_unknown_pulse_is_skipped(self):
        """A pulse name this process does not register (the registry raises
        UnknownNameError) is not a kick: the job is left out, not fatal."""
        unknown = _kick_result(1, 4, omega=0.6, pulse="no_such_pulse")
        report = SweepReport([_kick_result(0, 2, omega=0.3), unknown])
        assert set(report.spectra(max_energy=1.0)) == {"job0000-kick"}

    def test_any_other_lookup_failure_propagates(self, monkeypatch):
        from repro.api.registry import PULSES

        def broken(name):
            raise RuntimeError("asset library unreadable")

        monkeypatch.setattr(PULSES, "get", broken)
        report = SweepReport([_kick_result(0, 2, omega=0.3)])
        with pytest.raises(RuntimeError, match="asset library unreadable"):
            report.spectra(max_energy=1.0)

    def test_no_kicked_jobs_raises_actionable_error(self, report):
        with pytest.raises(ValueError, match="delta_kick"):
            report.spectrum_table()
