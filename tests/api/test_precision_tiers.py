"""The opt-in ``complex64`` screening tier: accuracy, provenance, isolation.

Three invariants (see :mod:`repro.core.precision`):

* accuracy — on the tiny reference configs, norms / energies / dipoles stay
  within the documented ``COMPLEX64_*`` tolerances of the ``complex128``
  reference;
* provenance — complex64 trajectories and sweep summaries are stamped
  ``precision: complex64``; the default tier is *not* stamped, so complex128
  provenance stays byte-identical to what it was before tiers existed;
* isolation — complex64 results are never written to, nor served from, the
  result store: a warm store only ever returns double-precision physics.
"""

from __future__ import annotations

import numpy as np
import pytest

from repro.api import Session, SimulationConfig
from repro.batch import BatchRunner, SweepSpec
from repro.core.precision import (
    COMPLEX64_DIPOLE_TOL,
    COMPLEX64_ENERGY_TOL,
    COMPLEX64_NORM_TOL,
    PRECISIONS,
    precision_dtype,
    resolve_precision,
)
from repro.exec import ExecutionSettings
from repro.store import ResultStore

#: tiny semi-local H2 base (mirrors the root conftest's TINY_API_DICT;
#: restated so the module-scoped warm session below stays self-contained)
TINY_API_DICT = {
    "system": {"structure": "hydrogen_molecule", "params": {"box": 8.0, "bond_length": 1.4}},
    "basis": {"ecut": 2.0},
    "xc": {"hybrid_mixing": 0.0},
    "run": {"time_step_as": 1.0, "n_steps": 2, "gs_scf_tolerance": 1e-6},
}


@pytest.fixture(scope="module")
def tiers():
    """One warm session with the tiny H2 run at both precision tiers."""
    session = Session(SimulationConfig.from_dict(TINY_API_DICT))
    return session, session.propagate(), session.propagate_many([dict(precision="complex64")])[0]


class TestResolution:
    def test_defaults_and_validation(self):
        assert resolve_precision(None) == "complex128"
        assert resolve_precision("complex64") == "complex64"
        with pytest.raises(ValueError, match="complex128"):
            resolve_precision("float16")

    def test_dtypes(self):
        assert precision_dtype("complex128") == np.dtype(np.complex128)
        assert precision_dtype("complex64") == np.dtype(np.complex64)
        assert PRECISIONS[0] == "complex128"


class TestAccuracy:
    def test_orbitals_run_single_observables_stay_double(self, tiers):
        _, reference, screened = tiers
        assert reference.final_wavefunction.coefficients.dtype == np.complex128
        assert screened.final_wavefunction.coefficients.dtype == np.complex64
        # observables are accumulated in double regardless of the tier
        assert np.asarray(screened.energies).dtype == np.float64
        assert np.asarray(screened.electron_numbers).dtype == np.float64

    def test_electron_number_within_norm_tolerance(self, tiers):
        _, reference, screened = tiers
        deviation = np.abs(
            np.asarray(screened.electron_numbers) - np.asarray(reference.electron_numbers)
        ) / np.asarray(reference.electron_numbers)
        assert np.max(deviation) < COMPLEX64_NORM_TOL

    def test_energies_within_tolerance(self, tiers):
        _, reference, screened = tiers
        deviation = np.abs(np.asarray(screened.energies) - np.asarray(reference.energies))
        assert np.max(deviation) < COMPLEX64_ENERGY_TOL

    def test_dipoles_within_tolerance(self, tiers):
        _, reference, screened = tiers
        deviation = np.abs(np.asarray(screened.dipoles) - np.asarray(reference.dipoles))
        assert np.max(deviation) < COMPLEX64_DIPOLE_TOL


class TestProvenance:
    def test_only_the_screening_tier_is_stamped(self, tiers):
        _, reference, screened = tiers
        assert screened.metadata["precision"] == "complex64"
        assert "precision" not in reference.metadata

    def test_tiers_cache_separately_with_distinct_labels(self, tiers):
        session, reference, screened = tiers
        assert session.propagate() is reference
        assert session.propagate_many([dict(precision="complex64")])[0] is screened
        labels = set(session._trajectory_labels.values())
        assert any("(complex64)" in label for label in labels)

    def test_invalid_precision_raises(self, tiers):
        session, _, _ = tiers
        with pytest.raises(ValueError, match="precision"):
            session.propagate_many([dict(precision="float32")])[0]


class TestStoreIsolation:
    @pytest.fixture()
    def spec(self):
        base = SimulationConfig.from_dict(TINY_API_DICT)
        return SweepSpec(base, {"run.time_step_as": [1.0, 2.0]})

    def test_complex64_results_never_enter_or_leave_the_store(self, spec, tmp_path):
        store = ResultStore(tmp_path / "store")
        screening = ExecutionSettings(precision="complex64")

        first = BatchRunner(spec, store=store, settings=screening).run()
        assert [r.status for r in first.results] == ["completed", "completed"]
        assert all(r.summary["precision"] == "complex64" for r in first.results)

        # nothing was saved: the double-precision run still computes everything
        double = BatchRunner(spec, store=store).run()
        assert [r.status for r in double.results] == ["completed", "completed"]
        assert all("precision" not in r.summary for r in double.results)

        # and a warm double-precision store never serves the screening tier
        second = BatchRunner(spec, store=store, settings=screening).run()
        assert [r.status for r in second.results] == ["completed", "completed"]

        # ...while the double tier is served entirely from the store
        cached = BatchRunner(spec, store=store).run()
        assert [r.status for r in cached.results] == ["cached", "cached"]

    def test_report_settings_record_the_tier(self, spec, tmp_path):
        report = BatchRunner(spec, settings=ExecutionSettings(precision="complex64")).run()
        assert report.settings["precision"] == "complex64"
