"""Assets through the stack: configs, sessions, hashes, sweeps, reports."""

import pytest

from repro.api import SimulationConfig, UnknownNameError
from repro.api.registry import PROPAGATORS, PULSES, STRUCTURES
from repro.api.session import Session
from repro.assets import default_library
from repro.batch import SweepSpec
from repro.batch.runner import BatchRunner
from repro.batch.sweep import config_hash, ground_state_group_key

ASSET_CFG = {
    "system": {"structure": "asset:structure/h2-box@1"},
    "basis": {"ecut": 2.0},
    "xc": {"hybrid_mixing": 0.0},
    "laser": {
        "pulse": "asset:pulse/pump-probe-380+760@1",
        "params": {"fluence": 1e-7, "duration_fs": 0.005},
    },
    "run": {"time_step_as": 1.0, "n_steps": 2, "gs_scf_tolerance": 1e-6},
}

PLAIN_CFG = {
    "system": {"structure": "hydrogen_molecule", "params": {"box": 8.0}},
    "basis": {"ecut": 2.0},
    "xc": {"hybrid_mixing": 0.0},
    "laser": {"pulse": "none"},
    "run": {"time_step_as": 1.0, "n_steps": 2, "gs_scf_tolerance": 1e-6},
}


class TestConfigResolution:
    def test_asset_config_validates(self):
        SimulationConfig.from_dict(ASSET_CFG).validate()

    def test_unknown_asset_fails_at_validation_with_suggestion(self):
        bad = {**ASSET_CFG, "system": {"structure": "asset:structure/h2-boxx@1"}}
        with pytest.raises(UnknownNameError) as excinfo:
            SimulationConfig.from_dict(bad).validate()
        assert "structure/h2-box@1" in str(excinfo.value)

    def test_kind_mismatch_fails_at_validation(self):
        bad = {**ASSET_CFG, "system": {"structure": "asset:pulse/kick-z@1"}}
        with pytest.raises(UnknownNameError, match="structure"):
            SimulationConfig.from_dict(bad).validate()

    def test_registries_without_asset_kind_reject_asset_refs(self):
        with pytest.raises(UnknownNameError, match="cannot be asset references"):
            PROPAGATORS.get("asset:pulse/kick-z@1")

    def test_structure_factory_respects_params(self):
        structure = STRUCTURES.create(
            "asset:structure/si-diamond-1x1x1@1", repeats=(1, 1, 2)
        )
        assert structure.natoms == 16

    def test_pulse_factory_merges_params(self):
        pulse = PULSES.create("asset:pulse/pump-probe-380+760@1", fluence=1e-7, delay_as=25.0)
        assert pulse.delay > 0


class TestHashOverlay:
    def test_plain_config_hash_has_no_assets_key(self):
        """Registry-only configs hash exactly as before the asset layer."""
        data = SimulationConfig.from_dict(PLAIN_CFG).to_dict()
        assert "assets" not in data
        assert config_hash(PLAIN_CFG) == config_hash(dict(PLAIN_CFG))

    def test_asset_content_changes_move_the_hash(self, monkeypatch):
        cfg = SimulationConfig.from_dict(ASSET_CFG)
        baseline = config_hash(cfg)
        library = default_library()
        real_digest = library.digest

        def drifted(ref):
            if ref == "structure/h2-box@1":
                return "d" * 64
            return real_digest(ref)

        monkeypatch.setattr(library, "digest", drifted)
        assert config_hash(cfg) != baseline

    def test_group_key_carries_asset_digests(self):
        key = ground_state_group_key(SimulationConfig.from_dict(ASSET_CFG))
        assert default_library().digest("structure/h2-box@1") in key

    def test_asset_and_plain_hashes_differ(self):
        assert config_hash(SimulationConfig.from_dict(ASSET_CFG)) != config_hash(
            SimulationConfig.from_dict(PLAIN_CFG)
        )


class TestIdentityIsFixedAtExpansion:
    """A job's hash is the hash of the asset content the library held when
    the spec was expanded; the store files and finds the result under that
    one carried key, and a reused spec notices when the content moved on."""

    @pytest.fixture()
    def drift(self, monkeypatch):
        """Call to make the library report new content for the H2 structure."""
        library = default_library()
        real_digest = library.digest

        def apply(digest="d" * 64):
            monkeypatch.setattr(
                library, "digest",
                lambda ref: digest if ref == "structure/h2-box@1" else real_digest(ref),
            )

        return apply

    def test_a_result_is_saved_under_the_hash_it_was_expanded_with(self, tmp_path, drift):
        from repro.store import ResultStore

        (job,) = SweepSpec(SimulationConfig.from_dict(ASSET_CFG)).expand()
        assert job.job_id.endswith(job.config_hash)
        store = ResultStore(tmp_path / "store")

        # the library changes between expansion and the save at the end of
        # the run: the job keeps the identity it was given (at the parent the
        # save re-hashed, so job_id and store key disagreed)
        original = ResultStore.save

        def save_after_drift(self, result):
            drift()
            return original(self, result)

        with pytest.MonkeyPatch.context() as patch:
            patch.setattr(ResultStore, "save", save_after_drift)
            (result,) = BatchRunner(SweepSpec(job.config), store=store).run().results
        assert result.status == "completed" and result.job_id == job.job_id
        assert config_hash(job.config) != job.config_hash  # the library did move
        assert store.job_manifest_path(job.config_hash).exists()
        assert store.has(job) and store.load(job).status == "cached"

    def test_a_reused_spec_re_expands_when_an_asset_it_names_changes(self, drift):
        spec = SweepSpec(
            SimulationConfig.from_dict(PLAIN_CFG),
            {"system": [{"structure": "hydrogen_molecule", "params": {"box": 8.0}},
                        {"structure": "asset:structure/h2-box@1", "params": {}}]},
        )
        plain, asset = spec.expand()
        assert all(a is b for a, b in zip(spec.expand(), (plain, asset)))  # one expansion
        drift()
        plain_again, asset_again = spec.expand()
        assert plain_again == plain
        assert asset_again.config_hash != asset.config_hash
        assert asset_again.config_hash == config_hash(asset_again.config)
        assert asset_again.group_key != asset.group_key and "d" * 64 in asset_again.group_key
        assert all(a is b for a, b in zip(spec.expand(), (plain_again, asset_again)))


class TestEndToEnd:
    @pytest.fixture(scope="class")
    def report(self):
        spec = SweepSpec(
            SimulationConfig.from_dict(ASSET_CFG),
            {"laser.params.fluence": [1e-7, 4e-7]},
        )
        return BatchRunner(spec).run()

    def test_fluence_sweep_runs(self, report):
        assert not report.failed
        assert len(report.results) == 2

    def test_summaries_carry_asset_provenance(self, report):
        for result in report.results:
            assets = result.summary["assets"]
            assert assets["asset:structure/h2-box@1"] == default_library().digest(
                "structure/h2-box@1"
            )
            assert "asset:pulse/pump-probe-380+760@1" in assets

    def test_trajectory_metadata_stamped(self):
        session = Session(SimulationConfig.from_dict(ASSET_CFG))
        trajectory = session.propagate()
        assets = trajectory.metadata["assets"]
        assert set(assets) == {
            "asset:structure/h2-box@1",
            "asset:pulse/pump-probe-380+760@1",
        }

    def test_plain_trajectory_metadata_unstamped(self):
        session = Session(SimulationConfig.from_dict(PLAIN_CFG))
        trajectory = session.propagate()
        assert "assets" not in trajectory.metadata

    def test_delay_axis_expands(self):
        spec = SweepSpec(
            SimulationConfig.from_dict(ASSET_CFG),
            {"laser.params.delay_as": [0.0, 10.0, 20.0]},
        )
        jobs = spec.expand()
        assert len(jobs) == 3
        assert len({job.job_id for job in jobs}) == 3
