"""The builtin catalog and the materialise -> open round trip."""

import numpy as np
import pytest

from repro.assets import (
    BUILTIN_ASSETS,
    PINNED_DIGESTS,
    AssetLibrary,
    default_library,
    payload_digest,
)
from repro.pw.pseudopotential import PseudopotentialSpecies
from repro.pw.structures import Structure


@pytest.fixture(scope="module")
def library():
    return default_library()


class TestBuiltinCatalog:
    def test_verify_passes(self, library):
        report = library.verify()
        assert report["ok"], report["problems"]
        assert report["checked"] == len(BUILTIN_ASSETS)

    def test_every_builtin_is_pinned(self):
        assert sorted(PINNED_DIGESTS) == sorted(asset.id for asset in BUILTIN_ASSETS)

    def test_pins_match_generated_payloads(self, library):
        for ref in library.ids():
            assert library.digest(ref) == PINNED_DIGESTS[ref]
            assert payload_digest(library.payload(ref)) == PINNED_DIGESTS[ref]

    def test_kinds_cover_the_catalog(self, library):
        assert len(library.ids("pseudo")) == 7  # H C N O Al Si Ge
        assert len(library.ids("structure")) >= 5
        assert len(library.ids("pulse")) >= 3

    def test_issue_example_ids_exist(self, library):
        for ref in (
            "pseudo/si/gth-q4@1",
            "structure/si-diamond-2x2x2@1",
            "pulse/pump-probe-380+760@1",
        ):
            assert ref in library

    def test_default_library_is_cached(self):
        assert default_library() is default_library()


class TestBuilds:
    def test_pseudo_builds_species_matching_payload(self, library):
        species = library.build("pseudo/si/gth-q4@1")
        payload = library.payload("pseudo/si/gth-q4@1")
        assert isinstance(species, PseudopotentialSpecies)
        assert species.symbol == "Si"
        assert species.valence_charge == payload["valence_charge"]
        assert len(species.projectors) == len(payload["projectors"])

    def test_si_diamond_supercell(self, library):
        structure = library.build("structure/si-diamond-2x2x2@1")
        assert isinstance(structure, Structure)
        assert structure.natoms == 64
        assert structure.n_occupied_bands() == 128

    def test_structure_repeats_override(self, library):
        structure = library.build("structure/si-diamond-1x1x1@1", repeats=(1, 1, 2))
        assert structure.natoms == 16

    def test_unknown_structure_override_rejected(self, library):
        from repro.assets import AssetError

        with pytest.raises(AssetError, match="overridable"):
            library.build("structure/si-diamond-1x1x1@1", nonsense=3)

    def test_zincblende_builds_two_species(self, library):
        structure = library.build("structure/sic-zincblende-1x1x1@1")
        symbols = sorted(s.symbol for s in structure.species_list)
        assert symbols == ["C", "Si"]
        assert structure.natoms == 8

    def test_hetero_molecule(self, library):
        structure = library.build("structure/co-box@1")
        assert structure.natoms == 2
        assert structure.n_electrons == 10.0

    def test_pump_probe_pulse_builds(self, library):
        from repro.pw.laser import PumpProbePulse

        pulse = library.build("pulse/pump-probe-380+760@1", fluence=1e-7, delay_as=50.0)
        assert isinstance(pulse, PumpProbePulse)
        assert pulse.delay > 0

    def test_pulse_amplitude_override_displaces_fluence(self, library):
        pulse = library.build("pulse/pump-probe-380+760@1", amplitude=0.01)
        assert pulse.pump.amplitude == pytest.approx(0.01)

    def test_fluence_pulse_scales_with_fluence(self, library):
        weak = library.build("pulse/fluence-gaussian-380@1", fluence=1e-8)
        strong = library.build("pulse/fluence-gaussian-380@1", fluence=4e-8)
        assert strong.amplitude == pytest.approx(2.0 * weak.amplitude)

    def test_factory_kind_check(self, library):
        from repro.assets import AssetError

        with pytest.raises(AssetError, match="pulse"):
            library.factory("pseudo/si/gth-q4@1", expected_kind="pulse")
        factory = library.factory("pulse/kick-z@1", expected_kind="pulse")
        kick = factory()
        assert np.allclose(kick.polarization, [0, 0, 1])


class TestMaterialize:
    def test_round_trip_preserves_digests_and_builds(self, library, tmp_path):
        root = library.materialize(tmp_path / "assets")
        reopened = AssetLibrary.open(root)
        assert reopened.ids() == library.ids()
        for ref in reopened.ids():
            assert reopened.digest(ref) == library.digest(ref)
            assert reopened.payload(ref) == library.payload(ref)
        structure = reopened.build("structure/h2-box@1")
        assert structure.natoms == 2
        assert reopened.verify()["ok"]

    def test_open_missing_root_rejected(self, tmp_path):
        from repro.assets import AssetError

        with pytest.raises(AssetError, match="no asset manifest"):
            AssetLibrary.open(tmp_path / "nowhere")
