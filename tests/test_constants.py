"""Tests for units and paper-level constants."""

import pytest

from repro import constants as c


class TestConversions:
    def test_bohr_angstrom_round_trip(self):
        assert c.BOHR_TO_ANGSTROM * c.ANGSTROM_TO_BOHR == pytest.approx(1.0)

    def test_silicon_lattice(self):
        assert c.SILICON_LATTICE_BOHR == pytest.approx(5.43 / 0.529177, rel=1e-4)

    def test_time_conversions(self):
        assert c.attoseconds_to_au(24.188843265857) == pytest.approx(1.0)
        assert c.au_to_attoseconds(c.attoseconds_to_au(50.0)) == pytest.approx(50.0)
        assert c.femtoseconds_to_au(1.0) == pytest.approx(1000 * c.ATTOSECOND_TO_AU_TIME)

    def test_hartree_ev(self):
        assert c.HARTREE_TO_EV == pytest.approx(27.2114, rel=1e-4)
        assert c.RYDBERG_TO_HARTREE == pytest.approx(0.5)

    def test_paper_timestep_in_au(self):
        """The paper's 50 as PT-CN step is about 2.07 atomic time units."""
        assert c.attoseconds_to_au(c.PAPER_PTCN_TIMESTEP_AS) == pytest.approx(2.067, rel=1e-3)


class TestWavelengthConversion:
    def test_380nm_photon_energy(self):
        """380 nm corresponds to ~3.26 eV."""
        e = c.wavelength_nm_to_energy_hartree(380.0)
        assert e * c.HARTREE_TO_EV == pytest.approx(3.263, rel=1e-3)

    def test_round_trip(self):
        e = c.wavelength_nm_to_energy_hartree(380.0)
        assert c.HC_HARTREE_NM / e == pytest.approx(380.0)

    def test_validation(self):
        with pytest.raises(ValueError):
            c.wavelength_nm_to_energy_hartree(0.0)


class TestPaperReferenceData:
    def test_table_shapes(self):
        from repro.analysis import TABLE1, TABLE1_GPU_COUNTS, TABLE2

        for key, row in TABLE1.items():
            assert len(row) == len(TABLE1_GPU_COUNTS), key
        for key, row in TABLE2.items():
            assert len(row) == len(TABLE1_GPU_COUNTS), key

    def test_table1_internal_consistency(self):
        """fock_total ~= fock_mpi + fock_compute and hpsi_total ~= fock_total + local."""
        from repro.analysis import TABLE1

        for i in range(8):
            assert TABLE1["fock_total"][i] == pytest.approx(
                TABLE1["fock_mpi"][i] + TABLE1["fock_compute"][i], rel=0.05
            )
            assert TABLE1["hpsi_total"][i] == pytest.approx(
                TABLE1["fock_total"][i] + TABLE1["local_semilocal"][i], rel=0.05
            )

    def test_table2_mpi_total_consistency(self):
        from repro.analysis import TABLE2

        for i in range(8):
            total = (
                TABLE2["alltoallv"][i]
                + TABLE2["allreduce"][i]
                + TABLE2["bcast"][i]
                + TABLE2["allgatherv"][i]
            )
            assert TABLE2["mpi_total"][i] == pytest.approx(total, rel=0.02)
