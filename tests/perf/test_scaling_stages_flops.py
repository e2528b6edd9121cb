"""Shapes of the scaling sweeps, the Fig. 3 stages and the FLOP accounting,
and the reporting helpers (their values against the paper: ``tests/paper/``)."""

import numpy as np
import pytest

from repro.analysis import WEAK_SCALING_ATOMS, format_table
from repro.perf import (
    PWDFTPerformanceModel,
    SiliconWorkload,
    flops_efficiency,
    fock_flop_fraction,
    fock_flops_per_application,
    optimization_stage_times,
    parallel_efficiency,
    step_flops,
    strong_scaling,
    weak_scaling,
)


@pytest.fixture(scope="module")
def model():
    return PWDFTPerformanceModel(SiliconWorkload.from_atom_count(1536))


class TestStrongScaling:
    def test_rows_and_monotonicity(self):
        points = strong_scaling(gpu_counts=(36, 72, 144, 288, 768))
        assert [p.n_gpus for p in points] == [36, 72, 144, 288, 768]
        totals = [p.total_step_time for p in points]
        assert all(t2 < t1 for t1, t2 in zip(totals, totals[1:]))

    def test_parallel_efficiency_decreases(self):
        points = strong_scaling(gpu_counts=(36, 144, 768))
        eff = parallel_efficiency(points)
        assert eff[0] == pytest.approx(1.0)
        assert eff[-1] < eff[0]
        assert eff[-1] > 0.2

    def test_components_and_communication_attached(self):
        points = strong_scaling(gpu_counts=(72,))
        assert "per_scf_total" in points[0].components
        assert "bcast" in points[0].communication


class TestWeakScaling:
    def test_fig8_shape(self):
        points = weak_scaling()
        assert tuple(p.natoms for p in points) == WEAK_SCALING_ATOMS
        times = [p.time_per_50as for p in points]
        assert all(t2 > t1 for t1, t2 in zip(times, times[1:]))
        # larger systems run below the N^2 line anchored at the smallest system
        # (the paper's "better than ideal" observation)
        assert points[-1].time_per_50as < points[-1].ideal_time_per_50as

    def test_gpus_are_half_the_atoms(self):
        for p in weak_scaling():
            assert p.n_gpus == p.natoms // 2


class TestFig3Stages:
    def test_stage_ordering(self, model):
        stages = optimization_stage_times(model, n_gpus=72)
        totals = [s.total for s in stages]
        # CPU slowest, every optimization stage at least as fast as the previous
        assert totals[0] == max(totals)
        assert all(t2 <= t1 * 1.001 for t1, t2 in zip(totals[1:], totals[2:]))

    def test_overlap_stage_hides_communication(self, model):
        stages = optimization_stage_times(model, n_gpus=72)
        assert stages[-1].communication_time < 0.2 * stages[-2].communication_time


class TestFlops:
    def test_fock_flops_quadratic_in_bands(self):
        w_small = SiliconWorkload.from_atom_count(192)
        w_large = SiliconWorkload.from_atom_count(384)
        ratio = fock_flops_per_application(w_large) / fock_flops_per_application(w_small)
        assert 7.0 < ratio < 9.5  # ~ (2x bands)^2 * 2x grid / ... dominated by Ne^2 * NG

    def test_invalid_wall_time(self, model):
        with pytest.raises(ValueError):
            flops_efficiency(model.workload, 36, 0.0)

    def test_si1536_counts_are_bit_exact(self):
        """The Section 7 accounting's floats, pinned with ``float.hex``."""
        w = SiliconWorkload.from_atom_count(1536)
        assert step_flops(w) == float.fromhex("0x1.beb6d283d3bcfp+54")
        assert fock_flops_per_application(w) == float.fromhex("0x1.14d2b0916697bp+50")
        assert fock_flop_fraction(w) == float.fromhex("0x1.dbeb7232f8646p-1")


class TestReportingHelpers:
    def test_format_table(self):
        text = format_table(["a", "bb"], [[1, 2.34567], ["x", 5]])
        lines = text.splitlines()
        assert len(lines) == 4
        assert "a" in lines[0] and "bb" in lines[0]
