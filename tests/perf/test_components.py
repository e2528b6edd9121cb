"""Shapes and exact floats of the Si1536 performance model.

Its values against the paper's Tables 1 and 2 are checked cell by cell in
``tests/paper/``, at the budgets beside each value in
:mod:`repro.analysis.paper_data`.
"""

import dataclasses

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.analysis import TABLE1_GPU_COUNTS
from repro.machine import SUMMIT
from repro.perf import PWDFTPerformanceModel, SiliconWorkload


@pytest.fixture(scope="module")
def model():
    return PWDFTPerformanceModel(SiliconWorkload.from_atom_count(1536))


class TestScalingShapes:
    def test_fock_mpi_grows_with_gpus(self, model):
        """Visible broadcast time grows once compute can no longer hide it."""
        visible = [model.fock_mpi_visible_time(n) for n in (36, 768, 3072)]
        assert visible[0] < visible[1] < visible[2]

    def test_speedup_saturates(self, model):
        s = [model.step_breakdown(n).speedup for n in TABLE1_GPU_COUNTS]
        assert s[0] < s[5]
        assert abs(s[7] - s[5]) / s[5] < 0.25  # little gain beyond 768 GPUs

    def test_anderson_and_density_scale(self, model):
        s36 = model.scf_component_times(36)
        s768 = model.scf_component_times(768)
        assert s36.anderson_total / s768.anderson_total > 10
        assert s36.density_compute / s768.density_compute > 10

    def test_gpu_count_validation(self, model):
        with pytest.raises(ValueError):
            model.scf_component_times(5000)

    def test_step_time_is_flat_past_the_knee(self, model):
        """Past the paper's 768-GPU knee the broadcast dominates and adding
        GPUs buys (almost) nothing: 3072 GPUs step within 5 % of 768."""
        knee = model.step_breakdown(768).total_step_time
        assert model.step_breakdown(3072).total_step_time == pytest.approx(knee, rel=0.05)

    @given(factor=st.floats(min_value=1.01, max_value=100.0))
    @settings(max_examples=25, deadline=None)
    def test_faster_network_never_slows_a_step(self, model, factor):
        """Scaling every network bandwidth up can only shrink the predicted
        step time (the paper's closing 'scale further with improved network
        bandwidth' expectation)."""
        fast_system = dataclasses.replace(
            SUMMIT,
            bcast_rank_bandwidth_gbs=factor * SUMMIT.bcast_rank_bandwidth_gbs,
            allreduce_rank_bandwidth_gbs=factor * SUMMIT.allreduce_rank_bandwidth_gbs,
        )
        fast = PWDFTPerformanceModel(model.workload, system=fast_system)
        # deep in the saturated regime, where the broadcast is the bottleneck,
        # and at the compute-bound end
        for n_gpus in (1536, 72):
            assert fast.step_breakdown(n_gpus).total_step_time <= model.step_breakdown(n_gpus).total_step_time


class TestTable2:
    def test_bcast_dominates_at_scale(self, model):
        cb = model.communication_breakdown(1536)
        assert cb.bcast > cb.allreduce
        assert cb.bcast > cb.alltoallv
        assert cb.bcast > cb.memcpy

    def test_memcpy_shrinks_with_gpus(self, model):
        assert model.communication_breakdown(36).memcpy > 5 * model.communication_breakdown(768).memcpy

    def test_mpi_total_grows_with_gpus(self, model):
        assert model.communication_breakdown(3072).mpi_total > model.communication_breakdown(36).mpi_total

    def test_breakdown_sums_to_total(self, model):
        cb = model.communication_breakdown(288)
        assert cb.mpi_total + cb.memcpy + cb.compute == pytest.approx(model.step_breakdown(288).total_step_time, rel=1e-6)


class TestRK4Comparison:
    def test_speedup_increases_with_gpus(self, model):
        r36 = model.rk4_time_per_window(36) / model.ptcn_time_per_window(36)
        r768 = model.rk4_time_per_window(768) / model.ptcn_time_per_window(768)
        assert r768 > r36


class TestExactValues:
    """The Si1536 step floats bit for bit (``float.hex``): Table 1, Fig. 7/8
    and the machine what-ifs are all read off these numbers, so a refactor
    of the FLOP counts or the step schedule must keep every bit."""

    STEP_TIMES = {
        36: "0x1.2dbd005610774p+11",
        72: "0x1.35eba60c67b2ep+10",
        144: "0x1.4697549fcc87dp+9",
        288: "0x1.688d09181d11fp+8",
        384: "0x1.1f983d2f18518p+8",
        768: "0x1.c6ba57c059547p+7",
        1536: "0x1.c102953f679c8p+7",
        3072: "0x1.bf6e60b41063bp+7",
    }

    @pytest.mark.parametrize("n_gpus", TABLE1_GPU_COUNTS)
    def test_step_time(self, model, n_gpus):
        expected = float.fromhex(self.STEP_TIMES[n_gpus])
        assert model.step_breakdown(n_gpus).total_step_time == expected

    def test_cpu_step_time(self, model):
        assert model.cpu_step_time(3072) == float.fromhex("0x1.14d7775cd4950p+13")
