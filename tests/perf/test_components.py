"""Tests of the performance model against the paper's Table 1 / Table 2."""

import numpy as np
import pytest

from repro.analysis import (
    CPU_BASELINE_TIME_S,
    TABLE1,
    TABLE1_GPU_COUNTS,
    TABLE2,
    compare_series,
    geometric_mean_ratio,
)
from repro.perf import PWDFTPerformanceModel, SiliconWorkload


@pytest.fixture(scope="module")
def model():
    return PWDFTPerformanceModel(SiliconWorkload.from_atom_count(1536))


#: Table 1 row -> relative-error budget of the model against the paper over
#: *all eight* GPU counts (36 ... 3072): the measured worst column, rounded up.
#: Compute rows track the paper to 2-35 %; the loose ones are named below.
TABLE1_BUDGETS = {
    "fock_mpi": 0.75,
    "fock_compute": 0.2,
    "fock_total": 0.3,
    "local_semilocal": 0.15,
    "hpsi_total": 0.3,
    "residual_alltoallv": 0.85,
    "residual_allreduce": 0.5,
    "residual_compute": 0.3,
    "residual_total": 0.5,
    "anderson_memcpy": 0.1,
    "anderson_compute": 0.35,
    "anderson_total": 0.2,
    "density_compute": 0.05,
    "density_allreduce": 0.55,
    "density_total": 0.5,
    "others": 0.15,
    "per_scf_total": 0.25,
    "total_step_time": 0.25,
    "speedup": 0.3,
    "hpsi_percentage": 0.05,
}

#: the rows the model is loose on (budget >= 0.5), all communication: the
#: visible part of the Fock broadcast (71 % low at 384 GPUs, where the paper's
#: overlap stops hiding it earlier than the model's), the residual's
#: Alltoallv (81 % low at 768, a non-monotone column in the paper) and the
#: latency-bound Allreduces of residual and density (30-50 % low beyond 36
#: GPUs), with the two totals they dominate. None exceeds 1.2 s per SCF, so
#: per_scf_total and total_step_time stay within 25 %.
LOOSE_ROWS = ("fock_mpi", "residual_alltoallv", "residual_allreduce", "residual_total",
              "density_allreduce", "density_total")


def _table1_value(model, row: str, n_gpus: int) -> float:
    """The model's counterpart of one Table 1 cell."""
    components = model.scf_component_times(n_gpus).as_dict()
    if row in components:
        return components[row]
    return getattr(model.step_breakdown(n_gpus), row)


class TestAnchors:
    def test_cpu_baseline_matches_paper(self, model):
        assert model.cpu_step_time(3072) == pytest.approx(CPU_BASELINE_TIME_S, rel=0.05)

    def test_36_gpu_column_matches_table1(self, model):
        """The calibration anchor: every row within 20 % of the paper at 36 GPUs."""
        for row, paper in TABLE1.items():
            assert _table1_value(model, row, 36) == pytest.approx(paper[0], rel=0.2), row

    @pytest.mark.parametrize("row", sorted(TABLE1))
    def test_every_table1_row_at_every_gpu_count(self, model, row):
        """Each component of Table 1, at each of its eight GPU counts, within
        the row's stated budget (the total row included, at 25 %)."""
        for column, n_gpus in enumerate(TABLE1_GPU_COUNTS):
            assert _table1_value(model, row, n_gpus) == pytest.approx(
                TABLE1[row][column], rel=TABLE1_BUDGETS[row]
            ), (row, n_gpus)

    def test_budgets_name_every_row_and_the_loose_ones(self):
        assert set(TABLE1_BUDGETS) == set(TABLE1)
        assert {row for row, budget in TABLE1_BUDGETS.items() if budget >= 0.5} == set(LOOSE_ROWS)

    def test_unbiased_overall(self, model):
        """Geometric-mean model/paper ratio of the per-step totals is within 15 %."""
        totals = [model.step_breakdown(n).total_step_time for n in TABLE1_GPU_COUNTS]
        rows = compare_series(list(TABLE1_GPU_COUNTS), list(TABLE1["total_step_time"]), totals)
        assert 0.85 < geometric_mean_ratio(rows) < 1.15


class TestScalingShapes:
    def test_fock_compute_scales_inversely(self, model):
        t36 = model.fock_compute_time(36)
        t768 = model.fock_compute_time(768)
        assert 15 < t36 / t768 < 25  # paper: 90.99 / 4.38 = 20.8

    def test_fock_mpi_grows_with_gpus(self, model):
        """Visible broadcast time grows once compute can no longer hide it."""
        visible = [model.fock_mpi_visible_time(n) for n in (36, 768, 3072)]
        assert visible[0] < visible[1] < visible[2]

    def test_hpsi_fraction_decreases_then_flattens(self, model):
        p36 = model.step_breakdown(36).hpsi_percentage
        p768 = model.step_breakdown(768).hpsi_percentage
        assert 85 < p36 < 95
        assert 70 < p768 < 80

    def test_speedup_saturates(self, model):
        s = [model.step_breakdown(n).speedup for n in TABLE1_GPU_COUNTS]
        assert s[0] < s[5]
        assert abs(s[7] - s[5]) / s[5] < 0.25  # little gain beyond 768 GPUs

    def test_time_to_solution_768(self, model):
        """~260 s per 50 as step and ~1.5 hours per femtosecond on 768 GPUs."""
        b = model.step_breakdown(768)
        assert b.total_step_time == pytest.approx(260.0, rel=0.2)
        assert b.hours_per_femtosecond == pytest.approx(1.5, rel=0.25)

    def test_anderson_and_density_scale(self, model):
        s36 = model.scf_component_times(36)
        s768 = model.scf_component_times(768)
        assert s36.anderson_total / s768.anderson_total > 10
        assert s36.density_compute / s768.density_compute > 10

    def test_gpu_count_validation(self, model):
        with pytest.raises(ValueError):
            model.scf_component_times(5000)


class TestTable2:
    def test_bcast_dominates_at_scale(self, model):
        cb = model.communication_breakdown(1536)
        assert cb.bcast > cb.allreduce
        assert cb.bcast > cb.alltoallv
        assert cb.bcast > cb.memcpy

    def test_memcpy_shrinks_with_gpus(self, model):
        assert model.communication_breakdown(36).memcpy > 5 * model.communication_breakdown(768).memcpy

    def test_mpi_total_within_factor_of_paper(self, model):
        """The per-step MPI total tracks Table 2 within a factor of ~3 at every
        GPU count (the visible-broadcast overlap model is the coarsest part of
        the model, see EXPERIMENTS.md), and never inverts the trend."""
        for i, n in enumerate(TABLE1_GPU_COUNTS):
            cb = model.communication_breakdown(n)
            ratio = cb.mpi_total / TABLE2["mpi_total"][i]
            assert 1.0 / 3.0 < ratio < 3.0, n
        assert model.communication_breakdown(3072).mpi_total > model.communication_breakdown(36).mpi_total

    def test_compute_column_close_to_paper(self, model):
        for i, n in enumerate(TABLE1_GPU_COUNTS):
            cb = model.communication_breakdown(n)
            assert cb.compute == pytest.approx(TABLE2["compute"][i], rel=0.35), n

    def test_breakdown_sums_to_total(self, model):
        cb = model.communication_breakdown(288)
        assert cb.total == pytest.approx(model.step_breakdown(288).total_step_time, rel=1e-6)


class TestRK4Comparison:
    def test_speedup_range_matches_fig6(self, model):
        """PT-CN is 15-35x faster than RK4 for the same simulated window."""
        for n, low, high in ((36, 14.0, 25.0), (768, 25.0, 35.0)):
            ratio = model.rk4_time_per_window(n) / model.ptcn_time_per_window(n)
            assert low < ratio < high, n

    def test_speedup_increases_with_gpus(self, model):
        r36 = model.rk4_time_per_window(36) / model.ptcn_time_per_window(36)
        r768 = model.rk4_time_per_window(768) / model.ptcn_time_per_window(768)
        assert r768 > r36
