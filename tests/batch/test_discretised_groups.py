"""Ground states are keyed by the discretisation, not by the spelled cutoff.

A plane-wave calculation reads its basis section only through the FFT grid
shape and the plane-wave set the cutoff selects on it, so two cutoffs (or
grid factors) that select the same plane waves on the same mesh are one
ground state: on the tiny H2 box, 2.0 and 2.2 Ha both select 81 plane waves
on an 8^3 mesh (no lattice vector there has i^2 + j^2 + k^2 = 7). Their jobs
share one SCF and one lockstep stack, and each still carries its own config.
"""

import json

import numpy as np
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.api import Session, SimulationConfig
from repro.batch import BatchRunner, SweepSpec, ground_state_group_key
from repro.core.dynamics import Trajectory, json_default
from repro.exec import execute_group
from repro.perf.sweep_cost import discretisation

#: the root conftest's tiny H2 config, for the hypothesis test that cannot
#: take the function-scoped ``tiny_config``
TINY = SimulationConfig.from_dict({
    "system": {"structure": "hydrogen_molecule", "params": {"box": 8.0, "bond_length": 1.4}},
    "basis": {"ecut": 2.0},
    "xc": {"hybrid_mixing": 0.0},
    "run": {"time_step_as": 1.0, "n_steps": 2, "gs_scf_tolerance": 1e-6},
})

#: cutoffs on both sides of the H2 box's shells, and the 2.0 / 2.2 pair
_CUTOFFS = st.one_of(st.sampled_from([0.2, 1.5, 1.7, 2.0, 2.2, 2.5]), st.floats(0.2, 3.0))
_GRID_FACTORS = st.one_of(st.just(1.0), st.floats(0.5, 2.0))
_BOXES = st.sampled_from([7.5, 8.0])


def _config(box, ecut, grid_factor):
    return TINY.with_overrides(
        {"system.params.box": box, "basis": {"ecut": ecut, "grid_factor": grid_factor}}
    )


def _sphere(config):
    """What a session of ``config`` computes on: its grid shape and the
    index set of its basis (``None`` below the first shell)."""
    session = Session(config)
    try:
        return session.grid.shape, session.basis.indices
    except ValueError:
        return session.grid.shape, None


@settings(max_examples=80, deadline=None)
@given(boxes=st.tuples(_BOXES, _BOXES), cutoffs=st.tuples(_CUTOFFS, _CUTOFFS),
       factors=st.tuples(_GRID_FACTORS, _GRID_FACTORS))
def test_configs_share_a_key_iff_they_share_grid_and_plane_waves(boxes, cutoffs, factors):
    first, second = (_config(*drawn) for drawn in zip(boxes, cutoffs, factors))
    (shape_a, indices_a), (shape_b, indices_b) = _sphere(first), _sphere(second)
    if indices_a is None or indices_b is None:
        # no basis to name: the spelled sections decide
        same = first.system == second.system and first.basis == second.basis
    else:
        same = (first.system == second.system and shape_a == shape_b
                and np.array_equal(indices_a, indices_b))
    assert (ground_state_group_key(first) == ground_state_group_key(second)) == same


def test_the_key_and_the_cost_model_read_one_memoised_answer(tiny_config):
    two, two_two = (tiny_config.with_overrides({"basis.ecut": ecut}) for ecut in (2.0, 2.2))
    assert discretisation(two) == discretisation(two_two)
    assert discretisation(two)[:2] == (1, (8, 8, 8))
    assert ground_state_group_key(two) == ground_state_group_key(two_two)
    assert discretisation(two) is discretisation(two.with_overrides({"run.n_steps": 5}))


def test_a_cutoff_below_the_first_shell_still_fails_as_its_own_job(tiny_config):
    spec = SweepSpec(tiny_config, {"basis.ecut": [0.2, 2.0]})
    assert len(spec.groups()) == 2  # expanding does not fail
    assert discretisation(spec.expand()[0].config)[2] is None
    report = BatchRunner(spec).run()
    assert [r.status for r in report] == ["failed", "completed"]
    assert "fewer than 2 G-vectors" in report.results[0].error


def test_equal_plane_wave_sets_share_a_stack_and_keep_their_own_config(
    tiny_config, count_scf_solves, count_propagation_steps
):
    spec = SweepSpec(tiny_config, {"basis.ecut": [2.0, 2.2]})
    jobs = spec.expand()
    assert len(spec.groups()) == 1
    results = execute_group(jobs, None, raise_on_error=True)
    assert len(count_scf_solves) == 1
    assert count_propagation_steps == [2]  # the equal requests are computed once
    first, second = (result.trajectory for result in results)
    for name in Trajectory._ARRAY_FIELDS:
        np.testing.assert_array_equal(getattr(first, name), getattr(second, name))
    assert [t.metadata["config"] for t in (first, second)] == [job.config.to_dict() for job in jobs]
    assert [t.metadata["config"]["basis"]["ecut"] for t in (first, second)] == [2.0, 2.2]
    # each export is, byte for byte, what its job gives alone
    for job, shared in zip(jobs, results):
        (alone,) = execute_group([job], None, raise_on_error=True)
        assert (json.dumps(shared.to_dict(), default=json_default)
                == json.dumps(alone.to_dict(), default=json_default))
