"""Unit + property tests for :class:`repro.calib.CalibrationModel`.

The fit's contract (deterministic, order-invariant, a fixed point on perfect
predictions, exactly monotone under uniform slowdowns) is what lets the
service re-fit freely mid-campaign without destabilising plans, so those
invariants are checked property-style with hypothesis.
"""

from __future__ import annotations

import math

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.calib import CalibrationModel, Observation

SETTINGS = dict(max_examples=50, deadline=None)

#: strictly-positive, sane-magnitude seconds for property observations
seconds = st.floats(min_value=1e-3, max_value=1e6, allow_nan=False, allow_infinity=False)


def obs(machine="summit", propagator="ptcn", predicted=10.0, observed=20.0):
    return Observation(
        machine=machine,
        propagator=propagator,
        predicted_seconds=predicted,
        observed_seconds=observed,
    )


@st.composite
def observation_lists(draw):
    machines = st.sampled_from(["summit", "frontier"])
    propagators = st.sampled_from(["ptcn", "rk4", None])
    n = draw(st.integers(1, 12))
    return [
        obs(
            machine=draw(machines),
            propagator=draw(propagators),
            predicted=draw(seconds),
            observed=draw(seconds),
        )
        for _ in range(n)
    ]


class TestFitBasics:
    def test_empty_fit_is_empty_identity(self):
        model = CalibrationModel.fit([])
        assert model.is_empty
        assert model.scale_for("summit", "ptcn") == 1.0
        assert "uncalibrated" in model.describe()

    def test_unusable_observations_are_dropped(self):
        model = CalibrationModel.fit(
            [
                obs(predicted=float("nan")),
                obs(observed=0.0),
                obs(predicted=-1.0),
                obs(observed=float("inf")),
            ]
        )
        assert model.is_empty

    def test_single_observation_scale(self):
        model = CalibrationModel.fit([obs(predicted=10.0, observed=30.0)])
        assert model.scale_for("summit", "ptcn") == pytest.approx(3.0)

    def test_fallback_chain_exact_then_machine_then_identity(self):
        model = CalibrationModel.fit(
            [
                obs(propagator="ptcn", predicted=10.0, observed=30.0),
                obs(propagator="rk4", predicted=10.0, observed=10.0),
            ]
        )
        # exact bucket
        assert model.scale_for("summit", "ptcn") == pytest.approx(3.0)
        # unseen propagator falls back to the machine-wide bucket
        machine_wide = model.scale_for("summit", None)
        assert model.scale_for("summit", "cn") == machine_wide
        assert machine_wide == pytest.approx(math.sqrt(3.0))
        # unseen machine falls back to the identity
        assert model.scale_for("frontier", "ptcn") == 1.0

    def test_outliers_are_clipped_not_followed(self):
        base = [obs(predicted=10.0, observed=20.0) for _ in range(9)]
        spiked = base + [obs(predicted=10.0, observed=1e6)]
        clean = CalibrationModel.fit(base).scale_for("summit", "ptcn")
        dirty = CalibrationModel.fit(spiked).scale_for("summit", "ptcn")
        # the spike is clipped to 4x the median ratio, so the fit moves a
        # little, never to the outlier
        assert clean == pytest.approx(2.0)
        assert dirty < 2.0 * 4.0 ** (1 / 10) * 1.1

    def test_round_trip(self):
        model = CalibrationModel.fit([obs(), obs(propagator="rk4", observed=10.0)])
        again = CalibrationModel.from_dict(model.as_dict())
        assert again == model
        assert not model.is_empty
        assert "calibrated from" in model.describe()


class TestFitProperties:
    @given(observations=observation_lists())
    @settings(**SETTINGS)
    def test_fit_is_deterministic_and_order_invariant(self, observations):
        forward = CalibrationModel.fit(observations)
        again = CalibrationModel.fit(list(observations))
        reverse = CalibrationModel.fit(list(reversed(observations)))
        assert forward == again == reverse

    @given(observations=observation_lists())
    @settings(**SETTINGS)
    def test_perfect_predictions_are_a_fixed_point(self, observations):
        perfect = [
            Observation(
                machine=o.machine,
                propagator=o.propagator,
                predicted_seconds=o.predicted_seconds,
                observed_seconds=o.predicted_seconds,
            )
            for o in observations
        ]
        model = CalibrationModel.fit(perfect)
        for factor in model.factors:
            assert factor.scale == pytest.approx(1.0)

    @given(observations=observation_lists(), slowdown=st.floats(0.25, 4.0))
    @settings(**SETTINGS)
    def test_uniform_slowdown_fits_exactly(self, observations, slowdown):
        """Everything observed = predicted x c must fit scale c in every bucket."""
        slowed = [
            Observation(
                machine=o.machine,
                propagator=o.propagator,
                predicted_seconds=o.predicted_seconds,
                observed_seconds=o.predicted_seconds * slowdown,
            )
            for o in observations
        ]
        model = CalibrationModel.fit(slowed)
        for factor in model.factors:
            assert factor.scale == pytest.approx(slowdown, rel=1e-9)

    @given(observations=observation_lists())
    @settings(**SETTINGS)
    def test_scales_are_positive_and_finite(self, observations):
        model = CalibrationModel.fit(observations)
        for factor in model.factors:
            assert math.isfinite(factor.scale)
            assert factor.scale > 0.0

    @given(observations=observation_lists())
    @settings(**SETTINGS)
    def test_round_trip_preserves_everything(self, observations):
        model = CalibrationModel.fit(observations)
        assert CalibrationModel.from_dict(model.as_dict()) == model
