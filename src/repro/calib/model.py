"""Fitting the cost model to reality: robust per-(machine, propagator) scales.

The cost stack prices every group from two fixed numbers: the constant
``MachineCostModel.step_flop_multiplier`` (2.5, set once against the 36-GPU
column of Table 1) and the sustained FFT fraction of the
:class:`~repro.machine.gpu.GPUKernelModel` it builds on the machine preset's
accelerator (``MachineCostModel.gpu_model``). A :class:`CalibrationModel`
replaces that act of faith with data: from the predicted-vs-observed pairs of
:mod:`repro.calib.observations` it fits one multiplicative *time scale* per
``(machine, propagator)`` bucket — equivalently a re-fit multiplier (scale ×
the constant) or sustained fraction (base efficiency / scale); which of the
two is "true" is unidentifiable from timings alone, so the model stores only
the scale.

The fit is deliberately simple and robust: per bucket, ratios
``observed / predicted`` are clipped to a band around their median (outlier
rejection — one swapped-in slow node cannot drag the bucket) and the scale is
the geometric mean of the clipped ratios — least squares in log space.
Properties the hypothesis suite pins:

* **deterministic**: the same observations (in any order) fit the same model;
* **fixed point**: observations that match predictions exactly fit scale 1.0
  everywhere, and re-pricing by that fit changes no prediction;
* **monotone**: uniformly ``c``-times-slower observations fit exactly
  ``c``-times-larger scales.

Scales resolve through a fallback chain — exact ``(machine, propagator)``
bucket, then the machine-wide bucket (every observation of the machine), then
1.0 — so a propagator never seen before is still corrected by the machine's
overall bias.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

__all__ = ["CalibrationFactor", "CalibrationModel"]

#: outlier band: ratios beyond ``median / CLIP .. median * CLIP`` are clipped
#: to the band edge before the log-space mean
CLIP = 4.0


@dataclass(frozen=True)
class CalibrationFactor:
    """One fitted bucket: a time scale for ``(machine, propagator)``.

    ``propagator=None`` is the machine-wide bucket, fitted from *every*
    observation of the machine — the fallback for propagators (or mixed
    groups) without a bucket of their own.
    """

    machine: str | None
    propagator: str | None
    scale: float
    n_observations: int

    def as_dict(self) -> dict:
        """JSON-able record (plan provenance)."""
        return {
            "machine": self.machine,
            "propagator": self.propagator,
            "scale": self.scale,
            "n_observations": self.n_observations,
        }


def _median(values: list[float]) -> float:
    ordered = sorted(values)
    mid = len(ordered) // 2
    if len(ordered) % 2:
        return ordered[mid]
    return 0.5 * (ordered[mid - 1] + ordered[mid])


def _bucket_scale(ratios: list[float]) -> float:
    """Robust scale of one bucket: median-clipped geometric mean.

    Clipping to ``median/CLIP .. median*CLIP`` bounds any single outlier's
    pull; the geometric mean of the clipped ratios is the least-squares fit
    in log space. Both steps commute with a uniform rescaling of every
    ratio, which is what makes the fit exactly monotone.
    """
    med = _median(ratios)
    lo, hi = med / CLIP, med * CLIP
    # sorted before summing so the float accumulation — and therefore the
    # fitted scale — is bit-identical no matter the observation order
    clipped = sorted(min(max(r, lo), hi) for r in ratios)
    return math.exp(sum(map(math.log, clipped)) / len(clipped))


@dataclass(frozen=True)
class CalibrationModel:
    """A fitted set of :class:`CalibrationFactor` buckets.

    Build one with :meth:`fit` and pass it to
    :class:`~repro.campaign.CampaignPlanner`\\ 's / :class:`~repro.exec.Scheduler`\\ 's
    ``calibration=``: each scheduled group is re-priced once,
    :meth:`repro.exec.ScheduledGroup.repriced` (the model's seconds × the
    bucket's scale), and ordering, packing, leases and plans read that
    re-price, while the group's predicted seconds stay the cost model's own —
    the only numbers a fit may be built from.
    """

    factors: tuple[CalibrationFactor, ...] = ()
    n_observations: int = 0

    # ------------------------------------------------------------------
    # Fitting
    # ------------------------------------------------------------------
    @classmethod
    def fit(cls, observations) -> "CalibrationModel":
        """Fit scales from observations (see the module docstring).

        Unusable records (non-finite or non-positive on either side) are
        dropped, never guessed at; with nothing usable the model is empty —
        the identity calibration.
        """
        usable = [obs for obs in observations if obs.ok]
        buckets: dict[tuple[str | None, str | None], list[float]] = {}
        for obs in usable:
            buckets.setdefault((obs.machine, obs.propagator), []).append(obs.ratio)
            if obs.propagator is not None:
                # the machine-wide bucket sees every observation of the machine
                buckets.setdefault((obs.machine, None), []).append(obs.ratio)
        factors = tuple(
            CalibrationFactor(
                machine=machine,
                propagator=propagator,
                scale=_bucket_scale(ratios),
                n_observations=len(ratios),
            )
            for (machine, propagator), ratios in sorted(
                buckets.items(), key=lambda item: (item[0][0] or "", item[0][1] or "")
            )
        )
        return cls(factors=factors, n_observations=len(usable))

    # ------------------------------------------------------------------
    # Lookup
    # ------------------------------------------------------------------
    @property
    def is_empty(self) -> bool:
        """Whether the model is the identity (no usable observations)."""
        return not self.factors

    def factor_for(self, machine: str | None, propagator: str | None = None) -> CalibrationFactor | None:
        """The bucket serving ``(machine, propagator)``, via the fallback
        chain: exact bucket → machine-wide bucket → ``None``."""
        by_key = {(f.machine, f.propagator): f for f in self.factors}
        exact = by_key.get((machine, propagator))
        if exact is not None:
            return exact
        return by_key.get((machine, None))

    def scale_for(self, machine: str | None, propagator: str | None = None) -> float:
        """The time scale for ``(machine, propagator)`` (1.0 when unknown)."""
        factor = self.factor_for(machine, propagator)
        return 1.0 if factor is None else float(factor.scale)

    # ------------------------------------------------------------------
    # Provenance
    # ------------------------------------------------------------------
    def describe(self) -> str:
        """One-line provenance for plan tables and footers."""
        if self.is_empty:
            return "uncalibrated"
        named = [f for f in self.factors if f.propagator is not None]
        shown = named or list(self.factors)
        parts = ", ".join(
            f"{f.machine or '?'}/{f.propagator or '*'}×{f.scale:.3g}" for f in shown[:4]
        )
        if len(shown) > 4:
            parts += ", …"
        return f"calibrated from {self.n_observations} obs ({parts})"

    # ------------------------------------------------------------------
    # Round-trip
    # ------------------------------------------------------------------
    def as_dict(self) -> dict:
        """JSON-able record (embedded in plan dicts and reports)."""
        return {
            "n_observations": self.n_observations,
            "factors": [factor.as_dict() for factor in self.factors],
        }

    @classmethod
    def from_dict(cls, data: dict) -> "CalibrationModel":
        """Inverse of :meth:`as_dict`."""
        factors = tuple(
            CalibrationFactor(
                machine=record.get("machine"),
                propagator=record.get("propagator"),
                scale=float(record["scale"]),
                n_observations=int(record.get("n_observations", 0)),
            )
            for record in data.get("factors", [])
        )
        return cls(factors=factors, n_observations=int(data.get("n_observations", 0)))
