"""Tests for the LDA exchange-correlation functional."""

import numpy as np
import pytest

from repro.pw.xc import (
    _PZ_A,
    _PZ_B,
    _PZ_BETA1,
    _PZ_BETA2,
    _PZ_C,
    _PZ_D,
    _PZ_GAMMA,
    LDAFunctional,
    lda_exchange,
    pz81_correlation,
)


def masked_pz81(rho: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
    """PZ81 correlation written out branch by branch over gathered points:
    the reference the mask-free evaluation must match bit for bit."""
    rho = np.maximum(np.asarray(rho, dtype=float), 0.0)
    eps_c = np.zeros_like(rho)
    v_c = np.zeros_like(rho)
    positive = rho > 1e-20
    if not np.any(positive):
        return eps_c, v_c
    rs = np.empty_like(rho)
    rs[positive] = (3.0 / (4.0 * np.pi * rho[positive])) ** (1.0 / 3.0)
    high = positive & (rs < 1.0)
    low = positive & (rs >= 1.0)
    if np.any(high):
        rs_h = rs[high]
        lnrs = np.log(rs_h)
        eps = _PZ_A * lnrs + _PZ_B + _PZ_C * rs_h * lnrs + _PZ_D * rs_h
        deps = _PZ_A / rs_h + _PZ_C * (lnrs + 1.0) + _PZ_D
        eps_c[high] = eps
        v_c[high] = eps - (rs_h / 3.0) * deps
    if np.any(low):
        rs_l = rs[low]
        sqrt_rs = np.sqrt(rs_l)
        denom = 1.0 + _PZ_BETA1 * sqrt_rs + _PZ_BETA2 * rs_l
        eps = _PZ_GAMMA / denom
        deps = -_PZ_GAMMA * (0.5 * _PZ_BETA1 / sqrt_rs + _PZ_BETA2) / (denom * denom)
        eps_c[low] = eps
        v_c[low] = eps - (rs_l / 3.0) * deps
    return eps_c, v_c


def _densities(shape) -> np.ndarray:
    """Densities over both PZ81 branches (rs < 1 above rho = 3/(4 pi)), with
    zeros, negative round-off and values at and below the 1e-20 floor."""
    rng = np.random.default_rng(11)
    rho = 10.0 ** rng.uniform(-6.0, 1.5, size=shape)
    flat = rho.reshape(-1)
    flat[::7] = 0.0
    flat[1::11] = -1e-12
    flat[2::13] = 1e-20
    flat[3::17] = 5e-21
    flat[4::19] = 3.0 / (4.0 * np.pi)  # rs = 1 exactly: the low-density branch
    flat[-1] = 5.0  # rs < 1 in every sample
    return rho


class TestSlaterExchange:
    def test_zero_density(self):
        eps, v = lda_exchange(np.zeros(5))
        assert np.allclose(eps, 0.0)
        assert np.allclose(v, 0.0)

    def test_negative_density_clipped(self):
        eps, v = lda_exchange(np.array([-1e-12]))
        assert np.isfinite(eps).all() and np.isfinite(v).all()

    def test_known_value(self):
        """epsilon_x(rho=1) = -(3/4)(3/pi)^{1/3}."""
        eps, v = lda_exchange(np.array([1.0]))
        expected = -0.75 * (3.0 / np.pi) ** (1.0 / 3.0)
        assert eps[0] == pytest.approx(expected)
        assert v[0] == pytest.approx(4.0 / 3.0 * expected)

    def test_potential_is_derivative(self):
        """v_x = d(rho eps_x)/d rho checked with finite differences."""
        rho = np.array([0.3])
        h = 1e-6
        e_plus, _ = lda_exchange(rho + h)
        e_minus, _ = lda_exchange(rho - h)
        numeric = ((rho + h) * e_plus - (rho - h) * e_minus) / (2 * h)
        _, v = lda_exchange(rho)
        assert v[0] == pytest.approx(numeric[0], rel=1e-5)

    def test_scaling_law(self):
        """Slater exchange scales as rho^{1/3}."""
        e1, _ = lda_exchange(np.array([0.5]))
        e2, _ = lda_exchange(np.array([4.0]))
        assert e2[0] / e1[0] == pytest.approx(8.0 ** (1.0 / 3.0))


class TestPZCorrelation:
    def test_zero_density(self):
        eps, v = pz81_correlation(np.zeros(3))
        assert np.allclose(eps, 0.0) and np.allclose(v, 0.0)

    def test_negative_energy(self):
        rho = np.array([0.01, 0.1, 1.0, 10.0])
        eps, v = pz81_correlation(rho)
        assert np.all(eps < 0.0)
        assert np.all(v < 0.0)

    def test_continuity_at_rs_one(self):
        """The two branches of PZ81 match at rs = 1 by construction."""
        rho_at_rs1 = 3.0 / (4.0 * np.pi)
        eps_lo, _ = pz81_correlation(np.array([rho_at_rs1 * (1 - 1e-9)]))
        eps_hi, _ = pz81_correlation(np.array([rho_at_rs1 * (1 + 1e-9)]))
        assert eps_lo[0] == pytest.approx(eps_hi[0], abs=1e-4)

    @pytest.mark.parametrize("shape", [(1,), (5,), (97,), (2, 10, 10, 10), (6, 6, 6)])
    def test_mask_free_evaluation_is_the_masked_loop_bit_for_bit(self, shape):
        rho = _densities(shape)
        for got, expected in zip(pz81_correlation(rho), masked_pz81(rho)):
            assert got.shape == expected.shape and got.dtype == expected.dtype
            assert got.tobytes() == expected.tobytes()

    def test_vanishing_densities_give_positive_zeros(self):
        eps, v = pz81_correlation(np.array([0.0, -0.0, -1e-9, 1e-20, 1e-30]))
        assert eps.tobytes() == v.tobytes() == np.zeros(5).tobytes()

    def test_potential_is_derivative(self):
        for rho0 in (0.02, 0.4, 3.0):
            rho = np.array([rho0])
            h = rho0 * 1e-6
            e_plus, _ = pz81_correlation(rho + h)
            e_minus, _ = pz81_correlation(rho - h)
            numeric = ((rho + h) * e_plus - (rho - h) * e_minus) / (2 * h)
            _, v = pz81_correlation(rho)
            assert v[0] == pytest.approx(numeric[0], rel=1e-4)


class TestLDAFunctional:
    def test_energy_integration(self):
        functional = LDAFunctional()
        rho = np.full((4, 4, 4), 0.2)
        result = functional.evaluate(rho, volume_element=0.5)
        expected = np.sum(rho * result.energy_density) * 0.5
        assert result.energy == pytest.approx(expected)

    def test_exchange_scale_reduces_potential(self):
        rho = np.full((2, 2, 2), 0.3)
        full = LDAFunctional(exchange_scale=1.0, correlation=False).evaluate(rho, 1.0)
        scaled = LDAFunctional(exchange_scale=0.75, correlation=False).evaluate(rho, 1.0)
        assert np.allclose(scaled.potential, 0.75 * full.potential)
        assert scaled.energy == pytest.approx(0.75 * full.energy)

    def test_correlation_toggle(self):
        rho = np.full((2, 2, 2), 0.3)
        with_c = LDAFunctional(correlation=True).evaluate(rho, 1.0)
        without_c = LDAFunctional(correlation=False).evaluate(rho, 1.0)
        assert with_c.energy < without_c.energy

    def test_negative_exchange_scale_rejected(self):
        with pytest.raises(ValueError):
            LDAFunctional(exchange_scale=-0.1)

    def test_energy_negative_for_physical_density(self):
        functional = LDAFunctional()
        rho = np.full((3, 3, 3), 0.05)
        assert functional.evaluate(rho, 1.0).energy < 0.0

    @pytest.mark.parametrize("scale", [1.0, 0.75])
    def test_evaluation_is_the_scaled_masked_reference_bit_for_bit(self, scale):
        """The exchange term is not multiplied at scale 1.0; the floats are
        those of ``scale * eps_x + eps_c`` with the masked PZ81 loop."""
        rho = _densities((2, 6, 6, 6))
        eps_x, v_x = lda_exchange(rho)
        eps_c, v_c = masked_pz81(rho)
        eps, pot = scale * eps_x + eps_c, scale * v_x + v_c
        clipped = np.maximum(rho, 0.0)
        functional = LDAFunctional(exchange_scale=scale)
        for j, result in enumerate(functional.evaluate_many(rho, 0.5)):
            assert result.energy_density.tobytes() == eps[j].tobytes()
            assert result.potential.tobytes() == pot[j].tobytes()
            assert result.energy == float(np.sum(clipped[j] * eps[j]) * 0.5)
        exchange_only = LDAFunctional(exchange_scale=scale, correlation=False).evaluate(rho[0], 0.5)
        assert exchange_only.potential.tobytes() == (scale * v_x[0]).tobytes()

    def test_clips_once_and_adds_up_the_public_terms(self, monkeypatch):
        """An evaluation clips the density at zero once, not once per term,
        and is bit for bit the sum of the public terms (which clip on their
        own when called directly)."""
        rho = np.random.default_rng(0).uniform(-1e-9, 2.0, size=(2, 4, 4, 4))  # both PZ81 branches
        eps_x, v_x = lda_exchange(rho)
        eps_c, v_c = pz81_correlation(rho)
        eps, pot = 0.75 * eps_x + eps_c, 0.75 * v_x + v_c
        clipped = np.maximum(rho, 0.0)
        functional = LDAFunctional(exchange_scale=0.75)
        maximum, clips = np.maximum, []

        def counting(*args, **kwargs):
            clips.append(args[0].shape)
            return maximum(*args, **kwargs)

        monkeypatch.setattr(np, "maximum", counting)
        stacked = functional.evaluate_many(rho, 0.5)
        single = functional.evaluate(rho[1], 0.5)
        assert clips == [rho.shape, rho[1].shape]
        for result in (stacked[1], single):
            assert np.array_equal(result.energy_density, eps[1])
            assert np.array_equal(result.potential, pot[1])
            assert result.energy == float(np.sum(clipped[1] * eps[1]) * 0.5)
