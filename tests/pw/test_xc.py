"""Tests for the LDA exchange-correlation functional."""

import numpy as np
import pytest

from repro.pw.xc import LDAFunctional, lda_exchange, pz81_correlation


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
