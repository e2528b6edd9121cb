"""Tests for the Anderson mixer."""

import numpy as np
import pytest

from repro.core.anderson import AndersonMixer


def linear_fixed_point(matrix, rhs):
    """Residual function of the linear problem A x = b as F(x) = A x - b."""

    def residual(x):
        return matrix @ x - rhs

    return residual


class TestValidation:
    def test_invalid_history(self):
        with pytest.raises(ValueError):
            AndersonMixer(history_size=0)

    def test_invalid_beta(self):
        with pytest.raises(ValueError):
            AndersonMixer(mixing_parameter=0.0)
        with pytest.raises(ValueError):
            AndersonMixer(mixing_parameter=1.5)

    def test_shape_mismatch(self):
        mixer = AndersonMixer()
        with pytest.raises(ValueError):
            mixer.update(np.zeros(3), np.zeros(4))


class TestBasicBehaviour:
    def test_first_step_is_simple_relaxation(self):
        mixer = AndersonMixer(mixing_parameter=0.5)
        x = np.array([1.0 + 0j, 2.0])
        f = np.array([0.2 + 0j, -0.4])
        out = mixer.update(x, f)
        assert np.allclose(out, x - 0.5 * f)

    def test_history_bounded(self):
        mixer = AndersonMixer(history_size=3)
        x = np.zeros(4, dtype=complex)
        for i in range(10):
            x = mixer.update(x, np.random.default_rng(i).standard_normal(4) * 0.01)
        assert mixer.history_length <= 3
        assert mixer.memory_copies <= 6

    def test_reset_clears_history(self):
        mixer = AndersonMixer()
        mixer.update(np.zeros(3, dtype=complex), np.ones(3, dtype=complex))
        mixer.reset()
        assert mixer.history_length == 0

    def test_memory_copies_matches_paper_budget(self):
        """With the paper's history of 20, at most 20+20 wavefunction-sized arrays are held."""
        mixer = AndersonMixer(history_size=20)
        x = np.zeros((2, 8), dtype=complex)
        rng = np.random.default_rng(0)
        for _ in range(30):
            x = mixer.update(x, 0.01 * (rng.standard_normal(x.shape) + 1j * rng.standard_normal(x.shape)))
        assert mixer.memory_copies <= 40


class TestConvergence:
    def test_linear_problem_faster_than_plain_relaxation(self):
        """Anderson must solve a stiff linear system in far fewer iterations than
        plain damped relaxation at the same beta."""
        rng = np.random.default_rng(42)
        n = 20
        a = np.diag(np.linspace(0.2, 1.8, n)) + 0.05 * rng.standard_normal((n, n))
        a = 0.5 * (a + a.T)
        b = rng.standard_normal(n)
        residual = linear_fixed_point(a, b)
        solution = np.linalg.solve(a, b)

        def solve(use_anderson, beta=0.4, iters=60):
            x = np.zeros(n, dtype=complex)
            mixer = AndersonMixer(history_size=10, mixing_parameter=beta, per_band=False)
            history = []
            for _ in range(iters):
                f = residual(x)
                history.append(np.linalg.norm(f))
                if use_anderson:
                    x = mixer.update(x, f)
                else:
                    x = x - beta * f
            return np.linalg.norm(x - solution), history

        err_anderson, hist_a = solve(True)
        err_plain, hist_p = solve(False)
        assert err_anderson < 1e-6
        assert err_anderson < 1e-3 * max(err_plain, 1e-12) or err_plain < 1e-6

    def test_nonlinear_scalar_problem(self):
        """Solve x = cos(x) (fixed point ~0.739) via F(x) = x - cos(x)."""
        mixer = AndersonMixer(history_size=5, per_band=False)
        x = np.array([0.0 + 0j])
        for _ in range(40):
            f = x - np.cos(x)
            x = mixer.update(x, f)
        assert abs(x[0].real - 0.7390851332151607) < 1e-10

    def test_per_band_independent(self):
        """per_band=True treats each row independently: permuting bands permutes results."""
        rng = np.random.default_rng(1)
        x0 = rng.standard_normal((3, 6)) + 1j * rng.standard_normal((3, 6))
        targets = rng.standard_normal((3, 6)) + 1j * rng.standard_normal((3, 6))

        def run(order):
            mixer = AndersonMixer(history_size=6, per_band=True)
            x = x0[order].copy()
            for _ in range(15):
                f = 0.5 * (x - targets[order])
                x = mixer.update(x, f)
            return x

        forward = run([0, 1, 2])
        permuted = run([2, 0, 1])
        assert np.allclose(forward[0], permuted[1], atol=1e-10)

    def test_complex_fixed_point(self):
        """Anderson handles fully complex problems (wavefunction coefficients)."""
        rng = np.random.default_rng(3)
        n = 12
        a = np.eye(n) * 0.8 + 0.05 * (rng.standard_normal((n, n)) + 1j * rng.standard_normal((n, n)))
        b = rng.standard_normal(n) + 1j * rng.standard_normal(n)
        x = np.zeros(n, dtype=complex)
        mixer = AndersonMixer(history_size=8, per_band=False)
        for _ in range(50):
            f = a @ x - b
            x = mixer.update(x, f)
        assert np.linalg.norm(a @ x - b) < 1e-9


def reference_extrapolate(x_hist, f_hist, beta, regularization):
    """Type-II Anderson extrapolation for one flattened vector, written out —
    the per-band formula the band-batched mixer must reproduce."""
    x_k, f_k = x_hist[-1], f_hist[-1]
    m = len(x_hist)
    df = np.stack([f_hist[j + 1] - f_hist[j] for j in range(m - 1)], axis=1)
    dx = np.stack([x_hist[j + 1] - x_hist[j] for j in range(m - 1)], axis=1)
    gram = df.conj().T @ df
    gram += regularization * np.eye(gram.shape[0]) * max(1.0, float(np.max(np.abs(gram))))
    gamma = np.linalg.solve(gram, df.conj().T @ f_k)
    return (x_k - dx @ gamma) - beta * (f_k - df @ gamma)


def reference_update(iterates, residuals, history_size, beta, regularization, per_band):
    """What ``update`` must return after being fed ``iterates``/``residuals``."""
    x_hist, f_hist = iterates[-history_size:], residuals[-history_size:]
    if len(x_hist) == 1:
        return x_hist[0] - beta * f_hist[0]
    if not per_band:
        flat = reference_extrapolate(
            [x.ravel() for x in x_hist], [f.ravel() for f in f_hist], beta, regularization
        )
        return flat.reshape(x_hist[0].shape)
    return np.stack(
        [
            reference_extrapolate(
                [x[b] for x in x_hist], [f[b] for f in f_hist], beta, regularization
            )
            for b in range(x_hist[0].shape[0])
        ]
    )


def _assert_matches_reference(mixer, iterates, residuals):
    for k in range(len(iterates)):
        out = mixer.update(iterates[k], residuals[k])
        expected = reference_update(
            iterates[: k + 1],
            residuals[: k + 1],
            mixer.history_size,
            mixer.mixing_parameter,
            mixer.regularization,
            mixer.per_band,
        )
        assert out.shape == iterates[k].shape
        np.testing.assert_allclose(out, expected, rtol=1e-12, atol=1e-14)


def _history(rng, nbands, npw, length, row_scale=None):
    """A decaying fixed-point history (residuals shrink as an SCF's do)."""
    shape = (nbands, npw)
    iterates, residuals = [], []
    for k in range(length):
        x = rng.standard_normal(shape) + 1j * rng.standard_normal(shape)
        f = 0.5**k * (rng.standard_normal(shape) + 1j * rng.standard_normal(shape))
        if row_scale is not None:
            f = f * row_scale[:, None]
        iterates.append(x)
        residuals.append(f)
    return iterates, residuals


class TestBandBatchedUpdate:
    """The stacked ``(nbands, m-1, m-1)`` solve equals the per-band formula."""

    @pytest.mark.parametrize("nbands", [1, 3, 16])
    def test_equals_per_band_reference(self, nbands):
        rng = np.random.default_rng(nbands)
        iterates, residuals = _history(rng, nbands, 40, 7)
        mixer = AndersonMixer(history_size=20, mixing_parameter=0.7, per_band=True)
        _assert_matches_reference(mixer, iterates, residuals)

    def test_history_truncation(self):
        """Past ``history_size`` updates only the newest pairs enter the solve."""
        rng = np.random.default_rng(7)
        iterates, residuals = _history(rng, 3, 24, 9)
        mixer = AndersonMixer(history_size=4, per_band=True)
        _assert_matches_reference(mixer, iterates, residuals)
        assert mixer.history_length == 4

    def test_regularisation_is_per_band(self):
        """Bands whose Gram matrices differ by 1e6 in scale are each
        regularised on their own scale, not on the largest band's."""
        rng = np.random.default_rng(11)
        scales = np.array([1.0, 1e3, 1e-3])  # Gram scales 1, 1e6, 1e-6
        iterates, residuals = _history(rng, 3, 30, 6, row_scale=scales)
        # a regularisation large enough that sharing one scale would show
        mixer = AndersonMixer(history_size=10, per_band=True, regularization=1e-4)
        _assert_matches_reference(mixer, iterates, residuals)

    def test_band_with_zero_residual_differences(self):
        """A band whose residual never changes has a zero Gram matrix: the
        regularised solve gives gamma = 0, i.e. plain relaxation, for that
        band and leaves the others alone."""
        rng = np.random.default_rng(13)
        iterates, residuals = _history(rng, 3, 20, 5)
        for f in residuals:
            f[1] = residuals[0][1]
        mixer = AndersonMixer(history_size=10, mixing_parameter=0.5, per_band=True)
        _assert_matches_reference(mixer, iterates, residuals)
        mixer.reset()
        for x, f in zip(iterates, residuals):
            out = mixer.update(x, f)
        np.testing.assert_allclose(out[1], iterates[-1][1] - 0.5 * residuals[-1][1], rtol=1e-12)

    def test_whole_array_is_the_one_row_case(self):
        rng = np.random.default_rng(17)
        iterates, residuals = _history(rng, 4, 15, 6)
        mixer = AndersonMixer(history_size=5, mixing_parameter=0.9, per_band=False)
        _assert_matches_reference(mixer, iterates, residuals)

    def test_one_dimensional_iterate_with_per_band(self):
        """``per_band`` on a 1-D iterate has no band axis: one problem."""
        rng = np.random.default_rng(19)
        iterates = [rng.standard_normal(12) + 0j for _ in range(4)]
        residuals = [0.3**k * (rng.standard_normal(12) + 0j) for k in range(4)]
        mixer = AndersonMixer(history_size=5, per_band=True)
        for k in range(4):
            out = mixer.update(iterates[k], residuals[k])
        expected = reference_update(iterates, residuals, 5, 1.0, mixer.regularization, False)
        np.testing.assert_allclose(out, expected, rtol=1e-12, atol=1e-14)

    def test_stored_history_does_not_alias_the_caller(self):
        """The lockstep engine overwrites its iterate stack in place."""
        mixer = AndersonMixer(per_band=True)
        x = np.ones((2, 4), dtype=complex)
        f = 0.1 * np.ones((2, 4), dtype=complex)
        mixer.update(x, f)
        x[:] = 99.0
        f[:] = 99.0
        second = mixer.update(np.full((2, 4), 0.9 + 0j), np.full((2, 4), 0.05 + 0j))
        assert np.all(np.abs(second) < 2.0)
