"""Tests for the block Davidson and dense eigensolvers."""

from types import SimpleNamespace

import numpy as np
import pytest

from repro.pw import eigensolver
from repro.pw.eigensolver import EigenResult, block_davidson
from support import dense_eigensolve


def capped_davidson(monkeypatch, apply_h, guess, nbands, max_iterations=60, max_subspace_factor=4, **keywords):
    """``block_davidson`` with its iteration cap and restart size set, as
    the written-out reference takes them."""
    monkeypatch.setattr(eigensolver, "_MAX_ITERATIONS", max_iterations)
    monkeypatch.setattr(eigensolver, "_SUBSPACE_FACTOR", max_subspace_factor)
    return block_davidson(apply_h, guess, nbands, **keywords)


def make_hermitian_operator(n, rng, diagonal_dominance=5.0):
    """A random Hermitian matrix with a dominant, well-separated diagonal."""
    a = rng.standard_normal((n, n)) + 1j * rng.standard_normal((n, n))
    h = 0.5 * (a + a.conj().T)
    h += np.diag(diagonal_dominance * np.arange(n))
    return h


def reference_full_subspace_davidson(
    apply_h, initial_guess, nbands, preconditioner=None, max_iterations=60, tolerance=1e-7, max_subspace_factor=4
):
    """The block Davidson iteration written out the expensive way, as an
    independent reference: every iteration re-orthonormalises the *whole*
    search space with a QR and applies ``H`` to *all* of it, band by band
    corrections in a Python loop. :func:`block_davidson` must be this
    iteration (same Ritz values, same iteration count) while applying ``H``
    only to the rows it has not seen.
    """
    subspace = np.asarray(initial_guess, dtype=np.complex128).copy()
    if preconditioner is None:
        preconditioner = np.ones(subspace.shape[1])
    for iterations in range(1, max_iterations + 1):
        basis = np.linalg.qr(subspace.T)[0].T
        h_basis = apply_h(basis)
        h_sub = basis.conj() @ h_basis.T
        eigval, eigvec = np.linalg.eigh(0.5 * (h_sub + h_sub.conj().T))
        eigval, eigvec = eigval[:nbands], eigvec[:, :nbands]
        ritz = eigvec.T @ basis
        residuals = eigvec.T @ h_basis - eigval[:, None] * ritz
        residual_norms = np.linalg.norm(residuals, axis=1)
        if np.all(residual_norms < tolerance):
            return EigenResult(eigval, ritz, iterations, residual_norms, True)
        new_directions = []
        for b in range(nbands):
            if residual_norms[b] < tolerance:
                continue
            denom = 1.0 / preconditioner - eigval[b]
            denom = np.where(np.abs(denom) < 1e-3, np.sign(denom + 1e-30) * 1e-3, denom)
            correction = residuals[b] / denom
            if np.linalg.norm(correction) > 1e-14:
                new_directions.append(correction / np.linalg.norm(correction))
        if not new_directions:
            break
        if subspace.shape[0] + len(new_directions) > max_subspace_factor * nbands:
            subspace = ritz
        subspace = np.vstack([subspace, np.asarray(new_directions)])
    return EigenResult(eigval, ritz, iterations, residual_norms, False)


class RecordingOperator:
    """``block @ h.T`` that keeps a copy of every block it was handed."""

    def __init__(self, h):
        self.h = h
        self.blocks = []

    def __call__(self, block):
        self.blocks.append(np.array(block))
        return block @ self.h.T

    @property
    def rows(self):
        return [len(block) for block in self.blocks]


def degenerate_operator(n, rng):
    """A Hermitian matrix whose lowest levels are exactly 2-, 1- and 3-fold."""
    w, v = np.linalg.eigh(make_hermitian_operator(n, rng, diagonal_dominance=3.0))
    w[1] = w[0]
    w[4] = w[5] = w[3]
    return (v * w) @ v.conj().T


class TestDenseEigensolve:
    def test_matches_numpy(self):
        rng = np.random.default_rng(0)
        h = make_hermitian_operator(30, rng)
        result = dense_eigensolve(lambda block: block @ h.T, 30, 5)
        reference = np.linalg.eigvalsh(h)[:5]
        assert np.allclose(result.eigenvalues, reference, atol=1e-10)

    def test_eigenvectors_satisfy_equation(self):
        rng = np.random.default_rng(1)
        h = make_hermitian_operator(20, rng)
        result = dense_eigensolve(lambda block: block @ h.T, 20, 3)
        for k in range(3):
            v = result.eigenvectors[k]
            assert np.allclose(h @ v, result.eigenvalues[k] * v, atol=1e-9)


class TestBlockDavidson:
    def test_converges_to_lowest_eigenvalues(self, monkeypatch):
        rng = np.random.default_rng(2)
        n, nbands = 120, 4
        h = make_hermitian_operator(n, rng)
        apply_h = lambda block: block @ h.T
        guess = rng.standard_normal((nbands + 2, n)) + 1j * rng.standard_normal((nbands + 2, n))
        precond = 1.0 / (np.abs(np.diag(h).real) + 1.0)
        result = capped_davidson(monkeypatch, apply_h, guess, nbands, preconditioner=precond, tolerance=1e-8, max_iterations=200)
        reference = np.linalg.eigvalsh(h)[:nbands]
        assert result.converged
        assert np.allclose(result.eigenvalues, reference, atol=1e-6)

    def test_eigenvectors_orthonormal(self, monkeypatch):
        rng = np.random.default_rng(3)
        n, nbands = 80, 3
        h = make_hermitian_operator(n, rng)
        guess = rng.standard_normal((nbands, n)) + 1j * rng.standard_normal((nbands, n))
        result = capped_davidson(monkeypatch, lambda b: b @ h.T, guess, nbands, tolerance=1e-8, max_iterations=200)
        overlap = result.eigenvectors.conj() @ result.eigenvectors.T
        assert np.allclose(overlap, np.eye(nbands), atol=1e-8)

    def test_residual_norms_reported(self, monkeypatch):
        rng = np.random.default_rng(4)
        n, nbands = 60, 2
        h = make_hermitian_operator(n, rng)
        guess = rng.standard_normal((nbands, n)) + 1j * rng.standard_normal((nbands, n))
        result = capped_davidson(monkeypatch, lambda b: b @ h.T, guess, nbands, tolerance=1e-9, max_iterations=200)
        for k in range(nbands):
            v = result.eigenvectors[k]
            residual = np.linalg.norm(h @ v - result.eigenvalues[k] * v)
            assert residual < 1e-6

    def test_degenerate_eigenvalues(self, monkeypatch):
        """Davidson must resolve a doubly degenerate lowest eigenvalue."""
        rng = np.random.default_rng(5)
        n = 50
        h = make_hermitian_operator(n, rng, diagonal_dominance=3.0)
        # force degeneracy of the two lowest states
        w, v = np.linalg.eigh(h)
        w[1] = w[0]
        h = (v * w) @ v.conj().T
        guess = rng.standard_normal((4, n)) + 1j * rng.standard_normal((4, n))
        result = capped_davidson(monkeypatch, lambda b: b @ h.T, guess, 2, tolerance=1e-8, max_iterations=300)
        assert np.allclose(result.eigenvalues, [w[0], w[0]], atol=1e-5)

    def test_insufficient_guess_raises(self):
        with pytest.raises(ValueError):
            block_davidson(lambda b: b, np.zeros((1, 10), dtype=complex), 3)

    def test_on_physical_hamiltonian(self, lda_hamiltonian, h2_basis, rng, monkeypatch):
        """Davidson on the real LDA Hamiltonian matches the dense reference."""
        from repro.pw import Wavefunction

        wf = Wavefunction.random(h2_basis, 2, rng=rng)
        lda_hamiltonian.update_potential(wf)
        apply_h = lambda block: lda_hamiltonian.apply(block)
        dense = dense_eigensolve(apply_h, h2_basis.npw, 2)
        guess = Wavefunction.random(h2_basis, 4, rng=rng).coefficients
        davidson = capped_davidson(
            monkeypatch,
            apply_h, guess, 2, preconditioner=lda_hamiltonian.preconditioner(), tolerance=1e-7, max_iterations=120
        )
        assert np.allclose(davidson.eigenvalues, dense.eigenvalues, atol=1e-5)


class TestIncrementalIteration:
    """The incremental solver is the full-subspace iteration, at the cost of
    one application per vector."""

    CASES = {
        # name: (n, nbands, guess rows, max_subspace_factor, operator builder)
        "random": (120, 4, 6, 4, make_hermitian_operator),
        "degenerate": (60, 6, 6, 4, degenerate_operator),
        "restart": (150, 5, 5, 2, make_hermitian_operator),
    }

    def _solve_both(self, name, monkeypatch):
        """One case solved by the incremental solver (through a recording
        operator) and by the reference."""
        n, nbands, rows, factor, build = self.CASES[name]
        rng = np.random.default_rng(11)
        h = build(n, rng)
        guess = rng.standard_normal((rows, n)) + 1j * rng.standard_normal((rows, n))
        keywords = dict(
            preconditioner=1.0 / (np.abs(np.diag(h).real) + 1.0),
            tolerance=1e-9, max_iterations=300, max_subspace_factor=factor,
        )
        operator = RecordingOperator(h)
        new = capped_davidson(monkeypatch, operator, guess, nbands, **keywords)
        reference = reference_full_subspace_davidson(lambda b: b @ h.T, guess, nbands, **keywords)
        return SimpleNamespace(
            h=h, guess=guess, nbands=nbands, factor=factor, operator=operator, new=new, reference=reference
        )

    @pytest.mark.parametrize("name", sorted(CASES))
    def test_matches_the_full_subspace_reference(self, name, monkeypatch):
        case = self._solve_both(name, monkeypatch)
        new, reference = case.new, case.reference
        assert new.converged and reference.converged
        assert np.max(np.abs(new.eigenvalues - reference.eigenvalues)) <= 1e-10
        assert abs(new.iterations - reference.iterations) <= 1
        assert np.allclose(new.eigenvalues, np.linalg.eigvalsh(case.h)[: case.nbands], atol=1e-10)
        overlap = new.eigenvectors.conj() @ new.eigenvectors.T
        assert np.allclose(overlap, np.eye(case.nbands), atol=1e-10)

    def test_the_restart_case_restarts(self, monkeypatch):
        case = self._solve_both("restart", monkeypatch)
        # without a restart the space would hold every row ever applied
        assert sum(case.operator.rows) > case.factor * case.nbands
        assert case.new.converged

    @pytest.mark.parametrize("name", sorted(CASES))
    def test_h_is_applied_to_the_guess_and_to_each_new_direction_once(self, name, monkeypatch):
        """rows applied == rows(guess) + new directions: one block of at most
        ``nbands`` corrections (fewer once bands lock) per iteration but the
        converged one, nothing re-applied at a restart, no vector twice."""
        case = self._solve_both(name, monkeypatch)
        rows = case.operator.rows
        assert rows[0] == len(case.guess)
        assert len(rows) == case.new.iterations
        assert all(1 <= block <= case.nbands for block in rows[1:])
        applied = np.vstack(case.operator.blocks)
        applied /= np.linalg.norm(applied, axis=1)[:, None]
        overlaps = np.abs(applied.conj() @ applied.T) - np.eye(len(applied))
        assert overlaps.max() < 1.0 - 1e-6  # no two applied rows are the same direction

    def test_stopping_at_max_iterations_applies_nothing_it_cannot_use(self, monkeypatch):
        rng = np.random.default_rng(12)
        h = make_hermitian_operator(90, rng)
        operator = RecordingOperator(h)
        guess = rng.standard_normal((3, 90)) + 1j * rng.standard_normal((3, 90))
        result = capped_davidson(monkeypatch, operator, guess, 3, tolerance=1e-12, max_iterations=4)
        assert not result.converged and result.iterations == 4
        assert len(operator.rows) == 4  # the guess and three blocks; none after the last Rayleigh-Ritz

    def test_agrees_with_dense_eigensolve_on_the_physical_hamiltonian(self, lda_hamiltonian, h2_basis, rng, monkeypatch):
        from repro.pw import Wavefunction

        lda_hamiltonian.update_potential(Wavefunction.random(h2_basis, 2, rng=rng))
        dense = dense_eigensolve(lda_hamiltonian.apply, h2_basis.npw, 3)
        guess = Wavefunction.random(h2_basis, 4, rng=rng).coefficients
        davidson = capped_davidson(
            monkeypatch,
            lda_hamiltonian.apply, guess, 3, preconditioner=lda_hamiltonian.preconditioner(),
            tolerance=1e-9, max_iterations=200,
        )
        assert davidson.converged
        assert np.allclose(davidson.eigenvalues, dense.eigenvalues, atol=1e-10)
        # same eigenspaces: |<dense|davidson>| is a unitary on the three states
        overlap = dense.eigenvectors.conj() @ davidson.eigenvectors.T
        assert np.allclose(np.linalg.svd(overlap, compute_uv=False), 1.0, atol=1e-7)
