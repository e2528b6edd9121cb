"""Tests for the serial Fock exchange operator (Eq. 3 of the paper)."""

import numpy as np
import pytest

import repro.pw.exchange as exchange_module
from repro.pw import ExchangeOperator, Wavefunction
from repro.pw.poisson import CoulombKernel, bare_coulomb_kernel


@pytest.fixture()
def operator(h2_basis):
    return ExchangeOperator(h2_basis, mixing_fraction=0.25, screening_length=None)


@pytest.fixture()
def orbitals(h2_basis, rng):
    return Wavefunction.random(h2_basis, 3, rng=rng)


class TestSetup:
    def test_requires_orbitals(self, operator, orbitals):
        with pytest.raises(RuntimeError, match="set_orbitals"):
            operator.apply(orbitals.coefficients)

    def test_zero_mixing_short_circuit(self, h2_basis, orbitals):
        op = ExchangeOperator(h2_basis, mixing_fraction=0.0)
        out = op.apply(orbitals.coefficients)
        assert np.allclose(out, 0.0)

    def test_negative_mixing_rejected(self, h2_basis):
        with pytest.raises(ValueError):
            ExchangeOperator(h2_basis, mixing_fraction=-0.1)

    def test_screened_kernel_selected(self, h2_basis):
        op = ExchangeOperator(h2_basis, screening_length=0.3)
        assert op.kernel.name == "erfc-screened"
        op2 = ExchangeOperator(h2_basis)
        assert op2.kernel.name == "bare"


class TestOperatorProperties:
    def test_hermiticity(self, operator, orbitals, h2_basis, rng):
        operator.set_orbitals(orbitals)
        a = Wavefunction.random(h2_basis, 1, rng=rng).coefficients[0]
        b = Wavefunction.random(h2_basis, 1, rng=rng).coefficients[0]
        lhs = np.vdot(a, operator.apply(b[None, :])[0])
        rhs = np.vdot(operator.apply(a[None, :])[0], b)
        assert lhs == pytest.approx(rhs, abs=1e-10)

    def test_linearity(self, operator, orbitals, h2_basis, rng):
        operator.set_orbitals(orbitals)
        a = Wavefunction.random(h2_basis, 1, rng=rng).coefficients
        b = Wavefunction.random(h2_basis, 1, rng=rng).coefficients
        combined = operator.apply(2.0 * a + 3.0 * b)
        separate = 2.0 * operator.apply(a) + 3.0 * operator.apply(b)
        assert np.allclose(combined, separate, atol=1e-10)

    def test_negative_semidefinite_expectation(self, operator, orbitals):
        """<psi|V_X|psi> <= 0 for orbitals in the occupied space (exchange lowers energy)."""
        operator.set_orbitals(orbitals)
        vx = operator.apply(orbitals.coefficients)
        expectations = np.real(np.einsum("ng,ng->n", orbitals.coefficients.conj(), vx))
        assert np.all(expectations <= 1e-12)

    def test_scales_linearly_with_mixing_fraction(self, h2_basis, orbitals):
        op1 = ExchangeOperator(h2_basis, mixing_fraction=0.25)
        op2 = ExchangeOperator(h2_basis, mixing_fraction=0.5)
        op1.set_orbitals(orbitals)
        op2.set_orbitals(orbitals)
        out1 = op1.apply(orbitals.coefficients)
        out2 = op2.apply(orbitals.coefficients)
        assert np.allclose(out2, 2.0 * out1, atol=1e-12)

    def test_shorter_screening_range_gives_weaker_exchange(self, h2_basis, orbitals):
        """A larger screening parameter mu makes erfc(mu r)/r shorter ranged, so the
        exchange energy magnitude must decrease monotonically with mu.

        (The bare kernel is not directly comparable here because its divergent
        G=0 component is removed, whereas the screened kernel's G=0 value
        pi/mu^2 is finite and retained.)
        """
        energies = []
        for mu in (0.3, 0.6, 1.2):
            op = ExchangeOperator(h2_basis, mixing_fraction=0.25, screening_length=mu)
            op.set_orbitals(orbitals)
            energies.append(op.energy(orbitals))
        assert all(e <= 0.0 for e in energies)
        assert energies[0] < energies[1] < energies[2]

    def test_single_band_input(self, operator, orbitals):
        operator.set_orbitals(orbitals)
        out = operator.apply(orbitals.coefficients[0])
        assert out.shape == (1, orbitals.npw)

    def test_gauge_invariance(self, operator, h2_basis, orbitals, rng):
        """V_X depends only on the density matrix: rotating the exchange orbitals
        by a unitary leaves the operator action unchanged."""
        target = Wavefunction.random(h2_basis, 2, rng=rng)
        operator.set_orbitals(orbitals)
        out1 = operator.apply(target.coefficients)
        n = orbitals.nbands
        q, _ = np.linalg.qr(rng.standard_normal((n, n)) + 1j * rng.standard_normal((n, n)))
        operator.set_orbitals(orbitals.rotate(q))
        out2 = operator.apply(target.coefficients)
        assert np.allclose(out1, out2, atol=1e-10)


class TestEnergyAndCounters:
    def test_energy_negative(self, operator, orbitals):
        assert operator.energy(orbitals) < 0.0

    def test_energy_restores_previous_orbitals(self, operator, orbitals, h2_basis, rng):
        """energy() of another set leaves the set orbitals and their memo intact."""
        other = Wavefunction.random(h2_basis, 2, rng=rng)
        operator.set_orbitals(other)
        before = operator.apply(other.coefficients)  # fills the memo of `other`
        operator.energy(orbitals)
        operator.counters.reset()
        after = operator.apply(other.coefficients)
        assert np.array_equal(after, before)
        assert operator.counters.poisson_solves == 0  # served from the memo

    def test_poisson_solve_count(self, operator, orbitals):
        """A self-application solves each unordered pair once: N (N + 1) / 2.

        ExchangeCounters count the work done; the logical applications of the
        paper's Fig. 6 are HamiltonianCounters.fock_applications /
        StepStatistics.hamiltonian_applications and are not affected."""
        n = orbitals.nbands
        operator.set_orbitals(orbitals)
        operator.counters.reset()
        operator.apply(orbitals.coefficients)
        assert operator.counters.poisson_solves == n * (n + 1) // 2
        assert operator.counters.ffts == 2 * (n * (n + 1) // 2) + n  # no target transform
        assert operator.counters.applications == 1

    def test_general_target_pairs_every_orbital_with_every_band(self, operator, orbitals, h2_basis, rng):
        target = Wavefunction.random(h2_basis, 2, rng=rng)
        operator.set_orbitals(orbitals)
        operator.counters.reset()
        operator.apply(target.coefficients)
        assert operator.counters.poisson_solves == operator.expected_poisson_solves(2)

    def test_expected_poisson_solves(self, operator, orbitals):
        operator.set_orbitals(orbitals)
        assert operator.expected_poisson_solves(5) == orbitals.nbands * 5

    def test_zero_occupation_orbital_skipped(self, h2_basis, rng):
        op = ExchangeOperator(h2_basis, mixing_fraction=0.25)
        occ = np.array([2.0, 0.0])
        wf = Wavefunction.random(h2_basis, 2, rng=rng, occupations=occ)
        op.set_orbitals(wf)
        op.counters.reset()
        op.apply(wf.coefficients)
        # pairs (0,0) and (0,1); the empty-empty pair (1,1) feeds no band
        assert op.counters.poisson_solves == 2


def _rectangular_reference(basis, kernel, wavefunction, mixing):
    """The N^2 loop of Eq. 3, written out: the reference both paths must match."""
    psi = wavefunction.to_real_space()
    out = np.zeros_like(psi)
    for i, occupation in enumerate(wavefunction.occupations):
        for j in range(psi.shape[0]):
            potential = kernel.apply_to_density(np.conj(psi[i]) * psi[j])
            out[j] += 0.5 * occupation * psi[i] * potential
    return basis.from_real_space(-mixing * out)


def _uneven_kernel(grid):
    """A real kernel with K(-G) != K(G)."""
    values = bare_coulomb_kernel(grid).values.copy()
    values[1, 2, 3] *= 3.0
    return CoulombKernel(grid, values, name="uneven")


class TestPairSymmetry:
    OCCUPATIONS = np.array([2.0, 0.0, 1.0, 0.0, 0.0, 0.5])

    @pytest.mark.parametrize("screening_length", [None, 0.3])
    def test_triangle_matches_rectangular(self, h2_basis, rng, screening_length):
        op = ExchangeOperator(h2_basis, mixing_fraction=0.25, screening_length=screening_length)
        assert op.kernel.inversion_even
        wf = Wavefunction.random(h2_basis, 6, rng=rng, orthonormal=False, occupations=self.OCCUPATIONS)
        op.set_orbitals(wf)
        triangle = op.apply(wf.coefficients)
        assert op.counters.poisson_solves < 6 * 3  # fewer than occupied x targets
        reference = _rectangular_reference(h2_basis, op.kernel, wf, 0.25)
        assert np.allclose(triangle, reference, rtol=1e-12, atol=1e-12 * np.abs(reference).max())
        # a value-different target takes the rectangular path of the operator itself
        op.counters.reset()
        nudged = wf.coefficients * (1.0 + 1e-15)
        rectangular = op.apply(nudged)
        assert op.counters.poisson_solves == 6 * 3
        assert np.allclose(triangle, rectangular, rtol=1e-12, atol=1e-12 * np.abs(reference).max())

    def test_pairs_of_empty_orbitals_skipped(self, h2_basis, rng):
        op = ExchangeOperator(h2_basis, mixing_fraction=0.25)
        wf = Wavefunction.random(h2_basis, 6, rng=rng, occupations=self.OCCUPATIONS)
        op.set_orbitals(wf)
        op.apply(wf.coefficients)
        # 21 unordered pairs minus the 6 among the three empty orbitals
        assert op.counters.poisson_solves == 21 - 6

    def test_uneven_kernel_takes_rectangular_path(self, h2_basis, rng):
        kernel = _uneven_kernel(h2_basis.grid)
        assert not kernel.inversion_even
        op = ExchangeOperator(h2_basis, mixing_fraction=0.25, kernel=kernel)
        wf = Wavefunction.random(h2_basis, 3, rng=rng, orthonormal=False)
        op.set_orbitals(wf)
        out = op.apply(wf.coefficients)
        assert op.counters.poisson_solves == 9
        assert op.counters.ffts == 3 + 2 * 9 + 3  # still no second orbital transform
        reference = _rectangular_reference(h2_basis, kernel, wf, 0.25)
        assert np.allclose(out, reference, rtol=1e-12, atol=1e-12 * np.abs(reference).max())

    def test_stacks_smaller_than_the_triangle(self, operator, orbitals, monkeypatch):
        """Cutting the pair rows into several FFT stacks only regroups the sums
        (the cut depends on grid and dtype alone, so it is the same for every
        job of a lockstep group)."""
        operator.set_orbitals(orbitals)
        whole = operator.apply(orbitals.coefficients)
        monkeypatch.setattr(exchange_module, "_STACK_BYTES", 2 * operator.grid.size * 16)
        small = ExchangeOperator(operator.basis, mixing_fraction=0.25, screening_length=None)
        small.set_orbitals(orbitals)
        assert np.allclose(small.apply(orbitals.coefficients), whole, rtol=1e-12, atol=1e-15)
        assert small._scratch.shape[0] == 2
        assert small.counters.poisson_solves == 6

    def test_complex64_stays_single_precision(self, operator, orbitals):
        single = orbitals.astype(np.complex64)
        operator.set_orbitals(single)
        out = operator.apply(single.coefficients)
        assert out.dtype == np.complex64
        assert operator._orbitals.real.dtype == np.complex64
        assert operator._scratch.dtype == np.complex64
        operator.set_orbitals(orbitals)
        assert np.allclose(out, operator.apply(orbitals.coefficients), atol=1e-5)


class TestSelfApplicationMemo:
    def test_repeated_application_served_from_memo(self, operator, orbitals):
        operator.set_orbitals(orbitals)
        first = operator.apply(orbitals.coefficients)
        operator.counters.reset()
        operator.set_orbitals(orbitals.copy())  # equal by value: a no-op
        second = operator.apply(orbitals.coefficients.copy())
        assert np.array_equal(first, second)
        assert operator.counters == type(operator.counters)()  # no work at all
        second[:] = 0.0  # the caller owns what apply returns
        assert np.array_equal(operator.apply(orbitals.coefficients), first)

    def test_self_application_is_the_memo_of_the_orbitals_held(self, operator, orbitals):
        with pytest.raises(RuntimeError, match="set_orbitals"):
            operator.self_application()
        operator.set_orbitals(orbitals)
        held = operator.self_application()  # computes it: one application
        assert operator.counters.applications == 1
        assert np.array_equal(held, operator.apply(orbitals.coefficients))
        assert operator.self_application() is held
        assert operator.counters.applications == 1
        # it follows the exchange orbitals, not the block H is applied to
        other = Wavefunction(orbitals.basis, 1.01 * orbitals.coefficients, orbitals.occupations)
        operator.apply(other.coefficients)
        assert operator.self_application() is held
        operator.set_orbitals(other)
        assert not np.array_equal(operator.self_application(), held)

    def test_energy_and_apply_share_one_application(self, operator, orbitals):
        operator.set_orbitals(orbitals)
        operator.energy(orbitals)
        operator.apply(orbitals.coefficients)
        assert operator.counters.applications == 1

    def test_changed_orbitals_invalidate(self, operator, orbitals):
        operator.set_orbitals(orbitals)
        first = operator.apply(orbitals.coefficients)
        changed = Wavefunction(orbitals.basis, 1.01 * orbitals.coefficients, orbitals.occupations)
        operator.set_orbitals(changed)
        operator.counters.reset()
        second = operator.apply(changed.coefficients)
        assert operator.counters.applications == 1
        assert np.allclose(second, 1.01**3 * first, rtol=1e-12)

    def test_changed_occupations_invalidate(self, operator, orbitals):
        operator.set_orbitals(orbitals)
        first = operator.apply(orbitals.coefficients)
        halved = Wavefunction(orbitals.basis, orbitals.coefficients, 0.5 * orbitals.occupations)
        operator.set_orbitals(halved)
        assert np.allclose(operator.apply(orbitals.coefficients), 0.5 * first, rtol=1e-12)

    def test_in_place_mutation_of_callers_array_detected(self, operator, orbitals):
        """The operator compares against its own copy: writing into the array
        it was given neither corrupts the memo nor passes for 'the same'."""
        operator.set_orbitals(orbitals)
        original = orbitals.coefficients.copy()
        first = operator.apply(orbitals.coefficients)
        orbitals.coefficients[1] *= 2.0
        operator.counters.reset()
        mutated = operator.apply(orbitals.coefficients)  # a general target now
        assert operator.counters.poisson_solves == orbitals.nbands**2
        assert not np.allclose(mutated, first)
        assert np.array_equal(operator.apply(original), first)
        # re-setting the mutated array replaces the set and its memo
        operator.set_orbitals(orbitals)
        assert not np.allclose(operator.apply(orbitals.coefficients), first)
