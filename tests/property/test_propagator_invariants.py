"""Physics-invariant properties of every registered propagator.

These guard the quantities the paper's method stands on, for *every*
integrator reachable through the registry (so a newly registered scheme is
automatically held to the same bar):

* per-step norm conservation (the electron number is a constant of motion);
* bounded energy drift at small time steps in the field-free case;
* gauge consistency — the PT-gauge propagators must agree with the
  standard-gauge explicit reference on all gauge-invariant observables, and
  the PT dynamics itself must be covariant under unitary rotations of the
  initial orbitals.
"""

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.api import PROPAGATORS
from repro.constants import attoseconds_to_au
from repro.core.observables import dipole_moment
from repro.pw import Hamiltonian, Wavefunction
from support import density_matrix_distance, electron_number

SETTINGS = dict(max_examples=5, deadline=None)


def canonical_propagator_names() -> list[str]:
    """One name per distinct registered factory (aliases collapsed)."""
    seen: dict = {}
    for name in PROPAGATORS.names():
        seen.setdefault(PROPAGATORS.get(name), name)
    return sorted(seen.values())


def _norm_tolerance(propagator) -> float:
    # implicit schemes re-orthonormalise exactly; explicit ones drift at
    # the level of their per-step integration error
    return 1e-8 if propagator.implicit else 1e-5


@pytest.fixture(scope="module")
def driven_setup(h2_ground_state, h2_basis, h2_structure):
    """Laser-driven hybrid Hamiltonian + the converged H2 ground state."""
    from repro.pw.laser import GaussianLaserPulse

    _, result = h2_ground_state
    pulse = GaussianLaserPulse(
        amplitude=0.01, omega=0.35, t0=4.0, sigma=2.0, polarization=[1, 0, 0], phase=np.pi / 2
    )
    ham = Hamiltonian(
        h2_basis,
        h2_structure,
        hybrid_mixing=0.25,
        screening_length=None,
        external_field=pulse.potential_factory(h2_basis.grid),
    )
    return ham, result.wavefunction


@pytest.fixture(scope="module")
def gauge_reference(driven_setup):
    """Standard-gauge explicit reference: RK4 at 0.5 as over a 2 as window."""
    ham, wf0 = driven_setup
    rk4 = PROPAGATORS.create("rk4", ham)
    rk4.prepare(wf0, 0.0)
    dt = attoseconds_to_au(0.5)
    wf = wf0
    for step in range(4):
        wf, _ = rk4.step(wf, step * dt, dt)
    return wf


# ---------------------------------------------------------------------------
# Norm conservation
# ---------------------------------------------------------------------------


@pytest.mark.parametrize("name", canonical_propagator_names())
class TestNormConservation:
    @given(dt_as=st.floats(0.25, 2.0))
    @settings(**SETTINGS)
    def test_electron_number_conserved_each_step(self, name, dt_as, driven_setup):
        ham, wf0 = driven_setup
        propagator = PROPAGATORS.create(name, ham)
        propagator.prepare(wf0, 0.0)
        dt = attoseconds_to_au(dt_as)
        n0 = float(np.sum(wf0.occupations))
        wf = wf0
        for step in range(2):
            wf, _ = propagator.step(wf, step * dt, dt)
            assert electron_number(wf) == pytest.approx(n0, abs=_norm_tolerance(propagator))


# ---------------------------------------------------------------------------
# Energy drift at small time steps (field-free)
# ---------------------------------------------------------------------------


@pytest.mark.parametrize("name", canonical_propagator_names())
def test_energy_drift_bounded_at_small_dt(name, h2_ground_state):
    ham, result = h2_ground_state
    wf0 = result.wavefunction
    propagator = PROPAGATORS.create(name, ham)
    propagator.prepare(wf0, 0.0)
    dt = attoseconds_to_au(0.5)
    e0 = ham.total_energy(wf0)
    wf = wf0
    for step in range(3):
        wf, _ = propagator.step(wf, step * dt, dt)
        assert abs(ham.total_energy(wf) - e0) < 2e-5


# ---------------------------------------------------------------------------
# PT gauge vs standard gauge
# ---------------------------------------------------------------------------


@pytest.mark.parametrize("name", canonical_propagator_names())
def test_observables_agree_with_standard_gauge_reference(name, driven_setup, gauge_reference):
    """Every integrator, run over the same driven 2 as window, must agree with
    the explicit standard-gauge reference on all gauge-invariant observables —
    even though the PT-gauge orbitals themselves differ by a unitary."""
    ham, wf0 = driven_setup
    propagator = PROPAGATORS.create(name, ham)
    propagator.prepare(wf0, 0.0)
    dt = attoseconds_to_au(1.0)
    wf = wf0
    for step in range(2):
        wf, _ = propagator.step(wf, step * dt, dt)

    assert density_matrix_distance(wf.coefficients, gauge_reference.coefficients) < 5e-4
    assert np.max(np.abs(dipole_moment(wf) - dipole_moment(gauge_reference))) < 2e-4
    assert electron_number(wf) == pytest.approx(electron_number(gauge_reference), abs=1e-5)


class TestGaugeCovariance:
    @given(seed=st.integers(0, 2**16))
    @settings(**SETTINGS)
    def test_ptcn_step_is_gauge_covariant(self, seed, chain_ground_state):
        """Rotating the initial orbitals by a unitary leaves the density matrix
        trajectory of a PT-CN step unchanged: the dynamics depend only on the
        gauge-invariant subspace, which is what lets the PT gauge exist."""
        ham, result = chain_ground_state
        wf0 = result.wavefunction
        rng = np.random.default_rng(seed)
        n = wf0.coefficients.shape[0]
        random = rng.standard_normal((n, n)) + 1j * rng.standard_normal((n, n))
        u, _ = np.linalg.qr(random)
        rotated = Wavefunction(wf0.basis, u.T @ wf0.coefficients, wf0.occupations)

        dt = attoseconds_to_au(5.0)
        outputs = []
        for start in (wf0, rotated):
            ptcn = PROPAGATORS.create("ptcn", ham, scf_tolerance=1e-9, max_scf_iterations=60)
            ptcn.prepare(start, 0.0)
            wf, _ = ptcn.step(start, 0.0, dt)
            outputs.append(wf)
        assert density_matrix_distance(outputs[0].coefficients, outputs[1].coefficients) < 1e-6
