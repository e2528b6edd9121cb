"""Energy balance: a driven trajectory's recorded energy obeys the work theorem.

The recorded total energy includes the laser term ``int rho V_laser(t)`` with
``V_laser = F(t) s(r)``, ``s`` the sawtooth along the polarisation
(``repro.pw.laser``), and the recorded dipole along it is ``d = int rho s``.
For a functional derived from an energy (LDA, and the hybrid on the
propagated orbitals) the exact dynamics obeys ``E(t) - E(0) = int Fdot d``.
Its discrete residual, from the arrays a trajectory records and ``F`` at the
step times, is

    r_n = E_n - E_0 - sum_{k<n} (F_{k+1} - F_k) (d_k + d_{k+1}) / 2.

It needs no reference run and holds with the field on, so it checks the
physics of the step and of the recorded observables, not their bits: an xc
potential that is not the derivative of the xc energy, an off-centre implicit
step or a mis-weighted RK4 stage still conserve the norm and still run, but
the energy they record no longer balances the work the field did.

Set-up: H2 (box 10, ``ecut`` 3), ground state to 1e-9, a z-polarised Gaussian
pulse (0.01 a.u., omega 0.35 Ha, centre 400 as, sigma 100 as) over 800 as;
PT-CN and CN solve their inner loop to 1e-8. Bounds are per propagator and
``dt`` (max |r_n| measured at LDA / unscreened hybrid alpha 0.25, then the
bound, which covers both with at least 5x margin):

* PT-CN, 50 as: 4.6e-7 / 4.1e-7; bound 2.5e-6;
* PT-CN, 100 as: 6.3e-7 / 5.7e-7; bound 3.5e-6;
* CN, 50 as: 2.2e-4 / 2.1e-4; bound 1.2e-3;
* ETRS, 5 as: 1.7e-6 / 1.5e-6; bound 1e-5;
* RK4, 2 as: 3.4e-7 / 3.4e-7; bound 1.8e-6.

Field-free, every run stays below 8e-9 (bound 4e-8). The field does 6e-3 to
7e-3 Ha of work on every driven run, so no bound is "nothing happened". At
100 as the inner loop does not reach 1e-8 on every step (the hybrid run stops
at its 30-iteration cap on all eight, at density errors up to 1.5e-7); the
bound is for the run as it stands.

CN's residual at 50 as is about 500x PT-CN's at the same ``dt`` and the same
inner tolerance. That is recorded here as measured, not explained.

One-line mutants these checks kill (LDA / hybrid max |r_n|):

* PZ81 ``v_c`` with ``rs / 2`` for ``rs / 3``: PT-CN 50 as 4.6e-6 / 4.3e-6,
  RK4 2 as 5.5e-6 / 5.1e-6, hybrid field-free ETRS 4.2e-8;
* PT-CN line 2 with ``0.45j`` for ``0.5j``: PT-CN 50 as 2.2e-4 / 2.2e-4,
  100 as 1.2e-4 / 1.2e-4, field-free CN 1.9e-4 / 1.2e-4;
* RK4 with ``0.98 * k4`` for ``k4``: driven 2.8e-6 / 2.6e-6, field-free
  3.1e-6 / 2.9e-6.
"""

import numpy as np
import pytest

from repro.constants import attoseconds_to_au
from repro.core import (
    CrankNicolsonPropagator,
    ETRSPropagator,
    PTCNPropagator,
    RK4Propagator,
    TDDFTSimulation,
)
from repro.pw import GroundStateSolver, Hamiltonian
from repro.pw.laser import GaussianLaserPulse

PULSE = GaussianLaserPulse(0.01, 0.35, attoseconds_to_au(400.0), attoseconds_to_au(100.0))
DURATION_AS = 800.0

KINDS = {"lda": {"hybrid_mixing": 0.0}, "hybrid": {"hybrid_mixing": 0.25, "screening_length": None}}


def _ptcn(ham):
    return PTCNPropagator(ham, scf_tolerance=1e-8)


def _cn(ham):
    return CrankNicolsonPropagator(ham, scf_tolerance=1e-8)


@pytest.fixture(scope="module", params=sorted(KINDS))
def ground(request, h2_basis, h2_structure):
    """The functional's parameters and its ground state to 1e-9."""
    params = KINDS[request.param]
    solver = GroundStateSolver(Hamiltonian(h2_basis, h2_structure, **params), scf_tolerance=1e-9,
                               max_scf_iterations=80)
    return params, solver.solve().wavefunction


def _trajectory(ground, basis, structure, build, dt_as, field):
    params, start = ground
    ham = Hamiltonian(basis, structure, external_field=field, **params)
    n_steps = round(DURATION_AS / dt_as)
    return TDDFTSimulation(ham, build(ham)).run(start, attoseconds_to_au(dt_as), n_steps)


def _residual(trajectory, fields: np.ndarray) -> np.ndarray:
    """``|r_n|`` of every recorded state."""
    d = trajectory.dipoles @ PULSE.polarization
    work = np.concatenate([[0.0], np.cumsum(np.diff(fields) * (d[1:] + d[:-1]) / 2)])
    return np.abs(trajectory.energies - trajectory.energies[0] - work)


@pytest.mark.parametrize(
    "build,dt_as,bound",
    [
        pytest.param(_ptcn, 50.0, 2.5e-6, id="ptcn-50as"),
        pytest.param(_ptcn, 100.0, 3.5e-6, id="ptcn-100as"),
        pytest.param(_cn, 50.0, 1.2e-3, id="cn-50as"),
        pytest.param(ETRSPropagator, 5.0, 1e-5, id="etrs-5as"),
        pytest.param(RK4Propagator, 2.0, 1.8e-6, id="rk4-2as"),
    ],
)
def test_driven_energy_balances_the_work_of_the_field(ground, h2_basis, h2_structure, build, dt_as, bound):
    trajectory = _trajectory(ground, h2_basis, h2_structure, build, dt_as, PULSE.potential_factory(h2_basis.grid))
    absorbed = np.max(np.abs(trajectory.energies - trajectory.energies[0]))
    residual = np.max(_residual(trajectory, np.array([PULSE.field(t) for t in trajectory.times])))
    assert absorbed > 5e-3
    assert residual < bound, (residual, absorbed)


@pytest.mark.parametrize(
    "build,dt_as",
    [
        pytest.param(_ptcn, 50.0, id="ptcn-50as"),
        pytest.param(_cn, 50.0, id="cn-50as"),
        pytest.param(ETRSPropagator, 5.0, id="etrs-5as"),
        pytest.param(RK4Propagator, 2.0, id="rk4-2as"),
    ],
)
def test_field_free_energy_is_conserved_from_a_converged_start(ground, h2_basis, h2_structure, build, dt_as):
    trajectory = _trajectory(ground, h2_basis, h2_structure, build, dt_as, None)
    assert np.max(_residual(trajectory, np.zeros_like(trajectory.times))) < 4e-8
