#!/usr/bin/env python
"""Absorption spectra from delta-kick rt-TDDFT runs, single or swept.

This is the classic application the paper's introduction motivates (light
absorption spectra): perturb the ground state with a weak instantaneous
momentum kick, propagate with PT-CN, record the time-dependent dipole, and
Fourier transform it into the dipole strength function.

Two modes:

* default — one H2 run through the declarative api (``laser.pulse =
  "delta_kick"``; the :class:`~repro.api.Session` applies the kick to the
  converged ground state automatically), spectrum printed as a bar chart.
* ``--sweep`` — the paper-style *campaign*: the same delta-kick config swept
  across supercell sizes (hydrogen chains of growing length) through
  ``repro.batch``, each size one ground-state group, dispatchable over any
  ``repro.exec`` backend. ``SweepReport.spectrum_table()`` aggregates the
  per-size spectra; with a non-serial backend the machine-aware placement
  and predicted wall/energy costs are printed too.

Usage:
    python examples/absorption_spectrum.py
    python examples/absorption_spectrum.py --sweep
    python examples/absorption_spectrum.py --sweep --backend distributed --ranks 3
    python examples/absorption_spectrum.py --sweep --smoke     # CI-sized
"""

from __future__ import annotations

import argparse
import sys

import numpy as np

from repro.api import Session, SimulationConfig
from repro.batch import BatchRunner, SweepSpec
from repro.exec import ExecutionSettings
from repro.constants import HARTREE_TO_EV

#: the single-run H2 config: weak kick along the bond, hybrid functional
SINGLE = {
    "system": {"structure": "hydrogen_molecule", "params": {"box": 10.0, "bond_length": 1.4}},
    "basis": {"ecut": 3.0},
    "xc": {"hybrid_mixing": 0.25, "screening_length": None},
    "laser": {"pulse": "delta_kick", "params": {"strength": 0.005, "polarization": [1.0, 0.0, 0.0]}},
    "propagator": {"name": "ptcn", "params": {"scf_tolerance": 1e-6, "max_scf_iterations": 30}},
    "run": {"time_step_as": 25.0, "n_steps": 60, "record_energy": False, "gs_scf_tolerance": 1e-7},
}

#: the sweep base: kicked hydrogen chains (cheap semi-local physics), one
#: ground-state group per chain length
SWEEP_BASE = {
    "system": {"structure": "hydrogen_chain", "params": {"n_atoms": 2, "spacing": 2.0, "box": 6.0}},
    "basis": {"ecut": 2.0},
    "xc": {"hybrid_mixing": 0.0},
    "laser": {"pulse": "delta_kick", "params": {"strength": 0.005, "polarization": [1.0, 0.0, 0.0]}},
    "propagator": {"name": "ptcn", "params": {"scf_tolerance": 1e-6, "max_scf_iterations": 30}},
    "run": {"time_step_as": 10.0, "n_steps": 24, "record_energy": False, "gs_scf_tolerance": 1e-6},
}


def _print_spectrum(frequencies: np.ndarray, strength: np.ndarray) -> None:
    print("\n  energy [eV]   dipole strength [arb]")
    stride = max(1, len(frequencies) // 30)
    top = np.max(np.abs(strength)) + 1e-30
    for omega, s in zip(frequencies[::stride], strength[::stride]):
        bar = "#" * int(60 * abs(s) / top)
        print(f"  {omega * HARTREE_TO_EV:10.2f}   {s:+.4e}  {bar}")


def single() -> int:
    config = SimulationConfig.from_dict(SINGLE)
    session = Session(config)
    gs = session.ground_state()
    print(f"Ground state energy {gs.total_energy:.6f} Ha, HOMO {gs.eigenvalues[0]:.4f} Ha")
    run = config.run
    print(
        f"Propagating {run.n_steps} PT-CN steps of {run.time_step_as:g} as "
        f"({run.n_steps * run.time_step_as / 1000:.2f} fs) after the kick ..."
    )
    trajectory = session.propagate()

    from repro.core import absorption_spectrum

    params = config.laser.params
    spectrum = absorption_spectrum(
        trajectory.times,
        trajectory.dipole_along(params["polarization"]),
        kick_strength=params["strength"],
        damping=0.01,
        max_energy=1.5,
    )
    _print_spectrum(spectrum.frequencies, spectrum.strength)
    peak = spectrum.frequencies[np.argmax(np.abs(spectrum.strength))]
    print(f"\nStrongest feature at {peak * HARTREE_TO_EV:.2f} eV "
          f"(HOMO->LUMO scale of this small model system).")
    return 0


def sweep(backend: str, ranks: int, schedule: str | None, smoke: bool) -> int:
    """Delta-kick sweep across supercell sizes → per-size spectra."""
    sizes = [2, 4] if smoke else [2, 4, 6]
    base = dict(SWEEP_BASE)
    if smoke:
        base = {**base, "run": {**base["run"], "n_steps": 8}}
    spec = SweepSpec(
        SimulationConfig.from_dict(base),
        {"system.params.n_atoms": sizes},
    )
    runner = BatchRunner(
        spec,
        settings=ExecutionSettings.from_config(
            spec.base, backend=backend, ranks=ranks, schedule=schedule
        ),
    )
    print(f"Absorption sweep: chains of {sizes} atoms, backend={runner.settings.backend} "
          f"(schedule: {runner.settings.schedule})")
    report = runner.run()

    failed = [r for r in report if not r.ok]
    if failed:
        for r in failed:
            print(f"job {r.job_id} failed: {r.error}", file=sys.stderr)
        return 1

    print("\nAbsorption-spectrum sweep view (strongest feature per size):\n")
    print(report.spectrum_table(damping=0.01, max_energy=1.5))
    if backend != "serial":
        print("\nExecution placement / predicted wall and energy costs:\n")
        print(report.execution_table())
    if smoke:
        spectra = report.spectra(max_energy=1.5)
        if len(spectra) != len(sizes):
            print(f"smoke FAILED: expected {len(sizes)} spectra, got {len(spectra)}", file=sys.stderr)
            return 1
        print(f"\nsmoke ok: {len(spectra)} delta-kick spectra aggregated across supercell sizes")
    return 0


if __name__ == "__main__":
    parser = argparse.ArgumentParser(description=__doc__)
    parser.add_argument("--sweep", action="store_true", help="sweep chain sizes instead of one H2 run")
    parser.add_argument("--smoke", action="store_true", help="CI-sized sweep (implies --sweep)")
    parser.add_argument(
        "--backend",
        choices=["serial", "process", "distributed"],
        default="serial",
        help="execution backend for the sweep (see repro.exec)",
    )
    parser.add_argument("--ranks", type=int, default=3, help="simulated MPI ranks (distributed backend)")
    parser.add_argument(
        "--schedule",
        choices=["fifo", "cheapest_first", "makespan_balanced", "energy_aware"],
        default=None,
        help="scheduling policy (default: the config's run.schedule.policy)",
    )
    args = parser.parse_args()
    if args.sweep or args.smoke:
        sys.exit(sweep(args.backend, args.ranks, args.schedule, args.smoke))
    sys.exit(single())
