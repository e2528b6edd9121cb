"""Relative cost prediction for sweep jobs (scheduler input).

The paper's production runs were dispatched with a cost model in hand: the
communication accounting of Section 3 / Table 2 told the authors how long a
workload of a given size would occupy a given slice of Summit. The sweep
scheduler (:mod:`repro.exec`) needs the same thing one level up — *before*
anything runs, rank how expensive each ground-state group of a
:class:`~repro.batch.SweepSpec` will be, so the cheap jobs can go first or the
groups can be packed onto ranks with balanced makespan.

The estimates here are **relative FLOP counts**, not wall-time predictions:
they are derived from the cheap layers of a config only (structure factory,
grid choice — never an SCF), and they only need to order workloads correctly.
The dominant term mirrors :func:`repro.perf.flops.fock_flops_per_application`:
for hybrid functionals one Hamiltonian application costs ``N_b^2`` pair-density
FFT solves, for semi-local functionals ``N_b`` orbital FFTs.
"""

from __future__ import annotations

import json

from ..machine.gpu import fft_flops

__all__ = [
    "BATCH_STEPPING_EFFICIENCY",
    "DEFAULT_APPLICATIONS_PER_STEP",
    "NOMINAL_IMPLICIT_SCF_ITERATIONS",
    "applications_per_step",
    "hamiltonian_application_flops",
    "predict_group_cost",
    "predict_job_cost",
    "predict_scf_cost",
    "workload_sizes",
]

#: nominal inner-SCF iterations per implicit (PT-CN / CN) step used for cost
#: prediction; the paper reports ~22 at the full 50 as production step, this
#: engine's preconditioned solve executes 7-8 there (Si8 HSE06, tolerance 1e-5).
#: With exact exchange only 3-4 of them apply the Fock operator (the rest reuse
#: the last fresh term, the first two of a PT-gauge step the term of line 1),
#: which this relative-cost constant does not model: the value is kept because
#: scheduler orderings are pinned on it
NOMINAL_IMPLICIT_SCF_ITERATIONS = 8.0

#: fallback Hamiltonian applications per step for unknown (user-registered)
#: propagators — between explicit RK4 (4) and a converging implicit solve
DEFAULT_APPLICATIONS_PER_STEP = 8.0

#: fraction of a job's propagation cost that lockstep stepping amortizes away
#: in the infinite-width limit; :func:`predict_group_cost` applies it to every
#: multi-job group. Measured as one width-w call against w width-1 calls on
#: the silicon reference (``benchmarks/results/BENCH_batchstep.json``): RK4
#: 1.14x / 1.29x / 1.22x at widths 2 / 4 / 8, PT-CN 1.39x at width 4, i.e.
#: fractions of 0.21-0.38; the model predicts 1.18x / 1.29x / 1.36x
BATCH_STEPPING_EFFICIENCY = 0.3

#: nominal Davidson H-applications per outer ground-state SCF iteration
_DAVIDSON_APPLICATIONS_PER_ITERATION = 6.0

#: cap on the predicted outer ground-state SCF iteration count (well-behaved
#: systems converge long before a generous ``gs_max_scf_iterations`` bound)
_NOMINAL_GS_ITERATIONS = 30.0


def hamiltonian_application_flops(n_bands: int, n_grid: int, hybrid_mixing: float = 0.25) -> float:
    """FLOPs of one ``H Psi`` application on ``n_bands`` orbitals.

    The local/semi-local part costs one forward+inverse FFT plus pointwise
    work per band; a hybrid functional adds the Fock exchange — ``N_b^2``
    pair-density Poisson solves (Eq. 3 of the paper), the term that makes
    hybrid groups dominate any mixed sweep. The count is the paper's (PWDFT
    on Summit): the host engine's :mod:`repro.pw.exchange` solves only the
    ``N_b (N_b + 1) / 2`` pair triangle, a constant factor that
    :mod:`repro.calib` absorbs into the host's observed/predicted scale.
    """
    if n_bands < 1 or n_grid < 1:
        raise ValueError("n_bands and n_grid must be >= 1")
    per_solve = 2.0 * fft_flops(n_grid) + 6.0 * n_grid
    local = n_bands * per_solve
    if hybrid_mixing:
        return local + float(n_bands) ** 2 * per_solve
    return local


def applications_per_step(propagator_name: str, params: dict | None = None) -> float:
    """Predicted Hamiltonian applications per propagation step.

    Resolves the name through :data:`repro.api.PROPAGATORS` so registry
    aliases (``"pt-cn"``) cost the same as their canonical names; unknown or
    user-registered propagators fall back to
    :data:`DEFAULT_APPLICATIONS_PER_STEP`.
    """
    from ..api.registry import PROPAGATORS  # deferred: perf stays importable alone

    params = {} if params is None else params
    try:
        factory = PROPAGATORS.get(propagator_name)
    except KeyError:
        return DEFAULT_APPLICATIONS_PER_STEP

    def is_builtin(name: str) -> bool:
        return name in PROPAGATORS and factory is PROPAGATORS.get(name)

    if is_builtin("rk4"):
        return 4.0
    if is_builtin("etrs"):
        # three Taylor expansions (predictor half-step, forward, backward)
        return 3.0 * float(params.get("taylor_order", 4))
    if is_builtin("ptcn") or is_builtin("cn"):
        # the R_n evaluation plus one application per inner SCF iteration
        bound = float(params.get("max_scf_iterations", 30))
        return 1.0 + min(bound, NOMINAL_IMPLICIT_SCF_ITERATIONS)
    return DEFAULT_APPLICATIONS_PER_STEP


#: memo of :func:`workload_sizes`; two ints per distinct (system, basis), and
#: emptied at the cap so a long-lived service cannot grow it without bound
_WORKLOAD_SIZES: dict[tuple, tuple[int, int]] = {}
_WORKLOAD_SIZES_CAP = 4096


def workload_sizes(config) -> tuple[int, int]:
    """``(n_bands, n_grid_points)`` of a :class:`~repro.api.SimulationConfig`.

    Built from the cheap layers only — the structure factory and the FFT grid
    choice — and memoised on what those read: the canonical ``system`` and
    ``basis`` sections plus what the structure name resolves to (the
    registered factory, or the content digest of an ``asset:`` reference).
    Scheduling, planning and re-pricing ask for the same few materials
    hundreds of times a campaign, so predicting a whole sweep costs
    microseconds per group.
    """
    from ..api.registry import STRUCTURES  # deferred: avoids a perf -> api cycle
    from ..assets import ASSET_PREFIX, default_library
    from ..pw.grid import choose_grid_shape

    system, basis = config.system, config.basis
    name = system.structure
    if name.startswith(ASSET_PREFIX):
        resolved = default_library().digest(name[len(ASSET_PREFIX):])
    else:
        resolved = STRUCTURES.get(name)
    key = (
        resolved,
        json.dumps([name, dict(system.params), basis.ecut, basis.grid_factor], sort_keys=True, default=str),
    )
    sizes = _WORKLOAD_SIZES.get(key)
    if sizes is None:
        structure = STRUCTURES.create(name, **system.params)
        shape = choose_grid_shape(structure.cell, basis.ecut, factor=basis.grid_factor)
        sizes = (int(structure.n_occupied_bands()), int(shape[0]) * int(shape[1]) * int(shape[2]))
        if len(_WORKLOAD_SIZES) >= _WORKLOAD_SIZES_CAP:
            _WORKLOAD_SIZES.clear()
        _WORKLOAD_SIZES[key] = sizes
    return sizes


def predict_job_cost(config) -> float:
    """Relative cost (FLOPs) of one sweep job's propagation."""
    n_bands, n_grid = workload_sizes(config)
    per_apply = hamiltonian_application_flops(n_bands, n_grid, config.xc.hybrid_mixing)
    applications = applications_per_step(config.propagator.name, dict(config.propagator.params))
    # recording the energy costs one extra full H application per step
    if config.run.record_energy:
        applications += 1.0
    return float(config.run.n_steps) * applications * per_apply


def predict_scf_cost(config) -> float:
    """Relative cost (FLOPs) of the shared ground-state SCF of a group."""
    n_bands, n_grid = workload_sizes(config)
    mixing = config.xc.hybrid_mixing
    if config.xc.gs_hybrid_mixing is not None:
        mixing = config.xc.gs_hybrid_mixing
    per_apply = hamiltonian_application_flops(n_bands, n_grid, mixing)
    iterations = min(float(config.run.gs_max_scf_iterations), _NOMINAL_GS_ITERATIONS)
    return iterations * _DAVIDSON_APPLICATIONS_PER_ITERATION * per_apply


def predict_group_cost(configs) -> float:
    """Relative cost of one ground-state group: one shared SCF + all jobs.

    ``configs`` are the expanded :class:`~repro.api.SimulationConfig`\\ s of
    the group's jobs. They share structure, basis, XC and SCF parameters by
    construction, so the field-free SCF term is computed from the first one;
    they may differ in laser, propagator and time step, which only the
    per-job propagation terms read.

    A group's jobs always step in lockstep, so the propagation term carries
    the lockstep amortization: ``n`` jobs stepping together save
    :data:`BATCH_STEPPING_EFFICIENCY` of the per-job cost scaled by
    ``(n - 1) / n`` — nothing at width 1, approaching the full factor for
    wide groups. The shared-SCF term is unaffected (it runs once either way).
    """
    configs = list(configs)
    if not configs:
        return 0.0
    propagation = sum(predict_job_cost(c) for c in configs)
    if len(configs) > 1:
        propagation *= 1.0 - BATCH_STEPPING_EFFICIENCY * (len(configs) - 1) / len(configs)
    return predict_scf_cost(configs[0]) + propagation
