"""Cached FFT plans and worker configuration for the plane-wave transforms.

Every hot path of the physics engine — orbital transforms, density
accumulation, Poisson solves, Fock exchange — funnels through the same few
3-D FFTs on the same few grids. Production plane-wave codes plan those
transforms once per (grid, dtype) and reuse the plan for every band, step and
job (cf. ``fft_plans()`` in GPAW's ``core/plane_waves.py``); this module is
that cache for the pure-Python engine:

* :func:`get_plan` returns the process-wide :class:`FFTPlan` for an
  :class:`~repro.pw.grid.FFTGrid` and dtype. Plans are keyed by the grid's
  value semantics (``FFTGrid.__eq__`` / ``__hash__``: shape + cell), so equal
  grids share one plan and unequal grids never do; each grid instance
  remembers the plan it resolved to, so only its first lookup compares.
* Transforms call scipy's pocketfft kernel (``c2c``) directly, with exactly
  the arguments :func:`scipy.fft.fftn` / :func:`~scipy.fft.ifftn` would pass
  it — same axes, normalisation, ``out`` and ``workers``, so the same bits.
  The public functions spend as long validating and dispatching (``uarray``,
  array-API namespace, axis normalisation) as the kernel spends on a one-band
  8³ transform, and the engine makes thousands of those per job; the plan
  binds the kernel once instead. Inputs the kernel does not take as they are
  (other dtypes, unaligned arrays) go through :mod:`scipy.fft`, and without
  scipy everything falls back to :mod:`numpy.fft`. pocketfft computes every
  transform of a batch independently, so stacking jobs/bands along leading
  axes is bit-identical to transforming each slice alone — the property the
  batched stepping engine relies on.
* A plan built with an output ``support`` (the plane-wave sphere's mask)
  computes only the pencils that reach it in a forward transform. pocketfft's
  n-D transform is the 1-D transforms of its axes run one after another, in
  the order given, and the forward one scales nothing, so transforming one
  axis at a time — the x pencils everywhere, the y pencils of the x-slabs the
  support touches, the z pencils of those slabs' y-slabs — gives the support
  positions the bits of the single call. Stacks too small to pay for the
  extra kernel calls keep the single call.
* :func:`set_fft_workers` / :func:`configure_for_pool_worker` control the
  intra-transform thread count. Process-pool workers must cap it at 1
  (``REPRO_FFT_WORKERS`` is also honoured at import): the pool already
  parallelises across groups, and nested FFT threading oversubscribes the
  host.
"""

from __future__ import annotations

import os

import numpy as np

try:  # scipy is a hard dependency of the package, but the fallback keeps
    from scipy import fft as _scipy_fft  # the pw layer importable without it
except ImportError:  # pragma: no cover - exercised by patching _scipy_fft in tests
    _scipy_fft = None
try:  # the kernel behind scipy.fft.fftn/ifftn; a private module, hence guarded
    from scipy.fft._pocketfft.pypocketfft import c2c as _c2c
except ImportError:  # pragma: no cover - scipy without it: public scipy.fft
    _c2c = None

__all__ = [
    "FFTPlan",
    "get_plan",
    "plan_cache_info",
    "clear_plan_cache",
    "set_fft_workers",
    "get_fft_workers",
    "configure_for_pool_worker",
    "scipy_fft_available",
    "plan_dtype",
]

#: the transform axes of every plan: the trailing grid axes, so any number of
#: leading (job, band) axes batch through a single call
_AXES = (-3, -2, -1)
#: the input dtypes scipy.fft hands to the kernel unconverted (native byte
#: order only: a swapped dtype compares unequal)
_KERNEL_DTYPES = frozenset(np.dtype(t) for t in (np.complex128, np.complex64, np.float64, np.float32))
#: a support-bound forward transform runs axis by axis only when the pencils
#: it skips hold at least this many bytes: the extra kernel calls break even
#: with the single call at 26-33 kB skipped (6^3, 8^3 and 10^3 meshes,
#: complex128 and complex64, measured in the perf notes), so below it they
#: cost more than they save
_PRUNE_MIN_SKIPPED_BYTES = 40_000


def _initial_workers() -> int:
    raw = os.environ.get("REPRO_FFT_WORKERS", "").strip()
    try:
        value = int(raw) if raw else 1
    except ValueError:
        value = 1
    return max(1, value)


_workers = _initial_workers()


def set_fft_workers(n: int) -> None:
    """Set the thread count every plan uses (scipy backend only)."""
    if int(n) < 1:
        raise ValueError(f"fft workers must be >= 1, got {n}")
    global _workers
    _workers = int(n)


def get_fft_workers() -> int:
    """The current per-transform thread count."""
    return _workers


def configure_for_pool_worker() -> None:
    """Cap FFT threading inside a process-pool worker.

    The pool parallelises across ground-state groups; letting every worker
    also spawn FFT threads oversubscribes the host, so workers transform
    single-threaded. Called by the process-pool entry point before any
    physics runs in the worker.
    """
    set_fft_workers(1)
    # children forked/spawned from this worker (none today) inherit the cap
    os.environ["REPRO_FFT_WORKERS"] = "1"


def scipy_fft_available() -> bool:
    """Whether the scipy pocketfft backend is in use (else numpy fallback)."""
    return _scipy_fft is not None


def plan_dtype(dtype) -> np.dtype:
    """The plan dtype serving arrays of ``dtype``: single-precision inputs
    keep the ``complex64`` tier, everything else is ``complex128``."""
    dtype = np.dtype(dtype)
    if dtype in (np.dtype(np.complex64), np.dtype(np.float32)):
        return np.dtype(np.complex64)
    return np.dtype(np.complex128)


class FFTPlan:
    """The reusable transform + workspace bundle of one ``(grid, dtype)``.

    A plan is cheap state — the grid, the dtype tier, and a workspace table
    for callers that scatter sphere coefficients onto the full mesh — and
    its transforms go straight to the pocketfft kernel bound at import;
    caching it process-wide is what lets every step of every job share the
    same backend configuration (and lets pool workers cap threading in one
    place).

    Obtain plans through :func:`get_plan`; constructing them directly
    bypasses the cache. The one exception is a plan with a ``support``: a
    boolean mesh mask of the Fourier positions its forward transforms are
    read at. Its :meth:`fftn` leaves every other position unspecified, so it
    belongs to the caller that reads only the support (the plane-wave basis
    builds one per sphere and dtype).
    """

    __slots__ = ("grid", "dtype", "_workspaces", "_slabs", "_prune_from_size")

    def __init__(self, grid, dtype=np.complex128, support=None):
        self.grid = grid
        self.dtype = np.dtype(dtype)
        self._workspaces: dict = {}
        self._slabs = None
        self._prune_from_size = np.inf
        if support is not None:
            n1, n2, n3 = grid.shape
            xs, ys = np.flatnonzero(support.any(axis=(1, 2))), np.flatnonzero(support.any(axis=(0, 2)))
            self._slabs = (_runs(xs), _runs(ys))
            # mesh points per transform that the y and z passes skip
            skipped = (n1 - xs.size) * n2 * n3 + (n1 * n2 - xs.size * ys.size) * n3
            if skipped:
                skipped_bytes = skipped * self.dtype.itemsize
                self._prune_from_size = _PRUNE_MIN_SKIPPED_BYTES * grid.size / skipped_bytes

    # ------------------------------------------------------------------
    @property
    def workers(self) -> int:
        """Threads the next transform will use (module-wide setting)."""
        return _workers

    def fftn(self, values: np.ndarray, overwrite: bool = False) -> np.ndarray:
        """Forward transform over the trailing grid axes (batches leading).

        ``overwrite=True`` lets the backend reuse ``values`` as scratch — only
        pass it for arrays the caller discards (the transform result is
        bit-identical either way; pocketfft runs the same butterflies whether
        or not the output aliases the input).

        On a plan with a ``support``, a C-contiguous complex stack large
        enough to pay for it is transformed one axis at a time over the
        pencils that reach the support; the support positions hold the bits
        of the whole-mesh transform, every other position is unspecified.
        """
        values = np.asarray(values)
        if (
            values.size >= self._prune_from_size and values.dtype == self.dtype and values.ndim >= 3
            and values.flags.c_contiguous and values.flags.aligned
            and _c2c is not None and _scipy_fft is not None
        ):
            return self._pruned_fftn(values, overwrite)
        return self._transform(values, overwrite, True)

    def ifftn(self, values: np.ndarray, overwrite: bool = False) -> np.ndarray:
        """Inverse transform over the trailing grid axes (batches leading)."""
        return self._transform(values, overwrite, False)

    def _transform(self, values, overwrite: bool, forward: bool) -> np.ndarray:
        values = np.asarray(values)
        if _scipy_fft is None:
            out = (np.fft.fftn if forward else np.fft.ifftn)(values, axes=_AXES)
            if self.dtype == np.complex64 and out.dtype != np.complex64:
                out = out.astype(np.complex64)  # older numpy upcasts single precision
            return out
        ndim = values.ndim
        if _c2c is None or ndim < 3 or values.dtype not in _KERNEL_DTYPES or not values.flags.aligned:
            transform = _scipy_fft.fftn if forward else _scipy_fft.ifftn
            return transform(values, axes=_AXES, workers=_workers, overwrite_x=overwrite)
        # scipy.fft's c2cn call: the axes made positive, no scaling forward
        # and 1/N inverse, the input reused as output only when it may be
        # overwritten and is complex; real densities go in as they are (the
        # kernel runs r2c and fills in the Hermitian half)
        out = values if overwrite and values.dtype.kind == "c" else None
        return _c2c(values, (ndim - 3, ndim - 2, ndim - 1), forward, 0 if forward else 2, out, _workers)

    def _pruned_fftn(self, values, overwrite: bool) -> np.ndarray:
        """The single call's axis passes in its order (x, y, z), each pass
        after the first in place and only on the slabs the support reaches."""
        ndim = values.ndim
        x_slabs, y_slabs = self._slabs
        out = _c2c(values, (ndim - 3,), True, 0, values if overwrite else None, _workers)
        for xs in x_slabs:
            slab = out[..., xs, :, :]
            _c2c(slab, (ndim - 2,), True, 0, slab, _workers)
            for ys in y_slabs:
                block = slab[..., ys, :]
                _c2c(block, (ndim - 1,), True, 0, block, _workers)
        return out

    # ------------------------------------------------------------------
    def workspace(self, lead_shape: tuple, fill_indices=None) -> np.ndarray:
        """A reusable zeroed mesh buffer with the given leading axes.

        The buffer is owned by the plan and handed out again on the next call
        with the same ``lead_shape`` — callers must treat it as scratch whose
        contents are only valid until their next plan call (the scatter/FFT
        hot path copies out of it immediately). ``fill_indices`` documents the
        contract that makes reuse sound: a caller that only ever writes the
        same flat mesh positions finds every *other* position still zero from
        the initial allocation, so no re-zeroing is needed between calls. The
        table is keyed by the *values* of the index set, so the bases of every
        Session built on one grid and cutoff share one buffer per lead shape
        instead of each leaving its own behind for the life of the process.
        """
        key = (tuple(lead_shape), None if fill_indices is None else fill_indices.tobytes())
        buffer = self._workspaces.get(key)
        if buffer is None:
            buffer = np.zeros(tuple(lead_shape) + (self.grid.size,), dtype=self.dtype)
            self._workspaces[key] = buffer
        return buffer

    def __repr__(self) -> str:  # pragma: no cover - cosmetic
        return f"FFTPlan(shape={self.grid.shape}, dtype={self.dtype}, workers={_workers})"


def _runs(indices: np.ndarray) -> tuple:
    """Sorted mesh indices as the slices of their contiguous runs."""
    breaks = np.flatnonzero(np.diff(indices) != 1) + 1
    return tuple(slice(int(run[0]), int(run[-1]) + 1) for run in np.split(indices, breaks) if run.size)


_PLANS: dict = {}
#: bumped by :func:`clear_plan_cache`; a per-grid memo of another generation
#: is stale
_generation = 0


class _PlanMemo(dict):
    """What one object *instance* already resolved from the plan cache.

    Kept in the owner's ``__dict__`` (like its cached properties) so the hot
    path — several lookups per Hamiltonian application — never re-enters the
    value comparison of the ``_PLANS`` key. Pickles and deep-copies as empty:
    an object shipped to a pool worker resolves through that process's cache.
    """

    __slots__ = ("generation",)

    def __init__(self):
        super().__init__()
        self.generation = _generation

    def __reduce__(self):
        return (_PlanMemo, ())


def plan_memo(owner, name: str) -> dict:
    """``owner``'s memo of plan-derived values (plans, workspaces) stored as
    ``owner.__dict__[name]``: empty again after :func:`clear_plan_cache`, and
    empty in a pickled or deep-copied owner."""
    memo = owner.__dict__.get(name)
    if memo is None or memo.generation != _generation:
        memo = owner.__dict__[name] = _PlanMemo()
    return memo


def get_plan(grid, dtype=np.complex128) -> FFTPlan:
    """The process-wide plan for ``(grid, dtype)``.

    Keys use the grid's value equality (shape + cell), so two equal
    :class:`~repro.pw.grid.FFTGrid` instances — e.g. the wavefunction grids
    of every job in a sweep group — resolve to one shared plan, while grids
    differing in shape or cell always get distinct plans. The value compare
    (``Cell.__eq__`` is an ``allclose``) is paid once per grid instance and
    dtype: the resolved plan is remembered on the instance until
    :func:`clear_plan_cache`.
    """
    dtype = np.dtype(dtype)
    resolved = plan_memo(grid, "_resolved_plans")
    plan = resolved.get(dtype)
    if plan is None:
        key = (grid, dtype)
        plan = _PLANS.get(key)
        if plan is None:
            plan = FFTPlan(grid, dtype)
            _PLANS[key] = plan
        resolved[dtype] = plan
    return plan


def plan_cache_info() -> dict:
    """Snapshot of the plan cache (for tests and diagnostics)."""
    return {
        "n_plans": len(_PLANS),
        "keys": [(grid.shape, str(dtype)) for grid, dtype in _PLANS],
        "backend": "scipy" if _scipy_fft is not None else "numpy",
        "workers": _workers,
    }


def clear_plan_cache() -> None:
    """Drop every cached plan (frees workspaces; used by tests)."""
    global _generation
    _PLANS.clear()
    _generation += 1
