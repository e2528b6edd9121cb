"""FFT plans of the plane-wave transforms.

Every hot path of the physics engine — orbital transforms, density
accumulation, Poisson solves, Fock exchange — funnels through the same few
3-D FFTs on the same few grids. Production plane-wave codes build those
plans from the descriptor that uses them and reuse them for every band, step
and job (cf. ``fft_plans()`` in GPAW's ``core/plane_waves.py``); here:

* :func:`get_plan` returns the :class:`FFTPlan` of an
  :class:`~repro.pw.grid.FFTGrid` instance and dtype, built once into that
  grid's own memo (:func:`plan_memo`) and freed with it. Nothing about a
  plan is kept process-wide.
* Transforms call scipy's pocketfft kernel (``c2c``) directly, with exactly
  the arguments :func:`scipy.fft.fftn` / :func:`~scipy.fft.ifftn` would pass
  it — same axes, normalisation, ``out`` and one thread — so the same bits.
  The public functions spend as long validating and dispatching (``uarray``,
  array-API namespace, axis normalisation) as the kernel spends on a one-band
  8³ transform, and the engine makes thousands of those per job; the plan
  binds the kernel once instead. Inputs the kernel does not take as they are
  (other dtypes, unaligned arrays), and every input on a scipy without the
  private kernel module, go through :mod:`scipy.fft`. pocketfft computes
  every transform of a batch independently, so stacking jobs/bands along
  leading axes is bit-identical to transforming each slice alone — the
  property the batched stepping engine relies on.
* A plan built with an output ``support`` (the plane-wave sphere's mask)
  computes only the pencils that reach it in a forward transform. pocketfft's
  n-D transform is the 1-D transforms of its axes run one after another, in
  the order given, and the forward one scales nothing, so transforming one
  axis at a time — the x pencils everywhere, the y pencils of the x-slabs the
  support touches, the z pencils of those slabs' y-slabs — gives the support
  positions the bits of the single call. Stacks too small to pay for the
  extra kernel calls keep the single call.
"""

from __future__ import annotations

import numpy as np
from scipy import fft as _scipy_fft

try:  # the kernel behind scipy.fft.fftn/ifftn; a private module, hence guarded
    from scipy.fft._pocketfft.pypocketfft import c2c as _c2c
except ImportError:  # pragma: no cover - scipy without it: public scipy.fft
    _c2c = None

__all__ = ["FFTPlan", "get_plan", "plan_cache_info", "plan_dtype"]

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


def plan_dtype(dtype) -> np.dtype:
    """The plan dtype serving arrays of ``dtype``: single-precision inputs
    keep the ``complex64`` tier, everything else is ``complex128``."""
    dtype = np.dtype(dtype)
    if dtype in (np.dtype(np.complex64), np.dtype(np.float32)):
        return np.dtype(np.complex64)
    return np.dtype(np.complex128)


class FFTPlan:
    """The transforms of one grid shape and dtype tier.

    A plan is cheap state — the dtype tier and, for a support-bound plan, the
    slabs its forward transform visits — and its transforms go straight to
    the pocketfft kernel bound at import, on one thread (a process-pool
    backend already runs one group per core).

    Obtain plans through :func:`get_plan`. The one exception is a plan with
    a ``support``: a boolean mesh mask of the Fourier positions its forward
    transforms are read at. Its :meth:`fftn` leaves every other position
    unspecified, so it belongs to the caller that reads only the support (the
    plane-wave basis builds one per sphere and dtype).
    """

    __slots__ = ("dtype", "_slabs", "_prune_from_size")

    def __init__(self, grid, dtype=np.complex128, support=None):
        self.dtype = np.dtype(dtype)
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
            and values.flags.c_contiguous and values.flags.aligned and _c2c is not None
        ):
            return self._pruned_fftn(values, overwrite)
        return self._transform(values, overwrite, True)

    def ifftn(self, values: np.ndarray, overwrite: bool = False) -> np.ndarray:
        """Inverse transform over the trailing grid axes (batches leading)."""
        return self._transform(values, overwrite, False)

    def _transform(self, values, overwrite: bool, forward: bool) -> np.ndarray:
        values = np.asarray(values)
        ndim = values.ndim
        if _c2c is None or ndim < 3 or values.dtype not in _KERNEL_DTYPES or not values.flags.aligned:
            transform = _scipy_fft.fftn if forward else _scipy_fft.ifftn
            return transform(values, axes=_AXES, workers=1, overwrite_x=overwrite)
        # scipy.fft's c2cn call: the axes made positive, no scaling forward
        # and 1/N inverse, the input reused as output only when it may be
        # overwritten and is complex; real densities go in as they are (the
        # kernel runs r2c and fills in the Hermitian half)
        out = values if overwrite and values.dtype.kind == "c" else None
        return _c2c(values, (ndim - 3, ndim - 2, ndim - 1), forward, 0 if forward else 2, out, 1)

    def _pruned_fftn(self, values, overwrite: bool) -> np.ndarray:
        """The single call's axis passes in its order (x, y, z), each pass
        after the first in place and only on the slabs the support reaches."""
        ndim = values.ndim
        x_slabs, y_slabs = self._slabs
        out = _c2c(values, (ndim - 3,), True, 0, values if overwrite else None, 1)
        for xs in x_slabs:
            slab = out[..., xs, :, :]
            _c2c(slab, (ndim - 2,), True, 0, slab, 1)
            for ys in y_slabs:
                block = slab[..., ys, :]
                _c2c(block, (ndim - 1,), True, 0, block, 1)
        return out


def _runs(indices: np.ndarray) -> tuple:
    """Sorted mesh indices as the slices of their contiguous runs."""
    breaks = np.flatnonzero(np.diff(indices) != 1) + 1
    return tuple(slice(int(run[0]), int(run[-1]) + 1) for run in np.split(indices, breaks) if run.size)


class _PlanMemo(dict):
    """Values derived from one object *instance*.

    Kept in the owner's ``__dict__`` (like its cached properties), so it lives
    and dies with the owner. Nothing stored in it may refer back to the
    owner: the cycle would keep a dropped owner alive until a full
    collection. Pickles and deep-copies as empty: an object shipped to a pool
    worker builds its own there.
    """

    __slots__ = ()

    def __reduce__(self):
        return (_PlanMemo, ())


def plan_memo(owner, name: str) -> dict:
    """``owner``'s memo of values derived from it (plans, workspaces, kernels,
    sawtooth positions) stored as ``owner.__dict__[name]``; empty in a
    pickled or deep-copied owner."""
    memo = owner.__dict__.get(name)
    if memo is None:
        memo = owner.__dict__[name] = _PlanMemo()
    return memo


def read_only(array: np.ndarray) -> np.ndarray:
    """``array``, marked read-only. A memoised derived array (G-vectors,
    ``|G|^2``, the sphere's index set and mask, kernel values) is shared by
    every job of a group, so a stray in-place write to it raises instead of
    changing every later job."""
    array.setflags(write=False)
    return array


def get_plan(grid, dtype=np.complex128) -> FFTPlan:
    """The plan of ``grid`` for ``dtype`` arrays, built on the instance's first
    lookup and kept in its memo, so every Hamiltonian application after that
    is one dict lookup; it is freed with the grid."""
    dtype = np.dtype(dtype)
    plans = plan_memo(grid, "_plans")
    plan = plans.get(dtype)
    if plan is None:
        plan = plans[dtype] = FFTPlan(grid, dtype)
    return plan


def plan_cache_info() -> dict:
    """The transform backend, for environment stamps."""
    return {"backend": "scipy"}
