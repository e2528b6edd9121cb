"""Host reference unit (``hru``): a fixed kernel that measures how fast this
host is *right now*.

The sandbox's speed moves by tens of percent between back-to-back runs of
identical code, in bursts of a second or two (README, "Why hru"), so raw
seconds cannot carry a 10 % regression bound. Every timed section is
therefore bracketed by two reference measurements and reported as
``section wall / mean(bracketing reference walls)``.

One measurement runs the two kinds of work the stack is made of, because a
slow spell does not hit them alike:

* the plane-wave engine's dominant shapes at Si8 size — the Fock pair-density
  loop (16 x [multiply, ``fftn``, kernel multiply, ``ifftn``, accumulate] on
  ``(16, 10, 10, 10)`` blocks, the 256 KB working set
  ``ExchangeOperator.apply`` has) plus two ``16 x 203`` zgemms;
* what a store-served campaign pass does — canonical-JSON encoding, sha256, a
  small file write and read-back.

It is neither a roofline nor a model of the program; it only has to speed up
and slow down with the host the way the program does. The module imports
nothing from ``repro``, so no change under ``src/`` can move the unit.
"""

from __future__ import annotations

import hashlib
import json
import pathlib
import statistics
import time

import numpy as np
from scipy import fft as _fft

#: Si8 at ecut 2.5: 16 bands, 203 plane waves, 10^3 grid
_NBANDS, _NPW, _GRID = 16, 203, (10, 10, 10)
_AXES = (-3, -2, -1)
#: passes per measurement: ~0.1 s of numeric and ~0.05 s of Python/file work.
#: Long enough to average the host's sub-0.1 s jitter, short enough to sit in
#: the same slow or fast spell as the section it brackets.
_NUMERIC_PASSES = 10
_PYTHON_PASSES = 14


def spread(values: list[float]) -> dict:
    """Median, inter-quartile distance and count of a sample."""
    iqr = 0.0
    if len(values) >= 2:
        q1, _, q3 = statistics.quantiles(values, n=4)
        iqr = q3 - q1
    return {"median": statistics.median(values), "iqr": iqr, "n": len(values)}


class HostReference:
    """The fixed-seed kernel plus every wall measured with it.

    ``scratch`` is a directory the kernel may write its three small files
    into (inside the benchmark's own output directory).
    """

    def __init__(self, scratch: pathlib.Path) -> None:
        rng = np.random.default_rng(20190717)

        def cnormal(*shape):
            return rng.standard_normal(shape) + 1j * rng.standard_normal(shape)

        self._psi = cnormal(_NBANDS, *_GRID)
        self._target = cnormal(_NBANDS, *_GRID)
        self._kernel = rng.random(_GRID)
        self._a = cnormal(_NBANDS, _NPW)
        self._b = cnormal(_NPW, _NBANDS)
        self._doc = {
            "rows": [
                {"index": i, "values": [float(j) / 7.0 for j in range(20)], "tag": "x" * 40}
                for i in range(60)
            ]
        }
        self._scratch = pathlib.Path(scratch)
        self._scratch.mkdir(parents=True, exist_ok=True)
        self.walls: list[float] = []
        self.measure()  # first call pays pocketfft's twiddle set-up and file creation
        self.walls.clear()

    def _numeric(self) -> float:
        psi, target = self._psi, self._target
        for _ in range(_NUMERIC_PASSES):
            out = np.zeros_like(target)
            for i in range(_NBANDS):
                pair = np.conj(psi[i])[None] * target
                pair_g = _fft.fftn(pair, axes=_AXES, workers=1, overwrite_x=True)
                pair_g *= self._kernel
                potential = _fft.ifftn(pair_g, axes=_AXES, workers=1, overwrite_x=True)
                out += 0.5 * psi[i][None] * potential
            rotated = (self._a @ self._b) @ self._a
        # consume the results so nothing above can be elided
        return float(out.real[0, 0, 0, 0] + rotated.real[0, 0])

    def _python(self) -> float:
        total = 0
        for i in range(_PYTHON_PASSES):
            text = json.dumps(self._doc, sort_keys=True, indent=2)
            digest = hashlib.sha256(text.encode()).hexdigest()
            path = self._scratch / f"hostref-{i % 3}.json"
            path.write_text(text)
            total += len(json.loads(path.read_text())["rows"]) + int(digest[:2], 16)
        return float(total)

    def measure(self) -> float:
        """Run the kernel once; record and return its wall seconds (1 hru)."""
        start = time.perf_counter()
        self._sink = self._numeric() + self._python()
        wall = time.perf_counter() - start
        self.walls.append(wall)
        return wall

    def summary(self) -> dict:
        """Median and IQR of every reference wall taken so far (env stamp)."""
        stats = spread(self.walls)
        return {
            "median_s": stats["median"],
            "iqr_s": stats["iqr"],
            "n": stats["n"],
            "iqr_over_median": stats["iqr"] / stats["median"],
        }
