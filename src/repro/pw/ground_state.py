"""Ground-state SCF solver used to prepare rt-TDDFT initial states.

The rt-TDDFT simulations of the paper start from the hybrid-functional ground
state of the silicon supercell. This module provides a self-consistent field
driver on top of :class:`repro.pw.hamiltonian.Hamiltonian`:

* an inner loop that, for a fixed potential, diagonalises the Kohn–Sham
  Hamiltonian with the block Davidson solver, to the accuracy the density
  update can use (two orders below the previous density error);
* density mixing between outer iterations — three linear steps, then Anderson
  extrapolation over the iterations' own history
  (:class:`repro.pw.density.DensityMixer`);
* for hybrid functionals, an outer "exchange loop" that refreshes the orbitals
  entering the Fock operator (the standard nested-SCF treatment of hybrid
  functionals in plane-wave codes).
"""

from __future__ import annotations

import functools
import io
import os
import struct
import zipfile
import zlib
from dataclasses import dataclass, field

import numpy as np

from ..durable import write_durably
from .basis import Wavefunction
from .density import DensityMixer, compute_density, density_error
from .eigensolver import block_davidson
from .hamiltonian import Hamiltonian
from .orthogonalization import lowdin_orthonormalize

__all__ = ["GroundStateResult", "GroundStateSolver"]


#: Davidson tolerance of an SCF iteration relative to the previous iteration's
#: density error, and its cap (also the first iteration's tolerance): orbitals
#: two orders better than the density they are solved in is all the density
#: update can use (Kresse & Furthmueller, PRB 54, 11169).
_DAVIDSON_TOLERANCE_RATIO = 1e-2
_DAVIDSON_TOLERANCE_CAP = 1e-3
#: the tightest Davidson tolerance an SCF iteration asks for
_DAVIDSON_TOLERANCE_FLOOR = 1e-7
#: exact-exchange refreshes of a hybrid ground state (the first round is semi-local)
_EXCHANGE_ROUNDS = 4
#: seed of the random starting orbitals
_SEED = 7


#: the stored-zip records ``zipfile`` writes: local header, central-directory
#: entry, end of central directory
_ZIP_LOCAL = struct.Struct("<4s2B4HL2L2H")
_ZIP_CENTRAL = struct.Struct("<4s4B4HL2L5H2L")
_ZIP_END = struct.Struct("<4s4H2LH")
#: what a ``zipfile.ZipInfo(name)`` member carries: format version 2.0, the
#: zip epoch (1980-01-01 00:00 is DOS date 33, time 0), the host system and
#: ``rw-------`` permissions
_ZIP_VERSION, _ZIP_DATE = 20, 33
_ZIP_SYSTEM = zipfile.ZipInfo().create_system
_ZIP_ATTRIBUTES = 0o600 << 16
#: archives past half the ZIP64 limit, or with more members than the end
#: record counts, go to ``zipfile``, which adds ZIP64 records where needed
_ZIP_PLAIN_BYTES = zipfile.ZIP64_LIMIT // 2
_ZIP_PLAIN_MEMBERS = 0xFFFF
#: dtype kinds whose ``.npy`` payload is the array's C-order buffer
_RAW_KINDS = "biufcSU"


@functools.lru_cache(maxsize=1024)
def _npy_header(dtype: np.dtype, shape: tuple) -> bytes:
    """The ``.npy`` header ``np.lib.format`` writes for a C-ordered array."""
    header = io.BytesIO()
    np.lib.format.write_array_header_1_0(
        header,
        {"descr": np.lib.format.dtype_to_descr(dtype), "fortran_order": False, "shape": shape},
    )
    return header.getvalue()


def _npy_bytes(array) -> bytes:
    """One archive member: ``array`` in ``.npy`` format, the bytes
    ``np.lib.format.write_array`` produces. A C-contiguous plain array is its
    header plus its buffer; object dtypes, ndarray subclasses and other
    layouts go through ``write_array`` itself."""
    array = np.asanyarray(array)
    if type(array) is np.ndarray and array.flags.c_contiguous and array.dtype.kind in _RAW_KINDS:
        return _npy_header(array.dtype, array.shape) + array.tobytes()
    member = io.BytesIO()
    np.lib.format.write_array(member, array)
    return member.getvalue()


def _npz_bytes(**arrays) -> bytes:
    """A deterministic ``np.savez`` archive of ``arrays``, built in memory.

    ``np.savez`` stamps zip members with the current wall clock, so each
    array is serialised once (:func:`_npy_bytes`) and stored uncompressed with
    its timestamp pinned to the zip epoch — equal arrays give byte-identical
    archives, which is what lets a content-addressed store deduplicate equal
    physics by sha256. ``np.load`` reads the result. The records are packed
    here, byte for byte what ``zipfile.ZipFile.writestr(ZipInfo(name), ...)``
    writes; archives that need ZIP64 records or member names that are not
    plain identifiers are left to ``zipfile``.
    """
    members = [(name + ".npy", _npy_bytes(array)) for name, array in arrays.items()]
    if (
        len(members) > _ZIP_PLAIN_MEMBERS
        or sum(len(data) for _, data in members) > _ZIP_PLAIN_BYTES
        or not all(name.isascii() and name.isidentifier() for name in arrays)
    ):
        buffer = io.BytesIO()
        with zipfile.ZipFile(buffer, "w", zipfile.ZIP_STORED) as archive:
            for name, data in members:
                archive.writestr(zipfile.ZipInfo(name), data)  # epoch date_time
        return buffer.getvalue()
    records, directory, offset = [], [], 0
    for name, data in members:
        filename, crc, size = name.encode("ascii"), zlib.crc32(data), len(data)
        # reserved, flags, stored, time 0, date, crc, sizes, name, no extra field
        fields = (0, 0, 0, 0, _ZIP_DATE, crc, size, size, len(filename), 0)
        records += (_ZIP_LOCAL.pack(b"PK\x03\x04", _ZIP_VERSION, *fields), filename, data)
        directory += (
            _ZIP_CENTRAL.pack(
                b"PK\x01\x02", _ZIP_VERSION, _ZIP_SYSTEM, _ZIP_VERSION, *fields,
                0, 0, 0, _ZIP_ATTRIBUTES, offset,  # no comment, disk 0, internal attributes 0
            ),
            filename,
        )
        offset += _ZIP_LOCAL.size + len(filename) + size
    directory_size = sum(map(len, directory))
    end = _ZIP_END.pack(b"PK\x05\x06", 0, 0, len(members), len(members), directory_size, offset, 0)
    return b"".join(records + directory + [end])


def _atomic_savez(path, **arrays) -> None:
    """:func:`_npz_bytes` written with :func:`~repro.durable.write_durably`:
    a crash mid-write can never leave a torn archive at the final path
    (checkpoint manifests assume the archive next to them is complete), and
    an archive that fails to serialise never reaches the disk at all."""
    path = os.fspath(path)
    if not path.endswith(".npz"):
        path += ".npz"  # np.savez appends the extension for bare paths; match it
    write_durably(path, _npz_bytes(**arrays))


@dataclass
class GroundStateResult:
    """Converged (or best-effort) ground state.

    Attributes
    ----------
    wavefunction:
        The occupied orbitals.
    eigenvalues:
        Kohn–Sham eigenvalues of the final iteration.
    total_energy:
        Total energy in Hartree.
    scf_iterations:
        Number of outer SCF iterations used.
    density_errors:
        History of the density-change convergence metric.
    converged:
        Whether the density change dropped below the tolerance.
    """

    wavefunction: Wavefunction | None
    eigenvalues: np.ndarray
    total_energy: float
    scf_iterations: int
    density_errors: list[float] = field(default_factory=list)
    converged: bool = False

    # ------------------------------------------------------------------
    # Serialization (for the analysis layer and batch workloads)
    # ------------------------------------------------------------------
    def save_npz(self, path) -> None:
        """Save the result, including the orbitals, to a ``.npz`` archive."""
        _atomic_savez(path, **self._npz_arrays())

    def _npz_arrays(self) -> dict:
        """The arrays :meth:`save_npz` archives (and the store digests)."""
        if self.wavefunction is None:
            raise ValueError(
                "cannot save_npz: wavefunction is None (result was loaded without a basis)"
            )
        return {
            "eigenvalues": np.asarray(self.eigenvalues),
            "total_energy": np.float64(self.total_energy),
            "scf_iterations": np.int64(self.scf_iterations),
            "density_errors": np.asarray(self.density_errors, dtype=float),
            "converged": np.bool_(self.converged),
            "coefficients": self.wavefunction.coefficients,
            "occupations": self.wavefunction.occupations,
        }

    @classmethod
    def load_npz(cls, path, basis=None) -> "GroundStateResult":
        """Load a result saved by :meth:`save_npz`.

        ``basis`` is the :class:`~repro.pw.grid.PlaneWaveBasis` the orbitals
        refer to; if ``None``, :attr:`wavefunction` is left as ``None``.
        """
        with np.load(path) as data:
            wavefunction = None
            if basis is not None:
                wavefunction = Wavefunction(basis, data["coefficients"], data["occupations"])
            return cls(
                wavefunction=wavefunction,
                eigenvalues=data["eigenvalues"],
                total_energy=float(data["total_energy"]),
                scf_iterations=int(data["scf_iterations"]),
                density_errors=[float(e) for e in data["density_errors"]],
                converged=bool(data["converged"]),
            )


class GroundStateSolver:
    """Self-consistent field driver for the plane-wave Hamiltonian.

    Parameters
    ----------
    hamiltonian:
        The Hamiltonian to solve; its ``hybrid_mixing`` decides whether an
        outer exchange loop is performed.
    nbands:
        Number of occupied bands (defaults to electrons/2).
    scf_tolerance:
        Convergence threshold on the density change (the paper's rt-TDDFT SCF
        uses 1e-6; the ground state solver defaults to the same).
    max_scf_iterations:
        Maximum outer iterations.

    A hybrid ground state runs ``_EXCHANGE_ROUNDS`` exchange-orbital
    refreshes. An SCF iteration is diagonalised to ``max(1e-7, min(1e-3,
    1e-2 * e))`` with ``e`` the previous iteration's density error (1e-3 on
    the first), so the returned orbitals' residual is two orders below the
    last-but-one density error, and 1e-7 (``_DAVIDSON_TOLERANCE_FLOOR``) once
    that is below 1e-5. The starting orbitals are random, seeded with
    ``_SEED``.
    """

    def __init__(
        self,
        hamiltonian: Hamiltonian,
        nbands: int | None = None,
        scf_tolerance: float = 1e-6,
        max_scf_iterations: int = 60,
    ):
        self.hamiltonian = hamiltonian
        structure = hamiltonian.structure
        self.nbands = structure.n_occupied_bands() if nbands is None else int(nbands)
        if self.nbands < 1:
            raise ValueError("nbands must be >= 1")
        # linear steps of 0.4 for the first three updates of every SCF loop (of
        # every exchange round, for a hybrid), Anderson extrapolations after
        self.mixer = DensityMixer(beta=0.4)
        self.scf_tolerance = float(scf_tolerance)
        self.max_scf_iterations = int(max_scf_iterations)

    # ------------------------------------------------------------------
    def initial_guess(self) -> Wavefunction:
        """Random smooth orthonormal starting orbitals."""
        rng = np.random.default_rng(_SEED)
        wf = Wavefunction.random(self.hamiltonian.basis, self.nbands, rng=rng)
        return lowdin_orthonormalize(wf)

    def _diagonalize(
        self, guess: Wavefunction, include_exchange: bool, previous_error: float
    ) -> tuple[np.ndarray, Wavefunction]:
        """Lowest ``nbands`` eigenpairs of the current Hamiltonian, to a residual
        two orders below the previous SCF iteration's density error (no tighter
        than the floor, no looser than the cap)."""
        ham = self.hamiltonian
        tolerance = max(
            _DAVIDSON_TOLERANCE_FLOOR,
            min(_DAVIDSON_TOLERANCE_CAP, _DAVIDSON_TOLERANCE_RATIO * previous_error),
        )

        def apply_h(block: np.ndarray) -> np.ndarray:
            return ham.apply(block, include_exchange=include_exchange)

        result = block_davidson(
            apply_h,
            guess.coefficients,
            self.nbands,
            preconditioner=ham.preconditioner(),
            tolerance=tolerance,
        )
        wavefunction = Wavefunction(ham.basis, result.eigenvectors, guess.occupations)
        return result.eigenvalues, wavefunction

    # ------------------------------------------------------------------
    def solve(self, initial: Wavefunction | None = None) -> GroundStateResult:
        """Run the SCF loop and return the converged ground state."""
        ham = self.hamiltonian
        ham.set_time(0.0)
        wavefunction = self.initial_guess() if initial is None else initial
        use_hybrid = ham.exchange is not None

        # Start from a semi-local (no exact exchange) SCF which is cheap and
        # robust, then switch the Fock operator on for the outer loop.
        density = compute_density(wavefunction, ham.grid)
        density *= ham.n_electrons / max(float(np.sum(density) * ham.grid.volume_element), 1e-30)
        errors: list[float] = []
        eigenvalues = np.zeros(self.nbands)
        converged = False
        iterations = 0

        exchange_rounds = _EXCHANGE_ROUNDS if use_hybrid else 1
        for exchange_round in range(exchange_rounds):
            include_exchange = use_hybrid and exchange_round > 0
            if include_exchange and ham.exchange is not None:
                ham.exchange.set_orbitals(wavefunction)
            self.mixer.reset()  # a new round is a new SCF map: history and warm-up restart
            inner_converged = False
            for _ in range(self.max_scf_iterations):
                iterations += 1
                ham.update_potential(wavefunction, density=density, update_exchange=False)
                eigenvalues, wavefunction = self._diagonalize(
                    wavefunction, include_exchange, errors[-1] if errors else np.inf
                )
                new_density = compute_density(wavefunction, ham.grid)
                err = density_error(new_density, density, ham.grid)
                errors.append(err)
                density = self.mixer.mix(density, new_density)
                if err < self.scf_tolerance:
                    inner_converged = True
                    break
            if not use_hybrid:
                converged = inner_converged
                break
            if exchange_round == exchange_rounds - 1:
                converged = inner_converged

        ham.update_potential(wavefunction, density=density)
        total_energy = ham.total_energy(wavefunction)
        return GroundStateResult(
            wavefunction=wavefunction,
            eigenvalues=eigenvalues,
            total_energy=total_energy,
            scf_iterations=iterations,
            density_errors=errors,
            converged=converged,
        )
