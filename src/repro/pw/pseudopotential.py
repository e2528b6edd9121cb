"""Model norm-conserving pseudopotentials.

The paper uses SG15 ONCV pseudopotentials for silicon. Distributing and parsing
ONCV data files is outside the scope of this reproduction, so we provide
analytic model pseudopotentials with the same operator structure:

* a **local** part given in reciprocal space by the Goedecker–Teter–Hutter
  (GTH/HGH) analytic form — a short-range Gaussian-screened Coulomb attraction
  of the valence charge plus Gaussian-polynomial corrections, and
* a **nonlocal** part in separable Kleinman–Bylander form, with Gaussian radial
  projectors per angular-momentum channel (the structure of HGH and, after the
  KB transformation, of ONCV potentials).

The nonlocal projectors are transformed to reciprocal space numerically with a
spherical Bessel quadrature, so arbitrary radial shapes can be used.

The module also provides the classic Cohen–Bergstresser empirical
pseudopotential form factors for silicon (local only), which give a reasonable
silicon band structure on small plane-wave bases, and an Ewald summation for
the (constant, but reported) ion–ion energy.
"""

from __future__ import annotations

from collections import OrderedDict
from dataclasses import dataclass, field

import numpy as np
from scipy.special import erfc, spherical_jn

from ..constants import RYDBERG_TO_HARTREE
from .grid import FFTGrid, PlaneWaveBasis
from .lattice import Cell

__all__ = [
    "ProjectorChannel",
    "PseudopotentialSpecies",
    "gth_species",
    "GTH_PARAMETERS",
    "cohen_bergstresser_silicon_species",
    "LocalPotentialBuilder",
    "NonlocalPotential",
    "structure_factor",
    "ewald_energy",
]


# ---------------------------------------------------------------------------
# Species definitions
# ---------------------------------------------------------------------------


@dataclass(frozen=True)
class ProjectorChannel:
    """One Kleinman–Bylander projector channel.

    Attributes
    ----------
    l:
        Angular momentum (0 = s, 1 = p).
    i:
        Radial index (1 or 2) selecting the HGH radial shape
        ``r^{l + 2(i-1)} exp(-r^2 / (2 r_l^2))``.
    r_l:
        Gaussian width of the projector (Bohr).
    h:
        Coupling strength ``h^l_{ii}`` (Hartree).
    """

    l: int
    i: int
    r_l: float
    h: float

    def __post_init__(self) -> None:
        if self.l < 0 or self.l > 2:
            raise ValueError(f"only l = 0, 1, 2 supported, got {self.l}")
        if self.i not in (1, 2):
            raise ValueError(f"radial index i must be 1 or 2, got {self.i}")
        if self.r_l <= 0:
            raise ValueError("projector radius must be positive")

    def radial_function(self, r: np.ndarray) -> np.ndarray:
        """HGH radial projector ``p_i^l(r)`` (unnormalised shape is fine since
        the normalisation constant can be absorbed, but we use the HGH
        normalisation so published ``h`` values keep their meaning)."""
        from scipy.special import gamma

        l, i, rl = self.l, self.i, self.r_l
        power = l + 2 * (i - 1)
        norm = np.sqrt(2.0) / (
            rl ** (l + (4 * i - 1) / 2.0) * np.sqrt(gamma(l + (4 * i - 1) / 2.0))
        )
        r = np.asarray(r, dtype=float)
        return norm * r**power * np.exp(-0.5 * (r / rl) ** 2)


@dataclass(frozen=True)
class PseudopotentialSpecies:
    """An atomic species with a model norm-conserving pseudopotential.

    Attributes
    ----------
    symbol:
        Chemical symbol.
    valence_charge:
        Number of valence electrons ``Z_ion``.
    r_loc:
        Range of the Gaussian-screened local Coulomb part (Bohr).
    local_coefficients:
        Polynomial coefficients ``(C1, C2, C3, C4)`` of the Gaussian local
        correction; trailing zeros may be omitted.
    projectors:
        Tuple of nonlocal projector channels (may be empty).
    local_form_factor:
        Optional callable ``f(|G|) -> value (Ha * Bohr^3)`` overriding the
        analytic local form (used by the empirical Cohen–Bergstresser model).
    """

    symbol: str
    valence_charge: float
    r_loc: float
    local_coefficients: tuple[float, ...] = ()
    projectors: tuple[ProjectorChannel, ...] = ()
    local_form_factor: object | None = field(default=None, compare=False)

    def __post_init__(self) -> None:
        if self.valence_charge < 0:
            raise ValueError("valence_charge must be non-negative")
        if self.r_loc <= 0:
            raise ValueError("r_loc must be positive")
        if len(self.local_coefficients) > 4:
            raise ValueError("at most 4 local polynomial coefficients are supported")

    # ------------------------------------------------------------------
    def local_potential_g(self, g_norm: np.ndarray) -> np.ndarray:
        """Local pseudopotential form factor ``Omega * V_loc(G)`` in Ha*Bohr^3.

        The divergent ``-4 pi Z / G^2`` Coulomb tail is returned as-is for
        ``G != 0`` and set to zero at ``G = 0`` (the neutral-system convention:
        the G=0 components of the local pseudopotential, the Hartree potential
        and the Ewald sum combine into a constant that does not affect the
        dynamics).
        """
        g = np.asarray(g_norm, dtype=float)
        if self.local_form_factor is not None:
            return np.asarray(self.local_form_factor(g), dtype=float)
        x = g * self.r_loc
        gauss = np.exp(-0.5 * x * x)
        out = np.zeros_like(g)
        nonzero = g > 1e-12
        out[nonzero] = -4.0 * np.pi * self.valence_charge / (g[nonzero] ** 2) * gauss[nonzero]
        # Gaussian polynomial corrections (finite everywhere, including G = 0)
        coeffs = list(self.local_coefficients) + [0.0] * (4 - len(self.local_coefficients))
        c1, c2, c3, c4 = coeffs
        x2 = x * x
        poly = (
            c1
            + c2 * (3.0 - x2)
            + c3 * (15.0 - 10.0 * x2 + x2 * x2)
            + c4 * (105.0 - 105.0 * x2 + 21.0 * x2 * x2 - x2 * x2 * x2)
        )
        out = out + np.sqrt(8.0 * np.pi**3) * self.r_loc**3 * gauss * poly
        return out


#: GTH/HGH-LDA-style parameter sets, one per supported element. Each entry is
#: ``(valence_charge, r_loc, local_coefficients, ((l, r_l, h), ...))`` in the
#: conventions of :class:`PseudopotentialSpecies`. Only the first radial
#: projector of each angular-momentum channel is kept and the off-diagonal
#: ``h_{12}`` couplings are omitted (documented simplification: eigenvalues
#: shift, operator structure and cost stay faithful). The local parts and the
#: kept projectors follow the published HGH-LDA values; together with
#: :func:`gth_species` this is the generator behind the ``pseudo/`` assets of
#: :mod:`repro.assets`.
GTH_PARAMETERS: dict[str, tuple] = {
    "H": (1.0, 0.2, (-4.180237, 0.725075), ()),
    "C": (4.0, 0.348830, (-8.513771, 1.228432), ((0, 0.304553, 9.522842),)),
    "N": (5.0, 0.289179, (-12.234820, 1.766407), ((0, 0.256605, 13.552243),)),
    "O": (6.0, 0.247621, (-16.580318, 2.395701), ((0, 0.221786, 18.266917),)),
    "Al": (3.0, 0.450000, (-8.491351,), ((0, 0.460104, 5.088340), (1, 0.536744, 2.679700))),
    "Si": (4.0, 0.440000, (-7.336103,), ((0, 0.422738, 5.906928), (1, 0.484278, 2.727013))),
    "Ge": (4.0, 0.540000, (-6.269333,), ((0, 0.493800, 4.869276), (1, 0.601064, 2.229563))),
}


def gth_species(symbol: str) -> PseudopotentialSpecies:
    """A GTH/HGH-style species for any element in :data:`GTH_PARAMETERS`.

    ``gth_species("H")`` (local only) and ``gth_species("Si")`` (4 valence
    electrons, an s and a p projector) are the species of the paper's
    systems; the remaining elements (C, N, O, Al, Ge) extend the material
    coverage of the asset library.
    Unknown symbols raise :class:`ValueError` listing the supported elements.
    """
    key = str(symbol).capitalize()
    if key not in GTH_PARAMETERS:
        raise ValueError(
            f"no GTH parameters for element {symbol!r}; "
            f"supported elements: {sorted(GTH_PARAMETERS)}"
        )
    valence, r_loc, local_coefficients, channels = GTH_PARAMETERS[key]
    projectors = tuple(ProjectorChannel(l=l, i=1, r_l=r_l, h=h) for l, r_l, h in channels)
    return PseudopotentialSpecies(
        symbol=key,
        valence_charge=valence,
        r_loc=r_loc,
        local_coefficients=local_coefficients,
        projectors=projectors,
    )


def cohen_bergstresser_silicon_species(lattice_constant: float) -> PseudopotentialSpecies:
    """Cohen–Bergstresser empirical pseudopotential for silicon (local only).

    The EPM is defined by three symmetric form factors at ``|G|^2 = 3, 8, 11``
    (in units of ``(2 pi / a)^2``): ``V3 = -0.21 Ry, V8 = 0.04 Ry,
    V11 = 0.08 Ry``. The form factors are form factors *per atom* for the
    two-atom basis; between the tabulated points we interpolate with narrow
    Gaussians so the model is usable on supercells whose G-vectors do not fall
    exactly on the primitive reciprocal lattice.
    """
    if lattice_constant <= 0:
        raise ValueError("lattice_constant must be positive")
    two_pi_over_a = 2.0 * np.pi / lattice_constant
    # form factors in Hartree; the EPM form factors are conventionally quoted
    # for the primitive fcc cell volume a^3/4
    cell_volume = lattice_constant**3 / 4.0
    targets = {
        np.sqrt(3.0) * two_pi_over_a: -0.21 * RYDBERG_TO_HARTREE,
        np.sqrt(8.0) * two_pi_over_a: 0.04 * RYDBERG_TO_HARTREE,
        np.sqrt(11.0) * two_pi_over_a: 0.08 * RYDBERG_TO_HARTREE,
    }
    width = 0.08 * two_pi_over_a

    def form_factor(g: np.ndarray) -> np.ndarray:
        g = np.asarray(g, dtype=float)
        out = np.zeros_like(g)
        for g0, v in targets.items():
            out = out + v * np.exp(-0.5 * ((g - g0) / width) ** 2)
        # form factor is V(G) * Omega_cell / 2 atoms -> per-atom contribution
        return out * cell_volume / 2.0

    return PseudopotentialSpecies(
        symbol="Si",
        valence_charge=4.0,
        r_loc=0.44,
        local_coefficients=(),
        projectors=(),
        local_form_factor=form_factor,
    )


# ---------------------------------------------------------------------------
# Structure factor
# ---------------------------------------------------------------------------


def structure_factor(g_vectors: np.ndarray, positions: np.ndarray) -> np.ndarray:
    """Structure factor ``S(G) = sum_a exp(-i G . R_a)``.

    Parameters
    ----------
    g_vectors:
        Array of shape ``(..., 3)``.
    positions:
        Cartesian atomic positions, shape ``(natoms, 3)``.
    """
    g = np.asarray(g_vectors, dtype=float)
    pos = np.asarray(positions, dtype=float)
    phases = np.tensordot(g, pos.T, axes=([-1], [0]))  # (..., natoms)
    return np.exp(-1j * phases).sum(axis=-1)


# ---------------------------------------------------------------------------
# Local potential builder
# ---------------------------------------------------------------------------


class LocalPotentialBuilder:
    """Builds the total local (ionic) potential on an FFT grid.

    ``V_loc(G) = (1/Omega) sum_species v_s(|G|) S_s(G)`` followed by an inverse
    FFT to the real-space grid. The result is cached per (grid, geometry).
    """

    def __init__(self, grid: FFTGrid):
        self.grid = grid

    def build(
        self,
        species_list: list[PseudopotentialSpecies],
        positions_list: list[np.ndarray],
    ) -> np.ndarray:
        """Total local ionic potential on the real-space grid (real array).

        Parameters
        ----------
        species_list:
            One species per group of atoms.
        positions_list:
            For each species, the Cartesian positions of its atoms
            ``(n_atoms_of_species, 3)``.
        """
        if len(species_list) != len(positions_list):
            raise ValueError("species_list and positions_list must have equal length")
        grid = self.grid
        g_norm = np.sqrt(grid.g_squared)
        v_g = np.zeros(grid.shape, dtype=np.complex128)
        for species, positions in zip(species_list, positions_list):
            positions = np.atleast_2d(np.asarray(positions, dtype=float))
            if positions.shape[1] != 3:
                raise ValueError("positions must have shape (natoms, 3)")
            form = species.local_potential_g(g_norm)
            sfac = structure_factor(grid.g_vectors, positions)
            v_g += form * sfac / grid.cell.volume
        v_r = np.fft.ifftn(v_g) * grid.size
        return np.real(v_r)


# ---------------------------------------------------------------------------
# Nonlocal (Kleinman-Bylander) potential
# ---------------------------------------------------------------------------


def _real_spherical_harmonics(l: int, unit_vectors: np.ndarray) -> np.ndarray:
    """Real spherical harmonics Y_lm for l = 0, 1, 2 evaluated on unit vectors.

    Returns an array of shape ``(2l+1, n)``.
    """
    n = unit_vectors.shape[0]
    x, y, z = unit_vectors[:, 0], unit_vectors[:, 1], unit_vectors[:, 2]
    if l == 0:
        return np.full((1, n), 0.5 / np.sqrt(np.pi))
    if l == 1:
        c = np.sqrt(3.0 / (4.0 * np.pi))
        return np.stack([c * x, c * y, c * z], axis=0)
    if l == 2:
        c = np.sqrt(15.0 / (4.0 * np.pi))
        return np.stack(
            [
                c * x * y,
                c * y * z,
                np.sqrt(5.0 / (16.0 * np.pi)) * (3.0 * z * z - 1.0),
                c * x * z,
                0.5 * c * (x * x - y * y),
            ],
            axis=0,
        )
    raise ValueError(f"unsupported angular momentum l={l}")


def _memoised(cache: OrderedDict, size: int, key: tuple, build):
    """``cache[key]``, built on a miss; least recently used entries beyond
    ``size`` are dropped."""
    if key in cache:
        cache.move_to_end(key)
        return cache[key]
    value = cache[key] = build()
    while len(cache) > size:
        cache.popitem(last=False)
    return value


# Every Session builds its own Hamiltonian, and the ``spherical_jn`` tables
# below are ~5 ms for Si8 (as long as an inner PT-CN iteration). A small LRU
# keyed on the exact bytes of every input hands back the very arrays the
# build produced, marked read-only because every holder shares them.
_PROJECTOR_CACHE: OrderedDict[tuple, tuple[np.ndarray, np.ndarray]] = OrderedDict()
_PROJECTOR_CACHE_SIZE = 4
#: the radial grid of the projector transforms: points on [0, cutoff] Bohr
_RADIAL_POINTS = 400
_RADIAL_CUTOFF = 10.0


class NonlocalPotential:
    """Separable Kleinman–Bylander nonlocal potential on a plane-wave basis.

    ``V_NL = sum_{a, channels, m} |beta^a> h <beta^a|`` with
    ``<G|beta^a_{l,i,m}> = (4 pi / sqrt(Omega)) p~_{l,i}(|G|) Y_lm(G^) exp(-i G . R_a)``.

    The radial transforms ``p~(G) = int j_l(G r) p(r) r^2 dr`` are evaluated by
    Gauss–Legendre-style quadrature on a dense radial grid once per species.

    The paper stores the real-space nonlocal projectors on every processor
    (432 MB for Si-1536) so application needs no communication; our dense
    ``(n_projectors, npw)`` matrix plays the same role.
    """

    def __init__(
        self,
        basis: PlaneWaveBasis,
        species_list: list[PseudopotentialSpecies],
        positions_list: list[np.ndarray],
    ):
        self.basis = basis
        self.species_list = list(species_list)
        self.positions_list = [np.atleast_2d(np.asarray(p, float)) for p in positions_list]
        if len(self.species_list) != len(self.positions_list):
            raise ValueError("species_list and positions_list must have equal length")
        self._projector_matrix, self._couplings = self._build()

    # ------------------------------------------------------------------
    @property
    def n_projectors(self) -> int:
        """Total number of projector functions (all atoms, channels, m)."""
        return self._projector_matrix.shape[0]

    # ------------------------------------------------------------------
    def _radial_transform(self, channel: ProjectorChannel, g_norm: np.ndarray) -> np.ndarray:
        r = np.linspace(0.0, _RADIAL_CUTOFF, _RADIAL_POINTS)
        dr = r[1] - r[0]
        p_r = channel.radial_function(r)
        # trapezoid weights
        w = np.full_like(r, dr)
        w[0] *= 0.5
        w[-1] *= 0.5
        integrand = p_r * r * r * w  # (nr,)
        # j_l(G r) for all unique |G| values
        out = np.empty_like(g_norm)
        # vectorise over G in chunks to bound memory
        chunk = 2048
        for start in range(0, g_norm.size, chunk):
            stop = min(start + chunk, g_norm.size)
            gr = np.outer(g_norm[start:stop], r)
            jl = spherical_jn(channel.l, gr)
            out[start:stop] = jl @ integrand
        return out

    def _build(self) -> tuple[np.ndarray, np.ndarray]:
        """The projector matrix and couplings, memoised (bounded LRU on the
        bytes of the basis G-vectors, lattice and positions plus the projector
        channels)."""
        key = (
            self.basis.g_vectors.tobytes(),
            self.basis.grid.cell.lattice_vectors.tobytes(),
            tuple(species.projectors for species in self.species_list),
            tuple(positions.tobytes() for positions in self.positions_list),
        )
        return _memoised(_PROJECTOR_CACHE, _PROJECTOR_CACHE_SIZE, key, self._build_read_only)

    def _build_read_only(self) -> tuple[np.ndarray, np.ndarray]:
        tables = self._build_uncached()
        for array in tables:
            array.setflags(write=False)
        return tables

    def _build_uncached(self) -> tuple[np.ndarray, np.ndarray]:
        basis = self.basis
        g_vec = basis.g_vectors
        g_norm = np.sqrt(basis.g_squared)
        # unit vectors; avoid division by zero at G=0
        safe = np.where(g_norm > 1e-12, g_norm, 1.0)
        unit = g_vec / safe[:, None]
        volume = basis.grid.cell.volume

        rows: list[np.ndarray] = []
        couplings: list[float] = []
        for species, positions in zip(self.species_list, self.positions_list):
            if not species.projectors:
                continue
            for channel in species.projectors:
                radial = self._radial_transform(channel, g_norm)
                if channel.l > 0:
                    radial = np.where(g_norm > 1e-12, radial, 0.0)
                ylm = _real_spherical_harmonics(channel.l, unit)  # (2l+1, npw)
                angular_radial = (4.0 * np.pi / np.sqrt(volume)) * radial[None, :] * ylm
                for atom_position in positions:
                    phase = np.exp(-1j * (g_vec @ atom_position))
                    for m_index in range(2 * channel.l + 1):
                        rows.append(angular_radial[m_index] * phase)
                        couplings.append(channel.h)
        if rows:
            matrix = np.asarray(rows, dtype=np.complex128)
            h = np.asarray(couplings, dtype=float)
        else:
            matrix = np.zeros((0, basis.npw), dtype=np.complex128)
            h = np.zeros((0,), dtype=float)
        return matrix, h

    # ------------------------------------------------------------------
    def apply(self, coefficients: np.ndarray) -> np.ndarray:
        """Apply ``V_NL`` to a block of wavefunction coefficients.

        Parameters
        ----------
        coefficients:
            Array of shape ``(nbands, npw)``.

        Returns
        -------
        ndarray
            ``V_NL Psi`` with the same shape.
        """
        coefficients = np.asarray(coefficients, dtype=np.complex128)
        if self.n_projectors == 0:
            return np.zeros_like(coefficients)
        # <beta|psi> for every projector and band: (nproj, nbands)
        amplitudes = self._projector_matrix.conj() @ coefficients.T
        weighted = amplitudes * self._couplings[:, None]
        return (self._projector_matrix.T @ weighted).T

    def energy(self, coefficients: np.ndarray, occupations: np.ndarray) -> float:
        """Nonlocal pseudopotential energy ``sum_n f_n <psi_n|V_NL|psi_n>``."""
        if self.n_projectors == 0:
            return 0.0
        amplitudes = self._projector_matrix.conj() @ np.asarray(coefficients).T
        per_band = np.einsum("pn,p,pn->n", amplitudes.conj(), self._couplings, amplitudes)
        return float(np.real(np.sum(np.asarray(occupations) * per_band)))


# ---------------------------------------------------------------------------
# Ewald energy (constant ion-ion term)
# ---------------------------------------------------------------------------


def _lattice_points(basis: np.ndarray, nmax: np.ndarray) -> np.ndarray:
    """``n1 b0 + n2 b1 + n3 b2`` for every ``|n_i| <= nmax_i``, shape ``(N, 3)``,
    in the ``(n1, n2, n3)`` order of three nested loops and with each point
    rounded as the loop body ``n1 * b0 + n2 * b1 + n3 * b2`` rounds it."""
    n1, n2, n3 = (np.arange(-n, n + 1)[:, None] * b for n, b in zip(nmax, basis))
    return ((n1[:, None, None] + n2[None, :, None]) + n3[None, None, :]).reshape(-1, 3)


# The Ewald constant depends on the structure alone, yet every Session of a
# campaign builds its own Hamiltonian (ten per cold h2_campaign pass, one per
# Si8 benchmark rep) and even the vectorised sum below is ~1 ms for H2 and ~9
# ms for Si8. A small LRU keyed on the exact bytes of every input returns the
# very float the sum produced.
_EWALD_CACHE: OrderedDict[tuple, float] = OrderedDict()
_EWALD_CACHE_SIZE = 16
#: real- and reciprocal-space cutoffs of the Ewald lattice sums
_EWALD_CUTOFF = 10.0


def ewald_energy(
    cell: Cell,
    positions: np.ndarray,
    charges: np.ndarray,
    eta: float | None = None,
) -> float:
    """Ewald summation of the ion–ion interaction energy of a neutral-ised cell.

    A compensating homogeneous background is assumed (consistent with dropping
    the ``G = 0`` components of the Hartree and local pseudopotential terms).
    Ion positions are fixed during rt-TDDFT so this is a constant offset of the
    total energy; it is included so reported total energies are meaningful.

    Parameters
    ----------
    cell:
        Simulation cell.
    positions:
        Cartesian ion positions ``(natoms, 3)`` in Bohr.
    charges:
        Ion (valence) charges ``(natoms,)``.
    eta:
        Ewald splitting parameter; chosen automatically if omitted.

    The lattice sums run to ``_EWALD_CUTOFF`` in real and reciprocal space.
    The result is memoised per structure (bounded LRU on the bytes of the
    lattice, positions and charges plus ``eta``).
    """
    positions = np.atleast_2d(np.asarray(positions, float))
    charges = np.asarray(charges, float)
    natoms = positions.shape[0]
    if charges.shape != (natoms,):
        raise ValueError("charges must have one entry per atom")
    key = (
        cell.lattice_vectors.tobytes(),
        positions.tobytes(),
        charges.tobytes(),
        None if eta is None else float(eta),
    )
    return _memoised(
        _EWALD_CACHE,
        _EWALD_CACHE_SIZE,
        key,
        lambda: _ewald_sum(cell, positions, charges, eta, _EWALD_CUTOFF, _EWALD_CUTOFF),
    )


def _ewald_sum(
    cell: Cell,
    positions: np.ndarray,
    charges: np.ndarray,
    eta: float | None,
    real_space_cutoff: float,
    reciprocal_cutoff: float,
) -> float:
    """The uncached Ewald summation behind :func:`ewald_energy`.

    The lattice sums are evaluated as arrays but accumulated term by term in
    the order of the written-out loops over atom pairs and lattice vectors
    (kept as the reference in ``tests/pw/test_pseudopotential.py``), and
    every term comes out of the numpy / BLAS call the loop body makes — one
    ``ddot`` per ``|G|^2`` and one ``gemv`` per structure-factor phase, as
    stacked matmuls — so the result is that loop's float, bit for bit.
    """
    natoms = positions.shape[0]
    volume = cell.volume
    if eta is None:
        eta = (natoms * np.pi**3 / volume**2) ** (1.0 / 6.0) if natoms > 0 else 1.0
        eta = max(eta, 0.3)

    total_charge = float(np.sum(charges))
    sum_sq = float(np.sum(charges**2))

    # self energy and background corrections
    energy = -eta / np.sqrt(np.pi) * sum_sq
    energy -= np.pi / (2.0 * eta**2 * volume) * total_charge**2

    # real-space sum over lattice images, one pair (a, b) at a time
    lat = cell.lattice_vectors
    nmax = np.maximum(1, np.ceil(real_space_cutoff / (eta * np.linalg.norm(lat, axis=1))).astype(int) + 1)
    shifts = _lattice_points(lat, nmax)
    r = np.linalg.norm((positions[:, None, None, :] - positions[None, :, None, :]) + shifts, axis=-1)
    for a in range(natoms):
        for b in range(natoms):
            r_ab = r[a, b][r[a, b] > 1e-10]
            if r_ab.size:
                energy += 0.5 * charges[a] * charges[b] * float(np.sum(erfc(eta * r_ab) / r_ab))

    # reciprocal-space sum over the G != 0 of the sphere |G| <= gmax
    recip = cell.reciprocal_vectors
    gmax = 2.0 * eta * reciprocal_cutoff
    mmax = np.maximum(1, np.ceil(gmax / np.linalg.norm(recip, axis=1)).astype(int) + 1)
    g = _lattice_points(recip, mmax)
    g = np.delete(g, g.shape[0] // 2, axis=0)  # the centre of the box is G = 0
    g2 = (g[:, None, :] @ g[:, :, None])[:, 0, 0]
    inside = g2 <= gmax * gmax
    g, g2 = g[inside], g2[inside]
    s = np.sum(charges * np.exp(((1j * positions) @ g[:, :, None])[..., 0]), axis=1)
    terms = 2.0 * np.pi / volume * np.exp(-g2 / (4.0 * eta**2)) / g2 * np.abs(s) ** 2
    for term in terms.tolist():
        energy += term
    return float(energy)
