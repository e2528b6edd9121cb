"""FFT plans and workspaces: who owns them, and the bits they compute.

A plan (:mod:`repro.pw.fft`) lives in its grid instance's memo and a scatter
workspace in its basis's, so both are freed with their owner. These tests pin
that ownership, the kernel's bit identity with :mod:`scipy.fft`, the property
the batched stepping engine relies on (leading-axis batches bit-identical to
per-slice transforms), the dtype tiers and the sphere-aware forward transform.
"""

from __future__ import annotations

import copy
import pickle

import numpy as np
import pytest
from hypothesis import HealthCheck, given, settings
from hypothesis import strategies as st

from repro.pw import FFTGrid, PlaneWaveBasis, choose_grid_shape, diamond_silicon, hydrogen_molecule
from repro.pw import fft as fft_mod
from repro.pw.fft import get_plan, plan_cache_info, plan_dtype
from repro.pw.laser import sawtooth_position
from repro.pw.lattice import Cell
from repro.pw.poisson import bare_coulomb_kernel


def _grid(box: float = 6.0, ecut: float = 2.0) -> FFTGrid:
    structure = hydrogen_molecule(box=box, bond_length=1.4)
    return FFTGrid(structure.cell, choose_grid_shape(structure.cell, ecut, factor=1.0))


class TestPlanOwnership:
    def test_cell_equality_is_by_value(self):
        assert Cell(np.eye(3) * 6.0) == Cell(np.eye(3) * 6)
        assert hash(Cell(np.eye(3) * 6.0)) == hash(Cell(np.eye(3) * 6))
        assert Cell(np.eye(3) * 6.0) != Cell(np.eye(3) * 7.0)

    def test_grid_equality_is_shape_plus_cell(self):
        a, b = _grid(), _grid()
        assert a is not b
        assert a == b and hash(a) == hash(b)
        assert a != _grid(box=7.0)  # different cell
        assert a != FFTGrid(a.cell, tuple(n + 2 for n in a.shape))  # different shape

    def test_cell_hash_is_by_bytes(self):
        """Cell.__eq__ is an allclose but Cell.__hash__ hashes the bytes: only
        byte-equal cells are guaranteed to meet in a hash-keyed table."""
        lattice = np.eye(3) * 6.0
        a, b = FFTGrid(Cell(lattice.copy()), (8, 8, 8)), FFTGrid(Cell(lattice.copy()), (8, 8, 8))
        assert hash(a) == hash(b)
        nudged = FFTGrid(Cell(lattice * (1.0 + 1e-13)), (8, 8, 8))
        assert nudged == a and hash(nudged) != hash(a)  # the documented disagreement

    def test_each_grid_instance_builds_its_own_plan(self, monkeypatch):
        """A plan lives in its grid's memo: equal grids do not share one, and
        a grid's later lookups neither compare nor hash a grid or cell."""
        grid, twin = _grid(), _grid()
        plan = get_plan(grid)
        assert get_plan(twin) is not plan

        def refuse(*args):
            raise AssertionError("plan lookup compared or hashed a cell")

        monkeypatch.setattr(Cell, "__eq__", refuse)
        monkeypatch.setattr(Cell, "__hash__", refuse)
        assert get_plan(grid) is plan

    def test_memos_do_not_travel_with_a_pickled_owner(self, h2_basis, rng):
        grid = _grid()
        get_plan(grid)
        clone = pickle.loads(pickle.dumps(grid))
        assert clone == grid
        assert not clone.__dict__.get("_plans")
        assert get_plan(clone) is not get_plan(grid)
        coeffs = rng.standard_normal((2, h2_basis.npw)) + 0j
        expected = h2_basis.to_real_space(coeffs)
        basis = pickle.loads(pickle.dumps(h2_basis))
        assert not basis.__dict__.get("_bound_transforms")
        assert np.array_equal(basis.to_real_space(coeffs), expected)

    def test_memos_do_not_travel_with_a_deep_copied_owner(self, h2_basis, rng):
        """A deep copy (as a pickle) starts with empty memos — plans, kernel,
        sawtooth positions, workspaces — and rebuilds the same bits."""
        grid = h2_basis.grid
        coeffs = rng.standard_normal((3, h2_basis.npw)) + 1j * rng.standard_normal((3, h2_basis.npw))
        expected = h2_basis.to_real_space(coeffs)
        kernel = bare_coulomb_kernel(grid)
        position = sawtooth_position(grid, [0.0, 0.0, 1.0])
        basis = copy.deepcopy(h2_basis)
        for owner, memos in ((basis.grid, ("_plans", "_kernels", "_sawtooth")), (basis, ("_bound_transforms",))):
            assert all(not owner.__dict__.get(memo) for memo in memos)
        assert np.array_equal(basis.to_real_space(coeffs), expected)
        assert np.array_equal(bare_coulomb_kernel(basis.grid).values, kernel.values)
        assert np.array_equal(sawtooth_position(basis.grid, [0.0, 0.0, 1.0]), position)

    def test_dtype_tiers_get_distinct_plans(self):
        grid = _grid()
        p128 = get_plan(grid, np.complex128)
        p64 = get_plan(grid, np.complex64)
        assert p128 is not p64
        assert p64.dtype == np.dtype(np.complex64)

    def test_plan_dtype_mapping(self):
        assert plan_dtype(np.complex64) == np.dtype(np.complex64)
        assert plan_dtype(np.float32) == np.dtype(np.complex64)
        assert plan_dtype(np.complex128) == np.dtype(np.complex128)
        assert plan_dtype(np.float64) == np.dtype(np.complex128)

    def test_cache_info_names_the_backend(self):
        assert plan_cache_info() == {"backend": "scipy"}


class TestTransforms:
    def test_round_trip(self, rng):
        grid = _grid()
        plan = get_plan(grid)
        values = rng.standard_normal(grid.shape) + 1j * rng.standard_normal(grid.shape)
        np.testing.assert_allclose(plan.ifftn(plan.fftn(values)), values, atol=1e-12)

    def test_batched_transform_is_bit_identical_per_slice(self, rng):
        # the property the whole batched stepping engine rests on
        grid = _grid()
        plan = get_plan(grid)
        stack = rng.standard_normal((4, 2) + grid.shape) + 1j * rng.standard_normal(
            (4, 2) + grid.shape
        )
        forward = plan.fftn(stack)
        backward = plan.ifftn(stack)
        for i in range(4):
            for j in range(2):
                assert np.array_equal(forward[i, j], plan.fftn(stack[i, j]))
                assert np.array_equal(backward[i, j], plan.ifftn(stack[i, j]))

    @pytest.mark.parametrize("overwrite", [False, True], ids=["keep", "overwrite"])
    @pytest.mark.parametrize("width", [1, 2, 64])
    @pytest.mark.parametrize("dtype", [np.complex128, np.complex64, np.float64])
    def test_bound_kernel_is_scipy_fft_bit_for_bit(self, rng, dtype, width, overwrite):
        """The plan calls pocketfft's kernel with scipy.fft's own arguments:
        the same bits as the public functions, for every dtype the engine
        transforms (real densities included), batched or not, scratching the
        input or not."""
        scipy_fft = pytest.importorskip("scipy.fft")
        grid = _grid()
        shape = (width,) + grid.shape
        values = rng.standard_normal(shape)
        if np.dtype(dtype).kind == "c":
            values = values + 1j * rng.standard_normal(shape)
        values = values.astype(dtype)
        plan = get_plan(grid, plan_dtype(dtype))
        for ours, theirs in ((plan.fftn, scipy_fft.fftn), (plan.ifftn, scipy_fft.ifftn)):
            expected = theirs(values.copy(), axes=(-3, -2, -1), workers=1, overwrite_x=overwrite)
            scratch = values.copy()
            got = ours(scratch, overwrite=overwrite)
            assert got.dtype == expected.dtype
            assert np.array_equal(got, expected)
            if not overwrite:
                assert np.array_equal(scratch, values)  # the input is left alone

    def test_kernel_is_bound_for_the_engine_dtypes(self, rng, monkeypatch):
        """Engine arrays never reach the public scipy.fft functions; anything
        the kernel does not take as it is (here float16) still does, and gets
        the answer scipy.fft gives."""
        if fft_mod._c2c is None:
            pytest.skip("this scipy has no pocketfft kernel module")
        grid = _grid()
        plan = get_plan(grid)
        values = rng.standard_normal((2,) + grid.shape)
        half = values.astype(np.float16)
        scipy_fft = fft_mod._scipy_fft
        expected = scipy_fft.fftn(half, axes=(-3, -2, -1))
        public = []

        class Public:
            def __getattr__(self, name):
                public.append(name)
                return getattr(scipy_fft, name)

        monkeypatch.setattr(fft_mod, "_scipy_fft", Public())
        plan.fftn(values + 0j)
        plan.ifftn(values.astype(np.complex64), overwrite=True)
        plan.fftn(values)
        assert public == []
        assert np.array_equal(plan.fftn(half), expected)
        assert public == ["fftn"]

    def test_grid_transforms_preserve_dtype(self, rng):
        grid = _grid()
        values = rng.standard_normal(grid.shape) + 1j * rng.standard_normal(grid.shape)
        assert grid.to_real(values).dtype == np.complex128
        assert grid.to_real(values.astype(np.complex64)).dtype == np.complex64


def _workspaces(basis) -> dict:
    """The basis's scatter workspaces by dtype."""
    memo = basis.__dict__.get("_bound_transforms", {})
    return {key[1]: bound[0] for key, bound in memo.items() if isinstance(key, tuple) and key[0] == "workspace"}


class TestWorkspace:
    def test_one_workspace_per_dtype_grown_to_the_largest_stack(self):
        basis = PlaneWaveBasis(_grid(), 2.0)
        grid = basis.grid
        dtype = np.dtype(np.complex128)
        first = basis._workspace(dtype, (2, 3))[1]
        assert first.shape == (2, 3, grid.size)
        assert np.shares_memory(basis._workspace(dtype, (2, 3))[1], first)
        assert np.shares_memory(basis._workspace(dtype, (4,))[1], first)  # a narrower stack slices it
        wider = basis._workspace(dtype, (8,))[1]
        assert wider.shape == (8, grid.size) and not np.shares_memory(wider, first)
        assert [buffer.shape for buffer in _workspaces(basis).values()] == [(8, grid.size)]

    def test_a_basis_holds_one_workspace_per_dtype(self, h2_ground_state, h2_basis, rng):
        """After an SCF and stacks of several widths in both precisions, the
        basis keeps one buffer per dtype, as wide as its widest stack."""
        for width in (1, 3, 2, 5, 1):
            coeffs = rng.standard_normal((width, h2_basis.npw)) + 0j
            expected = h2_basis.grid.to_real(h2_basis.to_grid(coeffs))
            assert np.array_equal(h2_basis.to_real_space(coeffs), expected)
            h2_basis.to_real_space(coeffs.astype(np.complex64))
        buffers = _workspaces(h2_basis)
        assert sorted(dtype.name for dtype in buffers) == ["complex128", "complex64"]
        assert all(len(buffer) >= 5 for buffer in buffers.values())

    def test_each_basis_owns_its_buffers(self, h2_basis, rng):
        """Every Session builds its own basis, and its workspaces go with it:
        a twin on the same grid scatters into buffers of its own and gets the
        same bits."""
        twin = PlaneWaveBasis(h2_basis.grid, h2_basis.ecut)
        coeffs = rng.standard_normal((2, h2_basis.npw)) + 0j
        expected = h2_basis.to_real_space(coeffs)
        assert np.array_equal(twin.to_real_space(coeffs), expected)
        lead = (np.dtype(np.complex128), (2,))
        assert not np.shares_memory(twin._workspace(*lead)[1], h2_basis._workspace(*lead)[1])
        assert twin._workspace(*lead)[0] is h2_basis._workspace(*lead)[0]  # the grid's one plan

    def test_scatter_reuse_is_sound_across_calls(self, h2_basis, rng):
        # repeated transforms through the shared scratch buffer must keep
        # every off-sphere mesh position zero — different coefficients, same
        # results as a fresh allocation every time
        reference_grid = _grid()  # force plan creation elsewhere is irrelevant
        assert reference_grid is not None
        for _ in range(3):
            coeffs = rng.standard_normal((2, h2_basis.npw)) + 1j * rng.standard_normal(
                (2, h2_basis.npw)
            )
            via_workspace = h2_basis.to_real_space(coeffs)
            fresh = h2_basis.grid.to_real(h2_basis.to_grid(coeffs))
            assert np.array_equal(via_workspace, fresh)

    def test_single_precision_scatter_reuse_is_sound_across_calls(self, h2_basis, rng):
        """The complex64 tier scatters into a workspace of its own, which
        keeps every off-sphere position zero too."""
        for _ in range(3):
            coeffs = (rng.standard_normal((2, h2_basis.npw)) + 1j * rng.standard_normal((2, h2_basis.npw)))
            coeffs = coeffs.astype(np.complex64)
            via_workspace = h2_basis.to_real_space(coeffs)
            assert via_workspace.dtype == np.complex64
            assert np.array_equal(via_workspace, h2_basis.grid.to_real(h2_basis.to_grid(coeffs)))
        single, double = (h2_basis._workspace(np.dtype(t), (2,))[1] for t in (np.complex64, np.complex128))
        assert single.dtype == np.complex64 and not np.shares_memory(single, double)

    def test_batched_to_real_space_matches_per_band(self, h2_basis, rng):
        coeffs = rng.standard_normal((3, 2, h2_basis.npw)) + 1j * rng.standard_normal(
            (3, 2, h2_basis.npw)
        )
        stacked = h2_basis.to_real_space(coeffs)
        for j in range(3):
            assert np.array_equal(stacked[j], h2_basis.to_real_space(coeffs[j]))


def _sphere(cell: Cell, ecut: float, shape=None) -> PlaneWaveBasis:
    return PlaneWaveBasis(FFTGrid(cell, shape or choose_grid_shape(cell, ecut, factor=1.0)), ecut)


_H2_BOX = hydrogen_molecule(box=8.0, bond_length=1.4).cell
#: the meshes the engine transforms: Si8 at the benchmark cutoff (10^3), H2 in
#: the campaign box at two cutoffs (6^3, 8^3), an odd mesh and a skewed cell
SPHERES = {
    "si8": lambda: _sphere(diamond_silicon().cell, 2.5),
    "h2-ecut1.5": lambda: _sphere(_H2_BOX, 1.5),
    "h2-ecut2.0": lambda: _sphere(_H2_BOX, 2.0),
    "odd-mesh": lambda: _sphere(_H2_BOX, 2.0, (9, 11, 13)),
    "skewed-cell": lambda: _sphere(Cell(np.array([[7.0, 0.0, 0.0], [2.5, 6.5, 0.0], [1.0, 1.5, 8.0]])), 2.5),
}


def _stack(rng, lead, basis, dtype=np.complex128):
    shape = tuple(lead) + basis.grid.shape
    return (rng.standard_normal(shape) + 1j * rng.standard_normal(shape)).astype(dtype)


def _single_call_coefficients(basis, values) -> np.ndarray:
    """The sphere coefficients as one whole-mesh kernel call, a full-mesh
    scale and a gather compute them."""
    out = get_plan(basis.grid, plan_dtype(values.dtype)).fftn(values.copy())
    out *= basis.grid._fourier_scale
    return np.ascontiguousarray(out.reshape(out.shape[:-3] + (-1,))[..., basis.indices])


@pytest.fixture
def kernel_calls(monkeypatch):
    """Counts pocketfft kernel calls (the pruned path makes several per
    transform, the single call one)."""
    if fft_mod._c2c is None:
        pytest.skip("this scipy has no pocketfft kernel module")
    calls = []
    kernel = fft_mod._c2c

    def counted(values, axes, *args):
        calls.append(tuple(axes))
        return kernel(values, axes, *args)

    monkeypatch.setattr(fft_mod, "_c2c", counted)
    return calls


class TestSphereAwareForward:
    """``PlaneWaveBasis.from_real_space`` transforms only the pencils that
    reach the sphere: the sphere positions must carry the bits of one
    whole-mesh kernel call (compared as bytes, so a -0.0 would show)."""

    @pytest.mark.parametrize("overwrite", [False, True], ids=["keep", "overwrite"])
    @pytest.mark.parametrize("dtype", [np.complex128, np.complex64])
    @pytest.mark.parametrize("name", sorted(SPHERES))
    def test_sphere_positions_are_the_single_calls_bits(self, rng, name, dtype, overwrite, kernel_calls):
        basis = SPHERES[name]()
        plan = basis._forward_plan(np.dtype(dtype))
        lead = (4, int(np.ceil(plan._prune_from_size / (4 * basis.grid.size))))
        values = _stack(rng, lead, basis, dtype)
        expected = _single_call_coefficients(basis, values)
        kernel_calls.clear()
        scratch = values.copy()
        got = basis.from_real_space(scratch, overwrite=overwrite)
        assert len(kernel_calls) > 1  # the axis-by-axis path ran
        assert got.dtype == expected.dtype and got.flags.c_contiguous
        assert got.tobytes() == expected.tobytes()
        if not overwrite:
            assert np.array_equal(scratch, values)

    @settings(max_examples=40, deadline=None, suppress_health_check=[HealthCheck.function_scoped_fixture])
    @given(
        name=st.sampled_from(sorted(SPHERES)),
        single=st.booleans(),
        above=st.booleans(),
        overwrite=st.booleans(),
        data=st.data(),
    )
    def test_leading_shapes_either_side_of_the_threshold(
        self, name, single, above, overwrite, data, kernel_calls
    ):
        basis = SPHERES[name]()
        dtype = np.dtype(np.complex64 if single else np.complex128)
        # the fewest transforms a stack must hold to take the pruned path
        fewest = int(np.ceil(basis._forward_plan(dtype)._prune_from_size / basis.grid.size))
        count = data.draw(st.integers(fewest, fewest + 12) if above else st.integers(1, fewest - 1))
        lead = data.draw(st.sampled_from([(count,), (1, count), (count, 1)] + ([()] if count == 1 else [])))
        values = _stack(np.random.default_rng(count), lead, basis, dtype)
        expected = _single_call_coefficients(basis, values)
        kernel_calls.clear()
        got = basis.from_real_space(values, overwrite=overwrite)
        assert (len(kernel_calls) > 1) == above
        assert got.tobytes() == expected.tobytes()

    def test_small_stacks_keep_the_single_call(self, rng, kernel_calls):
        """Below the threshold the extra kernel calls cost more than they
        save: every stack the H2 campaign transforms (up to 4 jobs x 1 band
        on 8^3) stays one call, a Si8 16-band stack does not."""
        h2 = SPHERES["h2-ecut2.0"]()
        assert h2.grid.shape == (8, 8, 8)
        h2.from_real_space(_stack(rng, (4, 1), h2))
        assert kernel_calls == [(2, 3, 4)]
        si8 = SPHERES["si8"]()
        kernel_calls.clear()
        si8.from_real_space(_stack(rng, (1, 16), si8))
        x_slabs, y_slabs = si8._forward_plan(np.dtype(np.complex128))._slabs
        assert kernel_calls == [(2,)] + [(3,), *[(4,)] * len(y_slabs)] * len(x_slabs)

    @pytest.mark.parametrize(
        "layout",
        [lambda a: a.transpose(1, 0, 2, 3, 4), lambda a: a[:, :, ::-1], lambda a: np.asfortranarray(a)],
        ids=["swapped-lead", "reversed-x", "fortran"],
    )
    def test_non_contiguous_inputs_take_the_single_call(self, rng, layout, kernel_calls):
        si8 = SPHERES["si8"]()
        values = layout(_stack(rng, (16, 4), si8))
        assert not values.flags.c_contiguous
        expected = _single_call_coefficients(si8, values)
        kernel_calls.clear()
        assert si8.from_real_space(values).tobytes() == expected.tobytes()
        assert len(kernel_calls) == 1

    def test_real_input_transforms_the_whole_mesh(self, rng):
        si8 = SPHERES["si8"]()
        real = rng.standard_normal((16,) + si8.grid.shape)
        assert si8.from_real_space(real).tobytes() == _single_call_coefficients(si8, real).tobytes()

    def test_plans_without_a_support_never_prune(self, kernel_calls, rng):
        si8 = SPHERES["si8"]()
        get_plan(si8.grid).fftn(_stack(rng, (4, 16), si8))
        assert kernel_calls == [(2, 3, 4)]

    def test_the_forward_plan_is_built_once_per_basis_and_dtype(self):
        basis = SPHERES["h2-ecut2.0"]()
        single = basis._forward_plan(np.dtype(np.complex64))
        assert basis._forward_plan(np.dtype(np.complex64)) is single
        assert basis._forward_plan(np.dtype(np.complex128)) is not single
        assert single.dtype == np.dtype(np.complex64)


def test_plane_wave_basis_rejects_wrong_npw(h2_basis):
    with pytest.raises(ValueError, match="npw"):
        h2_basis.to_real_space(np.zeros((2, h2_basis.npw + 1), dtype=complex))
