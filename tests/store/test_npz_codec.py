"""The store's archive codec against the archives it replaced, byte for byte.

``_npz_bytes`` packs the stored-zip records itself. Every object in a store is
named by the sha256 of those bytes, so the codec must write exactly what
``zipfile`` + ``np.lib.format.write_array`` wrote — the builder below, kept
written out as the reference — for every kind of member the repo archives,
and must go on rebuilding the objects an earlier version of the store wrote.
"""

from __future__ import annotations

import hashlib
import io
import pathlib
import zipfile

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st
from hypothesis.extra import numpy as hnp

import repro.pw.ground_state as ground_state
from repro.pw.ground_state import _npz_bytes

FIXTURE_OBJECTS = pathlib.Path(__file__).parent / "fixtures" / "pr16_store" / "objects"
#: the H2 trajectory (2 PT-CN steps of 1 as) and ground state of that store
H2_TRAJECTORY_SHA256 = "f3e308cad5b2c44e88bed3777d2a75707c948cf4b0159dbe06d417dbbb34b669"
H2_GROUND_STATE_SHA256 = "ca99b4a1b90ff3fb0396a6c92a32645b9e5ceee583f35933a386ef43e2151840"


def reference_npz_bytes(**arrays) -> bytes:
    """The archive as ``zipfile`` + ``write_array`` build it: one ``.npy``
    member per array, stored, timestamp pinned to the zip epoch."""
    buffer = io.BytesIO()
    with zipfile.ZipFile(buffer, "w", zipfile.ZIP_STORED) as archive:
        for name, array in arrays.items():
            member = io.BytesIO()
            np.lib.format.write_array(member, np.asanyarray(array))
            archive.writestr(zipfile.ZipInfo(name + ".npy"), member.getvalue())
    return buffer.getvalue()


_rng = np.random.default_rng(7)

#: one of each member kind a trajectory or ground-state archive holds
MEMBERS = {
    "float64": _rng.standard_normal((4, 3)),
    "int64": np.arange(5, dtype=np.int64),
    "bool": np.array([True, False, True]),
    "complex128": _rng.standard_normal((2, 9)) + 1j * _rng.standard_normal((2, 9)),
    "complex64": (_rng.standard_normal(6) + 1j).astype(np.complex64),
    "scalar_float64": np.float64(-0.9794926546),
    "scalar_int64": np.int64(8),
    "scalar_bool": np.bool_(True),
    "metadata_json": '{"propagator": "ptcn", "time_step_as": 1.0, "note": "\\u00e9"}',
    "empty": np.empty((0, 3)),
    "empty_int": np.array([], dtype=np.int64),
}

#: members the codec does not lay out itself
FALLBACK_MEMBERS = {
    "fortran": np.asfortranarray(_rng.standard_normal((3, 4))),
    "strided": _rng.standard_normal((6, 6))[::2, 1::2],
    "objects": np.array([1, "a", None], dtype=object),
    "masked": np.ma.masked_array([1.0, 2.0, 3.0], mask=[0, 1, 0]),
}


class TestByteIdentity:
    @pytest.mark.parametrize("kind", sorted(MEMBERS))
    def test_each_member_kind(self, kind):
        assert _npz_bytes(x=MEMBERS[kind]) == reference_npz_bytes(x=MEMBERS[kind])

    @pytest.mark.parametrize("kind", sorted(FALLBACK_MEMBERS))
    def test_each_fallback_member(self, kind):
        member = FALLBACK_MEMBERS[kind]
        assert _npz_bytes(x=member) == reference_npz_bytes(x=member)

    def test_every_kind_in_one_archive_keeps_the_member_order(self):
        members = {**MEMBERS, **FALLBACK_MEMBERS}
        data = _npz_bytes(**members)
        assert data == reference_npz_bytes(**members)
        assert zipfile.ZipFile(io.BytesIO(data)).namelist() == [name + ".npy" for name in members]

    def test_an_empty_archive(self):
        assert _npz_bytes() == reference_npz_bytes()

    def test_names_zipfile_normalises_go_through_zipfile(self):
        members = {"a/b": np.ones(2), "été": np.zeros(1), "x y": np.int64(1)}
        assert _npz_bytes(**members) == reference_npz_bytes(**members)

    def test_zip64_sized_archives_go_through_zipfile(self, monkeypatch):
        monkeypatch.setattr(ground_state, "_ZIP_PLAIN_BYTES", 16)
        assert _npz_bytes(**MEMBERS) == reference_npz_bytes(**MEMBERS)

    def test_big_endian_and_string_arrays(self):
        members = {"be": np.arange(6, dtype=">f8").reshape(2, 3), "s": np.array([b"ab", b"c"]),
                   "u": np.array(["x", "yz"])}
        assert _npz_bytes(**members) == reference_npz_bytes(**members)

    @settings(max_examples=200, deadline=None)
    @given(
        array=hnp.arrays(
            dtype=st.sampled_from(
                [np.float64, np.int64, np.bool_, np.complex128, np.complex64]
            ),
            shape=hnp.array_shapes(min_dims=0, max_dims=4, min_side=0, max_side=5),
        ),
        layout=st.sampled_from(["C", "F", "strided"]),
    )
    def test_any_shape_in_any_layout(self, array, layout):
        if layout == "F":
            array = np.asfortranarray(array)
        elif layout == "strided":
            array = np.repeat(array[..., None], 2, axis=-1)[..., 0]
        # twice over: the second build takes the memoised header
        for _ in range(2):
            assert _npz_bytes(a=array, b=array) == reference_npz_bytes(a=array, b=array)

    def test_archives_read_back(self):
        data = _npz_bytes(**MEMBERS)
        assert zipfile.ZipFile(io.BytesIO(data)).testzip() is None
        with np.load(io.BytesIO(data)) as loaded:
            for name, member in MEMBERS.items():
                np.testing.assert_array_equal(loaded[name], np.asarray(member))


class TestStoredDigests:
    """Numpy or codec drift that would give equal physics a new content
    address — and split every existing store — fails here."""

    @pytest.mark.parametrize("digest", [H2_TRAJECTORY_SHA256, H2_GROUND_STATE_SHA256])
    def test_objects_an_earlier_store_wrote_rebuild_to_their_address(self, digest):
        path = FIXTURE_OBJECTS / f"{digest}.npz"
        with np.load(path) as archive:
            arrays = {name: archive[name] for name in archive.files}
        rebuilt = _npz_bytes(**arrays)
        assert rebuilt == path.read_bytes()
        assert hashlib.sha256(rebuilt).hexdigest() == digest
