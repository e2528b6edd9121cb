"""Tests for the simulated MPI communicator."""

import numpy as np
import pytest

from repro.parallel.comm import CollectiveKind, SimCommunicator


class TestConstruction:
    def test_invalid_size(self):
        with pytest.raises(ValueError):
            SimCommunicator(0)


class TestBcast:
    def test_all_ranks_receive_root_payload(self):
        comm = SimCommunicator(4)
        payload = np.arange(6, dtype=float)
        data = [payload if r == 1 else np.empty(0) for r in range(4)]
        out = comm.bcast(data, root=1)
        for r in range(4):
            assert np.allclose(out[r], payload)

    def test_volume_accounting(self):
        comm = SimCommunicator(4)
        payload = np.zeros(100, dtype=np.complex128)
        comm.bcast([payload, None, None, None], root=0)
        assert comm.stats.bytes[CollectiveKind.BCAST] == 3 * payload.nbytes
        assert comm.stats.calls[CollectiveKind.BCAST] == 1

    def test_single_precision_halves_volume(self):
        full = SimCommunicator(3)
        half = SimCommunicator(3, single_precision=True)
        payload = np.zeros(64, dtype=np.complex128)
        full.bcast([payload, None, None], root=0)
        half.bcast([payload, None, None], root=0)
        assert half.stats.total_bytes() == full.stats.total_bytes() // 2

    def test_single_precision_introduces_rounding(self):
        comm = SimCommunicator(2, single_precision=True)
        payload = np.array([1.0 + 1e-12j], dtype=np.complex128)
        out = comm.bcast([payload, None], root=0)
        # the non-root copy went through complex64
        assert out[1].dtype == np.complex128
        assert out[1][0].imag != payload[0].imag

    def test_invalid_root(self):
        comm = SimCommunicator(2)
        with pytest.raises(ValueError):
            comm.bcast([np.zeros(2), None], root=5)

    def test_wrong_list_length(self):
        comm = SimCommunicator(3)
        with pytest.raises(ValueError):
            comm.bcast([np.zeros(2)], root=0)


class TestAllreduce:
    def test_sum(self):
        comm = SimCommunicator(3)
        data = [np.full(4, float(r)) for r in range(3)]
        out = comm.allreduce(data)
        for r in range(3):
            assert np.allclose(out[r], 3.0)

    def test_shape_mismatch(self):
        comm = SimCommunicator(2)
        with pytest.raises(ValueError):
            comm.allreduce([np.zeros(3), np.zeros(4)])

    def test_volume(self):
        comm = SimCommunicator(4)
        data = [np.zeros(10) for _ in range(4)]
        comm.allreduce(data)
        assert comm.stats.bytes[CollectiveKind.ALLREDUCE] == 4 * 80


class TestAlltoallv:
    def test_transpose_semantics(self):
        comm = SimCommunicator(3)
        send = [[np.array([10 * i + j]) for j in range(3)] for i in range(3)]
        recv = comm.alltoallv(send)
        for j in range(3):
            for i in range(3):
                assert recv[j][i][0] == 10 * i + j

    def test_self_block_not_counted(self):
        comm = SimCommunicator(2)
        send = [[np.zeros(8), np.zeros(8)] for _ in range(2)]
        comm.alltoallv(send)
        # only the two off-diagonal blocks travel
        assert comm.stats.bytes[CollectiveKind.ALLTOALLV] == 2 * 64

    def test_validation(self):
        comm = SimCommunicator(2)
        with pytest.raises(ValueError):
            comm.alltoallv([[np.zeros(1)], [np.zeros(1), np.zeros(1)]])


class TestSendrecvAndEventLog:
    def test_sendrecv_returns_copy(self):
        comm = SimCommunicator(2)
        payload = np.arange(4.0)
        received = comm.sendrecv(payload)
        assert np.allclose(received, payload)
        received[0] = -1
        assert payload[0] == 0.0

    def test_event_log_kept(self):
        comm = SimCommunicator(2)
        comm.sendrecv(np.zeros(4))
        comm.allreduce([np.zeros(2), np.zeros(2)])
        assert len(comm.events) == 2
        kinds = {e.kind for e in comm.events}
        assert kinds == {CollectiveKind.SENDRECV, CollectiveKind.ALLREDUCE}

    def test_event_log_disabled(self):
        comm = SimCommunicator(2, keep_event_log=False)
        comm.sendrecv(np.zeros(4))
        assert comm.events == []
        assert comm.stats.calls[CollectiveKind.SENDRECV] == 1
