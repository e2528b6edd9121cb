"""Tests for the Summit hardware description and power model (its nodes,
power and memory against the paper: ``tests/paper/test_power.py`` and
``test_memory.py``)."""

import pytest

from repro.machine import (
    SUMMIT,
    NodeSpec,
    PowerReport,
)


class TestNodeSpec:
    def test_node_memory_and_cores(self):
        node = NodeSpec()
        assert node.sockets * node.cpu_socket.cores == 44  # physical CPU cores
        assert node.injection_bandwidth_gbs == pytest.approx(25.0)


class TestSummitSystem:
    def test_nodes_for_gpus(self):
        assert SUMMIT.nodes_for_gpus(768) == 128
        assert SUMMIT.nodes_for_gpus(1) == 1
        assert SUMMIT.nodes_for_gpus(7) == 2

    def test_validate_gpu_count(self):
        SUMMIT.validate_gpu_count(27648)
        with pytest.raises(ValueError):
            SUMMIT.validate_gpu_count(30000)

    def test_invalid_inputs(self):
        with pytest.raises(ValueError):
            SUMMIT.nodes_for_gpus(0)
        with pytest.raises(ValueError):
            SUMMIT.nodes_for_cpu_cores(0)


class TestPower:
    def test_energy_to_solution(self):
        report = PowerReport("one hour at 1 kW", nodes=1, power_watts=1000.0, wall_time_s=3600.0)
        assert report.energy_joules == pytest.approx(3.6e6)

    def test_power_report(self):
        report = PowerReport("x", 1, 2000.0, 1800.0)
        assert report.energy_joules == pytest.approx(3.6e6)
