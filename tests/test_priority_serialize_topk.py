"""Tests for priority push scheduling and result serialization."""

import numpy as np
import pytest

from repro.core import resacc
from repro.core.serialize import load_result, save_result
from repro.errors import ParameterError
from repro.push import forward_push_loop, init_state, push_thresholds

ALPHA = 0.2


class TestPriorityPush:
    def test_stops_below_threshold(self, ba_graph):
        reserve, residue = init_state(ba_graph, 0)
        forward_push_loop(ba_graph, reserve, residue, ALPHA, 1e-5,
                          method="priority")
        assert np.all(residue < push_thresholds(ba_graph, 1e-5))

    def test_mass_conservation(self, ba_graph):
        reserve, residue = init_state(ba_graph, 0)
        forward_push_loop(ba_graph, reserve, residue, ALPHA, 1e-6,
                          method="priority")
        assert reserve.sum() + residue.sum() == pytest.approx(1.0,
                                                              abs=1e-12)

    def test_agrees_with_other_schedules(self, ba_graph):
        results = {}
        for method in ("frontier", "queue", "priority"):
            reserve, residue = init_state(ba_graph, 3)
            forward_push_loop(ba_graph, reserve, residue, ALPHA, 1e-11,
                              method=method)
            results[method] = reserve
        for method in ("queue", "priority"):
            gap = np.max(np.abs(results["frontier"] - results[method]))
            assert gap < 1e-8

    def test_eager_scheduling_pushes_more_than_fifo(self, ba_graph):
        """An empirical confirmation of the paper's core intuition:
        pushing a node *eagerly* (largest ratio first, before its
        in-neighbours contribute) performs more, smaller pushes than
        FIFO order, which implicitly lets residue accumulate.  This is
        the residue-accumulation effect that h-HopFWD exploits
        deliberately at the source."""
        counts = {}
        for method in ("queue", "priority"):
            reserve, residue = init_state(ba_graph, 0)
            stats = forward_push_loop(ba_graph, reserve, residue, ALPHA,
                                      1e-6, method=method)
            counts[method] = stats.pushes
        assert counts["priority"] >= counts["queue"]

    def test_dangling_restart(self):
        from repro.graph import generators

        g = generators.path(4).with_dangling("restart")
        reserve, residue = init_state(g, 0)
        forward_push_loop(g, reserve, residue, ALPHA, 1e-10, source=0,
                          method="priority")
        assert reserve.sum() + residue.sum() == pytest.approx(1.0,
                                                              abs=1e-10)

    def test_can_push_mask(self, tiny_graph):
        reserve, residue = init_state(tiny_graph, 0)
        can_push = np.ones(tiny_graph.n, dtype=bool)
        can_push[2] = False
        forward_push_loop(tiny_graph, reserve, residue, ALPHA, 1e-9,
                          can_push=can_push, method="priority")
        assert reserve[2] == 0.0
        assert residue[2] > 0.0


class TestSerialization:
    def test_roundtrip(self, ba_graph, tmp_path):
        result = resacc(ba_graph, 0, seed=1)
        path = save_result(result, tmp_path / "r.npz")
        loaded = load_result(path)
        assert np.array_equal(loaded.estimates, result.estimates)
        assert loaded.source == result.source
        assert loaded.algorithm == "resacc"
        assert loaded.walks_used == result.walks_used
        assert loaded.phase_seconds.keys() == result.phase_seconds.keys()
        assert loaded.extras["r_sum"] == pytest.approx(
            result.extras["r_sum"])

    def test_array_extras_dropped(self, ba_graph, tmp_path):
        from repro.baselines import forward_search

        result = forward_search(ba_graph, 0, r_max=1e-4)
        assert isinstance(result.extras["residue"], np.ndarray)
        path = save_result(result, tmp_path / "r.npz")
        loaded = load_result(path)
        assert "residue" not in loaded.extras
        assert loaded.extras["r_max"] == pytest.approx(1e-4)

    def test_version_check(self, ba_graph, tmp_path):
        result = resacc(ba_graph, 0, seed=1)
        path = save_result(result, tmp_path / "r.npz")
        data = dict(np.load(path, allow_pickle=False))
        data["version"] = np.int64(99)
        np.savez_compressed(path, **data)
        with pytest.raises(ParameterError):
            load_result(path)

