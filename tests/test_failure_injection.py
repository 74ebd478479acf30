"""Failure-injection tests: corrupted inputs and adversarial conditions.

The library's contract is that malformed state is rejected loudly at
the boundary (GraphFormatError / ParameterError) and that resource
budgets fail with ConvergenceError rather than hanging.
"""

import numpy as np
import pytest

from repro.core import AccuracyParams, resacc
from repro.errors import ConvergenceError, GraphFormatError
from repro.graph import CSRGraph, from_edges, load_npz, save_npz
from repro.push import forward_push_loop, init_state
from repro.walks.engine import walk_terminal_mass


class TestCorruptedCSR:
    def test_non_monotone_indptr(self):
        with pytest.raises(GraphFormatError):
            CSRGraph(3, np.array([0, 2, 1, 3]), np.array([1, 2, 0]))

    def test_indptr_not_spanning_indices(self):
        with pytest.raises(GraphFormatError):
            CSRGraph(2, np.array([0, 1, 1]), np.array([1, 0]))

    def test_wrong_indptr_length(self):
        with pytest.raises(GraphFormatError):
            CSRGraph(5, np.array([0, 1]), np.array([1]))

    def test_target_out_of_range(self):
        with pytest.raises(GraphFormatError):
            CSRGraph(2, np.array([0, 1, 1]), np.array([7]))

    def test_negative_target(self):
        with pytest.raises(GraphFormatError):
            CSRGraph(2, np.array([0, 1, 1]), np.array([-1]))

    def test_validate_false_trusts_caller(self):
        # The escape hatch exists for internal use; it must not crash
        # on construction (behaviour is then the caller's problem).
        g = CSRGraph(2, np.array([0, 1, 2]), np.array([1, 0]),
                     validate=False)
        assert g.m == 2


class TestCorruptedFiles:
    def test_truncated_npz(self, tmp_path, ba_graph):
        path = tmp_path / "graph.npz"
        save_npz(ba_graph, path)
        data = path.read_bytes()
        path.write_bytes(data[: len(data) // 2])
        with pytest.raises(Exception):  # zipfile/numpy error surface
            load_npz(path)

    def test_wrong_version_rejected(self, tmp_path, ba_graph):
        path = tmp_path / "graph.npz"
        save_npz(ba_graph, path)
        with np.load(path) as data:
            contents = {k: data[k] for k in data.files}
        contents["version"] = np.int64(999)
        np.savez_compressed(path, **contents)
        with pytest.raises(GraphFormatError):
            load_npz(path)

    def test_npz_with_corrupted_arrays_rejected(self, tmp_path, ba_graph):
        path = tmp_path / "graph.npz"
        save_npz(ba_graph, path)
        with np.load(path) as data:
            contents = {k: data[k] for k in data.files}
        contents["indices"] = contents["indices"][:-5]  # drop edges
        np.savez_compressed(path, **contents)
        with pytest.raises(GraphFormatError):
            load_npz(path)


class TestBudgetExhaustion:
    def test_push_budget_raises_not_hangs(self, ba_graph):
        reserve, residue = init_state(ba_graph, 0)
        with pytest.raises(ConvergenceError):
            forward_push_loop(ba_graph, reserve, residue, 0.2, 1e-14,
                              max_pushes=10)

    @staticmethod
    def _rng_drawing_lengths(moves, alpha):
        """Adversarial stream: the first draw (one uniform per walk, the
        walk-length draw) is chosen so walk ``i`` makes ``moves[i]``
        moves; later draws (neighbour offsets) come from a real stream.
        """
        # Mid-interval of {u : floor(log1p(-u) / log1p(-alpha)) == t}.
        lengths = 1.0 - (1.0 - alpha) ** (np.asarray(moves) + 0.5)

        class LengthRNG:
            def __init__(self):
                self.first = True
                self.inner = np.random.default_rng(0)

            def random(self, size=None):
                if self.first:
                    self.first = False
                    assert size == lengths.size
                    return lengths.copy()
                return self.inner.random(size)

        return LengthRNG()

    def test_walk_step_cap_raises(self, ba_graph):
        # One walk of four needs max_steps moves: the cap fires before
        # any walk moves.
        rng = self._rng_drawing_lengths([0, 3, 50, 1], 0.2)
        with pytest.raises(ConvergenceError):
            walk_terminal_mass(ba_graph, np.zeros(4, np.int64), 0.2,
                               rng, max_steps=50)

    def test_walk_step_cap_boundary_succeeds(self, ba_graph):
        # A longest walk of max_steps - 1 moves fits under the cap.
        rng = self._rng_drawing_lengths([0, 3, 49, 1], 0.2)
        mass = walk_terminal_mass(ba_graph, np.zeros(4, np.int64), 0.2,
                                  rng, max_steps=50)
        assert mass.sum() == pytest.approx(4.0)
        assert mass[0] >= 1.0   # the zero-move walk ends where it starts

    def test_power_iteration_budget(self, ba_graph):
        from repro.baselines import power_iteration

        with pytest.raises(ConvergenceError):
            power_iteration(ba_graph, 0, tol=1e-15, max_iters=3)


class TestDegenerateInputs:
    def test_single_node_graph(self):
        g = from_edges(1, [])
        result = resacc(g, 0, accuracy=AccuracyParams(eps=0.5, delta=0.5,
                                                      p_f=0.5), seed=0)
        assert result.estimates[0] == pytest.approx(1.0)

    def test_two_node_bounce(self):
        g = from_edges(2, [(0, 1)], symmetrize=True)
        result = resacc(g, 0, seed=0)
        assert result.estimates.sum() == pytest.approx(1.0, abs=1e-9)
        assert result.estimates[0] > result.estimates[1]

    def test_disconnected_source_component(self):
        g = from_edges(6, [(0, 1), (1, 0), (3, 4), (4, 5), (5, 3)])
        result = resacc(g, 0, seed=0)
        assert result.estimates[3:].sum() == 0.0

    def test_all_dangling_graph(self):
        g = from_edges(4, [])
        result = resacc(g, 2, seed=0)
        expected = np.zeros(4)
        expected[2] = 1.0
        assert np.allclose(result.estimates, expected)

    def test_extreme_alpha_values(self, ba_graph):
        from repro.core import ResAccParams

        for alpha in (0.01, 0.99):
            params = ResAccParams(alpha=alpha, h=1)
            acc = AccuracyParams(eps=0.5, delta=0.05, p_f=0.1)
            result = resacc(ba_graph, 0, params=params, accuracy=acc,
                            seed=0)
            assert result.estimates.sum() == pytest.approx(1.0, abs=1e-9)

    def test_nan_weight_rejected(self):
        from repro.weighted import from_weighted_edges

        with pytest.raises(GraphFormatError):
            # NaN fails the >= 0 check because the comparison is False.
            from_weighted_edges(2, [(0, 1, float("nan"))])


class TestServerRejections:
    """Malformed HTTP traffic gets structured 4xx answers, never a 500.

    One small server (tight body limit) serves the whole class; every
    rejection must leave it healthy for the next request.
    """

    @pytest.fixture(scope="class")
    def served(self):
        from repro.graph import generators
        from repro.server import ServerClient, ServerConfig, start_in_thread
        from repro.serving import ConcurrentQueryEngine

        graph = generators.preferential_attachment(60, 2, seed=3)
        engine = ConcurrentQueryEngine(graph, seed=1, max_workers=2)
        handle = start_in_thread(
            engine, ServerConfig(port=0, max_body_bytes=4096)
        )
        client = ServerClient(base_url=handle.url)
        yield handle, client
        client.close()
        handle.stop()

    def _raw(self, handle, method, path, body=b"", headers=()):
        import http.client

        conn = http.client.HTTPConnection("127.0.0.1", handle.port,
                                          timeout=10)
        try:
            conn.request(method, path, body=body, headers=dict(headers))
            response = conn.getresponse()
            return response.status, response.read()
        finally:
            conn.close()

    def test_bad_json_body_is_400(self, served):
        handle, _ = served
        status, body = self._raw(handle, "POST", "/query",
                                 body=b"{not json",
                                 headers={"Content-Type":
                                          "application/json"})
        assert status == 400
        assert b"error" in body

    def test_non_object_json_is_400(self, served):
        handle, _ = served
        status, _ = self._raw(handle, "POST", "/query", body=b"[1, 2]")
        assert status == 400

    @pytest.mark.parametrize("body", [
        b'{"source": "\xff\xfe"}',
        b'{"source": 0, "accuracy": {"eps": NaN, "delta": 0.1, '
        b'"p_f": 0.1}}',
        b"NaN",
        b"[1, 2]",
        b'"source"',
        b"17",
        b"null",
    ], ids=["invalid-utf8", "nan-literal-field", "nan-literal", "array",
            "string", "number", "null"])
    def test_undecodable_body_answers_400_error_object(self, served, body):
        import json

        handle, _ = served
        status, raw = self._raw(handle, "POST", "/query", body=body)
        assert status == 400
        doc = json.loads(raw)
        assert list(doc) == ["error"]
        assert isinstance(doc["error"], str) and doc["error"]

    def test_unknown_route_is_404(self, served):
        _, client = served
        from repro.server import ServerError

        with pytest.raises(ServerError) as excinfo:
            client.request("POST", "/no-such-endpoint", {"source": 0})
        assert excinfo.value.status == 404

    def test_wrong_method_is_405(self, served):
        handle, _ = served
        status, _ = self._raw(handle, "GET", "/query")
        assert status == 405
        status, _ = self._raw(handle, "POST", "/healthz")
        assert status == 405

    def test_oversized_body_is_413(self, served):
        handle, _ = served
        blob = b'{"source": 0, "pad": "' + b"x" * 8192 + b'"}'
        status, _ = self._raw(handle, "POST", "/query", body=blob)
        assert status == 413

    def test_chunked_transfer_encoding_is_501(self, served):
        handle, _ = served
        status, _ = self._raw(
            handle, "POST", "/query", body=b"",
            headers={"Transfer-Encoding": "chunked"},
        )
        assert status == 501

    def test_bad_accuracy_is_400(self, served):
        _, client = served
        from repro.server import ServerError

        for accuracy in ({"eps": 0.5}, {"eps": "x", "delta": 0.1,
                                        "p_f": 0.1}):
            with pytest.raises(ServerError) as excinfo:
                client.query(0, accuracy=accuracy)
            assert excinfo.value.status == 400

    def test_unknown_mutate_op_is_400(self, served):
        _, client = served
        from repro.server import ServerError

        with pytest.raises(ServerError) as excinfo:
            client.request("POST", "/mutate", {"op": "explode", "u": 0})
        assert excinfo.value.status == 400
        assert "explode" in str(excinfo.value)

    def test_missing_and_non_integer_source_are_400(self, served):
        _, client = served
        from repro.server import ServerError

        for payload in ({}, {"source": "zero"}, {"source": True},
                        {"source": 1.5}):
            with pytest.raises(ServerError) as excinfo:
                client.request("POST", "/query", payload)
            assert excinfo.value.status == 400

    def test_out_of_range_source_is_400(self, served):
        _, client = served
        from repro.server import ServerError

        with pytest.raises(ServerError) as excinfo:
            client.query(10_000)
        assert excinfo.value.status == 400
        assert "out of range" in str(excinfo.value)

    def test_empty_batch_is_400(self, served):
        _, client = served
        from repro.server import ServerError

        with pytest.raises(ServerError) as excinfo:
            client.request("POST", "/query_batch", {"sources": []})
        assert excinfo.value.status == 400

    @pytest.mark.parametrize("top_k", [0, -3, "abc", 2.7, True],
                             ids=["zero", "negative", "string", "float",
                                  "bool"])
    def test_bad_query_top_k_is_400(self, served, top_k):
        _, client = served
        from repro.server import ServerError

        with pytest.raises(ServerError) as excinfo:
            client.request("POST", "/query", {"source": 1, "top_k": top_k})
        assert excinfo.value.status == 400
        assert "top_k" in str(excinfo.value)

    @pytest.mark.parametrize("undirected", ["false", 0, 1, None],
                             ids=["string", "zero", "one", "null"])
    def test_non_boolean_undirected_is_400(self, served, undirected):
        _, client = served
        from repro.server import ServerError

        epoch = client.request("GET", "/readyz")["epoch"]
        with pytest.raises(ServerError) as excinfo:
            client.request("POST", "/mutate",
                           {"op": "add_edge", "u": 0, "v": 59,
                            "undirected": undirected})
        assert excinfo.value.status == 400
        assert "undirected" in str(excinfo.value)
        assert client.request("GET", "/readyz")["epoch"] == epoch

    def test_server_still_healthy_after_rejections(self, served):
        _, client = served
        assert client.healthz() == {"status": "ok"}
        assert client.query(0)["source"] == 0
