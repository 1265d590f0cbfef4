"""CSR packing, digests, and the lazy construction caches of
:mod:`repro.graphs.base`."""

import numpy as np
import pytest

from repro.graphs import (
    GraphCSR,
    PortLabeledGraph,
    base,
    clique,
    grid_2d,
    hypercube,
    lollipop,
    path_graph,
    ring_graph,
    star,
    torus_2d,
)
from repro.graphs.random_graphs import (
    gnp_random_graph,
    random_regular_graph,
    shuffled_ports,
)


class TestGraphCSR:
    def test_round_trip_preserves_port_order(self):
        for graph in (
            torus_2d(4, 5),
            hypercube(4),
            clique(7),
            star(6),
            lollipop(4, 3),
            path_graph(9),
            shuffled_ports(torus_2d(3, 4), seed=3),
        ):
            csr = graph.to_csr()
            assert csr.num_nodes == graph.num_nodes
            assert csr.num_arcs == graph.num_arcs
            assert csr.to_ports() == graph.port_lists()
            # Arc (v, port) is CSR row indptr[v] + port.
            for v in range(graph.num_nodes):
                row = csr.neighbors[csr.indptr[v]:csr.indptr[v + 1]]
                assert tuple(int(u) for u in row) == graph.neighbors(v)
                assert int(csr.deg[v]) == graph.degree(v)

    def test_arrays_are_immutable(self):
        csr = hypercube(3).to_csr()
        for array in (csr.indptr, csr.neighbors, csr.deg):
            with pytest.raises(ValueError):
                array[0] = 99

    def test_digest_is_content_addressed(self):
        # Same structure from different factories: one digest.
        a = torus_2d(3, 4).to_csr()
        b = torus_2d(3, 4).to_csr()
        assert a is not b
        assert a.digest == b.digest
        # Port order is part of the content.
        shuffled = shuffled_ports(torus_2d(3, 4), seed=1).to_csr()
        assert shuffled.digest != a.digest
        assert hypercube(4).to_csr().digest != a.digest

    def test_from_ports_matches_graph_packing(self):
        graph = lollipop(5, 4)
        direct = GraphCSR.from_ports(graph.port_lists())
        assert direct.digest == graph.to_csr().digest

    def test_to_csr_is_cached(self):
        graph = hypercube(4)
        assert graph.to_csr() is graph.to_csr()


class TestLazyConstructionCaches:
    def test_construction_builds_no_port_index(self):
        # Regression: the reverse-lookup dicts (one per node, O(m)
        # Python objects) used to be built eagerly on every
        # construction.  An n=50k graph must construct without any.
        graph = ring_graph(50_000)
        assert graph._port_index_cache is None

    def test_port_index_built_on_first_reverse_lookup(self):
        graph = torus_2d(3, 3)
        assert graph._port_index_cache is None
        assert graph.port_to(0, 1) == 0
        assert graph._port_index_cache is not None
        # has_edge uses the same cache.
        assert graph.has_edge(0, 1)

    def test_reverse_lookup_still_correct(self):
        graph = shuffled_ports(lollipop(5, 3), seed=2)
        for v in range(graph.num_nodes):
            for i, u in enumerate(graph.neighbors(v)):
                assert graph.port_to(v, u) == i
        with pytest.raises(ValueError):
            graph.port_to(0, graph.num_nodes - 1)

    def test_validation_unaffected_by_lazy_index(self):
        with pytest.raises(ValueError, match="asymmetric"):
            PortLabeledGraph([(1,), (0,), (1,)])

    def test_diameter_cached_and_exact(self):
        graph = torus_2d(3, 5)
        first = graph.diameter()
        assert first == max(
            graph.eccentricity(v) for v in range(graph.num_nodes)
        )
        assert graph._diameter_cache == first
        assert graph.diameter() == first

    def test_gnp_csr_round_trip(self):
        graph = gnp_random_graph(40, 0.2, seed=9)
        assert graph.to_csr().to_ports() == graph.port_lists()


def _eccentricity_diameter(graph):
    """The n-BFS definition: the largest eccentricity."""
    return max(graph.eccentricity(v) for v in range(graph.num_nodes))


class TestBitsetDiameter:
    """``diameter()`` (bit-parallel BFS on the CSR) against n BFS runs."""

    FAMILIES = {
        "ring-5": lambda: ring_graph(5),
        "ring-64": lambda: ring_graph(64),
        "path-63": lambda: path_graph(63),
        "path-65": lambda: path_graph(65),
        "grid": lambda: grid_2d(7, 10),
        "torus": lambda: torus_2d(9, 15),
        "hypercube": lambda: hypercube(7),
        "clique": lambda: clique(33),
        "star": lambda: star(70),
        "lollipop": lambda: lollipop(12, 30),
        "gnp": lambda: gnp_random_graph(130, 0.05, seed=3),
        "shuffled": lambda: shuffled_ports(torus_2d(6, 11), seed=4),
    }

    @pytest.mark.parametrize("name", sorted(FAMILIES))
    def test_matches_max_eccentricity(self, name):
        graph = self.FAMILIES[name]()
        expected = _eccentricity_diameter(graph)
        assert graph.diameter() == expected
        assert graph._diameter_cache == expected

    def test_random_regular(self):
        pytest.importorskip("networkx")
        graph = random_regular_graph(200, 3, seed=8)
        assert graph.diameter() == _eccentricity_diameter(graph)

    def test_source_batches(self, monkeypatch):
        # A tiny gather budget forces one 64-source word per batch.
        monkeypatch.setattr(base, "DIAMETER_GATHER_BYTES", 1)
        graph = lollipop(40, 100)
        assert base.csr_diameter(graph.to_csr()) == (
            _eccentricity_diameter(graph)
        )

    def test_one_and_two_nodes(self):
        assert PortLabeledGraph([[]]).diameter() == 0
        assert PortLabeledGraph([[1], [0]]).diameter() == 1

    @pytest.mark.parametrize(
        "ports",
        [[[1], [0], [3], [2]], [[1], [0], []], [[]] * 2],
        ids=["two-edges", "isolated-node", "no-edges"],
    )
    def test_disconnected_raises(self, ports):
        graph = PortLabeledGraph(ports)
        with pytest.raises(ValueError, match="not connected"):
            graph.diameter()
        assert graph._diameter_cache is None

    def test_empty_graph_raises(self):
        with pytest.raises(ValueError):
            PortLabeledGraph([]).diameter()
