"""[ablation] Engine kernels: sparse ring dict engine vs reference.

DESIGN.md's data-layout ablation: the O(k)-per-round sparse ring
engine against the general-graph reference engine, which pays for its
generality, plus the sparse engine's dense-token regime.  These
benchmarks use normal multi-round timing (they measure kernels, not
experiments).
"""

import pytest

from repro.core.engine import MultiAgentRotorRouter
from repro.core.pointers import ring_pointers_to_ports, ring_random
from repro.core.ring import RingRotorRouter
from repro.graphs.ring import ring_graph

N = 1024
SPARSE_K = 8
DENSE_K = 4 * N
ROUNDS = 400


def _agents(k: int) -> list[int]:
    return [((i * N) // k) % N for i in range(k)]


@pytest.fixture(scope="module")
def directions():
    return ring_random(N, seed=1)


def test_sparse_engine_sparse_agents(benchmark, directions):
    def run():
        engine = RingRotorRouter(
            N, list(directions), _agents(SPARSE_K), track_counts=False
        )
        engine.run(ROUNDS)
        return engine.round

    assert benchmark(run) == ROUNDS


def test_general_engine_sparse_agents(benchmark, directions):
    graph = ring_graph(N)
    ports = ring_pointers_to_ports(directions)

    def run():
        engine = MultiAgentRotorRouter(graph, list(ports), _agents(SPARSE_K))
        engine.run(ROUNDS)
        return engine.round

    assert benchmark(run) == ROUNDS


def test_sparse_engine_dense_tokens(benchmark, directions):
    def run():
        engine = RingRotorRouter(
            N, list(directions), _agents(DENSE_K), track_counts=False
        )
        engine.run(ROUNDS // 4)
        return engine.round

    assert benchmark(run) == ROUNDS // 4


def test_cover_kernel_fast_loop(benchmark):
    """The inlined run_until_covered loop on a worst-case instance."""
    from repro.core.pointers import ring_toward_node

    def run():
        engine = RingRotorRouter(
            N, ring_toward_node(N, 0), [0] * SPARSE_K, track_counts=False
        )
        return engine.run_until_covered()

    cover = benchmark(run)
    benchmark.extra_info["cover time"] = cover
    assert cover > 0
