"""Shared fixtures and helpers for the test suite."""

from __future__ import annotations

import numpy as np
import pytest

from repro.core.engine import MultiAgentRotorRouter
from repro.core.ring import RingRotorRouter
from repro.graphs.ring import ring_graph


@pytest.fixture
def small_ring_engine() -> RingRotorRouter:
    """A 12-node ring with 2 agents and clockwise pointers."""
    return RingRotorRouter(12, [1] * 12, [0, 6])


@pytest.fixture
def small_general_engine() -> MultiAgentRotorRouter:
    """The general engine on the same 12-node configuration."""
    return MultiAgentRotorRouter(ring_graph(12), [0] * 12, [0, 6])


def random_ring_setup(
    rng: np.random.Generator, max_n: int = 40, max_k: int = 6
) -> tuple[int, list[int], list[int]]:
    """Random (n, directions, agents) for equivalence/property tests."""
    n = int(rng.integers(3, max_n + 1))
    k = int(rng.integers(1, max_k + 1))
    directions = [int(d) for d in rng.choice((1, -1), size=n)]
    agents = [int(a) for a in rng.integers(0, n, size=k)]
    return n, directions, agents


def _litter_legacy_layout(directory: str, layout: str, cells) -> None:
    """Leave what a retired store layout wrote for ``cells`` in ``directory``.

    ``layout`` is ``"json"`` (the one-file-per-cell ``<hh>/<hash>.json``
    tree, plus a writer's ``.tmp.<pid>`` leftover) or ``"sqlite"`` (the
    16-shard ``shard-<nibble>.db`` files).  Every leftover carries the
    cell's true identity but a ``{"cover": -1}`` payload no simulation
    produces, so a store that served any of them would be caught.
    """
    import json
    import os
    import sqlite3

    os.makedirs(directory, exist_ok=True)
    for cell in cells:
        entry = {"config": cell.identity(), "metrics": {"cover": -1}}
        config_hash = cell.config_hash
        if layout == "json":
            path = os.path.join(
                directory, config_hash[:2], f"{config_hash}.json"
            )
            os.makedirs(os.path.dirname(path), exist_ok=True)
            with open(path, "w") as handle:
                json.dump(entry, handle, sort_keys=True)
            with open(f"{path}.tmp.{2**22 + 5}", "w") as handle:
                handle.write('{"config": {}, "metr')
            continue
        assert layout == "sqlite", layout
        conn = sqlite3.connect(
            os.path.join(directory, f"shard-{config_hash[0]}.db")
        )
        conn.execute(
            "CREATE TABLE IF NOT EXISTS cells (hash TEXT PRIMARY KEY, "
            "config TEXT NOT NULL, metrics TEXT NOT NULL)"
        )
        conn.execute("PRAGMA user_version = 1")
        conn.execute(
            "INSERT OR REPLACE INTO cells VALUES (?, ?, ?)",
            (
                config_hash,
                json.dumps(entry["config"], sort_keys=True),
                json.dumps(entry["metrics"]),
            ),
        )
        conn.commit()
        conn.close()


@pytest.fixture
def litter_legacy_layout():
    """:func:`_litter_legacy_layout`, for store tests parametrized by
    the retired layout their cache directory already holds."""
    return _litter_legacy_layout
