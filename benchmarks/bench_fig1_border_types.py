"""[F1.borders] Figure 1: borders are vertex-type or edge-type — and
the cost of censusing them.

Census over a stabilized run: (almost) every border between adjacent
lazy domains is one of Figure 1's two shapes; transients (wider gaps,
possible only for a step right after a first traversal) are rare.

The census is also the largest layer of ``repro all``, so this bench
pins what batching it bought:

* **per-round** — the census as it was before domain tracking was
  batched, kept verbatim below: one Python ``domain_snapshot`` scan
  plus ``classify_borders`` per sampled round;
* **windowed** — the shipped :func:`border_type_census`, which records
  sampled rounds into :class:`repro.core.domains.DomainWindow` blocks
  and partitions each block in one set of numpy passes.

Identity gates the timing: both censuses must be identical on every
case before anything is timed.  The sides then run interleaved,
best-of-N, so noisy neighbours hit both alike; the headline lands in
``extra_info`` and ``BENCH_sweep.json`` (``conftest.record_sweep_bench``).
``BENCH_FIG1_QUICK=1`` shrinks the ring for CI smoke runs, with a lower
floor (a small ring amortizes numpy's per-call cost less).
"""

from __future__ import annotations

import os
import time
from collections import Counter
from typing import Sequence

from conftest import record_sweep_bench
from repro.analysis.domains_stats import border_type_census
from repro.core import placement, pointers
from repro.core.domains import (
    BorderType,
    Domain,
    DomainError,
    DomainSnapshot,
    VisitKind,
    VisitTypeTracker,
)
from repro.core.ring import RingRotorRouter

QUICK = os.environ.get("BENCH_FIG1_QUICK", "") not in ("", "0")

N = 96 if QUICK else 192
BURN_IN = 25 * N
OBSERVATION = (5 if QUICK else 10) * N
REPEATS = 2 if QUICK else 3

#: Floors at two-thirds of the median measured speed-up, rounded down
#: (2-CPU x86 box: full 5.1-6.5x, median 6.1x; quick 3.0-3.5x, median
#: 3.4x).
MIN_SPEEDUP = 2.2 if QUICK else 4.0

CASES = (
    (4, "spaced", placement.equally_spaced(N, 4)),
    (8, "spaced", placement.equally_spaced(N, 8)),
    (6, "random", placement.random_nodes(N, 6, seed=3, distinct=True)),
    (8, "random", placement.random_nodes(N, 8, seed=5, distinct=True)),
)


# ----------------------------------------------------------------------
# the per-round census, verbatim
# ----------------------------------------------------------------------


def _nearest_occupied(
    n: int, occupied: set[int]
) -> tuple[list[int], list[int]]:
    """For every node, the nearest occupied node clockwise/anticlockwise.

    A node containing an agent is its own nearest in both directions.
    Two sweeps in each direction handle the cyclic wrap-around.
    """
    nearest_cw = [-1] * n
    current = -1
    for v in range(2 * n - 1, -1, -1):
        idx = v % n
        if idx in occupied:
            current = idx
        nearest_cw[idx] = current
    nearest_acw = [-1] * n
    current = -1
    for v in range(2 * n):
        idx = v % n
        if idx in occupied:
            current = idx
        nearest_acw[idx] = current
    return nearest_cw, nearest_acw


def o_values(engine: RingRotorRouter) -> list[int | None]:
    """The paper's ``o(v, t)`` map for the current configuration.

    ``None`` encodes the undefined value (unvisited node).  An occupied
    node maps to itself; any other visited node maps to the first
    occupied node in the direction opposite to its pointer.
    """
    n = engine.n
    occupied = set(engine.counts)
    if not occupied:
        raise DomainError("no agents on the ring")
    nearest_cw, nearest_acw = _nearest_occupied(n, occupied)
    result: list[int | None] = [None] * n
    for v in range(n):
        if v in occupied:
            result[v] = v
        elif engine.visited[v]:
            # Opposite direction to the pointer: ptr -1 -> clockwise scan.
            result[v] = nearest_cw[v] if engine.ptr[v] == -1 else nearest_acw[v]
    return result


def _lazy_run(
    n: int,
    arc_start: int,
    arc_length: int,
    kinds: Sequence[VisitKind],
) -> tuple[int, int]:
    """Longest run of PROPAGATION nodes inside the arc.

    Lemma 6 guarantees the lazy nodes of a domain form a single run
    (up to endpoints); taking the longest run makes the computation
    total even mid-transient.  Returns ``(start, length)`` with length
    0 when the domain has no propagation-visited node.
    """
    best_start, best_length = arc_start, 0
    run_start, run_length = arc_start, 0
    for i in range(arc_length):
        v = (arc_start + i) % n
        if kinds[v] == VisitKind.PROPAGATION:
            if run_length == 0:
                run_start = v
            run_length += 1
            if run_length > best_length:
                best_start, best_length = run_start, run_length
        else:
            run_length = 0
    return best_start, best_length


def domain_snapshot(
    engine: RingRotorRouter,
    tracker: VisitTypeTracker | None = None,
) -> DomainSnapshot:
    """Compute the exact domain partition of the current configuration.

    Requires at most 2 agents per node (Lemma 5 guarantees this is
    preserved once true); raises :class:`DomainError` otherwise.  When
    ``tracker`` is omitted, lazy domains are reported as empty.
    """
    n = engine.n
    for v, c in engine.counts.items():
        if c > 2:
            raise DomainError(
                f"{c} agents at node {v}: domains are undefined (Lemma 5)"
            )
    omap = o_values(engine)
    kinds = tracker.kinds if tracker is not None else [VisitKind.NEVER] * n

    unvisited = tuple(v for v in range(n) if omap[v] is None)
    domains: list[Domain] = []
    for anchor in sorted(engine.counts):
        # Expand the arc {v : o(v) = anchor} around the anchor.  The arc
        # is contiguous (Lemma 4 / Lemma 6), so expansion terminates at
        # the first node with a different o-value in each direction.
        left = anchor
        steps = 0
        while steps < n - 1:
            candidate = (left - 1) % n
            if omap[candidate] == anchor and candidate != anchor:
                left = candidate
                steps += 1
            else:
                break
        right = anchor
        steps = 0
        while steps < n - 1:
            candidate = (right + 1) % n
            if omap[candidate] == anchor and candidate != anchor:
                right = candidate
                steps += 1
            else:
                break
        arc_start = left
        arc_length = (right - left) % n + 1

        if engine.counts[anchor] == 2:
            # Two agents share the anchor: split the arc at the anchor.
            # With the pointer clockwise, the anchor joins the
            # anticlockwise part (paper §2.2); mirrored otherwise.
            acw_len = (anchor - left) % n  # nodes strictly left of anchor
            cw_len = (right - anchor) % n  # nodes strictly right of anchor
            if engine.ptr[anchor] == 1:
                first = (left, acw_len + 1)   # includes the anchor
                second = ((anchor + 1) % n, cw_len)
            else:
                first = (left, acw_len)
                second = (anchor, cw_len + 1)  # includes the anchor
            for part_start, part_length in (first, second):
                lazy_start, lazy_length = _lazy_run(
                    n, part_start, part_length, kinds
                )
                domains.append(
                    Domain(
                        anchor=anchor,
                        start=part_start,
                        length=part_length,
                        lazy_start=lazy_start,
                        lazy_length=lazy_length,
                    )
                )
        else:
            lazy_start, lazy_length = _lazy_run(n, arc_start, arc_length, kinds)
            domains.append(
                Domain(
                    anchor=anchor,
                    start=arc_start,
                    length=arc_length,
                    lazy_start=lazy_start,
                    lazy_length=lazy_length,
                )
            )

    domains.sort(key=lambda d: d.start)
    return DomainSnapshot(
        round=engine.round,
        n=n,
        domains=tuple(domains),
        unvisited=unvisited,
    )


def classify_borders(snapshot: DomainSnapshot) -> list[BorderType]:
    """Classify the border between each pair of adjacent lazy domains.

    Returns one entry per adjacent pair (cyclically) of *nonempty* lazy
    domains with no unvisited nodes between them.  Matches Figure 1:
    gap 1 -> vertex-type, gap 0 -> edge-type, anything else transient.
    """
    n = snapshot.n
    lazy = [d for d in snapshot.domains if d.lazy_length > 0]
    if len(lazy) < 2:
        return []
    unvisited = set(snapshot.unvisited)
    borders: list[BorderType] = []
    for i, dom in enumerate(lazy):
        nxt = lazy[(i + 1) % len(lazy)]
        if nxt is dom:
            break
        end = (dom.lazy_start + dom.lazy_length - 1) % n
        gap = (nxt.lazy_start - end) % n - 1
        between = [(end + 1 + j) % n for j in range(max(gap, 0))]
        if any(v in unvisited for v in between):
            continue  # border with the dummy domain, not an agent border
        if gap == 1:
            borders.append(BorderType.VERTEX)
        elif gap == 0:
            borders.append(BorderType.EDGE)
        else:
            borders.append(BorderType.TRANSIENT)
    return borders


def census_per_round(
    n, agents, directions, burn_in, observation_rounds, sample_every=1
):
    engine = RingRotorRouter(n, directions, agents, track_counts=False)
    tracker = VisitTypeTracker(engine)
    for _ in range(burn_in):
        tracker.advance()
    census: Counter = Counter()
    for i in range(observation_rounds):
        tracker.advance()
        if i % sample_every == 0:
            snapshot = domain_snapshot(engine, tracker)
            census.update(classify_borders(snapshot))
    return census


# ----------------------------------------------------------------------
# the bench
# ----------------------------------------------------------------------


def _census_all(census):
    return {
        f"k={k}/{name}": census(
            N, agents, pointers.ring_negative(N, agents),
            BURN_IN, OBSERVATION,
        )
        for k, name, agents in CASES
    }


def _timed(census):
    started = time.perf_counter()
    _census_all(census)
    return time.perf_counter() - started


def test_border_type_census(benchmark):
    results = benchmark.pedantic(
        _census_all, args=(border_type_census,), rounds=1, iterations=1
    )
    # Identity first: the speed-up only counts if every census matches.
    assert results == _census_all(census_per_round)

    windowed, per_round = [], []
    for _ in range(REPEATS):
        windowed.append(_timed(border_type_census))
        per_round.append(_timed(census_per_round))
    speedup = min(per_round) / min(windowed)
    payload = {
        "n": N,
        "cases": [label for label in results],
        "burn_in": BURN_IN,
        "observation_rounds": OBSERVATION,
        "quick": QUICK,
        "windowed_sec": round(min(windowed), 4),
        "per_round_sec": round(min(per_round), 4),
        "speedup_vs_per_round": round(speedup, 2),
    }
    for key, value in payload.items():
        benchmark.extra_info[key] = value
    record_sweep_bench("fig1_border_census", payload)

    for label, census in results.items():
        vertex = census.get(BorderType.VERTEX, 0)
        edge = census.get(BorderType.EDGE, 0)
        transient = census.get(BorderType.TRANSIENT, 0)
        total = vertex + edge + transient
        benchmark.extra_info[label] = {
            "vertex": vertex, "edge": edge, "transient": transient,
        }
        assert total > 0, f"no borders observed for {label}"
        # Figure 1's claim: the two shapes dominate utterly.
        assert transient <= 0.02 * total, f"too many transients: {label}"
    assert speedup >= MIN_SPEEDUP, (
        f"windowed census only {speedup:.2f}x the per-round census "
        f"({min(windowed):.3f}s vs {min(per_round):.3f}s)"
    )
