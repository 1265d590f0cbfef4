"""The batched domain partition against the per-round reference.

The oracle below is the per-round ``o_values``/``domain_snapshot``/
``classify_borders`` code :mod:`repro.core.domains` used before domain
tracking was batched into :class:`~repro.core.domains.DomainWindow`
blocks, kept verbatim apart from one marked bug fix.  One
hypothesis-driven test checks every recorded round of random runs
(n, k, placements, pointer families, holds, block sizes) against it,
snapshot by snapshot, plus the Figure 1 border census end to end.
The cases the older domain tests pin are explicit ``@example``s.
"""

from __future__ import annotations

from collections import Counter
from typing import Sequence
from dataclasses import dataclass

import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from repro.analysis.domains_stats import border_type_census
from repro.core import domains, placement, pointers
from repro.core.domains import (
    BorderType,
    Domain,
    DomainError,
    DomainSnapshot,
    DomainWindow,
    VisitKind,
    VisitTypeTracker,
)
from repro.core.ring import RingRotorRouter
from repro.util.rng import make_rng

# ----------------------------------------------------------------------
# oracle: the per-round partition, one Python scan per round
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
        if all(value == anchor for value in omap):
            # The one deliberate deviation from the copy: a lone anchor
            # owning every node keeps itself (start at the anchor,
            # length n) instead of dropping to length n - 1.
            left, right = anchor, (anchor - 1) % n
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
    """The Figure 1 census loop, one oracle snapshot per sampled round."""
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
# cases
# ----------------------------------------------------------------------


@dataclass(frozen=True)
class Case:
    """One run: ``burn_in`` rounds (the first ``held_rounds`` of them
    holding ``holds``), then ``observe`` rounds sampled every ``every``
    into windows of ``rows`` rows."""

    n: int
    agents: tuple[int, ...]
    directions: tuple[int, ...]
    burn_in: int
    observe: int
    every: int = 1
    rows: int = 3
    holds: tuple[tuple[int, int], ...] = ()
    held_rounds: int = 0


POINTER_FAMILIES = {
    "negative": lambda n, agents, rng: pointers.ring_negative(n, agents),
    "positive": lambda n, agents, rng: pointers.ring_positive(n, agents),
    "toward": lambda n, agents, rng: pointers.ring_toward_node(
        n, int(rng.integers(n))
    ),
    "uniform": lambda n, agents, rng: pointers.ring_uniform(n),
    "alternating": lambda n, agents, rng: pointers.ring_alternating(n),
    "random": lambda n, agents, rng: pointers.ring_random(n, seed=rng),
}


@st.composite
def cases(draw):
    n = draw(st.integers(3, 40))
    k = draw(st.integers(1, 6))
    rng = make_rng(draw(st.integers(0, 2 ** 16)))
    layout = draw(st.sampled_from(["distinct", "any", "stacked"]))
    if layout == "stacked":
        agents = placement.all_on_one(k, node=int(rng.integers(n)))
    else:
        distinct = layout == "distinct" and k <= n
        agents = placement.random_nodes(n, k, seed=rng, distinct=distinct)
    family = draw(st.sampled_from(sorted(POINTER_FAMILIES)))
    return Case(
        n=n,
        agents=tuple(agents),
        directions=tuple(POINTER_FAMILIES[family](n, agents, rng)),
        burn_in=draw(st.integers(0, 3 * n)),
        observe=draw(st.integers(1, 30)),
        every=draw(st.integers(1, 3)),
        rows=draw(st.integers(1, 7)),
    )


def negative(n, agents, burn_in, observe=1, **extra):
    return Case(
        n, tuple(agents), tuple(pointers.ring_negative(n, agents)),
        burn_in, observe, **extra,
    )


def settled(n, k, rounds, seed, observe=1):
    """``settled_system`` of the domain tests, as a case."""
    rng = make_rng(seed)
    agents = sorted(int(a) for a in rng.choice(n, size=k, replace=False))
    return negative(n, agents, rounds, observe)


# ----------------------------------------------------------------------
# the equivalence test
# ----------------------------------------------------------------------


def _expected(engine, tracker):
    try:
        return domain_snapshot(engine, tracker)
    except DomainError:
        return DomainError


def _check_block(window, expected):
    if DomainError in expected:
        with pytest.raises(DomainError):
            window.partition()
        return
    part = window.partition()
    assert [part.snapshot(i) for i in range(len(window))] == expected
    census = Counter()
    for snapshot in expected:
        borders = classify_borders(snapshot)
        assert domains.classify_borders(snapshot) == borders
        census.update(borders)
    assert part.border_census() == census


@given(case=cases())
@settings(max_examples=120, deadline=None)
# settled systems of tests/test_domains.py
@example(case=settled(60, 4, 600, seed=0))
@example(case=settled(48, 3, 400, seed=3))
@example(case=settled(60, 5, 700, seed=1))
@example(case=settled(60, 4, 800, seed=2))
@example(case=settled(64, 4, 1500, seed=4, observe=100))
# a forced two-agent anchor, a lone agent, 3+ agents on a node
@example(case=Case(12, (0, 2), (1, 1, -1) + (1,) * 9, 0, 2))
@example(case=Case(16, (0,), (1,) * 16, 100, 1))
@example(case=Case(10, (0, 0, 0), (1,) * 10, 0, 1))
@example(case=negative(96, [0, 1, 2, 40, 41, 70], 60 * 96))
# settled two-agent systems of tests/test_propositions.py
@example(case=negative(40, [0, 20], 2000, observe=8 * 40, every=40))
@example(case=negative(36, [0, 11], 2000))
@example(case=negative(50, [3, 30], 2000))
@example(case=negative(48, [0, 24], 2000))
@example(case=negative(44, [0, 22], 2000))
@example(case=negative(
    60, [0, 30], 60 * 60 + 600, holds=((30, 1),), held_rounds=600,
))
# uncovered rings (borders facing the dummy domain) and transients
@example(case=negative(64, [0, 9, 30, 41], 40, observe=25, rows=4))
@example(case=Case(
    48, (0, 5, 6, 20), tuple(pointers.ring_positive(48, [0, 5, 6, 20])),
    0, 30, rows=7,
))
# two agents stacked on one node of a covered ring (round 7)
@example(case=Case(5, (0, 0), (1,) * 5, 0, 10))
def test_window_matches_per_round_oracle(case):
    engine = RingRotorRouter(case.n, list(case.directions), list(case.agents))
    tracker = VisitTypeTracker(engine)
    for rnd in range(case.burn_in):
        tracker.advance(dict(case.holds) if rnd < case.held_rounds else None)
    window = DomainWindow(case.n, rows=case.rows)
    expected = []
    for i in range(case.observe):
        if i % case.every == 0:
            window.record(engine, tracker)
            expected.append(_expected(engine, tracker))
            assert domains.o_values(engine) == o_values(engine)
            if expected[-1] is DomainError:
                with pytest.raises(DomainError):
                    domains.domain_snapshot(engine, tracker)
            else:
                assert domains.domain_snapshot(engine, tracker) == expected[-1]
            if window.full:
                _check_block(window, expected)
                window.clear()
                expected = []
        tracker.advance()
    if len(window):
        _check_block(window, expected)

    if case.holds:
        return
    # The census end to end, with blocks of ``rows`` rounds.
    args = (case.n, list(case.agents), list(case.directions),
            case.burn_in, case.observe, case.every)
    try:
        reference = census_per_round(*args)
    except DomainError:
        reference = DomainError
    with pytest.MonkeyPatch.context() as patch:
        patch.setattr(domains, "BLOCK_CELLS", case.n * case.rows)
        if reference is DomainError:
            with pytest.raises(DomainError):
                border_type_census(*args)
        else:
            assert border_type_census(*args) == reference


# ----------------------------------------------------------------------
# domains partition the visited nodes
# ----------------------------------------------------------------------


@pytest.mark.parametrize(
    "n,agents,rounds",
    [
        (16, [5], 3),
        (16, [5], 200),
        (16, [5, 5], 0),
        (5, [0, 0], 7),
        (16, [0, 5, 11], 4),
        (16, [0, 5, 11], 400),
    ],
    ids=[
        "k=1-uncovered", "k=1-covered", "k=2-stacked-start",
        "k=2-stacked-covered", "spread-uncovered", "spread-covered",
    ],
)
def test_domains_partition_visited_nodes(n, agents, rounds):
    engine = RingRotorRouter(n, pointers.ring_uniform(n), agents)
    tracker = VisitTypeTracker(engine)
    tracker.run(rounds)
    snap = domains.domain_snapshot(engine, tracker)
    assert sum(snap.sizes()) == n - len(snap.unvisited)
    covered = sorted(v for d in snap.domains for v in d.nodes(n))
    assert covered == sorted(set(range(n)) - set(snap.unvisited))


def test_stacked_pair_on_covered_ring_is_one_node():
    engine = RingRotorRouter(5, [1] * 5, [0, 0])
    engine.run(7)
    assert engine.unvisited == 0 and list(engine.counts.values()) == [2]


def test_lone_agent_owns_the_covered_ring():
    n = 16
    engine = RingRotorRouter(n, [1] * n, [0])
    engine.run_until_covered()
    engine.run(7)
    snap = domains.domain_snapshot(engine)
    assert snap.sizes() == [n]
    assert snap.domains[0].start == engine.positions()[0]


def test_tracker_kinds_compare_equal_to_visit_kinds():
    engine = RingRotorRouter(8, [1] * 8, [3])
    tracker = VisitTypeTracker(engine)
    tracker.run(5)
    assert {VisitKind.PROPAGATION, VisitKind.REFLECTION} & set(tracker.kinds)
    assert [VisitKind(kind) for kind in tracker.kinds] == list(tracker.kinds)


def test_empty_window_refuses_to_partition():
    with pytest.raises(ValueError):
        DomainWindow(8).partition()


def test_window_capacity_follows_block_cells():
    assert DomainWindow(256).capacity == domains.BLOCK_CELLS // 256
    assert DomainWindow(10 * domains.BLOCK_CELLS).capacity == 1
