"""Domain-evolution statistics: Lemma 12, Figure 1, §2.3 growth.

Runs a ring engine with the visit-type tracker and samples domain
snapshots at intervals, producing the data series behind three
reproduction targets:

* **Lemma 12** — once every lazy domain is reasonably large, adjacent
  lazy-domain sizes converge (eventually differing by <= 10);
* **Figure 1** — the borders between adjacent lazy domains are
  vertex-type or edge-type (with rare one-step transients);
* **§2.3** — from the all-on-one worst case, the covered region grows
  like sqrt(t) and domain sizes follow the ~1/i Lemma 13 profile.
"""

from __future__ import annotations

from collections import Counter
from dataclasses import dataclass, field
from typing import Sequence

import numpy as np

from repro.core.domains import (
    DomainSnapshot,
    DomainWindow,
    VisitTypeTracker,
    domain_snapshot,
)
from repro.core.ring import RingRotorRouter


@dataclass
class DomainTrace:
    """Sampled domain evolution of one rotor-router run."""

    n: int
    k: int
    rounds: list[int] = field(default_factory=list)
    snapshots: list[DomainSnapshot] = field(default_factory=list)

    def covered_sizes(self) -> list[int]:
        """Covered-region size (n - unvisited) at each sample."""
        return [self.n - len(s.unvisited) for s in self.snapshots]

    def lazy_size_matrix(self) -> list[list[int]]:
        return [s.lazy_sizes() for s in self.snapshots]

    def final(self) -> DomainSnapshot:
        if not self.snapshots:
            raise ValueError("trace holds no snapshots")
        return self.snapshots[-1]

    def growth_exponent(self, skip_fraction: float = 0.3) -> float:
        """Log-log slope of covered-region size vs round (expect ~0.5
        while the ring is uncovered, per §2.3)."""
        rounds = np.asarray(self.rounds, dtype=float)
        sizes = np.asarray(self.covered_sizes(), dtype=float)
        keep = (rounds > 0) & (sizes > 0)
        rounds, sizes = rounds[keep], sizes[keep]
        start = int(rounds.size * skip_fraction)
        if rounds.size - start < 2:
            raise ValueError("not enough samples for a growth fit")
        slope, _ = np.polyfit(np.log(rounds[start:]), np.log(sizes[start:]), 1)
        return float(slope)


def trace_domains(
    n: int,
    agents: Sequence[int],
    directions: Sequence[int],
    total_rounds: int,
    sample_every: int,
    stop_at_cover: bool = False,
) -> DomainTrace:
    """Run a k-agent ring rotor-router, sampling domain snapshots.

    Samples are only taken once domains are well defined (<= 2 agents
    per node); earlier sample points are skipped silently, which only
    matters for stacked initial placements.
    """
    if total_rounds < 1 or sample_every < 1:
        raise ValueError("total_rounds and sample_every must be positive")
    engine = RingRotorRouter(n, directions, agents, track_counts=False)
    tracker = VisitTypeTracker(engine)
    trace = DomainTrace(n=n, k=len(list(agents)))
    for _ in range(total_rounds):
        tracker.advance()
        if engine.round % sample_every == 0:
            if max(engine.counts.values(), default=0) <= 2:
                trace.rounds.append(engine.round)
                trace.snapshots.append(domain_snapshot(engine, tracker))
        if stop_at_cover and engine.unvisited == 0:
            break
    return trace


def lemma12_adjacent_difference(
    n: int,
    agents: Sequence[int],
    directions: Sequence[int],
    rounds: int,
) -> int:
    """Max adjacent lazy-domain size difference after ``rounds`` rounds.

    Lemma 12 predicts this settles to at most ~10 once domains are
    established (the paper proves <= 10 for k >= 6 and domains >= 20k).
    """
    engine = RingRotorRouter(n, directions, agents, track_counts=False)
    tracker = VisitTypeTracker(engine)
    for _ in range(rounds):
        tracker.advance()
    snapshot = domain_snapshot(engine, tracker)
    if snapshot.unvisited:
        raise RuntimeError(
            f"ring not covered after {rounds} rounds; increase the budget"
        )
    return snapshot.max_adjacent_lazy_difference()


def border_type_census(
    n: int,
    agents: Sequence[int],
    directions: Sequence[int],
    burn_in: int,
    observation_rounds: int,
    sample_every: int = 1,
) -> Counter:
    """Census of border types between lazy domains (Figure 1 data).

    After ``burn_in`` rounds, classify the borders at every sampled
    round for ``observation_rounds`` rounds.  Figure 1's claim: borders
    are vertex-type or edge-type (transients are rare one-step events
    right after a first traversal).  Sampled rounds are recorded into
    :class:`DomainWindow` blocks and partitioned a block at a time.
    """
    engine = RingRotorRouter(n, directions, agents, track_counts=False)
    tracker = VisitTypeTracker(engine)
    tracker.run(burn_in)
    census: Counter = Counter()
    window = DomainWindow(n)
    for i in range(observation_rounds):
        tracker.advance()
        if i % sample_every == 0:
            window.record(engine, tracker)
            if window.full:
                census.update(window.partition().border_census())
                window.clear()
    if len(window):
        census.update(window.partition().border_census())
    return census


def final_profile_vs_lemma13(
    n: int,
    k: int,
    rounds_budget: int,
) -> tuple[np.ndarray, np.ndarray]:
    """Worst-case run: measured domain profile vs the Lemma 13 profile.

    Runs the Theorem 1 setting directly — k agents at the left endpoint
    of an n-node path, all pointers toward it — until the path is
    nearly covered, and returns ``(measured, predicted)`` normalized
    domain-size profiles ordered from the frontier inward.  On the path
    with all agents released from one endpoint the agents stay ordered,
    so domain i is the interval between agents i+1 and i and its size
    is the position difference.  §2.3 postulates measured ~ predicted
    ~ 1/(i H_k).
    """
    from repro.core.path import PathRotorRouter
    from repro.theory.sequences import solve_profile

    if k <= 3:
        raise ValueError(f"Lemma 13 requires k > 3, got {k}")
    engine = PathRotorRouter(n, [-1] * n, [0] * k, track_counts=False)
    for _ in range(rounds_budget):
        if engine.unvisited <= max(2, n // 50):
            break
        engine.step()
    if sorted(engine.positions(), reverse=True)[0] <= k:
        raise RuntimeError("agents did not spread within the budget")
    # Agents oscillate inside their domains; the domain right endpoint
    # of rank i is the maximum of the i-th largest position over a
    # window of a few sweeps.
    window = 4 * n
    right_ends = [0] * k
    for _ in range(window):
        engine.step()
        for i, position in enumerate(sorted(engine.positions(), reverse=True)):
            if position > right_ends[i]:
                right_ends[i] = position
    boundaries = right_ends + [0]
    sizes = np.asarray(
        [boundaries[i] - boundaries[i + 1] for i in range(k)], dtype=float
    )
    sizes = np.maximum(sizes, 1e-9)
    measured = sizes / sizes.sum()
    profile = solve_profile(k)
    predicted = np.asarray(profile.a[1:k + 1], dtype=float)
    predicted = predicted / predicted.sum()
    return measured, predicted
