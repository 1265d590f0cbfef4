"""Agent domains on the ring (paper §2.2, Lemmas 4-12, Figure 1).

When k agents run on the ring, the visited nodes partition into
*domains*: the domain of an agent is the sub-path of nodes it was the
last to visit.  Formally the paper defines, for a visited node ``v``
not holding an agent, ``o(v, t)`` as the first node containing an agent
in the direction *opposite* to the pointer at ``v``; nodes sharing an
``o``-value form the domain of the agent at ``o(v, t)`` (Lemma 4).

The *lazy* domain ``V'_a(t)`` keeps only nodes whose last visit was by
a single agent and was a *propagation* (the agent moved on, instead of
reflecting back where it came from) — Definition 1.  Lazy domains are
insensitive to the +/-1 oscillation of borders and are the objects
whose sizes the paper proves converge (Lemma 12).

This module provides:

* :class:`VisitTypeTracker` — classifies every visit as propagation /
  reflection / multi-agent, online, in O(k) per round;
* :class:`DomainWindow` — records a block of rounds and computes the
  exact domain/lazy-domain partition of all of them in one set of
  whole-array numpy passes (the only partition code there is);
* :func:`domain_snapshot` — the partition of the current configuration
  (a one-round window);
* :func:`classify_borders` — vertex-type vs edge-type borders between
  adjacent lazy domains (Figure 1).
"""

from __future__ import annotations

import enum
from collections import Counter
from dataclasses import dataclass
from typing import Mapping, Sequence

import numpy as np

from repro.core.ring import RingRotorRouter

#: Ring cells (recorded rounds x nodes) one :class:`DomainWindow` holds.
#: The partition's temporaries are a few int64 arrays of twice a block,
#: so this caps its working set at a few MB whatever ``n`` is, while 128
#: rounds of a 256-node ring still amortize numpy's per-call cost.
BLOCK_CELLS = 1 << 15


class VisitKind(enum.IntEnum):
    """Classification of the most recent visit to a node."""

    NEVER = 0          # node not visited yet (dummy domain V_bot)
    INITIAL = 1        # occupied at round 0 and not revisited since
    PROPAGATION = 2    # single agent arrived and will continue onward
    REFLECTION = 3     # single agent arrived and will bounce back
    MULTIPLE = 4       # two+ agents arrived (or arrival met a held agent)


_PROPAGATION = int(VisitKind.PROPAGATION)
_REFLECTION = int(VisitKind.REFLECTION)
_MULTIPLE = int(VisitKind.MULTIPLE)


class DomainError(RuntimeError):
    """Raised when domains are not well defined (3+ agents on a node)."""


@dataclass(frozen=True)
class Domain:
    """One agent domain: a contiguous arc of the ring.

    ``start`` is the first node of the arc walking clockwise and
    ``length`` its node count, so the arc is ``start, start+1, ...,
    start+length-1`` (mod n).  ``anchor`` is the agent node that owns
    the domain (the shared ``o``-value).  The lazy sub-arc is given by
    ``lazy_start``/``lazy_length`` (``lazy_length == 0`` when empty).
    """

    anchor: int
    start: int
    length: int
    lazy_start: int
    lazy_length: int

    def nodes(self, n: int) -> list[int]:
        return [(self.start + i) % n for i in range(self.length)]

    def lazy_nodes(self, n: int) -> list[int]:
        return [(self.lazy_start + i) % n for i in range(self.lazy_length)]

    def contains(self, n: int, v: int) -> bool:
        return (v - self.start) % n < self.length


@dataclass(frozen=True)
class DomainSnapshot:
    """The full domain partition of a configuration at one round."""

    round: int
    n: int
    domains: tuple[Domain, ...]   # in clockwise ring order
    unvisited: tuple[int, ...]    # the dummy domain V_bot

    def sizes(self) -> list[int]:
        return [d.length for d in self.domains]

    def lazy_sizes(self) -> list[int]:
        return [d.lazy_length for d in self.domains]

    def max_adjacent_lazy_difference(self) -> int:
        """Largest |size difference| between cyclically adjacent lazy
        domains — the quantity Lemma 12 proves converges to <= 10.

        Only meaningful once the ring is covered (no dummy domain
        separating the extremes)."""
        sizes = self.lazy_sizes()
        if len(sizes) < 2:
            return 0
        return max(
            abs(sizes[i] - sizes[(i + 1) % len(sizes)])
            for i in range(len(sizes))
        )


class VisitTypeTracker:
    """Online propagation/reflection classification for a ring engine.

    Drive the engine through :meth:`advance` (or call :meth:`observe`
    with the moves of every externally-performed step) and the tracker
    maintains, per node, the :class:`VisitKind` of its most recent
    visit plus the round it happened in.  ``kinds`` is a flat byte
    buffer whose values compare equal to :class:`VisitKind` members, so
    :class:`DomainWindow` copies it into a block row in one call.

    Classification rule: a visit is the arrival of agents at a node.
    If exactly one agent arrived at ``dst`` (and no held agent sat
    there), the agent's next exit leaves along the current pointer, so
    the visit is a PROPAGATION iff the pointer at ``dst`` now equals the
    agent's direction of travel; otherwise it is a REFLECTION.  Visits
    by two agents at once are MULTIPLE (not lazy-eligible).
    """

    def __init__(self, engine: RingRotorRouter) -> None:
        self.engine = engine
        n = engine.n
        self.kinds = bytearray(n)  # VisitKind.NEVER everywhere
        self.last_visit_round = [-1] * n
        for v in engine.counts:
            self.kinds[v] = VisitKind.INITIAL
            self.last_visit_round[v] = engine.round

    def advance(self, holds: Mapping[int, int] | None = None) -> list:
        """Step the engine one round and classify the arrivals."""
        moves = self.engine.step(holds)
        self.observe(moves)
        return moves

    def run(self, rounds: int) -> None:
        for _ in range(rounds):
            self.advance()

    def observe(self, moves: Sequence[tuple[int, int, int]]) -> None:
        """Classify the arrivals of one already-performed round.

        A node now holding exactly one agent was reached by exactly one
        move (and held nobody); every other arrival node saw several
        agents.  The lone agent propagates unless the pointer sends it
        straight back to where it came from.
        """
        engine = self.engine
        n, ptr, counts, rnd = engine.n, engine.ptr, engine.counts, engine.round
        kinds, last_visit_round = self.kinds, self.last_visit_round
        for src, dst, _ in moves:
            if counts.get(dst, 0) != 1:
                kinds[dst] = _MULTIPLE
            elif (dst + ptr[dst]) % n == src:
                kinds[dst] = _REFLECTION
            else:
                kinds[dst] = _PROPAGATION
            last_visit_round[dst] = rnd


def _o_map(
    ptr: np.ndarray,
    arow: np.ndarray,
    anode: np.ndarray,
    visited: np.ndarray,
) -> np.ndarray:
    """``o(v, t)`` for every row of a block; -1 marks unvisited nodes.

    ``arow``/``anode`` list the occupied nodes in (row, node) order;
    every row holds at least one.  The anchors cut each row into
    segments whose nearest occupied node at-or-before (anticlockwise)
    and at-or-after (clockwise) is constant, so ``np.repeat`` fills
    both maps; the stretch before a row's first anchor wraps to its
    last one and vice versa.  An occupied node is its own nearest.
    """
    rows, n = visited.shape
    row_ids = np.arange(rows)
    row_start = row_ids * n
    first = anode[np.searchsorted(arow, row_ids)]
    last = anode[np.searchsorted(arow, row_ids, side="right") - 1]
    flat = arow * n + anode
    following = np.append(anode[1:], 0)
    row_last = np.append(arow[1:] != arow[:-1], True)
    following[row_last] = first[arow[row_last]]

    def fill(starts: np.ndarray, values: np.ndarray) -> np.ndarray:
        order = np.argsort(starts, kind="stable")
        starts = starts[order]
        lengths = np.diff(starts, append=rows * n)
        return np.repeat(values[order], lengths).reshape(rows, n)

    # Row starts sort before an anchor on node 0; the segment after an
    # anchor on node n - 1 (empty) sorts before the next row's start.
    before = fill(
        np.concatenate((row_start, flat)), np.concatenate((last, anode))
    )
    after = fill(
        np.concatenate((flat + 1, row_start)),
        np.concatenate((following, first)),
    )
    # Opposite to the pointer: ptr -1 -> the clockwise scan.
    o = np.where(ptr == -1, after, before)
    o[~visited] = -1
    return o


def _doubled(block: np.ndarray) -> np.ndarray:
    return np.concatenate((block, block), axis=1)


def _arc_extents(
    n: int, o: np.ndarray, arow: np.ndarray, anode: np.ndarray
) -> tuple[np.ndarray, np.ndarray]:
    """Nodes each anchor's o-run reaches to its left and to its right.

    Runs start where ``o`` differs from the anticlockwise neighbour
    (the "cuts", few per row).  An anchor's run starts at the last cut
    at or before it and ends before the first cut after it, each
    wrapping to the row's other end when there is none on its side.
    A row without cuts is one run over the whole ring, which starts at
    its (single) anchor.
    """
    change = o != np.roll(o, 1, axis=1)
    cuts = np.flatnonzero(change)
    whole = ~change.any(axis=1)[arow]
    if not cuts.size:
        return np.zeros_like(anode), np.full_like(anode, n - 1)
    flat = arow * n + anode
    row_start, row_end = arow * n, arow * n + n
    after = np.searchsorted(cuts, flat, side="right")
    prev = cuts.take(after - 1, mode="clip")
    prev = np.where(
        (after > 0) & (prev >= row_start),
        prev,
        cuts.take(np.searchsorted(cuts, row_end) - 1, mode="clip") - n,
    )
    nxt = cuts.take(after, mode="clip")
    nxt = np.where(
        (after < cuts.size) & (nxt < row_end),
        nxt,
        cuts.take(np.searchsorted(cuts, row_start), mode="clip") + n,
    )
    left = np.where(whole, 0, flat - prev)
    right = np.where(whole, n - 1, nxt - flat - 1)
    return left, right


def _lazy_runs(
    n: int,
    kinds: np.ndarray,
    drow: np.ndarray,
    start: np.ndarray,
    length: np.ndarray,
) -> tuple[np.ndarray, np.ndarray]:
    """Longest PROPAGATION run inside each arc, the first one on ties.

    Runs of the doubled rows (flattened, so no arc wraps) are listed
    once; each arc meets a contiguous range of them, clipped at its
    ends.  A key of clipped length, then earliest start, makes one
    max-reduction per arc pick the run.  Empty: ``(start, 0)``.
    """
    prop = np.concatenate(
        ([False], _doubled(kinds == _PROPAGATION).ravel(), [False])
    )
    run_starts = np.flatnonzero(prop[1:] & ~prop[:-1])
    run_ends = np.flatnonzero(prop[:-1] & ~prop[1:])
    arc_lo = drow * (2 * n) + start
    arc_hi = arc_lo + length
    first = np.searchsorted(run_ends, arc_lo, side="right")
    met = np.maximum(np.searchsorted(run_starts, arc_hi) - first, 0)
    met[length == 0] = 0
    offsets = np.cumsum(met) - met
    arc = np.repeat(np.arange(met.size), met)
    run = first[arc] + np.arange(arc.size) - offsets[arc]
    clipped_start = np.maximum(run_starts[run], arc_lo[arc])
    clipped = np.minimum(run_ends[run], arc_hi[arc]) - clipped_start
    span = prop.size - 2
    key = clipped * span + (span - 1 - clipped_start)
    lazy_start, lazy_length = start.copy(), np.zeros_like(length)
    hit = met > 0
    if hit.any():
        best = np.maximum.reduceat(key, offsets[hit])
        lazy_length[hit] = best // span
        lazy_start[hit] = (span - 1 - best % span) % n
    return lazy_start, lazy_length


def _border_codes(
    n: int,
    row: np.ndarray,
    lazy_start: np.ndarray,
    lazy_length: np.ndarray,
    unvisited: np.ndarray,
) -> np.ndarray:
    """Gap codes of the borders between adjacent lazy domains.

    Domains come sorted by (row, start).  Each nonempty lazy arc
    borders the next nonempty one of its row, cyclically, when the row
    holds at least two; a border with an unvisited node in its gap
    faces the dummy domain and is dropped.  Codes: 0 = edge-type (gap
    0), 1 = vertex-type (gap 1), 2 = transient (wider).
    """
    keep = lazy_length > 0
    row, start, length = row[keep], lazy_start[keep], lazy_length[keep]
    index = np.arange(row.size)
    new_row = np.ones(row.size, dtype=bool)
    new_row[1:] = row[1:] != row[:-1]
    head = np.maximum.accumulate(np.where(new_row, index, 0))
    row_ends = np.ones(row.size, dtype=bool)
    row_ends[:-1] = new_row[1:]
    following = np.where(row_ends, head, index + 1)
    end = (start + length - 1) % n
    gap = (start[following] - end) % n - 1
    holes = np.flatnonzero(_doubled(unvisited))
    base = row * (2 * n) + end
    dummy = np.searchsorted(holes, base + gap, side="right") > np.searchsorted(
        holes, base, side="right"
    )
    return np.minimum(gap[(following != index) & ~dummy], 2)


@dataclass(frozen=True)
class WindowPartition:
    """The domains of every round recorded in one :class:`DomainWindow`.

    One entry per domain, sorted by (row, start) — ties (empty halves
    of a split two-agent arc) by anchor, then part.  ``unvisited`` is
    the per-row dummy-domain mask.
    """

    n: int
    rounds: tuple[int, ...]
    unvisited: np.ndarray
    row: np.ndarray
    anchor: np.ndarray
    start: np.ndarray
    length: np.ndarray
    lazy_start: np.ndarray
    lazy_length: np.ndarray

    def snapshot(self, index: int) -> DomainSnapshot:
        """Row ``index`` as a :class:`DomainSnapshot`."""
        lo, hi = np.searchsorted(self.row, (index, index + 1))
        columns = zip(
            *(
                getattr(self, name)[lo:hi].tolist()
                for name in (
                    "anchor", "start", "length", "lazy_start", "lazy_length"
                )
            )
        )
        return DomainSnapshot(
            round=self.rounds[index],
            n=self.n,
            domains=tuple(Domain(*fields) for fields in columns),
            unvisited=tuple(np.flatnonzero(self.unvisited[index]).tolist()),
        )

    def border_census(self) -> Counter:
        """Border types of every row, tallied (Figure 1's census)."""
        codes = _border_codes(
            self.n, self.row, self.lazy_start, self.lazy_length,
            self.unvisited,
        )
        tally = np.bincount(codes, minlength=len(_BORDER_CODES))
        return Counter({
            border: int(count)
            for border, count in zip(_BORDER_CODES, tally)
            if count
        })


def _partition(
    n: int,
    rounds: tuple[int, ...],
    ptr: np.ndarray,
    visited: np.ndarray,
    kinds: np.ndarray,
    arow: np.ndarray,
    anode: np.ndarray,
    acount: np.ndarray,
) -> WindowPartition:
    """Exact domains and lazy domains of every row of a block.

    The occupied nodes come as (row, node, agent count) triples in
    (row, node) order, every row holding at least one.
    """
    o = _o_map(ptr, arow, anode, visited)
    left, right = _arc_extents(n, o, arow, anode)

    # Two agents share an anchor: split its arc at the anchor.  With
    # the pointer clockwise the anchor joins the anticlockwise part
    # (paper §2.2); mirrored otherwise.
    pair = acount == 2
    cw = (ptr[arow, anode] == 1).astype(np.int64)
    drow = np.concatenate((arow, arow[pair]))
    anchor = np.concatenate((anode, anode[pair]))
    part = np.concatenate((np.zeros(arow.size, np.int64),
                           np.ones(int(pair.sum()), np.int64)))
    start = np.concatenate(((anode - left) % n, (anode + cw)[pair] % n))
    length = np.concatenate((
        np.where(pair, left + cw, left + right + 1),
        (right + 1 - cw)[pair],
    ))
    order = np.lexsort((part, anchor, start, drow))
    drow, anchor, start, length = (
        drow[order], anchor[order], start[order], length[order]
    )
    lazy_start, lazy_length = _lazy_runs(n, kinds, drow, start, length)
    return WindowPartition(
        n=n,
        rounds=rounds,
        unvisited=~visited,
        row=drow,
        anchor=anchor,
        start=start,
        length=length,
        lazy_start=lazy_start,
        lazy_length=lazy_length,
    )


class DomainWindow:
    """A block of recorded ring states, partitioned in one numpy pass.

    :meth:`record` copies one round's pointers, visited flags and visit
    kinds into the next row and notes the occupied nodes; when
    :attr:`full`, :meth:`partition` computes the domains of every
    recorded round at once and :meth:`clear` empties the block.  The
    capacity defaults to ``BLOCK_CELLS // n`` rows, which bounds the
    memory a long run needs.
    """

    def __init__(self, n: int, rows: int | None = None) -> None:
        self.n = n
        self.capacity = rows if rows is not None else max(1, BLOCK_CELLS // n)
        self._ptr = np.empty((self.capacity, n), dtype=np.int8)
        self._visited = np.empty((self.capacity, n), dtype=np.uint8)
        self._kinds = np.empty((self.capacity, n), dtype=np.int8)
        self.clear()

    def clear(self) -> None:
        self._rounds: list[int] = []
        self._occ_rows: list[int] = []
        self._occ_nodes: list[int] = []
        self._occ_counts: list[int] = []

    def __len__(self) -> int:
        return len(self._rounds)

    @property
    def full(self) -> bool:
        return len(self._rounds) == self.capacity

    def record(
        self, engine: RingRotorRouter, tracker: VisitTypeTracker | None = None
    ) -> None:
        """Append the engine's current configuration as the next row.

        Without a tracker the row's visit kinds are all NEVER, so its
        lazy domains come out empty.
        """
        row = len(self._rounds)
        self._ptr[row] = engine.ptr
        self._visited[row] = np.frombuffer(engine.visited, dtype=np.uint8)
        if tracker is None:
            self._kinds[row] = VisitKind.NEVER
        else:
            self._kinds[row] = np.frombuffer(tracker.kinds, dtype=np.int8)
        counts = engine.counts
        self._occ_rows.extend([row] * len(counts))
        self._occ_nodes.extend(counts)
        self._occ_counts.extend(counts.values())
        self._rounds.append(engine.round)

    def partition(self) -> WindowPartition:
        """The domains of every recorded round.

        Requires at most 2 agents per node (Lemma 5 guarantees this is
        preserved once true); raises :class:`DomainError` otherwise,
        naming the first offending node recorded.
        """
        rows = len(self._rounds)
        if not rows:
            raise ValueError("the window holds no recorded rounds")
        counts = np.asarray(self._occ_counts, dtype=np.int64)
        crowded = np.flatnonzero(counts > 2)
        if crowded.size:
            i = int(crowded[0])
            raise DomainError(
                f"{counts[i]} agents at node {self._occ_nodes[i]}: domains "
                "are undefined (Lemma 5)"
            )
        arow = np.asarray(self._occ_rows, dtype=np.int64)
        anode = np.asarray(self._occ_nodes, dtype=np.int64)
        order = np.lexsort((anode, arow))
        return _partition(
            self.n,
            tuple(self._rounds),
            self._ptr[:rows],
            self._visited[:rows] != 0,
            self._kinds[:rows],
            arow[order],
            anode[order],
            counts[order],
        )


def o_values(engine: RingRotorRouter) -> list[int | None]:
    """The paper's ``o(v, t)`` map for the current configuration.

    ``None`` encodes the undefined value (unvisited node).  An occupied
    node maps to itself; any other visited node maps to the first
    occupied node in the direction opposite to its pointer.
    """
    if not engine.counts:
        raise DomainError("no agents on the ring")
    anode = np.asarray(sorted(engine.counts), dtype=np.int64)
    visited = np.frombuffer(engine.visited, dtype=np.uint8) != 0
    o = _o_map(
        np.asarray([engine.ptr]), np.zeros_like(anode), anode, visited[None]
    )
    return [None if v < 0 else v for v in o[0].tolist()]


def domain_snapshot(
    engine: RingRotorRouter,
    tracker: VisitTypeTracker | None = None,
) -> DomainSnapshot:
    """Compute the exact domain partition of the current configuration.

    A one-round :class:`DomainWindow`: raises :class:`DomainError` on
    3+ agents at a node; without ``tracker``, lazy domains are empty.
    """
    window = DomainWindow(engine.n, rows=1)
    window.record(engine, tracker)
    return window.partition().snapshot(0)


class BorderType(enum.Enum):
    """Border shapes between adjacent lazy domains (paper Figure 1)."""

    VERTEX = "vertex"     # one vertex separates the two lazy arcs
    EDGE = "edge"         # the lazy arcs are adjacent (swap on the edge)
    TRANSIENT = "transient"  # wider gap: an edge traversed for the first
    # time in the last step or so (paper: "only in one special case")


#: Border type of each :func:`_border_codes` code (the gap, capped at 2).
_BORDER_CODES = (BorderType.EDGE, BorderType.VERTEX, BorderType.TRANSIENT)


def classify_borders(snapshot: DomainSnapshot) -> list[BorderType]:
    """Classify the border between each pair of adjacent lazy domains.

    Returns one entry per adjacent pair (cyclically) of *nonempty* lazy
    domains with no unvisited nodes between them.  Matches Figure 1:
    gap 1 -> vertex-type, gap 0 -> edge-type, anything else transient.
    """
    domains = snapshot.domains
    unvisited = np.zeros((1, snapshot.n), dtype=bool)
    unvisited[0, list(snapshot.unvisited)] = True
    codes = _border_codes(
        snapshot.n,
        np.zeros(len(domains), dtype=np.int64),
        np.asarray([d.lazy_start for d in domains], dtype=np.int64),
        np.asarray([d.lazy_length for d in domains], dtype=np.int64),
        unvisited,
    )
    return [_BORDER_CODES[code] for code in codes.tolist()]
