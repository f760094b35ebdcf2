"""Additive-coloring checks, list-coloring search, and the sweep driver.

A labeling is an additive coloring when the neighbor-sums c(v) of the
labels form a proper coloring. Certification routes: a nonzero additive
coefficient guarantees a coloring exists inside any lists of size
out-degree + 1; structural hypotheses (odd cycles covered by simplicial
sinks, or a qualifying class of a 3-partition, which is the same check
with a non-empty sink class) force the odd Eulerian count of W(D) to
zero, which makes the coefficient positive.

The list search stops at the first coloring it reaches, or answers None.
It backtracks over vertices 1..n in natural order, each vertex taking
the values of its sorted list from the smallest. It checks an edge as
soon as both ends have all their neighbors labeled, and it remembers
frontier states that led to no coloring. Both prunings drop only
labelings that fail, so its answer is the lexicographically first
coloring in the product of the sorted lists. Its budget counts nodes
visited, one per value assigned.

The sweep driver checks its arguments and the edge bound, builds the
witness and the report; the coefficients it reports come from
`polynomials`, which alone knows the packed layout of P_G's terms.
"""

from __future__ import annotations

from dataclasses import dataclass
from operator import itemgetter
from typing import Callable, Mapping, Optional, Sequence, Union

from .errors import BoundExceededError
from .graphs import (
    Graph,
    Orientation,
    VertexPartition,
    _is_simplicial,
    _natural,
    orientation_count,
    orientation_from_index,
    two_color,
)
from .polynomials import _sweep_coefficients

#: Most nodes (values assigned) the coloring search will visit.
DEFAULT_COLORING_BOUND = 10_000_000

#: Most partial sums the coloring search keeps in its memo of dead frontier
#: states. Once it is full, the search keeps what it has and adds nothing; a
#: search that filled it on 24 vertices peaked at 73 MB RSS.
_DEAD_SUMS_MAX = 1 << 21


def induced_sums(G: Graph, ell: Mapping[int, int]) -> dict[int, int]:
    """Neighbor-sum c(v) for every vertex under the labeling."""
    missing = [v for v in G.vertices() if v not in ell]
    if missing:
        raise ValueError(f"labeling is missing vertices {missing}")
    return {v: sum(ell[u] for u in G.neighbors(v)) for v in G.vertices()}


def is_additive_coloring(G: Graph, ell: Mapping[int, int]) -> bool:
    """True when neighbor-sums differ across every edge."""
    c = induced_sums(G, ell)
    return all(c[u] != c[v] for u, v in G.edges)


def _validated_lists(G: Graph, lists: Mapping[int, Sequence[int]]) -> list[list[int]]:
    # lengths first: lists shorter than a huge header fail without a set of 1..n
    if len(lists) != G.n or set(lists) != set(G.vertices()):
        raise ValueError("lists must cover exactly the vertices 1..n")
    out = []
    for v in G.vertices():
        # type check first: set() and sorted() fail on unhashable or mixed
        # values, and the scan itself on a value that is no collection (5, None)
        try:
            if any(not isinstance(x, int) or isinstance(x, bool) or x < 1 for x in lists[v]):
                raise TypeError
        except TypeError:
            raise ValueError(f"list for vertex {v} must hold positive integers") from None
        values = sorted(set(lists[v]))
        if not values:
            raise ValueError(f"empty list for vertex {v}")
        out.append(values)
    return out


def _frontiers(
    adjacency: list[tuple[int, ...]], checks: list[list[tuple[int, int]]]
) -> list[list[int]]:
    """For each step k, the vertices whose neighbor-sum a check after step k
    still reads and a vertex at or before k has already added to.

    Those partial sums are all that the rest of the search sees of the
    labels given so far.
    """
    size = len(adjacency)
    last_read = [0] * size
    for step, pairs in enumerate(checks):
        for u, v in pairs:
            last_read[u] = last_read[v] = step
    frontier: list[list[int]] = [[] for _ in range(size)]
    for y, around in enumerate(adjacency):
        for k in range(min(around, default=size), last_read[y]):
            frontier[k].append(y)
    return frontier


def _empty_key(sums: list[int]) -> tuple[()]:
    """The memo key of a step whose frontier is empty."""
    return ()


def find_additive_coloring(
    G: Graph,
    lists: Mapping[int, Sequence[int]],
    bound: Optional[int] = None,
) -> Optional[dict[int, int]]:
    """First labeling from the lists whose neighbor-sums properly color G,
    in lexicographic order of (label of 1, ..., label of n); None when no
    labeling works.

    Backtracks over vertices 1..n in natural order, each taking the values
    of its sorted, deduplicated list, and keeps the running neighbor sums
    s. Edge uv is checked at the step that assigns the last vertex of
    N(u) | N(v), when s(u) and s(v) are final, and the value is pruned when
    they are equal.

    After step k the rest of the search sees the labels of 1..k only
    through the partial sums of the frontier of k (`_frontiers`). The
    search goes back to step k only when the subtree below held no
    coloring, so that frontier state is remembered as dead, and a value
    that leads back to it is pruned. Without this, a cycle, whose closing
    edges are checked only at the last step, could be searched in
    exponential time after one bad early label. A state's key is the
    tuple of the frontier's partial sums, read by one `itemgetter` per
    step: the sum itself for a one-vertex frontier, and `()` for an empty
    one. Each step has its own set, so keys of different shapes never
    meet. The memo holds at most `_DEAD_SUMS_MAX` sums.

    Both prunings drop only labelings that fail, so the answer is the one
    a scan of the product of the sorted lists would return first. The
    loop is explicit, so a long path cannot exhaust the recursion depth.
    Each value assigned is one node; past `bound` nodes (default
    `DEFAULT_COLORING_BOUND`) the search raises BoundExceededError.
    """
    # every per-vertex table has an unused slot 0, so vertex v is at index v
    sorted_lists = [[]] + _validated_lists(G, lists)
    limit = DEFAULT_COLORING_BOUND if bound is None else _natural("bound", bound)
    last = G.n
    if last == 0:
        return {}
    adjacency = [()] + [tuple(G.neighbors(v)) for v in G.vertices()]
    checks: list[list[tuple[int, int]]] = [[] for _ in range(last + 1)]
    for u, v in G.edges:
        checks[max(adjacency[u] + adjacency[v])].append((u, v))
    # built together at the first dead end: dead[k] holds the keys of the
    # dead states after step k, the frontier's partial sums as a tuple, the
    # sum itself for a one-vertex frontier and () for an empty one
    frontier: list[list[int]] = []
    key: list[Callable[[list[int]], object]] = []
    dead: list[set[Union[int, tuple[int, ...]]]] = []
    room = _DEAD_SUMS_MAX
    sums = [0] * (last + 1)
    chosen = [-1] * (last + 1)  # index of each vertex's value, -1 for none
    nodes = 0
    k = 1
    while k > 0:
        values, around, schedule = sorted_lists[k], adjacency[k], checks[k]
        i = chosen[k]
        if i >= 0:
            # back at k < n: the subtree below this value held no coloring
            if not frontier:
                frontier = _frontiers(adjacency, checks)
                key = [itemgetter(*f) if f else _empty_key for f in frontier]
                dead = [set() for _ in frontier]
            if room >= len(frontier[k]):
                room -= len(frontier[k])
                dead[k].add(key[k](sums))
            # take back the value tried last at this vertex
            a = values[i]
            for y in around:
                sums[y] -= a
        for i in range(i + 1, len(values)):
            nodes += 1
            if nodes > limit:
                raise BoundExceededError(
                    f"the coloring search reached {nodes} nodes,"
                    f" above the node bound {limit}"
                )
            a = values[i]
            for y in around:
                sums[y] += a
            for u, v in schedule:
                if sums[u] == sums[v]:
                    break
            else:
                if k == last:
                    chosen[k] = i
                    return {v: sorted_lists[v][chosen[v]] for v in G.vertices()}
                if not frontier or key[k](sums) not in dead[k]:
                    break
            for y in around:
                sums[y] -= a
        else:
            # every value at k is used up: go back to k - 1
            chosen[k] = -1
            k -= 1
            continue
        chosen[k] = i
        k += 1
    return None


def _require_orients(G: Graph, D: Orientation) -> None:
    if D.underlying() != G:
        raise ValueError("orientation does not orient the given graph")


def check_simplicial_sink_hypothesis(G: Graph, D: Orientation) -> bool:
    """Does every odd cycle of G pass through a simplicial sink of D?

    Decided as bipartiteness of G minus the set S of simplicial vertices
    with out-degree 0, which is exactly "every odd cycle meets S". When
    true, W(D) has no odd Eulerian subdigraph, so list colorability at
    sizes out-degree + 1 follows. An isolated vertex is a simplicial sink
    but lies on no cycle, so S and the walk read only touched vertices.
    """
    _require_orients(G, D)
    return two_color(G, excluded=_simplicial_sinks(G, D)) is not None


def _simplicial_sinks(G: Graph, D: Orientation) -> frozenset[int]:
    """The simplicial sinks of D that some edge touches."""
    tails = D._out_degree_map  # a sink is the tail of no arc
    return frozenset(u for u in G._adj if u not in tails and _is_simplicial(G, u))


def check_tripartite_hypothesis(
    G: Graph,
    D: Orientation,
    partition: Optional[VertexPartition] = None,
) -> bool:
    """Is there a proper 3-partition with a class of simplicial sinks?

    With a supplied partition only that partition is examined; it must be
    a proper coloring with at most 3 classes covering 1..n. Without one,
    the answer is the simplicial-sink check with a non-empty sink class,
    still for the fixed orientation D; there is no vertex cap. Either way
    a qualifying class must be non-empty.
    """
    _require_orients(G, D)
    sinks = _simplicial_sinks(G, D)
    if partition is not None:
        if len(partition.classes) > 3 or not partition.covers(G.n):
            raise ValueError("expected a partition of 1..n into at most 3 classes")
        for cls in partition.classes:
            for u, v in G.edges:
                if u in cls and v in cls:
                    raise ValueError(f"partition is not a proper coloring: edge ({u}, {v})")
        # vacuous empty classes do not witness the hypothesis; an isolated
        # vertex is a simplicial sink that `sinks` leaves out
        return any(cls and (cls - sinks).isdisjoint(G._adj) for cls in partition.classes)
    # No two sinks are adjacent, since every edge leaves one of its ends, so
    # the sinks S, isolated vertices included, form a class of their own. If
    # some class C of sinks qualifies, G - C is bipartite, and so is its
    # subgraph G - S: S itself qualifies whenever any class does, and it is
    # non-empty when a touched sink or an isolated vertex exists.
    return bool(sinks or G.n > len(G._adj)) and two_color(G, excluded=sinks) is not None


@dataclass(frozen=True)
class SweepReport:
    """Outcome of scanning every orientation of a graph.

    `histogram` maps additive coefficient values to how many orientations
    produced them; the witness is the lowest-index orientation with a
    nonzero coefficient, and `witness_coefficient` is its coefficient.
    All three witness fields are None when every coefficient vanishes.
    """

    examined: int
    histogram: dict[int, int]
    zero_count: int
    witness_index: Optional[int]
    witness: Optional[Orientation]
    witness_coefficient: Optional[int]

    @property
    def has_witness(self) -> bool:
        return self.witness_index is not None


def conjecture_sweep(
    G: Graph,
    bound: Optional[int] = None,
    limit: Optional[int] = None,
) -> SweepReport:
    """Compute the additive coefficient of every orientation of G.

    The coefficients come from one expansion of P_G, the additive
    polynomial of orientation 0, plus O(1) per orientation
    (`polynomials._sweep_coefficients`): orientation `index` has P_G times
    (-1)^popcount(index) (Alon and Tarsi, 1992). Its memory is P_G's
    capped term map: on the Petersen graph, 116,184 terms, swept in
    0.7-0.8 s at a peak RSS of about 44 MB for the whole process on a
    2-core x86-64 host with Python 3.11. Only the witness is built as an
    `Orientation`.

    `limit` truncates the scan to the first orientations by index; it
    must be a non-negative integer, and a bool is not one. It does not
    skip the expansion. The limit and then the edge bound are checked
    before the expansion.
    """
    if limit is not None:
        _natural("limit", limit)
    total = orientation_count(G, bound)
    examined = total if limit is None else min(limit, total)
    histogram, first = _sweep_coefficients(G, examined)
    witness_index, witness_coefficient = first or (None, None)
    return SweepReport(
        examined=examined,
        histogram=histogram,
        zero_count=histogram.get(0, 0),
        witness_index=witness_index,
        witness=None if witness_index is None else orientation_from_index(G, witness_index),
        witness_coefficient=witness_coefficient,
    )
