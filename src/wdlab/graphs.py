"""Simple undirected graphs, orientations, and structural predicates.

Vertices are the contiguous integers 1..n, fixed by the file header. The
Eulerian counter and the coefficient route order their frontier by vertex
label, so each runs on D relabelled by a maximum-cardinality search
(`Orientation.frontier_relabelled`); their answers are label-invariant,
and nothing else in the package relabels. Graphs and orientations are
immutable value objects, so every function in the package is safe to call
concurrently on shared inputs.

The per-vertex tables hold an entry only for a vertex some edge touches:
a graph's neighbourhood map (`Graph.neighbors` reads any other vertex as
one shared empty set) and an orientation's out-degree map (out-degree 0
elsewhere). An isolated vertex has out-degree 0 and lies in no factor of
either polynomial and in no W(D) sector, so it cannot change a count or a
coefficient; with no entry it costs them nothing, and a file of a few arcs
under a header of 200,000,000 vertices answers. Only what is dense by its
contract, such as `out_degrees()` or the stars of W(D), is built per vertex.
"""

from __future__ import annotations

import itertools
from dataclasses import dataclass
from functools import cached_property
from heapq import heapify, heappop, heappush
from typing import Iterable, Optional

from .errors import BoundExceededError, ParseError

#: Largest edge count for which all 2^|E| orientations may be enumerated.
DEFAULT_ORIENTATION_BOUND = 20


#: The neighbourhood of every vertex that no edge touches.
_NO_NEIGHBOURS: frozenset[int] = frozenset()


def _normalize_edge(u: int, v: int) -> tuple[int, int]:
    return (u, v) if u < v else (v, u)


@dataclass(frozen=True)
class Graph:
    """Simple undirected graph: no loops, no parallel edges.

    ``edges`` holds normalized pairs (u, v) with u < v.
    """

    n: int
    edges: frozenset[tuple[int, int]]

    def __post_init__(self) -> None:
        if self.n < 0:
            raise ValueError(f"vertex count must be non-negative, got {self.n}")
        for u, v in self.edges:
            if u == v:
                raise ValueError(f"self-loop at vertex {u}")
            if not (u < v):
                raise ValueError(f"edge ({u}, {v}) is not normalized")
            if not (1 <= u <= self.n and 1 <= v <= self.n):
                raise ValueError(f"edge ({u}, {v}) out of range 1..{self.n}")

    @classmethod
    def of(cls, n: int, edges: Iterable[tuple[int, int]]) -> "Graph":
        """Build a graph from unordered endpoint pairs in any orientation."""
        return cls(n, frozenset(_normalize_edge(u, v) for u, v in edges))

    @classmethod
    def _of_checked(cls, n: int, edges: frozenset[tuple[int, int]]) -> "Graph":
        """A graph from normalized edges whose checks have already passed
        elsewhere, made without running `__post_init__` over them again.

        Two callers own those checks: `parse`, which rejects a negative
        count, loops, out-of-range ids and duplicates with its own
        messages, and `Orientation._underlying`, whose arcs `__post_init__`
        has checked."""
        graph = object.__new__(cls)
        object.__setattr__(graph, "n", n)
        object.__setattr__(graph, "edges", edges)
        return graph

    @cached_property
    def _adj(self) -> dict[int, frozenset[int]]:
        # an entry per endpoint of an edge, in vertex order, so the map grows
        # with the edges, not with n; an isolated vertex has none
        nbrs = {v: set() for v in sorted(set(itertools.chain.from_iterable(self.edges)))}
        for u, v in self.edges:
            nbrs[u].add(v)
            nbrs[v].add(u)
        return {v: frozenset(s) for v, s in nbrs.items()}

    def vertices(self) -> range:
        return range(1, self.n + 1)

    def neighbors(self, v: int) -> frozenset[int]:
        # package code reads touched vertices, where this costs one subscript
        # and no call; a miss raises, which is slow, so `degree`, which a
        # caller may read for every vertex, calls `get` instead
        try:
            return self._adj[v]
        except KeyError:
            return _NO_NEIGHBOURS

    def degree(self, v: int) -> int:
        return len(self._adj.get(v, _NO_NEIGHBOURS))

    def has_edge(self, u: int, v: int) -> bool:
        return _normalize_edge(u, v) in self.edges

    def sorted_edges(self) -> list[tuple[int, int]]:
        return sorted(self.edges)


@dataclass(frozen=True)
class Orientation:
    """Digraph obtained by directing every edge of a simple graph.

    Antisymmetric by construction: at most one of (v, w) and (w, v).
    """

    n: int
    arcs: frozenset[tuple[int, int]]

    def __post_init__(self) -> None:
        if self.n < 0:
            raise ValueError(f"vertex count must be non-negative, got {self.n}")
        for v, w in self.arcs:
            if v == w:
                raise ValueError(f"self-loop at vertex {v}")
            if not (1 <= v <= self.n and 1 <= w <= self.n):
                raise ValueError(f"arc ({v}, {w}) out of range 1..{self.n}")
            if (w, v) in self.arcs:
                raise ValueError(f"both directions of {{{v}, {w}}} present")

    @classmethod
    def _of_checked(cls, n: int, arcs: frozenset[tuple[int, int]]) -> "Orientation":
        """An orientation from arcs whose checks have already passed
        elsewhere, made without running `__post_init__` over them again.

        Two callers own those checks: `parse`, which rejects a negative
        count, loops, out-of-range ids, duplicates and antiparallel pairs
        with its own messages, and `_frontier_relabelled`, whose arcs are a
        checked orientation's under a permutation of its labels."""
        D = object.__new__(cls)
        object.__setattr__(D, "n", n)
        object.__setattr__(D, "arcs", arcs)
        return D

    def vertices(self) -> range:
        return range(1, self.n + 1)

    def neighbors(self, v: int) -> frozenset[int]:
        """Vertices adjacent to v, ignoring arc direction."""
        return self._underlying.neighbors(v)

    def _adjacency(self) -> dict[int, frozenset[int]]:
        # the underlying graph's neighbourhood map, for package code that
        # reads many neighbourhoods: an entry per vertex some arc touches,
        # in vertex order; no caller may write to it
        return self._underlying._adj

    def out_degree(self, v: int) -> int:
        return self._out_degree_map.get(v, 0)

    def in_degree(self, v: int) -> int:
        return self._underlying.degree(v) - self.out_degree(v)

    @cached_property
    def _out_degree_map(self) -> dict[int, int]:
        # tail -> out-degree, for package code; a vertex that is the tail of
        # no arc has no entry, and no caller may write to it
        out: dict[int, int] = {}
        for v, _ in self.arcs:
            out[v] = out.get(v, 0) + 1
        return out

    def out_degrees(self) -> tuple[int, ...]:
        """Out-degree of each vertex 1..n, in vertex order."""
        return tuple(map(self._out_degree_map.get, self.vertices(), itertools.repeat(0)))

    @cached_property
    def _underlying(self) -> Graph:
        # __post_init__ has checked every arc: in range, no loop and no
        # antiparallel pair, so the edges are distinct and need no check
        return Graph._of_checked(
            self.n, frozenset([(v, w) if v < w else (w, v) for v, w in self.arcs])
        )

    def underlying(self) -> Graph:
        """The undirected graph D orients, built once per orientation."""
        return self._underlying

    def sorted_arcs(self) -> list[tuple[int, int]]:
        return sorted(self.arcs)

    def frontier_relabelled(self) -> "Orientation":
        """D relabelled in maximum-cardinality search order.

        The search runs on the underlying graph over the vertices some arc
        touches: each step places the unplaced vertex with the most placed
        neighbours; among those, the one with the fewest neighbours, which
        brings the fewest new vertices onto the frontier, and then the
        smallest label. The k-th vertex placed takes the k-th smallest
        touched label and every untouched vertex keeps its own; D' holds
        each arc of D under the new labels, and its neighbourhood and
        out-degree maps are D's under the same relabelling, not built again
        from its arcs. When the order is the identity, D' is D itself. Only
        touched vertices are read, so an untouched one costs nothing.
        Computed once per orientation, so the three engines that read D',
        the Eulerian counter on the plans of D and of W(D) and the
        coefficient route, share one search.
        """
        relabelled = self._frontier_relabelled
        return self if relabelled is None else relabelled

    @cached_property
    def _frontier_relabelled(self) -> Optional["Orientation"]:
        # None stands for D itself: caching D in its own attribute would
        # make a reference cycle, which only the cyclic collector frees.
        # The cache earns the memory D' holds: on the seed-0 `thin` corpus
        # of perfbench (2-core host, Python 3.11) relabelling, adjacency map
        # included, took 7-8 ms per pass against 40-44 ms for
        # `additive_coefficient`, and both engines read D', so without the
        # cache each would pay for it again
        adj = self._adjacency()
        touched = list(adj)  # adj runs in vertex order
        order = _search_order(adj, touched)
        if order == touched:
            return None
        perm = dict(zip(order, touched))
        relabelled = Orientation._of_checked(
            self.n, frozenset([(perm[v], perm[w]) for v, w in self.arcs])
        )
        # D's neighbourhood and out-degree maps under perm, cached on D' so
        # that it does not build them again from its arcs; the k-th smallest
        # touched label is the k-th vertex placed, so the map keeps vertex order
        vars(relabelled._underlying)["_adj"] = {
            t: frozenset(map(perm.__getitem__, adj[v])) for v, t in zip(order, touched)
        }
        vars(relabelled)["_out_degree_map"] = {
            perm[v]: d for v, d in self._out_degree_map.items()
        }
        return relabelled


def _search_order(adj: dict[int, frozenset[int]], vertices: list[int]) -> list[int]:
    """Maximum-cardinality search over `vertices`, given ascending: each step
    takes the unplaced vertex with the most placed neighbours, the one with
    the fewest neighbours among them, then the smallest label.

    heaps[c] is a min-heap of the vertices that had c placed neighbours when
    pushed, each entered as one int, its degree above its label, so a heap
    pops the fewest neighbours first and then the smallest label. Counts
    only grow, so an entry whose vertex has since gained a neighbour, or
    been placed, is stale and skipped when popped, and `best` only falls
    past heaps that have run empty.
    """
    shift = vertices[-1].bit_length() if vertices else 0
    label = (1 << shift) - 1
    entry = {v: len(adj[v]) << shift | v for v in vertices}
    count = dict.fromkeys(vertices, 0)  # placed neighbours of each unplaced vertex
    heaps = [list(entry.values())]
    heapify(heaps[0])
    order = []
    best = 0
    while best >= 0:
        heap = heaps[best]
        if not heap:
            best -= 1
            continue
        v = heappop(heap) & label
        if count.get(v) != best:
            continue
        del count[v]
        order.append(v)
        for x in adj[v]:
            c = count.get(x)
            if c is not None:
                c += 1
                count[x] = c
                if c == len(heaps):
                    heaps.append([])
                heappush(heaps[c], entry[x])
                if c > best:
                    best = c
    return order


@dataclass(frozen=True)
class VertexPartition:
    """Pairwise-disjoint vertex classes; callers check coverage of 1..n."""

    classes: tuple[frozenset[int], ...]

    def __post_init__(self) -> None:
        seen: set[int] = set()
        for cls in self.classes:
            if cls & seen:
                raise ValueError("partition classes are not disjoint")
            seen |= cls

    def covers(self, n: int) -> bool:
        union = set().union(*self.classes) if self.classes else set()
        return union == set(range(1, n + 1))


# ---------------------------------------------------------------------------
# File format
# ---------------------------------------------------------------------------

def strict_int(text: str) -> int:
    """The integer spelled by outside input: ASCII digits, optionally after
    a minus sign, with surrounding whitespace stripped.

    Raises ValueError on anything else, including what `int` would also
    take: digit separators (``1_0``), a plus sign, and non-ASCII digits.
    """
    stripped = text.strip()
    digits = stripped[1:] if stripped.startswith("-") else stripped
    if not (digits.isascii() and digits.isdigit()):
        raise ValueError(f"not an integer: {text!r}")
    return int(stripped)


def _natural(name: str, value: int) -> int:
    """`value`, checked to be a non-negative int; a bool is not one.

    The one check of every count, bound and index argument: a bool would
    run as 0 or 1 and a float would fail later in range() or a shift, so
    each raises ValueError naming the argument.
    """
    if isinstance(value, bool) or not isinstance(value, int):
        raise ValueError(f"{name} must be an integer, got {value!r}")
    if value < 0:
        raise ValueError(f"{name} must be non-negative, got {value}")
    return value


def parse(text: str) -> Graph | Orientation:
    """Parse the edge-list file format.

    Lines starting with ``#`` and blank lines are ignored. The first data
    line is the vertex count n; every following line is ``u -- v`` for an
    undirected edge or ``u -> v`` for an arc. A file must stick to one edge
    style; a file with no edge lines parses as an edgeless Graph.

    Parse owns every check of the result: a negative count, a loop, an id
    out of range, a duplicate and, for arcs, both directions of one pair
    each raise `ParseError` naming the line. So the pairs it has seen,
    normalized edges or arcs as written, become the graph or orientation
    through `_of_checked`, without the constructor checking them again.
    """
    n: Optional[int] = None
    style: Optional[str] = None
    seen_pairs: set[tuple[int, int]] = set()

    for lineno, raw in enumerate(text.splitlines(), start=1):
        line = raw.strip()
        if not line or line.startswith("#"):
            continue
        if n is None:
            try:
                n = strict_int(line)
            except ValueError:
                raise ParseError(f"line {lineno}: expected vertex count, got {line!r}")
            if n < 0:
                raise ParseError(f"line {lineno}: vertex count must be non-negative")
            continue
        tokens = line.split()
        if len(tokens) != 3 or tokens[1] not in ("--", "->"):
            raise ParseError(f"line {lineno}: expected 'u -- v' or 'u -> v', got {line!r}")
        sep = tokens[1]
        if style is None:
            style = sep
        elif sep != style:
            raise ParseError(f"line {lineno}: mixed edge styles ({style!r} and {sep!r})")
        try:
            u, v = strict_int(tokens[0]), strict_int(tokens[2])
        except ValueError:
            raise ParseError(f"line {lineno}: endpoints must be integers, got {line!r}")
        if u == v:
            raise ParseError(f"line {lineno}: self-loop at vertex {u}")
        if not (1 <= u <= n and 1 <= v <= n):
            raise ParseError(f"line {lineno}: vertex id out of range 1..{n}")
        if style == "--":
            key = _normalize_edge(u, v)
            if key in seen_pairs:
                raise ParseError(f"line {lineno}: duplicate edge {{{u}, {v}}}")
        else:
            if (u, v) in seen_pairs:
                raise ParseError(f"line {lineno}: duplicate arc ({u}, {v})")
            if (v, u) in seen_pairs:
                raise ParseError(f"line {lineno}: both directions of {{{u}, {v}}} present")
            key = (u, v)
        seen_pairs.add(key)

    if n is None:
        raise ParseError("empty file: missing vertex count")
    if style == "->":
        return Orientation._of_checked(n, frozenset(seen_pairs))
    return Graph._of_checked(n, frozenset(seen_pairs))


def to_text(obj: Graph | Orientation) -> str:
    """Serialize a graph or orientation back to the file format."""
    if isinstance(obj, Graph):
        lines = [str(obj.n)] + [f"{u} -- {v}" for u, v in obj.sorted_edges()]
    else:
        lines = [str(obj.n)] + [f"{v} -> {w}" for v, w in obj.sorted_arcs()]
    return "\n".join(lines) + "\n"


# ---------------------------------------------------------------------------
# Structural predicates
# ---------------------------------------------------------------------------

def two_color(G: Graph, excluded: frozenset[int] = frozenset()) -> Optional[dict[int, int]]:
    """2-color G, or G minus `excluded`; None if an odd cycle remains.

    Only vertices some edge touches get a color: an isolated vertex lies
    on no cycle and takes either color. Each component is anchored at its
    smallest vertex, which gets color 0, so the coloring is deterministic.
    """
    color: dict[int, int] = {}
    for start in G._adj:  # in vertex order
        if start in excluded or start in color:
            continue
        color[start] = 0
        queue = [start]
        while queue:
            u = queue.pop()
            for x in G.neighbors(u):
                if x in excluded:
                    continue
                if x not in color:
                    color[x] = 1 - color[u]
                    queue.append(x)
                elif color[x] == color[u]:
                    return None
    return color


def simplicial_vertices(G: Graph) -> frozenset[int]:
    """Vertices whose neighborhood induces a clique.

    Isolated and degree-1 vertices qualify (empty and singleton cliques).
    """
    return frozenset(v for v in G.vertices() if _is_simplicial(G, v))


def _is_simplicial(G: Graph, v: int) -> bool:
    """Does N(v) induce a clique: is N(v) within N(a) + a for each a in N(v)?"""
    nbrs = G.neighbors(v)
    return all(nbrs <= G.neighbors(a) | {a} for a in nbrs)


# ---------------------------------------------------------------------------
# Generators
# ---------------------------------------------------------------------------

def gen_sun(k: int) -> Orientation:
    """Oriented 2k-sun: an even cycle with a pendant ear vertex per edge.

    Cycle vertices are 1..2k, directed cyclically; ear vertex 2k+i is
    adjacent to cycle vertices i and i+1 (wrapping), with both edges
    directed into the ear. Every ear has out-degree 0 and is simplicial;
    every cycle vertex has out-degree 3.
    """
    if k < 2:
        raise ValueError(f"sun parameter must be at least 2, got {k}")
    m = 2 * k
    arcs = set()
    for i in range(1, m + 1):
        nxt = i % m + 1
        ear = m + i
        arcs.add((i, nxt))
        arcs.add((i, ear))
        arcs.add((nxt, ear))
    return Orientation(2 * m, frozenset(arcs))


def gen_cycle(n: int) -> Graph:
    if n < 3:
        raise ValueError(f"cycle length must be at least 3, got {n}")
    return Graph.of(n, [(i, i % n + 1) for i in range(1, n + 1)])


def gen_complete(n: int) -> Graph:
    if n < 1:
        raise ValueError(f"complete graph needs at least 1 vertex, got {n}")
    return Graph.of(n, itertools.combinations(range(1, n + 1), 2))


def gen_complete_bipartite(a: int, b: int) -> Graph:
    if a < 1 or b < 1:
        raise ValueError(f"both sides must be non-empty, got {a}, {b}")
    return Graph.of(a + b, [(i, a + j) for i in range(1, a + 1) for j in range(1, b + 1)])


# ---------------------------------------------------------------------------
# Orientation indexing
# ---------------------------------------------------------------------------

def orientation_from_index(G: Graph, index: int) -> Orientation:
    """Orientation number `index` over the sorted edge list.

    Bit i of `index` set means edge i is directed high-to-low instead of
    its default low-to-high. Indexing is the stable contract that lets a
    sweep name its witness and reproduce it.
    """
    edges = G.sorted_edges()
    if _natural("index", index) >= 1 << len(edges):
        raise ValueError(f"orientation index {index} out of range")
    arcs = []
    for i, (u, v) in enumerate(edges):
        arcs.append((v, u) if index >> i & 1 else (u, v))
    return Orientation(G.n, frozenset(arcs))


def orientation_count(G: Graph, bound: Optional[int] = None) -> int:
    """Number of orientations of G, 2^m; raises past the edge bound."""
    limit = DEFAULT_ORIENTATION_BOUND if bound is None else _natural("bound", bound)
    m = len(G.edges)
    if m > limit:
        raise BoundExceededError(
            f"graph has {m} edges, above the orientation bound {limit}", env="WD_LAB_BOUND"
        )
    return 1 << m
