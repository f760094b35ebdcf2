"""Construction of the sector digraph W(D), the union of its gamma-paths.

Given an orientation D, each arc (v, w) contributes a private *sector*: a
fan rooted at the sector copy of v whose leaves are copies of the vertices
where the neighborhoods of v and w disagree. Vertices reachable only
through w get a two-step detour via an auxiliary y-vertex. One *star*
vertex per original vertex ties the sectors together: stars feed each
sector's root and collect each sector's leaves.

A gamma-path crosses exactly one sector from star to star; it has length 3
when the target is a neighbor of v but not w (direct), length 4 when the
target is a neighbor of w but not of v or v itself (detour). The spanning
Eulerian subdigraphs of W(D) are exactly the unions of edge-disjoint
gamma-paths whose star in/out traffic balances, which is what makes the
structured counters in `eulerian` possible. The same fact defines the
digraph here: `build_wd` writes every arc's sector in one flat pass over
the arcs of D, each arc adding its sector's entry arc and, per target,
the rest of that target's path, straight into one arc list, with each
vertex collected as it is made and no path object at all, so the arcs of
W(D) are the union of every gamma-path's edges by construction. The
tests spell the gamma-paths out one by one, on their own, and hold
`build_wd` equal to the union of every arc's paths. No sector is stored;
a sector is its arc's gamma-paths without their star arcs. `wd_size`
counts the vertices and arcs of W(D) from the size of each sector,
without building any of it.

The vertices `Star`, `SectorX` and `SectorY` are typed named tuples: each
equals only a vertex of its own type with the same fields, never another
vertex type or a plain tuple, and hashes as its field tuple, in C, since
building W(D) hashes every vertex into its sets. Like any tuple they
unpack, index and order by their fields.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import NamedTuple, Union

from .graphs import Orientation


def _eq_same_type(self: tuple, other: object) -> bool:
    # False, not NotImplemented: tuple's reflected == would match the fields
    return type(other) is type(self) and tuple.__eq__(self, other)


def _ne_same_type(self: tuple, other: object) -> bool:
    # a tuple subclass that defines only __eq__ keeps tuple's !=, which
    # would call SectorX(a, x) and SectorY(a, x) not unequal
    return type(other) is not type(self) or tuple.__ne__(self, other)


class Star(NamedTuple):
    """Hub vertex for original vertex x, rendered ``x*``; equal only to a Star."""

    x: int

    def __str__(self) -> str:
        return f"{self.x}*"

    __eq__ = _eq_same_type
    __ne__ = _ne_same_type
    __hash__ = tuple.__hash__


class SectorX(NamedTuple):
    """Copy of vertex x inside the sector of `arc`, rendered ``x^{v>w}``.

    Equal only to a SectorX; a SectorY with the same fields differs.
    """

    arc: tuple[int, int]
    x: int

    def __str__(self) -> str:
        return f"{self.x}^{{{self.arc[0]}>{self.arc[1]}}}"

    __eq__ = _eq_same_type
    __ne__ = _ne_same_type
    __hash__ = tuple.__hash__


class SectorY(NamedTuple):
    """Detour waypoint toward x inside the sector of `arc`, ``y^{v>w}_x``.

    Equal only to a SectorY; a SectorX with the same fields differs.
    """

    arc: tuple[int, int]
    x: int

    def __str__(self) -> str:
        return f"y^{{{self.arc[0]}>{self.arc[1]}}}_{self.x}"

    __eq__ = _eq_same_type
    __ne__ = _ne_same_type
    __hash__ = tuple.__hash__


WVertex = Union[Star, SectorX, SectorY]

WArc = tuple[WVertex, WVertex]


def warc_key(arc: WArc) -> tuple[str, str]:
    """Deterministic ordering key: lexicographic on canonical renderings."""
    return (str(arc[0]), str(arc[1]))


@dataclass(frozen=True)
class WDigraph:
    """One star per original vertex plus the union of every gamma-path."""

    source: Orientation
    vertices: frozenset[WVertex]
    arcs: frozenset[WArc]


def build_wd(D: Orientation) -> WDigraph:
    """Assemble the full derived digraph in one flat pass over the arcs of D.

    The arcs are the union of every gamma-path's edges. Each arc (v, w) of
    D adds the entry arc v* -> v^{vw}; then v^{vw} -> x^{vw} -> x* for each
    direct target x in N(v) \\ N(w), and v^{vw} -> y^{vw}_x -> x^{vw} -> x*
    for each detour target x in N(w) \\ N[v]. Each sector is written
    straight into one arc list with every star made once, every other
    vertex collected as it is made and no path object; a test holds the
    result equal to the union of the gamma-paths spelled out one by one.
    The arcs come from D, so none is checked. Sectors of distinct arcs
    share no vertices, so the list holds no duplicates and all structure
    shared between arcs goes through stars.
    """
    # tuple.__new__ makes each vertex in C: the generated NamedTuple
    # constructor is a Python call, and W(D) makes one or two per target
    new = tuple.__new__
    adj = D._adjacency()
    stars = {x: new(Star, (x,)) for x in D.vertices()}
    vertices: list[WVertex] = list(stars.values())
    arcs: list[WArc] = []
    for arc in D.arcs:
        v, w = arc
        nv, nw = adj[v], adj[w]
        root = new(SectorX, (arc, v))
        vertices.append(root)
        arcs.append((stars[v], root))
        for x in nv - nw:
            copy = new(SectorX, (arc, x))
            vertices.append(copy)
            arcs += ((root, copy), (copy, stars[x]))
        for x in nw - nv:
            if x == v:  # v is in N(w) but is never a target
                continue
            y, copy = new(SectorY, (arc, x)), new(SectorX, (arc, x))
            vertices += (y, copy)
            arcs += ((root, y), (y, copy), (copy, stars[x]))
    return WDigraph(D, frozenset(vertices), frozenset(arcs))


def wd_size(D: Orientation) -> tuple[int, int]:
    """(|V|, |A|) of W(D), counted from the sectors without building them.

    A sector whose arc has d direct and e detour targets holds its root,
    d + e copies and e waypoints, and its arcs are the entry arc, two per
    direct path and three per detour path. So |V| = n + sum(1 + d + 2e)
    and |A| = sum(1 + 2d + 3e) over the arcs of D.
    """
    vertices, arcs = D.n, 0
    adj = D._adjacency()
    for v, w in D.arcs:
        nv, nw = adj[v], adj[w]
        direct = len(nv - nw)
        detour = len(nw - nv) - 1  # v is in N(w) but is never a target
        vertices += 1 + direct + 2 * detour
        arcs += 1 + 2 * direct + 3 * detour
    return vertices, arcs
