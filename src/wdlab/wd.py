"""Construction of the sector digraph W(D) and its gamma-paths.

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
digraph here: the private `_sector` is the one place that spells out a
sector, as its entry arc plus the rest of each target's path. The public
`gamma_paths_for_arc` turns it into `GammaPath`s. `build_wd` flattens the
same sectors straight into one arc list, making each star once and no
`GammaPath` at all, so the arcs of W(D) are the union of every
gamma-path's edges by construction. No sector is stored; a sector is its
arc's gamma-paths without their star arcs. `wd_size` counts the vertices
and arcs of W(D) from the size of each sector, without building any of it.

The vertices `Star`, `SectorX` and `SectorY` are typed named tuples: each
equals only a vertex of its own type with the same fields, never another
vertex type or a plain tuple, and hashes as its field tuple, in C, since
building W(D) hashes every vertex into its sets. Like any tuple they
unpack, index and order by their fields.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Callable, NamedTuple, Union

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


@dataclass(frozen=True)
class GammaPath:
    """The unique star-to-star path through one sector for one target."""

    arc: tuple[int, int]
    target: int
    edges: tuple[WArc, ...]

    @property
    def length(self) -> int:
        return len(self.edges)

    @property
    def is_odd(self) -> bool:
        """True for the length-3 (direct) case."""
        return len(self.edges) % 2 == 1


def _sector(
    D: Orientation, arc: tuple[int, int], star: Callable[[int], Star]
) -> tuple[WArc, list[tuple[int, tuple[WArc, ...]]]]:
    """The one place that spells out the shape of a sector.

    Returns the entry arc v* -> v^{vw}, shared by every gamma-path of the
    sector, and, for each target x ascending, x with the rest of its path:
    the step to the copy of x (through y^{vw}_x for a detour target) and
    the exit to x*. The sector's own source v is never a target, though its
    copy is the root. `star(x)` supplies the star of x, so a caller that
    builds many sectors can make each star once.

    The targets are N(v) symm-diff N(w) without v, read off the two
    neighbourhoods once: x in N(v) \\ N(w) is direct, x in N(w) \\ N[v] a
    detour. Raises ValueError when `arc` is not an arc of D.
    """
    v, w = arc
    if arc not in D.arcs:
        raise ValueError(f"({v}, {w}) is not an arc")
    adj = D._adjacency()
    nv, nw = adj[v], adj[w]
    root = SectorX(arc, v)
    rests = []
    for x in sorted(nv ^ nw):
        if x == v:
            continue
        copy = SectorX(arc, x)
        if x in nv:
            rests.append((x, ((root, copy), (copy, star(x)))))
        else:
            y = SectorY(arc, x)
            rests.append((x, ((root, y), (y, copy), (copy, star(x)))))
    return (star(v), root), rests


def gamma_paths_for_arc(D: Orientation, arc: tuple[int, int]) -> list[GammaPath]:
    """All gamma-paths of one sector, targets ascending.

    Every path enters at the root copy of v from v*, steps to the copy of
    its target x (through y^{vw}_x for a detour target) and exits to x*;
    `_sector` spells this out.
    """
    entry, rests = _sector(D, arc, Star)
    return [GammaPath(arc, x, (entry, *rest)) for x, rest in rests]


def build_wd(D: Orientation) -> WDigraph:
    """Assemble the full derived digraph sector by sector.

    The arcs are the union of every gamma-path's edges: stars feed the root
    of every sector they name, and every non-root vertex copy x^{vw} exits
    to the star of x. Each sector comes from `_sector`, the one place that
    spells one out, with every star made once for the whole digraph; its
    entry arc is taken once and the rest of each path after it, so the arc
    list holds no duplicates and no `GammaPath` is made. Every non-star
    vertex is the tail of an arc, so the vertices are the stars plus the
    arc tails. Sectors of distinct arcs share no vertices, so all structure
    shared between arcs goes through stars.
    """
    stars = {x: Star(x) for x in D.vertices()}
    arcs: list[WArc] = []
    for arc in D.arcs:
        entry, rests = _sector(D, arc, stars.__getitem__)
        arcs.append(entry)
        for _, rest in rests:
            arcs.extend(rest)
    vertices = frozenset(stars.values()).union([tail for tail, _ in arcs])
    return WDigraph(D, vertices, frozenset(arcs))


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
