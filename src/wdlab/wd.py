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
structured counters in `eulerian` possible.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Optional, Union

from .graphs import Orientation, symmetric_difference_neighborhoods


@dataclass(frozen=True)
class Star:
    """Hub vertex for original vertex x, rendered ``x*``."""

    x: int

    def __str__(self) -> str:
        return f"{self.x}*"


@dataclass(frozen=True)
class SectorX:
    """Copy of vertex x inside the sector of `arc`, rendered ``x^{v>w}``."""

    arc: tuple[int, int]
    x: int

    def __str__(self) -> str:
        return f"{self.x}^{{{self.arc[0]}>{self.arc[1]}}}"


@dataclass(frozen=True)
class SectorY:
    """Detour waypoint toward x inside the sector of `arc`, ``y^{v>w}_x``."""

    arc: tuple[int, int]
    x: int

    def __str__(self) -> str:
        return f"y^{{{self.arc[0]}>{self.arc[1]}}}_{self.x}"


WVertex = Union[Star, SectorX, SectorY]

WArc = tuple[WVertex, WVertex]


def warc_key(arc: WArc) -> tuple[str, str]:
    """Deterministic ordering key: lexicographic on canonical renderings."""
    return (str(arc[0]), str(arc[1]))


@dataclass(frozen=True)
class Sector:
    """The per-arc fan subdigraph, before stars are attached."""

    arc: tuple[int, int]
    vertices: frozenset[WVertex]
    arcs: frozenset[WArc]


@dataclass(frozen=True)
class WDigraph:
    """Disjoint sectors plus one star per original vertex."""

    source: Orientation
    vertices: frozenset[WVertex]
    arcs: frozenset[WArc]
    sectors: tuple[Sector, ...]

    def sorted_arcs(self) -> list[WArc]:
        return sorted(self.arcs, key=warc_key)

    def sorted_vertices(self) -> list[WVertex]:
        return sorted(self.vertices, key=str)


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


def build_sector(D: Orientation, arc: tuple[int, int]) -> Sector:
    """Fan subdigraph for one arc (v, w).

    Vertex copies exist for every member of N(v) symm-diff N(w); the copy
    of v is the root. Roots reach direct targets in one step and detour
    targets in two steps through a y-vertex.
    """
    v, w = arc
    direct, detour = symmetric_difference_neighborhoods(D, v, w)
    vertices: set[WVertex] = {SectorX(arc, x) for x in direct | detour | {v}}
    vertices |= {SectorY(arc, x) for x in detour}
    root = SectorX(arc, v)
    arcs: set[WArc] = set()
    for x in direct:
        arcs.add((root, SectorX(arc, x)))
    for x in detour:
        arcs.add((root, SectorY(arc, x)))
        arcs.add((SectorY(arc, x), SectorX(arc, x)))
    return Sector(arc, frozenset(vertices), frozenset(arcs))


def build_wd(D: Orientation) -> WDigraph:
    """Assemble all sectors and stars into the full derived digraph.

    Stars feed the root of every sector they name; every non-root vertex
    copy x^{vw} exits to the star of x. Sectors of distinct arcs share no
    vertices, so all structure shared between arcs goes through stars.
    """
    sectors = tuple(build_sector(D, arc) for arc in D.sorted_arcs())
    vertices: set[WVertex] = {Star(x) for x in D.vertices()}
    arcs: set[WArc] = set()
    for sector in sectors:
        v, _ = sector.arc
        vertices |= sector.vertices
        arcs |= sector.arcs
        arcs.add((Star(v), SectorX(sector.arc, v)))
        for vert in sector.vertices:
            if isinstance(vert, SectorX) and vert.x != v:
                arcs.add((vert, Star(vert.x)))
    return WDigraph(D, frozenset(vertices), frozenset(arcs), sectors)


def gamma_targets(
    D: Orientation, arc: tuple[int, int]
) -> tuple[frozenset[int], frozenset[int]]:
    """Targets reachable through the sector of `arc`: (direct, detour).

    The sector's own source vertex v is never a target even though its
    copy sits in the sector, so the target set is the symmetric difference
    minus {v}.
    """
    return symmetric_difference_neighborhoods(D, *arc)


def gamma_path(D: Orientation, arc: tuple[int, int], x: int) -> GammaPath:
    """The unique star-to-star path through the sector of `arc` ending at x."""
    v, w = arc
    direct, detour = gamma_targets(D, arc)
    if x == v:
        raise ValueError(f"target {x} is the sector source itself")
    root = SectorX(arc, v)
    if x in direct:
        edges = ((Star(v), root), (root, SectorX(arc, x)), (SectorX(arc, x), Star(x)))
    elif x in detour:
        edges = (
            (Star(v), root),
            (root, SectorY(arc, x)),
            (SectorY(arc, x), SectorX(arc, x)),
            (SectorX(arc, x), Star(x)),
        )
    else:
        raise ValueError(f"vertex {x} is not a target of the {v}>{w} sector")
    return GammaPath(arc, x, edges)


def gamma_paths_for_arc(D: Orientation, arc: tuple[int, int]) -> list[GammaPath]:
    """All gamma-paths of one sector, targets ascending."""
    direct, detour = gamma_targets(D, arc)
    return [gamma_path(D, arc, x) for x in sorted(direct | detour)]


def all_gamma_paths(D: Orientation) -> list[GammaPath]:
    """Every gamma-path of W(D), ordered by (arc, target)."""
    return [p for arc in D.sorted_arcs() for p in gamma_paths_for_arc(D, arc)]


def decompose_into_gamma_paths(
    wd: WDigraph, arc_subset: frozenset[WArc] | set[WArc]
) -> Optional[list[GammaPath]]:
    """Split an arc subset of W(D) into edge-disjoint gamma-paths.

    Peels one path per star-to-root entry edge, following the forced route
    through the sector. Returns the paths (sorted by arc then target) when
    they tile the subset exactly, None when any arc is left over or a
    sector walk gets stuck; the decomposition is unique when it exists.
    """
    remaining = set(arc_subset)
    if not remaining <= wd.arcs:
        raise ValueError("arc subset contains arcs outside the digraph")
    paths: list[GammaPath] = []
    entries = [a for a in remaining if isinstance(a[0], Star)]
    # each sector root is entered by exactly one star arc and walked once,
    # so its out-arcs can be looked up from the original subset
    by_tail: dict[WVertex, list[WArc]] = {}
    for a in remaining:
        by_tail.setdefault(a[0], []).append(a)
    for entry in entries:
        root = entry[1]
        if not isinstance(root, SectorX) or root.x != root.arc[0]:
            return None
    for entry in sorted(entries, key=warc_key):
        if entry not in remaining:
            return None
        root = entry[1]
        assert isinstance(root, SectorX)
        arc = root.arc
        hops = by_tail.get(root, [])
        if len(hops) != 1:
            return None
        edges = [entry, hops[0]]
        cur = hops[0][1]
        if isinstance(cur, SectorY):
            step = (cur, SectorX(arc, cur.x))
            if step not in remaining:
                return None
            edges.append(step)
            cur = step[1]
        if not isinstance(cur, SectorX):
            return None
        exit_edge = (cur, Star(cur.x))
        if exit_edge not in remaining:
            return None
        edges.append(exit_edge)
        for e in edges:
            remaining.discard(e)
        paths.append(GammaPath(arc, cur.x, tuple(edges)))
    if remaining:
        return None
    return sorted(paths, key=lambda p: (p.arc, p.target))
