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
digraph here: `gamma_paths_for_arc` is the one place that spells out a
sector, the arcs of W(D) are the union of every gamma-path's edges, and
the decomposition is read off the same paths. No sector is stored; a
sector is its arc's gamma-paths without their star arcs.
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


def gamma_paths_for_arc(D: Orientation, arc: tuple[int, int]) -> list[GammaPath]:
    """All gamma-paths of one sector, targets ascending.

    The only place that spells out the shape of a sector: every path enters
    at the root copy of v from v*, steps to the copy of its target x (through
    y^{vw}_x for a detour target) and exits to x*. The sector's own source v
    is never a target, though its copy is the root.
    """
    v, _ = arc
    direct, detour = symmetric_difference_neighborhoods(D, *arc)
    root = SectorX(arc, v)
    entry = (Star(v), root)
    paths = []
    for x in sorted(direct | detour):
        copy = SectorX(arc, x)
        if x in direct:
            edges = (entry, (root, copy), (copy, Star(x)))
        else:
            y = SectorY(arc, x)
            edges = (entry, (root, y), (y, copy), (copy, Star(x)))
        paths.append(GammaPath(arc, x, edges))
    return paths


def build_wd(D: Orientation) -> WDigraph:
    """Assemble the full derived digraph from its gamma-paths.

    The arcs are the union of every gamma-path's edges: stars feed the root
    of every sector they name, and every non-root vertex copy x^{vw} exits
    to the star of x. The vertices are the stars plus the endpoints of those
    arcs. Sectors of distinct arcs share no vertices, so all structure
    shared between arcs goes through stars.
    """
    arcs = frozenset(e for p in all_gamma_paths(D) for e in p.edges)
    vertices = frozenset(Star(x) for x in D.vertices()) | {u for e in arcs for u in e}
    return WDigraph(D, vertices, arcs)


def all_gamma_paths(D: Orientation) -> list[GammaPath]:
    """Every gamma-path of W(D), ordered by (arc, target)."""
    return [p for arc in D.sorted_arcs() for p in gamma_paths_for_arc(D, arc)]


def decompose_into_gamma_paths(
    wd: WDigraph, arc_subset: frozenset[WArc] | set[WArc]
) -> Optional[list[GammaPath]]:
    """Split an arc subset of W(D) into edge-disjoint gamma-paths.

    An exit arc x^{vw} -> x* lies on exactly one gamma-path, so the only
    candidate split is the paths whose exit arc is in the subset. Returns
    them (sorted by arc then target) when their edges, counted with
    multiplicity, are exactly the subset, and None otherwise; the
    decomposition is unique when it exists.
    """
    if not arc_subset <= wd.arcs:
        raise ValueError("arc subset contains arcs outside the digraph")
    paths = [p for p in all_gamma_paths(wd.source) if p.edges[-1] in arc_subset]
    used = [e for p in paths for e in p.edges]
    if len(used) != len(arc_subset) or set(used) != arc_subset:
        return None
    return paths
