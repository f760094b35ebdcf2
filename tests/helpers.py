"""Independent oracles and corpus builders shared across the test suite.

Everything here deliberately avoids the library's own search machinery:
naive subset scans, permutation-based isomorphism, Kahn's algorithm. Slow
but obviously correct, which is the point. `nullstellensatz_coefficient`
sums over the colorings of `additive_colorings`, a plain depth-first
search with no memo, so its match with the coefficient shares no code
with the library's list search. Lookups and oracles that only tests call
live here too, not in the library.
"""

from __future__ import annotations

import itertools
import random
from collections import Counter, defaultdict
from fractions import Fraction
from typing import Iterator, Mapping, Optional, Sequence

from wdlab import (
    GammaPath,
    Graph,
    LinearFactor,
    Orientation,
    Star,
    SweepReport,
    VertexPartition,
    WDigraph,
    additive_coefficient,
    gamma_paths_for_arc,
)
from wdlab.eulerian import _arc_list
from wdlab.graphs import orientation_count, orientation_from_index, two_color
from wdlab.polynomials import _additive_splits, _classical_splits
from wdlab.wd import WArc


def is_balanced(arcs) -> bool:
    """Generic Eulerian predicate: in-degree equals out-degree everywhere."""
    bal = Counter()
    for v, w in arcs:
        bal[v] += 1
        bal[w] -= 1
    return all(b == 0 for b in bal.values())


def naive_ee_eo(arcs) -> tuple[int, int]:
    """Even/odd balanced-subset counts by scanning all 2^m subsets."""
    arcs = list(arcs)
    ee = eo = 0
    for r in range(len(arcs) + 1):
        for subset in itertools.combinations(arcs, r):
            if is_balanced(subset):
                if r % 2:
                    eo += 1
                else:
                    ee += 1
    return ee, eo


def is_acyclic(arcs) -> bool:
    """Kahn's algorithm on an arbitrary arc list."""
    arcs = list(arcs)
    verts = {v for a in arcs for v in a}
    indeg = Counter(w for _, w in arcs)
    out = {v: [] for v in verts}
    for v, w in arcs:
        out[v].append(w)
    queue = [v for v in verts if indeg[v] == 0]
    seen = 0
    while queue:
        v = queue.pop()
        seen += 1
        for w in out[v]:
            indeg[w] -= 1
            if indeg[w] == 0:
                queue.append(w)
    return seen == len(verts)


def odd_cycle_vertex_sets(G: Graph) -> list[frozenset[int]]:
    """All simple odd cycles of G as vertex sets (fine for n <= 8)."""
    cycles = set()
    verts = list(G.vertices())
    for k in range(3, G.n + 1, 2):
        for subset in itertools.combinations(verts, k):
            anchor, rest = subset[0], subset[1:]
            for perm in itertools.permutations(rest):
                ring = (anchor,) + perm
                if all(G.has_edge(ring[i], ring[(i + 1) % k]) for i in range(k)):
                    cycles.add(frozenset(subset))
                    break
    return sorted(cycles, key=sorted)


def factors_of(splits) -> list[LinearFactor]:
    """Each (positive, negative) split as the `LinearFactor` that
    `expand_capped` takes: its positive variables ascending, then its
    negative ones ascending."""
    return [
        LinearFactor(tuple([(1, u) for u in sorted(pos)] + [(-1, u) for u in sorted(neg)]))
        for pos, neg in splits
    ]


def classical_factors(D: Orientation) -> list[LinearFactor]:
    """One (x_v - x_w) factor per arc of D, in sorted arc order."""
    return factors_of(_classical_splits(D))


def additive_factors(D: Orientation) -> list[LinearFactor]:
    """The additive factor of each arc (v, w) of D, in sorted arc order:
    N(w) \\ N(v) positively and N(v) \\ N(w) negatively."""
    return factors_of(_additive_splits(D._adjacency(), D.sorted_arcs()))


def expand_capped_tuples(
    factors: Sequence[LinearFactor], cap: tuple[int, ...]
) -> dict[tuple[int, ...], int]:
    """The capped product of the factors keyed by exponent vectors, one
    tuple per term: the oracle for the packed `expand_capped`. Each bump
    rebuilds the vector; a bump past the cap is dropped."""
    cap = tuple(cap)
    terms: dict[tuple[int, ...], int] = {(0,) * len(cap): 1}
    for factor in sorted(factors, key=LinearFactor.support):
        nxt: dict[tuple[int, ...], int] = defaultdict(int)
        for exp, coef in terms.items():
            for sign, u in factor.terms:
                i = u - 1
                if exp[i] + 1 > cap[i]:
                    continue
                bumped = exp[:i] + (exp[i] + 1,) + exp[i + 1 :]
                nxt[bumped] += sign * coef
        terms = {e: c for e, c in nxt.items() if c != 0}
    return terms


def random_orientation(rng: random.Random, n_min: int = 2, n_max: int = 5,
                       arc_cap: int | None = None) -> Orientation:
    """Random simple digraph: each vertex pair absent or oriented either way."""
    n = rng.randint(n_min, n_max)
    pairs = list(itertools.combinations(range(1, n + 1), 2))
    rng.shuffle(pairs)
    arcs = set()
    for u, v in pairs:
        if arc_cap is not None and len(arcs) >= arc_cap:
            break
        roll = rng.random()
        if roll < 1 / 3:
            arcs.add((u, v))
        elif roll < 2 / 3:
            arcs.add((v, u))
    return Orientation(n, frozenset(arcs))


def random_graph(rng: random.Random, n: int, p: float = 0.5) -> Graph:
    edges = [e for e in itertools.combinations(range(1, n + 1), 2) if rng.random() < p]
    return Graph.of(n, edges)


def random_lists(rng: random.Random, D: Orientation, hi: int = 50) -> dict[int, list[int]]:
    """Per-vertex distinct positive values, list size out-degree + 1."""
    return {
        v: sorted(rng.sample(range(1, hi + 1), D.out_degree(v) + 1))
        for v in D.vertices()
    }


def path_graph(n: int) -> Graph:
    return Graph.of(n, [(i, i + 1) for i in range(1, n)])


def canonical_form(n: int, edges) -> tuple:
    """Isomorphism-invariant key by minimizing over vertex permutations."""
    best = None
    for perm in itertools.permutations(range(1, n + 1)):
        mapped = tuple(
            sorted(tuple(sorted((perm[u - 1], perm[v - 1]))) for u, v in edges)
        )
        if best is None or mapped < best:
            best = mapped
    return (n, best)


def is_connected(n: int, edges) -> bool:
    if n <= 1:
        return True
    adj = {v: set() for v in range(1, n + 1)}
    for u, v in edges:
        adj[u].add(v)
        adj[v].add(u)
    seen = {1}
    stack = [1]
    while stack:
        u = stack.pop()
        for x in adj[u]:
            if x not in seen:
                seen.add(x)
                stack.append(x)
    return len(seen) == n


def connected_graphs_up_to(n_max: int) -> list[Graph]:
    """One representative per connected isomorphism class, 1..n_max vertices."""
    reps: dict[tuple, Graph] = {}
    for n in range(1, n_max + 1):
        pairs = list(itertools.combinations(range(1, n + 1), 2))
        for mask in range(1 << len(pairs)):
            edges = [pairs[i] for i in range(len(pairs)) if mask >> i & 1]
            if not is_connected(n, edges):
                continue
            key = canonical_form(n, edges)
            if key not in reps:
                reps[key] = Graph.of(n, edges)
    return [reps[k] for k in sorted(reps)]


def tripartite_by_search(G: Graph, D: Orientation) -> bool:
    """Search every proper 3-coloring of G for a non-empty class made only
    of simplicial vertices with out-degree 0 in D (exponential; n <= 8)."""
    out_degree = Counter(v for v, _ in D.arcs)
    sinks = {
        v for v in G.vertices()
        if out_degree[v] == 0
        and all(G.has_edge(a, b) for a, b in itertools.combinations(sorted(G.neighbors(v)), 2))
    }
    for colors in itertools.product(range(3), repeat=G.n):
        if any(colors[u - 1] == colors[v - 1] for u, v in G.edges):
            continue
        for c in range(3):
            cls = {v for v in G.vertices() if colors[v - 1] == c}
            if cls and cls <= sinks:
                return True
    return False


def sweep_by_orientation(G: Graph, bound=None, limit=None) -> SweepReport:
    """The orientation sweep as one `additive_coefficient` call per
    orientation, in index order (no shared expansion, no sign rule)."""
    total = 1 << len(G.edges)
    examined = total if limit is None else min(limit, total)
    histogram = {}
    witness = None
    for index, D in enumerate(enumerate_orientations(G, bound=bound, stop=examined)):
        coef = additive_coefficient(D)
        histogram[coef] = histogram.get(coef, 0) + 1
        if coef != 0 and witness is None:
            witness = (index, D, coef)
    index, D, coef = witness or (None, None, None)
    return SweepReport(
        examined=examined,
        histogram=dict(sorted(histogram.items())),
        zero_count=histogram.get(0, 0),
        witness_index=index,
        witness=D,
        witness_coefficient=coef,
    )


def caterpillar(spine: int, rng: random.Random) -> Orientation:
    """Path 1..spine with one leaf spine+i hung on each spine vertex i,
    every edge oriented by a coin flip, path edges first."""
    edges = [(i, i + 1) for i in range(1, spine)] + [(i, spine + i) for i in range(1, spine + 1)]
    arcs = [(u, v) if rng.random() < 0.5 else (v, u) for u, v in edges]
    return Orientation(2 * spine, frozenset(arcs))


def gnp_orientation(name: str, n: int) -> Orientation:
    """Seeded G(n, 0.3) orientation: random.Random(name) decides each pair
    u < v in order, an orientation coin first and then the 0.3 edge coin,
    the recipe of the benchmark's dense limit cases (e.g. "wd:g14:a")."""
    rng = random.Random(name)
    arcs = [(u, v) if rng.random() < 0.5 else (v, u)
            for u in range(1, n + 1) for v in range(u + 1, n + 1) if rng.random() < 0.3]
    return Orientation(n, frozenset(arcs))


def enumerate_eulerian_recursive(H) -> Iterator[tuple]:
    """Balanced arc subsets by the plain recursive include/exclude walk,
    skip before take, pruned on remaining capacity: the order the library's
    explicit loop must reproduce."""
    arcs = _arc_list(H)
    rem_out = Counter(a[0] for a in arcs)
    rem_in = Counter(a[1] for a in arcs)
    bal: Counter = Counter()
    chosen: list = []

    def feasible(z) -> bool:
        return bal[z] <= rem_in[z] and -bal[z] <= rem_out[z]

    def rec(i: int) -> Iterator[tuple]:
        if i == len(arcs):
            yield tuple(chosen)
            return
        v, w = arcs[i]
        rem_out[v] -= 1
        rem_in[w] -= 1
        if feasible(v) and feasible(w):
            yield from rec(i + 1)
        bal[v] += 1
        bal[w] -= 1
        if feasible(v) and feasible(w):
            chosen.append(arcs[i])
            yield from rec(i + 1)
            chosen.pop()
        bal[v] -= 1
        bal[w] += 1
        rem_out[v] += 1
        rem_in[w] += 1

    return rec(0)


def interleaved_star(k: int, pattern: str) -> Orientation:
    """K1,k among isolated vertices: the centre is vertex 2, leaf i is
    vertex 2i + 2, and every odd vertex 1..2k+3 is isolated. `pattern`
    directs the edges "out" of the centre, "in" to it, or "mixed" (out to
    the odd-numbered leaves, in from the even ones)."""
    arcs = []
    for i in range(1, k + 1):
        outward = pattern == "out" or (pattern == "mixed" and i % 2 == 1)
        arcs.append((2, 2 * i + 2) if outward else (2 * i + 2, 2))
    return Orientation(2 * k + 3, frozenset(arcs))


def enumerate_orientations(
    G: Graph,
    bound: Optional[int] = None,
    start: int = 0,
    stop: Optional[int] = None,
) -> Iterator[Orientation]:
    """Yield every orientation of G exactly once, in index order.

    `start`/`stop` restrict to an index range; tests use `start` to draw
    one orientation at a random index.
    """
    total = orientation_count(G, bound)
    hi = total if stop is None else min(stop, total)
    for index in range(start, hi):
        yield orientation_from_index(G, index)


def is_bipartite(G: Graph) -> Optional[VertexPartition]:
    """Two-class partition with no intra-class edge, or None on an odd cycle."""
    color = two_color(G)
    if color is None:
        return None
    # two_color leaves isolated vertices uncolored; they join class 0
    side0 = frozenset(v for v in G.vertices() if color.get(v, 0) == 0)
    side1 = frozenset(v for v in G.vertices() if color.get(v) == 1)
    return VertexPartition((side0, side1))


def symmetric_difference_neighborhoods(
    D: Orientation, v: int, w: int
) -> tuple[frozenset[int], frozenset[int]]:
    """Split N(v) symm-diff N(w) along the arc (v, w).

    Returns ``(direct, detour)`` with direct = N(v) \\ N(w) and
    detour = N(w) \\ N[v]. Together with {v} these cover the symmetric
    difference: w always lands in direct, v in neither.
    """
    if (v, w) not in D.arcs:
        raise ValueError(f"({v}, {w}) is not an arc")
    nv, nw = D.neighbors(v), D.neighbors(w)
    return nv - nw, nw - (nv | {v})


def all_gamma_paths(D: Orientation) -> list[GammaPath]:
    """Every gamma-path of W(D), ordered by (arc, target)."""
    return [p for arc in D.sorted_arcs() for p in gamma_paths_for_arc(D, arc)]


def gamma_path(D: Orientation, arc: tuple[int, int], x: int) -> GammaPath:
    """The unique star-to-star path through the sector of `arc` ending at x."""
    paths = gamma_paths_for_arc(D, arc)
    if x == arc[0]:
        raise ValueError(f"target {x} is the sector source itself")
    for p in paths:
        if p.target == x:
            return p
    raise ValueError(f"vertex {x} is not a target of the {arc[0]}>{arc[1]} sector")


def build_wd_from_paths(D: Orientation) -> WDigraph:
    """W(D) path by path: the stars plus every endpoint of the union of
    every gamma-path's edges, the definition `build_wd` must match."""
    arcs = frozenset(e for p in all_gamma_paths(D) for e in p.edges)
    vertices = frozenset(Star(x) for x in D.vertices()) | {u for e in arcs for u in e}
    return WDigraph(D, vertices, arcs)


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


def evaluate_additive(D: Orientation, assignment: Mapping[int, int]) -> int:
    """Exact value of the additive polynomial at an integer labeling."""
    missing = [v for v in D.vertices() if v not in assignment]
    if missing:
        raise ValueError(f"assignment is missing vertices {missing}")
    value = 1
    for v, w in D.sorted_arcs():
        nv, nw = D.neighbors(v), D.neighbors(w)
        value *= sum(assignment[u] for u in nw - nv) - sum(assignment[u] for u in nv - nw)
        if value == 0:
            return 0
    return value


def additive_colorings(G: Graph, lists: Mapping[int, Sequence[int]]) -> Iterator[dict[int, int]]:
    """Every additive coloring from the lists, in the order of their product.

    Vertices take their sorted values in order 1..n, and edge uv is checked
    once every neighbor of u and of v has a value, so a failed edge cuts
    its subtree. No memo: each subtree is searched in full.
    """
    settled = defaultdict(list)  # vertex -> edges whose sums it completes
    for u, v in G.edges:
        settled[max(G.neighbors(u) | G.neighbors(v))].append((u, v))
    ell: dict[int, int] = {}
    sums = [0] * (G.n + 1)

    def extend(v: int) -> Iterator[dict[int, int]]:
        if v > G.n:
            yield dict(ell)
            return
        for a in sorted(set(lists[v])):
            ell[v] = a
            for y in G.neighbors(v):
                sums[y] += a
            if all(sums[x] != sums[y] for x, y in settled[v]):
                yield from extend(v + 1)
            for y in G.neighbors(v):
                sums[y] -= a

    return extend(1)


def nullstellensatz_coefficient(D: Orientation, lists: Mapping[int, list[int]]) -> Fraction:
    """The additive coefficient [x^d] P by the quantitative Combinatorial
    Nullstellensatz (Lason 2010; Karasev and Petrov 2012).

    With lists A_v of exactly d_v + 1 distinct values, d_v the out-degree,
    [x^d] P = sum over c in prod A_v of P(c) / prod_v prod_{a in A_v, a != c_v} (c_v - a),
    where P(c) is the product over arcs (v, w) of s(w) - s(v) and s is the
    neighbor sum. P(c) is nonzero exactly on additive colorings, so the sum
    runs over `additive_colorings`.
    """
    values = {v: set(lists[v]) for v in D.vertices()}
    for v in D.vertices():
        if len(values[v]) != D.out_degree(v) + 1:
            raise ValueError(f"list for vertex {v} needs out-degree + 1 distinct values")
    arcs = D.sorted_arcs()
    around = {v: tuple(D.neighbors(v)) for v in D.vertices()}
    total = Fraction(0)
    for c in additive_colorings(D.underlying(), lists):
        s = {v: sum(c[u] for u in around[v]) for v in D.vertices()}
        value = 1
        for v, w in arcs:
            value *= s[w] - s[v]
        weight = 1
        for v in D.vertices():
            for a in values[v]:
                if a != c[v]:
                    weight *= c[v] - a
        total += Fraction(value, weight)
    return total


def count_orientations_same_outdeg_direct(H) -> int:
    """Orientations of H's underlying graph with H's out-degrees, by
    direct search over edge directions.

    Independent of the Eulerian route: backtracks over the underlying
    undirected edges, pruning when a vertex's out-degree overshoots its
    target or can no longer reach it. Serves as the oracle for
    `count_ee_eo_bruteforce(H).total` (see `TestOrientationCounts`).
    """
    arcs = _arc_list(H)
    arc_set = set(arcs)
    for v, w in arcs:
        if (w, v) in arc_set:
            raise ValueError(f"both directions of {{{v}, {w}}} present")
    target = Counter(a[0] for a in arcs)
    out: Counter = Counter()
    rem = Counter()
    for v, w in arcs:
        rem[v] += 1
        rem[w] += 1

    def reachable(z) -> bool:
        return out[z] <= target[z] <= out[z] + rem[z]

    def rec(i: int) -> int:
        if i == len(arcs):
            return 1
        v, w = arcs[i]
        rem[v] -= 1
        rem[w] -= 1
        total = 0
        for head in (v, w):
            out[head] += 1
            if reachable(v) and reachable(w):
                total += rec(i + 1)
            out[head] -= 1
        rem[v] += 1
        rem[w] += 1
        return total

    return rec(0)
