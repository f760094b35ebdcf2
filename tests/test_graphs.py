from __future__ import annotations

import copy
import gc
import pickle
import random
import weakref

import pytest

from helpers import (
    enumerate_orientations,
    interleaved_star,
    is_acyclic,
    is_bipartite,
    random_graph,
    random_orientation,
    symmetric_difference_neighborhoods,
)
from wdlab import (
    BoundExceededError,
    Graph,
    Orientation,
    ParseError,
    additive_coefficient,
    classical_coefficient,
    conjecture_sweep,
    count_ee_eo_bruteforce,
    count_ee_eo_classic,
    count_ee_eo_wd,
    enumerate_eulerian_spanning,
    find_additive_coloring,
    gen_complete,
    gen_complete_bipartite,
    gen_cycle,
    gen_sun,
    orientation_from_index,
    parse,
    simplicial_vertices,
    to_text,
)
from wdlab.eulerian import _classical_plan, _count, _wd_arc_plan
from wdlab.polynomials import _additive_splits, _classical_splits, _coefficient


class TestParse:
    def test_undirected(self):
        g = parse("4\n1 -- 2\n2 -- 3\n")
        assert isinstance(g, Graph)
        assert g.n == 4 and g.edges == frozenset({(1, 2), (2, 3)})

    def test_orientation_d1(self, d1):
        obj = parse("4\n1 -> 2\n1 -> 3\n2 -> 4\n3 -> 2\n")
        assert isinstance(obj, Orientation)
        assert obj == d1

    def test_comments_and_blanks(self):
        g = parse("# a graph\n\n3\n# body\n1 -- 2\n\n")
        assert g == Graph.of(3, [(1, 2)])

    def test_antisymmetry_rejected(self):
        with pytest.raises(ParseError, match="both directions"):
            parse("2\n1 -> 2\n2 -> 1\n")

    def test_mixed_styles_rejected(self):
        with pytest.raises(ParseError, match="mixed"):
            parse("3\n1 -- 2\n2 -> 3\n")

    def test_self_loop_rejected(self):
        with pytest.raises(ParseError, match="self-loop"):
            parse("3\n2 -- 2\n")

    def test_duplicate_edge_rejected(self):
        with pytest.raises(ParseError, match="duplicate"):
            parse("3\n1 -- 2\n2 -- 1\n")
        with pytest.raises(ParseError, match="duplicate"):
            parse("3\n1 -> 2\n1 -> 2\n")

    def test_out_of_range_rejected(self):
        with pytest.raises(ParseError, match="out of range"):
            parse("3\n1 -- 4\n")

    def test_bad_header(self):
        with pytest.raises(ParseError):
            parse("x\n1 -- 2\n")
        with pytest.raises(ParseError):
            parse("")

    def test_bad_edge_line(self):
        with pytest.raises(ParseError):
            parse("3\n1 - 2\n")
        with pytest.raises(ParseError):
            parse("3\n1 -- 2 3\n")

    def test_strict_integers(self):
        # int() reads each of these as a vertex count or id in range
        for bad in (
            "1_0\n",
            "\u0663\n",  # Arabic-Indic three
            "+3\n",
            "12\n1_0 -- 2\n",
            "3\n\u0661 -> 2\n",
            "3\n1 -- +2\n",
        ):
            with pytest.raises(ParseError, match="expected vertex count|must be integers"):
                parse(bad)
        with pytest.raises(ParseError, match="vertex count must be non-negative"):
            parse("-3\n")
        with pytest.raises(ParseError, match="out of range"):
            parse("3\n-1 -- 2\n")
        assert parse(" 03 \n01 -- 2\n") == Graph.of(3, [(1, 2)])

    def test_edgeless_parses_as_graph(self):
        assert parse("5\n") == Graph.of(5, [])

    def test_round_trip(self, d1, d2, d3):
        g = Graph.of(4, [(2, 1), (3, 4)])
        assert parse(to_text(g)) == g
        assert parse(to_text(d1)) == d1
        # parse and the frontier relabelling skip the constructor's checks;
        # what they build must equal, hash and tabulate like a checked one
        rng = random.Random(22)
        corpus = [d1, d2, d3, gen_sun(3)]
        corpus += [random_orientation(rng, 2, 9) for _ in range(60)]
        corpus = [D for D in corpus if D.arcs]  # no arcs parses as a Graph
        relabelled = [D.frontier_relabelled() for D in corpus]
        assert any(R is not D for R, D in zip(relabelled, corpus))
        # a parsed D against D; D' against a checked build of its own arcs
        pairs = [(parse(to_text(D)), D) for D in corpus] + [(R, R) for R in relabelled]
        for B, D in pairs:
            checked = Orientation(D.n, D.arcs)
            assert B == checked and hash(B) == hash(checked)
            assert list(B._adjacency().items()) == list(checked._adjacency().items())
            assert B._out_degree_map == checked._out_degree_map
            assert B.out_degrees() == checked.out_degrees()
        for G in [g, Graph(6, frozenset()), *(random_graph(rng, 7) for _ in range(20))]:
            parsed = parse(to_text(G))
            assert parsed == G and hash(parsed) == hash(G)
            assert list(parsed._adj.items()) == list(G._adj.items())


class TestTypes:
    def test_graph_invariants(self):
        with pytest.raises(ValueError):
            Graph.of(3, [(1, 1)])
        with pytest.raises(ValueError):
            Graph.of(2, [(1, 3)])

    def test_orientation_invariants(self):
        with pytest.raises(ValueError):
            Orientation(3, frozenset([(1, 2), (2, 1)]))
        with pytest.raises(ValueError):
            Orientation(3, frozenset([(0, 1)]))

    def test_underlying(self, d1):
        assert d1.underlying() == Graph.of(4, [(1, 2), (1, 3), (2, 4), (2, 3)])

    def test_underlying_matches_checked_graph(self):
        # the underlying graph skips the edge checks its arcs already passed;
        # it must equal the graph built and checked from the same arcs
        rng = random.Random(89)
        corpus = [Orientation(0, frozenset()), Orientation(5, frozenset()), gen_sun(3)]
        corpus += [random_orientation(rng, n_min=1, n_max=9) for _ in range(100)]
        assert sum(not D.arcs for D in corpus) >= 4
        for D in corpus:
            G = Graph.of(D.n, D.arcs)
            assert D.underlying() == G
            assert hash(D.underlying()) == hash(G)
            for v in D.vertices():
                assert D.neighbors(v) == G.neighbors(v) == D._adjacency().get(v, frozenset())
                assert D.in_degree(v) + D.out_degree(v) == G.degree(v)

    def test_degrees(self, d1):
        assert d1.out_degrees() == (2, 1, 1, 0)
        assert d1.in_degree(2) == 2
        assert d1.neighbors(2) == frozenset({1, 3, 4})
        D = random_orientation(random.Random(11), n_min=6, n_max=9)
        for v in D.vertices():
            assert D.out_degree(v) == sum(1 for a in D.arcs if a[0] == v)
            assert D.in_degree(v) == sum(1 for a in D.arcs if a[1] == v)


def mcs_order_by_scan(D: Orientation) -> list[int]:
    """Maximum-cardinality search by rescanning every unplaced touched
    vertex at each step: most placed neighbours, then smallest label."""
    unplaced = {v for arc in D.arcs for v in arc}
    order: list[int] = []
    while unplaced:
        v = min(unplaced, key=lambda u: (-len(D.neighbors(u) & set(order)), u))
        order.append(v)
        unplaced.remove(v)
    return order


def relabelled_by_scan(D: Orientation) -> tuple[Orientation, dict[int, int]]:
    """(D', perm) from `mcs_order_by_scan`: the k-th vertex placed takes the
    k-th smallest touched label; untouched vertices are not in `perm`."""
    order = mcs_order_by_scan(D)
    perm = dict(zip(order, sorted(order)))
    return Orientation(D.n, frozenset((perm[v], perm[w]) for v, w in D.arcs)), perm


class TestFrontierRelabelling:
    def corpus(self, d1, d2, d3) -> list[Orientation]:
        rng = random.Random(101)
        corpus = [d1, d2, d3, gen_sun(2), gen_sun(3), gen_sun(4), interleaved_star(3, "mixed")]
        corpus += [random_orientation(rng, n_min=1, n_max=8) for _ in range(200)]
        return corpus

    def test_relabelled_d_is_d_under_a_bijection(self, d1, d2, d3):
        relabelled = 0
        for D in self.corpus(d1, d2, d3):
            D2 = D.frontier_relabelled()
            expected, perm = relabelled_by_scan(D)
            touched = {v for arc in D.arcs for v in arc}
            # a bijection of the touched vertices; every other vertex is fixed
            assert set(perm) == set(perm.values()) == touched
            assert D2 == expected and D2.n == D.n
            if all(perm[v] == v for v in perm):
                assert D2 is D
            else:
                relabelled += 1
            # cached: a second call hands back the same D'
            assert D.frontier_relabelled() is D2
        assert relabelled >= 100

    def test_identity_on_natural_labels(self):
        for n in (2, 3, 5, 17, 1200):
            path = Orientation(n, frozenset((i, i + 1) for i in range(1, n)))
            assert path.frontier_relabelled() is path
        for n in (3, 4, 9, 40):
            cycle = Orientation(n, frozenset((i, i % n + 1) for i in range(1, n + 1)))
            assert cycle.frontier_relabelled() is cycle
        # the layout tests' stars reach the engines with their own labels
        for k in (1, 2, 3, 4, 7, 8, 15, 16):
            for pattern in ("out", "in", "mixed"):
                D = interleaved_star(k, pattern)
                assert D.frontier_relabelled() is D

    def test_arcless_does_no_search(self):
        for n in (0, 3, 200_000_000):
            D = Orientation(n, frozenset())
            assert D.frontier_relabelled() is D
            assert D._adjacency() == {}

    def test_routes_equal_their_cores_on_d(self, d1, d2, d3):
        # the public routes run on D'; the cores on D as labelled
        for D in self.corpus(d1, d2, d3):
            assert count_ee_eo_wd(D) == _count(_wd_arc_plan(D))
            assert count_ee_eo_classic(D) == _count(_classical_plan(D))
            cap = dict(enumerate(D.out_degrees(), 1))
            splits = _additive_splits(D._adjacency(), D.sorted_arcs())
            assert additive_coefficient(D) == _coefficient(splits, cap)
            assert classical_coefficient(D) == _coefficient(_classical_splits(D), cap)

    def test_cache_makes_no_reference_cycle(self):
        # D in search order, or arcless, must not hold itself in its cache,
        # nor a relabelled D' hold D, or each would wait for the cyclic
        # collector to be freed
        gc.disable()
        try:
            for arcs in ([(1, 2), (2, 3)], [(3, 1), (1, 2)], [(1, 3), (3, 2)], []):
                D = Orientation(3, frozenset(arcs))
                D.frontier_relabelled()
                ref = weakref.ref(D)
                del D
                assert ref() is None
        finally:
            gc.enable()

    def test_pickle_and_deepcopy_after_the_engines(self, d1):
        # the engines leave their caches on D; D must still copy and pickle
        relabelled = Orientation(3, frozenset([(1, 3), (3, 2)]))
        assert relabelled.frontier_relabelled() is not relabelled
        for D in (d1, relabelled, Orientation(4, frozenset())):
            expected = (count_ee_eo_wd(D), additive_coefficient(D), classical_coefficient(D))
            for back in (pickle.loads(pickle.dumps(D)), copy.deepcopy(D)):
                assert back == D and hash(back) == hash(D)
                assert back.frontier_relabelled() == D.frontier_relabelled()
                assert (count_ee_eo_wd(back), additive_coefficient(back),
                        classical_coefficient(back)) == expected

    def test_same_order_for_arcs_given_in_any_order(self):
        rng = random.Random(103)
        for _ in range(50):
            D = random_orientation(rng, n_min=3, n_max=10)
            arcs = list(D.arcs)
            runs = []
            for _ in range(3):
                rng.shuffle(arcs)
                runs.append(Orientation(D.n, frozenset(arcs)).frontier_relabelled())
            assert all(run == runs[0] for run in runs)


class TestSymmetricDifference:
    def test_d1_arc_12(self, d1):
        direct, detour = symmetric_difference_neighborhoods(d1, 1, 2)
        assert direct == frozenset({2}) and detour == frozenset({4})

    def test_d1_arc_13(self, d1):
        direct, detour = symmetric_difference_neighborhoods(d1, 1, 3)
        assert direct == frozenset({3}) and detour == frozenset()

    def test_single_arc(self):
        D = Orientation(2, frozenset([(1, 2)]))
        assert symmetric_difference_neighborhoods(D, 1, 2) == (frozenset({2}), frozenset())

    def test_non_arc_rejected(self, d1):
        with pytest.raises(ValueError):
            symmetric_difference_neighborhoods(d1, 2, 1)

    def test_partition_property_random(self):
        rng = random.Random(7)
        for _ in range(50):
            D = random_orientation(rng, n_max=6)
            for v, w in D.arcs:
                direct, detour = symmetric_difference_neighborhoods(D, v, w)
                assert w in direct
                assert v not in direct and v not in detour
                assert direct | detour | {v} == D.neighbors(v) ^ D.neighbors(w)
                assert not direct & detour


class TestBipartite:
    def test_c4(self):
        part = is_bipartite(gen_cycle(4))
        assert part is not None
        assert set(part.classes) == {frozenset({1, 3}), frozenset({2, 4})}

    def test_c5(self):
        assert is_bipartite(gen_cycle(5)) is None

    def test_edgeless(self):
        part = is_bipartite(Graph.of(3, []))
        assert part is not None
        assert part.classes[0] == frozenset({1, 2, 3})
        assert part.classes[1] == frozenset()

    def test_matches_exhaustive_oracles(self):
        # two oracles: brute-force 2-colorings, and literal odd-cycle search
        rng = random.Random(11)
        import itertools

        from helpers import odd_cycle_vertex_sets

        for _ in range(40):
            n = rng.randint(1, 8)
            G = random_graph(rng, n, p=0.4)
            reference = any(
                all(colors[u - 1] != colors[v - 1] for u, v in G.edges)
                for colors in itertools.product((0, 1), repeat=n)
            )
            part = is_bipartite(G)
            assert (part is not None) == reference
            assert (part is not None) == (not odd_cycle_vertex_sets(G))
            if part is not None:
                assert part.covers(n)
                for cls in part.classes:
                    for u, v in G.edges:
                        assert not (u in cls and v in cls)


class TestSimplicial:
    def test_k3(self):
        assert simplicial_vertices(gen_complete(3)) == frozenset({1, 2, 3})

    def test_c4(self):
        assert simplicial_vertices(gen_cycle(4)) == frozenset()

    def test_sun_ears(self):
        G = gen_sun(3).underlying()
        assert simplicial_vertices(G) == frozenset(range(7, 13))

    def test_low_degree_vertices_qualify(self):
        G = Graph.of(3, [(1, 2)])  # isolated 3, leaves 1 and 2
        assert simplicial_vertices(G) == frozenset({1, 2, 3})

    def test_witness_pairs_random(self):
        rng = random.Random(13)
        for _ in range(30):
            G = random_graph(rng, rng.randint(1, 7))
            simp = simplicial_vertices(G)
            for v in G.vertices():
                nbrs = sorted(G.neighbors(v))
                witness = [
                    (a, b)
                    for i, a in enumerate(nbrs)
                    for b in nbrs[i + 1 :]
                    if not G.has_edge(a, b)
                ]
                assert (v in simp) == (not witness)


class TestGenerators:
    def test_sun3_figure(self):
        D = gen_sun(3)
        assert D.n == 12 and len(D.arcs) == 18
        cycle = {(i, i % 6 + 1) for i in range(1, 7)}
        ears = {(i, 6 + i) for i in range(1, 7)} | {(i % 6 + 1, 6 + i) for i in range(1, 7)}
        assert D.arcs == frozenset(cycle | ears)

    def test_sun_out_degrees(self):
        assert sorted(gen_sun(3).out_degrees()) == [0] * 6 + [3] * 6
        assert sorted(gen_sun(2).out_degrees()) == [0] * 4 + [3] * 4

    def test_sun2_size(self):
        D = gen_sun(2)
        assert D.n == 8 and len(D.arcs) == 12

    def test_sun_parameter_range(self):
        with pytest.raises(ValueError):
            gen_sun(1)

    def test_other_families(self):
        assert gen_cycle(4) == Graph.of(4, [(1, 2), (2, 3), (3, 4), (1, 4)])
        assert len(gen_complete(4).edges) == 6
        k23 = gen_complete_bipartite(2, 3)
        assert k23.n == 5 and len(k23.edges) == 6
        with pytest.raises(ValueError):
            gen_cycle(2)
        with pytest.raises(ValueError):
            gen_complete(0)
        with pytest.raises(ValueError):
            gen_complete_bipartite(0, 2)


class TestEnumerateOrientations:
    def test_k3_counts(self):
        orientations = list(enumerate_orientations(gen_complete(3)))
        assert len(orientations) == 8
        assert len(set(orientations)) == 8
        acyclic = sum(1 for D in orientations if is_acyclic(D.arcs))
        assert acyclic == 6

    def test_single_edge(self):
        assert len(list(enumerate_orientations(Graph.of(2, [(1, 2)])))) == 2

    def test_p3(self):
        assert len(list(enumerate_orientations(Graph.of(3, [(1, 2), (2, 3)])))) == 4

    def test_underlying_preserved(self):
        G = random_graph(random.Random(3), 5)
        for D in enumerate_orientations(G):
            assert D.underlying() == G

    def test_index_zero_is_low_to_high(self):
        G = Graph.of(3, [(1, 2), (1, 3)])
        assert orientation_from_index(G, 0).arcs == frozenset({(1, 2), (1, 3)})
        assert orientation_from_index(G, 3).arcs == frozenset({(2, 1), (3, 1)})

    def test_range_split_equivalence(self):
        G = gen_cycle(4)
        full = list(enumerate_orientations(G))
        split = list(enumerate_orientations(G, stop=5)) + list(
            enumerate_orientations(G, start=5)
        )
        assert full == split

    def test_bound(self):
        G = gen_complete(7)  # 21 edges
        with pytest.raises(BoundExceededError) as info:
            next(enumerate_orientations(G))
        # the library message names both knobs; the CLI reads the parts
        exc = info.value
        assert str(exc) == (
            "graph has 21 edges, above the orientation bound 20"
            " (raise WD_LAB_BOUND or the bound argument)"
        )
        assert (exc.reason, exc.env) == (
            "graph has 21 edges, above the orientation bound 20", "WD_LAB_BOUND"
        )
        back = pickle.loads(pickle.dumps(exc))
        assert (str(back), back.reason, back.env) == (str(exc), exc.reason, exc.env)
        assert sum(1 for _ in enumerate_orientations(gen_complete(3), bound=3)) == 8
        with pytest.raises(BoundExceededError):
            next(enumerate_orientations(gen_complete(3), bound=2))


K3 = gen_complete(3)
K3_ARC = Orientation(3, frozenset([(1, 2), (2, 3), (1, 3)]))
K3_LISTS = {v: [1, 2, 3] for v in K3.vertices()}
#: Every bound and index argument (the sweep's limit has its own tests):
#: its name, a call on a value and a value that call takes.
COUNT_ARGUMENTS = {
    "conjecture_sweep bound": ("bound", lambda x: conjecture_sweep(K3, x), 3),
    "count_ee_eo_wd bound": ("bound", lambda x: count_ee_eo_wd(K3_ARC, x), 3),
    "count_ee_eo_classic bound": ("bound", lambda x: count_ee_eo_classic(K3_ARC, x), 3),
    "find_additive_coloring bound": (
        "bound", lambda x: find_additive_coloring(K3, K3_LISTS, x), 100
    ),
    "enumerate_eulerian_spanning bound": (
        "bound", lambda x: list(enumerate_eulerian_spanning(K3_ARC, x)), 3
    ),
    "count_ee_eo_bruteforce bound": ("bound", lambda x: count_ee_eo_bruteforce(K3_ARC, x), 3),
    "orientation_from_index index": ("index", lambda x: orientation_from_index(K3, x), 7),
}


@pytest.mark.parametrize("case", COUNT_ARGUMENTS)
def test_count_arguments_are_checked_once(case):
    # a bool would run as 0 or 1, a float or a string would fail later
    # with a TypeError, and a negative value would read as a bound hit
    name, call, valid = COUNT_ARGUMENTS[case]
    for value in ("x", "1", 1.0, 2.5, True, False):
        with pytest.raises(ValueError, match=f"^{name} must be an integer, got {value!r}$"):
            call(value)
    with pytest.raises(ValueError, match=f"^{name} must be non-negative, got -1$"):
        call(-1)
    call(valid)
