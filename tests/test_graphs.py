from __future__ import annotations

import random

import pytest

from helpers import (
    enumerate_orientations,
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
    gen_complete,
    gen_complete_bipartite,
    gen_cycle,
    gen_sun,
    orientation_from_index,
    parse,
    simplicial_vertices,
    to_text,
)


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

    def test_round_trip(self, d1):
        g = Graph.of(4, [(2, 1), (3, 4)])
        assert parse(to_text(g)) == g
        assert parse(to_text(d1)) == d1


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
                assert D.neighbors(v) == G.neighbors(v)
                assert D.in_degree(v) + D.out_degree(v) == G.degree(v)

    def test_degrees(self, d1):
        assert d1.out_degrees() == (2, 1, 1, 0)
        assert d1.in_degree(2) == 2
        assert d1.neighbors(2) == frozenset({1, 3, 4})
        D = random_orientation(random.Random(11), n_min=6, n_max=9)
        for v in D.vertices():
            assert D.out_degree(v) == sum(1 for a in D.arcs if a[0] == v)
            assert D.in_degree(v) == sum(1 for a in D.arcs if a[1] == v)


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
        with pytest.raises(BoundExceededError):
            next(enumerate_orientations(G))
        assert sum(1 for _ in enumerate_orientations(gen_complete(3), bound=3)) == 8
        with pytest.raises(BoundExceededError):
            next(enumerate_orientations(gen_complete(3), bound=2))
