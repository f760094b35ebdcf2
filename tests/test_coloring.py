from __future__ import annotations

import itertools
import random
import time

import pytest

from helpers import (
    additive_colorings,
    enumerate_orientations,
    is_connected,
    nullstellensatz_coefficient,
    odd_cycle_vertex_sets,
    path_graph,
    random_graph,
    random_lists,
    random_orientation,
    sweep_by_orientation,
    tripartite_by_search,
)
from wdlab import (
    BoundExceededError,
    Graph,
    Orientation,
    VertexPartition,
    additive_coefficient,
    check_simplicial_sink_hypothesis,
    check_tripartite_hypothesis,
    conjecture_sweep,
    count_ee_eo_wd,
    find_additive_coloring,
    gen_complete,
    gen_complete_bipartite,
    gen_cycle,
    gen_sun,
    induced_sums,
    is_additive_coloring,
    orientation_from_index,
    simplicial_vertices,
)
from wdlab.coloring import _simplicial_sinks


def product_colorings(G, lists):
    """Every additive coloring from the lists, in the order of their product."""
    labelings = (
        dict(zip(G.vertices(), combo))
        for combo in itertools.product(*(lists[v] for v in G.vertices()))
    )
    return [ell for ell in labelings if is_additive_coloring(G, ell)]


def first_product_coloring(G, lists):
    """The first additive coloring in the product of the lists, or None."""
    return next(iter(product_colorings(G, lists)), None)


def disjoint_union(*parts):
    """The graphs side by side, the vertices of each part after the last."""
    n, edges = 0, []
    for part in parts:
        edges += [(u + n, v + n) for u, v in part.edges]
        n += part.n
    return Graph.of(n, edges)


class TestIsAdditiveColoring:
    def test_k3_distinct_sums(self):
        G = gen_complete(3)
        assert is_additive_coloring(G, {1: 1, 2: 2, 3: 3})
        assert induced_sums(G, {1: 1, 2: 2, 3: 3}) == {1: 5, 2: 4, 3: 3}

    def test_k3_constant_fails(self):
        assert not is_additive_coloring(gen_complete(3), {1: 1, 2: 1, 3: 1})

    def test_edgeless_vacuous(self):
        assert is_additive_coloring(Graph.of(3, []), {1: 7, 2: 7, 3: 7})

    def test_missing_label_rejected(self):
        with pytest.raises(ValueError, match="missing"):
            is_additive_coloring(gen_complete(3), {1: 1, 2: 2})


class TestFindAdditiveColoring:
    def test_path_example(self):
        G = path_graph(3)
        ell = find_additive_coloring(G, {1: [1, 2], 2: [1, 2], 3: [5]})
        assert ell == {1: 1, 2: 1, 3: 5}
        assert induced_sums(G, ell) == {1: 1, 2: 6, 3: 1}

    def test_k2_singleton_lists_absent(self):
        assert find_additive_coloring(gen_complete(2), {1: [1], 2: [1]}) is None

    def test_returned_labels_come_from_lists(self, d1):
        rng = random.Random(79)
        G = d1.underlying()
        for _ in range(50):
            lists = {
                v: sorted(rng.sample(range(1, 51), d1.out_degree(v) + 1))
                for v in G.vertices()
            }
            ell = find_additive_coloring(G, lists)
            assert ell is not None
            assert all(ell[v] in lists[v] for v in G.vertices())
            assert is_additive_coloring(G, ell)

    def test_agrees_with_exhaustive_scan(self):
        rng = random.Random(83)
        for _ in range(30):
            n = rng.randint(2, 4)
            G = random_graph(rng, n, p=0.6)
            lists = {v: sorted(rng.sample(range(1, 6), rng.randint(1, 2))) for v in G.vertices()}
            assert find_additive_coloring(G, lists) == first_product_coloring(G, lists)

    def test_validation(self):
        G = gen_complete(2)
        with pytest.raises(ValueError):
            find_additive_coloring(G, {1: [1]})
        with pytest.raises(ValueError):
            find_additive_coloring(G, {1: [1], 2: []})
        with pytest.raises(ValueError):
            find_additive_coloring(G, {1: [1], 2: [0]})
        with pytest.raises(ValueError):
            find_additive_coloring(G, {1: [1, "a"], 2: [3]})
        with pytest.raises(ValueError):
            find_additive_coloring(G, {1: [1], 2: [1], 3: [1]})

    def test_bound(self):
        # the bound caps nodes visited (values assigned); C17 with lists
        # {1, 2} has no coloring, and proving it visits 738 nodes
        G = gen_cycle(17)
        lists = {v: [1, 2] for v in G.vertices()}
        with pytest.raises(BoundExceededError, match="reached 738 nodes, above the node bound 737 "):
            find_additive_coloring(G, lists, bound=737)
        assert find_additive_coloring(G, lists, bound=738) is None

    @pytest.mark.parametrize("cap, nodes", [(0, 3602), (20, 3566), (100, 3380)])
    def test_memo_cap_counts_partial_sums(self, monkeypatch, cap, nodes):
        # without the memo the proof above visits 3,602 nodes; a cap counts
        # stored partial sums, not states, so a small one prunes little
        monkeypatch.setattr("wdlab.coloring._DEAD_SUMS_MAX", cap)
        G = gen_cycle(17)
        lists = {v: [1, 2] for v in G.vertices()}
        with pytest.raises(BoundExceededError, match=f"node bound {nodes - 1} "):
            find_additive_coloring(G, lists, bound=nodes - 1)
        assert find_additive_coloring(G, lists, bound=nodes) is None

    def test_dead_state_memo(self, monkeypatch):
        # a memo that fills up part way still prunes only dead branches
        rng = random.Random(97)
        for cap in (0, 5, 40):
            monkeypatch.setattr("wdlab.coloring._DEAD_SUMS_MAX", cap)
            for _ in range(20):
                G = random_graph(rng, rng.randint(5, 9), p=0.4)
                lists = {v: sorted(rng.sample(range(1, 5), rng.randint(1, 2))) for v in G.vertices()}
                assert find_additive_coloring(G, lists) == first_product_coloring(G, lists)

    def test_memo_key_at_every_frontier_size(self):
        # P3 then C5 on 4..8: the frontiers after steps 1..7 have 1, 3, 0,
        # 2, 4, 5 and 5 vertices, and the proof that {1, 2} has no coloring
        # records dead states at each of those sizes
        C5 = gen_cycle(5)
        G = disjoint_union(path_graph(3), C5)
        lists = {v: [1, 2] for v in G.vertices()}
        with pytest.raises(BoundExceededError, match="reached 64 nodes, above the node bound 63 "):
            find_additive_coloring(G, lists, bound=63)
        assert find_additive_coloring(G, lists, bound=64) is None
        # an isolated vertex between K2 and C5
        G = disjoint_union(gen_complete(2), Graph.of(1, []), C5)
        with pytest.raises(BoundExceededError, match="reached 58 nodes, above the node bound 57 "):
            find_additive_coloring(G, lists, bound=57)
        assert find_additive_coloring(G, lists, bound=58) is None

    def test_disjoint_unions_match_the_product_scan(self):
        rng = random.Random(101)
        pieces = [gen_complete(2), Graph.of(1, []), path_graph(3), gen_cycle(3), gen_cycle(5)]
        for _ in range(15):
            G = disjoint_union(*rng.choices(pieces, k=rng.randint(2, 4)))
            lists = {v: sorted(rng.sample(range(1, 5), rng.randint(1, 2))) for v in G.vertices()}
            assert find_additive_coloring(G, lists) == first_product_coloring(G, lists)

    def test_cycle_with_a_bad_early_label(self, monkeypatch):
        # s(1) = 7 + 13 = s(2) when labels 1 and 3 are 4 and 16; the closing
        # edge 1-2 is read only at vertex 40, so without the memo every
        # labeling of 4..39 is tried first
        G = gen_cycle(40)
        rng = random.Random(40)
        lists = {v: sorted(rng.sample(range(1, 51), 2)) for v in G.vertices()}
        lists.update({1: [4, 7], 2: [7], 3: [16, 30], 40: [13]})
        # the answer takes 592 nodes, the dead states found on the way included
        with pytest.raises(BoundExceededError, match="reached 592 nodes, above the node bound 591 "):
            find_additive_coloring(G, lists, bound=591)
        ell = find_additive_coloring(G, lists, bound=592)
        assert ell is not None and is_additive_coloring(G, ell)
        assert (ell[1], ell[3]) == (4, 30)
        monkeypatch.setattr("wdlab.coloring._DEAD_SUMS_MAX", 0)
        with pytest.raises(BoundExceededError):
            find_additive_coloring(G, lists, bound=100_000)

    def test_long_path_needs_no_recursion(self):
        G = path_graph(3000)
        ell = find_additive_coloring(G, {v: [1, 2] for v in G.vertices()})
        assert ell is not None and is_additive_coloring(G, ell)

    def test_empty_graph(self):
        assert find_additive_coloring(Graph.of(0, []), {}) == {}


class TestNullstellensatzOracle:
    """The quantitative Nullstellensatz sum over every additive coloring
    from the lists equals the additive coefficient."""

    def test_colorings_match_the_product_scan(self):
        # the oracle's own enumerator, against the scan of the list product
        rng = random.Random(103)
        for _ in range(40):
            G = random_graph(rng, rng.randint(1, 7), p=0.5)
            lists = {v: sorted(rng.sample(range(1, 6), rng.randint(1, 3))) for v in G.vertices()}
            assert list(additive_colorings(G, lists)) == product_colorings(G, lists)

    def test_seeded_orientations(self):
        rng = random.Random(2718)
        nonzero = 0
        for _ in range(200):
            D = random_orientation(rng, n_min=1, n_max=8, arc_cap=14)
            coef = additive_coefficient(D)
            assert nullstellensatz_coefficient(D, random_lists(rng, D, hi=10)) == coef
            nonzero += coef != 0
        assert 0 < nonzero < 200

    def test_dense_g14(self):
        rng = random.Random("wd:g14:a")
        arcs = [(u, v) if rng.random() < 0.5 else (v, u)
                for u in range(1, 15) for v in range(u + 1, 15) if rng.random() < 0.3]
        D = Orientation(14, frozenset(arcs))
        assert len(arcs) == 26
        lists = {v: list(range(1, D.out_degree(v) + 2)) for v in D.vertices()}
        assert nullstellensatz_coefficient(D, lists) == additive_coefficient(D)

    def test_list_sizes_checked(self, d1):
        lists = {v: [1, 2] for v in d1.vertices()}
        with pytest.raises(ValueError, match="out-degree"):
            nullstellensatz_coefficient(d1, lists)


class TestSimplicialSinkHypothesis:
    def test_sun_orientations_pass(self):
        for k in (2, 3):
            D = gen_sun(k)
            assert check_simplicial_sink_hypothesis(D.underlying(), D)

    def test_k4_never_passes(self):
        G = gen_complete(4)
        for D in enumerate_orientations(G):
            assert not check_simplicial_sink_hypothesis(G, D)

    def test_bipartite_always_passes(self):
        rng = random.Random(89)
        for G in (gen_cycle(4), gen_cycle(6), gen_complete_bipartite(2, 3)):
            for _ in range(5):
                D = next(
                    enumerate_orientations(G, start=rng.randrange(1 << len(G.edges)))
                )
                assert check_simplicial_sink_hypothesis(G, D)

    def test_wrong_graph_rejected(self, d1):
        with pytest.raises(ValueError):
            check_simplicial_sink_hypothesis(gen_complete(4), d1)

    def test_matches_direct_odd_cycle_definition(self):
        rng = random.Random(97)
        for _ in range(40):
            n = rng.randint(3, 8)
            G = random_graph(rng, n, p=0.4)
            D = next(enumerate_orientations(G, start=rng.randrange(1 << len(G.edges))))
            sinks = {
                u for u in simplicial_vertices(G) if D.out_degree(u) == 0
            }
            reference = all(cycle & sinks for cycle in odd_cycle_vertex_sets(G))
            assert check_simplicial_sink_hypothesis(G, D) == reference

    def test_sinks_checked_for_simpliciality_alone(self):
        rng = random.Random(103)
        edgeless, k5 = Graph(6, frozenset()), gen_complete(5)
        graphs = [Graph(0, frozenset()), edgeless, k5]
        graphs += [random_graph(rng, rng.randint(1, 9), rng.random()) for _ in range(200)]
        for G in graphs:
            D = orientation_from_index(G, rng.randrange(1 << len(G.edges)))
            expected = {u for u in simplicial_vertices(G) if D.out_degree(u) == 0 and G.degree(u)}
            assert _simplicial_sinks(G, D) == expected
        # an isolated vertex is a simplicial sink on no cycle, so it is left out
        assert _simplicial_sinks(edgeless, Orientation(6, frozenset())) == set()
        # the transitive tournament's only sink is its last vertex
        assert _simplicial_sinks(k5, orientation_from_index(k5, 0)) == {5}

    def test_mechanism_forces_eo_zero(self):
        # hypothesis true -> no odd Eulerian subdigraph in the sector digraph
        for k in (2, 3):
            D = gen_sun(k)
            assert count_ee_eo_wd(D).eo == 0
        rng = random.Random(101)
        checked = 0
        while checked < 25:
            G = random_graph(rng, rng.randint(2, 5), p=0.5)
            D = next(enumerate_orientations(G, start=rng.randrange(1 << len(G.edges))))
            if check_simplicial_sink_hypothesis(G, D):
                assert count_ee_eo_wd(D).eo == 0
                checked += 1


class TestTripartiteHypothesis:
    def test_sun_with_explicit_partition(self):
        D = gen_sun(3)
        G = D.underlying()
        partition = VertexPartition(
            (
                frozenset(range(7, 13)),
                frozenset({1, 3, 5}),
                frozenset({2, 4, 6}),
            )
        )
        assert check_tripartite_hypothesis(G, D, partition)

    def test_sun_search_without_partition(self):
        D = gen_sun(2)
        assert check_tripartite_hypothesis(D.underlying(), D)

    def test_isolated_vertex_is_a_sink_class(self):
        # the directed 4-cycle has no sink, but the isolated vertex 5 is a
        # simplicial sink, found both with and without a partition
        D = Orientation(5, frozenset([(1, 2), (2, 3), (3, 4), (4, 1)]))
        G = D.underlying()
        assert check_tripartite_hypothesis(G, D)
        partition = VertexPartition((frozenset({1, 3}), frozenset({2, 4}), frozenset({5})))
        assert check_tripartite_hypothesis(G, D, partition)
        no_isolated = Orientation(4, D.arcs)
        assert not check_tripartite_hypothesis(no_isolated.underlying(), no_isolated)

    def test_k4_fails(self):
        G = gen_complete(4)
        for D in enumerate_orientations(G):
            assert not check_tripartite_hypothesis(G, D)

    def test_c6_fails_despite_bipartite(self):
        G = gen_cycle(6)
        for D in itertools.islice(enumerate_orientations(G), 8):
            assert not check_tripartite_hypothesis(G, D)

    def test_improper_partition_rejected(self):
        D = Orientation(3, frozenset([(1, 2), (2, 3), (3, 1)]))
        G = D.underlying()
        bad = VertexPartition((frozenset({1, 2}), frozenset({3}), frozenset()))
        with pytest.raises(ValueError, match="proper"):
            check_tripartite_hypothesis(G, D, bad)

    def test_wrong_class_count_rejected(self):
        D = Orientation(4, frozenset([(1, 2)]))
        G = D.underlying()
        four = VertexPartition(tuple(frozenset({v}) for v in range(1, 5)))
        with pytest.raises(ValueError):
            check_tripartite_hypothesis(G, D, four)
        not_covering = VertexPartition((frozenset({1}), frozenset({2}), frozenset()))
        with pytest.raises(ValueError):
            check_tripartite_hypothesis(G, D, not_covering)

    def test_no_vertex_cap(self):
        G = Graph.of(13, [])
        assert check_tripartite_hypothesis(G, Orientation(13, frozenset()))
        D = gen_sun(4)
        assert D.n == 16
        assert check_tripartite_hypothesis(D.underlying(), D)

    def test_matches_search_oracle(self):
        rng = random.Random(103)
        answers = []
        for _ in range(150):
            G = random_graph(rng, rng.randint(1, 7), p=rng.choice((0.3, 0.5)))
            D = next(enumerate_orientations(G, start=rng.randrange(1 << len(G.edges))))
            answers.append(check_tripartite_hypothesis(G, D))
            assert answers[-1] == tripartite_by_search(G, D)
        assert 0 < sum(answers) < len(answers)


class TestBipartiteMechanism:
    def test_eo_zero_for_all_small_bipartite(self):
        for G in (gen_cycle(4), gen_complete_bipartite(2, 2)):
            for D in enumerate_orientations(G):
                count = count_ee_eo_wd(D)
                assert count.eo == 0
                assert additive_coefficient(D) == count.ee >= 1


class TestConjectureSweep:
    def test_k3(self):
        report = conjecture_sweep(gen_complete(3))
        assert report.has_witness
        assert report.examined == 8
        assert report.histogram == {0: 2, 1: 6}
        assert report.zero_count == 2
        assert additive_coefficient(report.witness) != 0
        assert report.witness_coefficient == additive_coefficient(report.witness)

    def test_single_edge(self):
        report = conjecture_sweep(gen_complete(2))
        assert report.examined == 2
        assert report.witness_index == 0
        assert report.histogram == {1: 2}
        assert report.zero_count == 0

    def test_limit(self):
        report = conjecture_sweep(gen_complete(3), limit=3)
        assert report.examined == 3
        assert sum(report.histogram.values()) == 3
        empty = conjecture_sweep(gen_complete(3), limit=0)
        assert empty.examined == 0 and not empty.has_witness
        assert empty.witness is None and empty.witness_coefficient is None
        with pytest.raises(ValueError, match="non-negative"):
            conjecture_sweep(gen_complete(3), limit=-5)

    def test_bound(self):
        with pytest.raises(BoundExceededError):
            conjecture_sweep(gen_complete(7))
        with pytest.raises(BoundExceededError):
            conjecture_sweep(gen_complete(7), limit=0)
        with pytest.raises(BoundExceededError):
            conjecture_sweep(gen_complete(3), bound=2, limit=0)

    @staticmethod
    def assert_same_report(report, oracle):
        assert report.examined == oracle.examined
        assert report.histogram == oracle.histogram
        assert list(report.histogram) == list(oracle.histogram)
        assert report.zero_count == oracle.zero_count
        assert report.witness_index == oracle.witness_index
        assert report.witness == oracle.witness
        assert report.witness_coefficient == oracle.witness_coefficient

    def test_matches_per_orientation_oracle(self):
        rng = random.Random(89)
        checked = 0
        while checked < 25:
            n = rng.randint(1, 6)
            G = random_graph(rng, n, p=0.4)
            if not is_connected(n, G.edges) or len(G.edges) > 8:
                continue
            checked += 1
            self.assert_same_report(conjecture_sweep(G), sweep_by_orientation(G))

    @staticmethod
    def disconnected_graphs():
        rng = random.Random(97)
        graphs = [Graph(0, frozenset()), Graph.of(3, []), Graph.of(6, [(1, 2), (2, 3), (5, 6)])]
        while len(graphs) < 25:
            n = rng.randint(2, 7)
            G = random_graph(rng, n, p=rng.choice((0.2, 0.35)))
            if not is_connected(n, G.edges) and len(G.edges) <= 8:
                graphs.append(G)
        return graphs

    def test_disconnected_graphs_match_oracle(self):
        # an isolated vertex has cap 0, so it owns no field of the packed key
        graphs = self.disconnected_graphs()
        assert sum(any(G.degree(v) == 0 for v in G.vertices()) for G in graphs) >= 10
        for G in graphs:
            self.assert_same_report(conjecture_sweep(G), sweep_by_orientation(G))
        G = graphs[2]
        for limit in range((1 << len(G.edges)) + 1):
            self.assert_same_report(
                conjecture_sweep(G, limit=limit), sweep_by_orientation(G, limit=limit))

    def test_expansion_corpus_matches_oracle(self):
        # the sweep's coefficients, read off one expansion of P_G, against
        # one independent coefficient per orientation. A graph past 9 edges
        # is checked on its first 512 orientations, which keeps the oracle
        # near 1 s
        rng = random.Random(101)
        graphs = self.disconnected_graphs()
        while len(graphs) < 75:
            n = rng.randint(4, 8)
            G = random_graph(rng, n, p=rng.choice((0.3, 0.5)))
            if len(G.edges) <= 14:
                graphs.append(G)
        assert sum(len(G.edges) > 9 for G in graphs) >= 5
        for G in graphs:
            limit = None if len(G.edges) <= 9 else 512
            self.assert_same_report(
                conjecture_sweep(G, limit=limit), sweep_by_orientation(G, limit=limit))

    def test_isolated_vertices_cost_nothing(self):
        # no per-vertex table: a million-vertex header answers as the
        # compact graph does, at once
        edges = [(1, 2), (2, 3), (3, 1), (3, 4), (4, 5)]
        compact = conjecture_sweep(Graph.of(5, edges))
        start = time.monotonic()
        huge = conjecture_sweep(Graph.of(10**6, edges))
        assert time.monotonic() - start < 0.1
        assert huge.histogram == compact.histogram
        assert huge.witness_index == compact.witness_index == 0
        assert huge.witness_coefficient == compact.witness_coefficient
        assert huge.witness.arcs == compact.witness.arcs

    @pytest.mark.parametrize("limit", [True, False, 1.5, 2.0, "3"])
    def test_limit_must_be_an_integer(self, limit):
        # a bool would come back as `examined`, a float would fail in range()
        with pytest.raises(ValueError, match="limit must be an integer"):
            conjecture_sweep(gen_complete(3), limit=limit)

    @pytest.mark.parametrize("G", [gen_cycle(5), gen_complete_bipartite(2, 2)], ids=["c5", "k22"])
    def test_every_limit_matches_oracle(self, G):
        for limit in range((1 << len(G.edges)) + 1):
            self.assert_same_report(
                conjecture_sweep(G, limit=limit), sweep_by_orientation(G, limit=limit))

    def test_k34(self):
        # 13 s with one expansion per orientation
        G = gen_complete_bipartite(3, 4)
        start = time.monotonic()
        report = conjecture_sweep(G)
        assert time.monotonic() - start < 10
        assert report.examined == 4096
        assert sum(report.histogram.values()) == 4096
        assert report.zero_count == 0
        assert report.witness_index == 0
        assert report.witness_coefficient == additive_coefficient(report.witness)
