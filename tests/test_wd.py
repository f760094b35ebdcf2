from __future__ import annotations

import copy
import itertools
import pickle
import random

import pytest

from helpers import (
    all_gamma_paths,
    build_wd_from_paths,
    decompose_into_gamma_paths,
    gamma_path,
    random_graph,
    random_orientation,
    symmetric_difference_neighborhoods,
)
from wdlab import (
    Orientation,
    SectorX,
    SectorY,
    Star,
    build_wd,
    gamma_paths_for_arc,
    gen_sun,
    parse,
    to_text,
)
from wdlab.wd import wd_size


def star_out_degree(wd, x: int) -> int:
    return sum(1 for a in wd.arcs if a[0] == Star(x))


def sector(D, arc):
    """(vertices, arcs) of the sector of `arc`: the inner edges of its
    gamma-paths, without their star arcs, and the endpoints of those."""
    arcs = frozenset(e for p in gamma_paths_for_arc(D, arc) for e in p.edges[1:-1])
    return frozenset(u for e in arcs for u in e), arcs


def oracle_corpus(d1, d2, d3) -> list[Orientation]:
    """d1-d3, suns, directed and randomly oriented paths and cycles up to
    120 vertices, 200 seeded G(n, p) orientations and the arcless ones."""
    rng = random.Random(23)
    corpus = [d1, d2, d3, gen_sun(3), gen_sun(4)]
    corpus += [Orientation(0, frozenset()), Orientation(3, frozenset())]

    def orient(n, edges):
        return Orientation(n, frozenset(e if rng.random() < 0.5 else e[::-1] for e in edges))

    for n in (2, 3, 7, 20, 44, 81, 120):
        path = [(i, i + 1) for i in range(1, n)]
        corpus += [Orientation(n, frozenset(path)), orient(n, path)]
        if n >= 3:
            cycle = path + [(n, 1)]
            corpus += [Orientation(n, frozenset(cycle)), orient(n, cycle)]
    for _ in range(200):
        n = rng.randint(1, 10)
        corpus.append(orient(n, sorted(random_graph(rng, n, rng.choice((0.2, 0.5, 0.8))).edges)))
    return corpus


# each vertex type with its field tuple
VERTICES = [
    (Star(4), (4,)),
    (SectorX((1, 2), 4), ((1, 2), 4)),
    (SectorY((1, 2), 4), ((1, 2), 4)),
]
TYPE_NAMES = ["Star", "SectorX", "SectorY"]


class TestVertexTypes:
    @pytest.mark.parametrize(
        "a, b",
        itertools.permutations([v for v, _ in VERTICES], 2),
        ids=lambda v: type(v).__name__,
    )
    def test_types_never_equal(self, a, b):
        assert not a == b
        assert a != b

    @pytest.mark.parametrize("v, fields", VERTICES, ids=TYPE_NAMES)
    def test_never_equal_to_the_field_tuple(self, v, fields):
        for a, b in ((v, fields), (fields, v)):
            assert not a == b
            assert a != b

    @pytest.mark.parametrize("v, fields", VERTICES, ids=TYPE_NAMES)
    def test_equal_to_a_fresh_copy_and_hashed_as_the_field_tuple(self, v, fields):
        fresh = type(v)(*fields)
        assert fresh is not v
        assert fresh == v and not fresh != v
        assert hash(v) == hash(fields) == hash(fresh)

    @pytest.mark.parametrize(
        "v, rep, text",
        [
            (Star(4), "Star(x=4)", "4*"),
            (SectorX((1, 2), 4), "SectorX(arc=(1, 2), x=4)", "4^{1>2}"),
            (SectorY((1, 2), 4), "SectorY(arc=(1, 2), x=4)", "y^{1>2}_4"),
        ],
        ids=TYPE_NAMES,
    )
    def test_repr_and_str(self, v, rep, text):
        assert repr(v) == rep
        assert str(v) == text

    @pytest.mark.parametrize("v, fields", VERTICES, ids=TYPE_NAMES)
    def test_immutable(self, v, fields):
        with pytest.raises(AttributeError):
            v.x = 5
        with pytest.raises(AttributeError):
            v.label = "new"
        assert v == type(v)(*fields)

    @pytest.mark.parametrize("v, fields", VERTICES, ids=TYPE_NAMES)
    def test_pickle_and_deepcopy_round_trip(self, v, fields):
        for back in (pickle.loads(pickle.dumps(v)), copy.deepcopy(v)):
            assert type(back) is type(v)
            assert back == v and hash(back) == hash(fields)


class TestBuildSector:
    def test_d1_sector_12(self, d1):
        vertices, arcs = sector(d1, (1, 2))
        a = (1, 2)
        assert vertices == frozenset(
            {SectorX(a, 1), SectorX(a, 2), SectorX(a, 4), SectorY(a, 4)}
        )
        assert arcs == frozenset(
            {
                (SectorX(a, 1), SectorX(a, 2)),
                (SectorX(a, 1), SectorY(a, 4)),
                (SectorY(a, 4), SectorX(a, 4)),
            }
        )

    def test_d1_sector_24(self, d1):
        vertices, arcs = sector(d1, (2, 4))
        a = (2, 4)
        assert vertices == frozenset(SectorX(a, x) for x in (1, 2, 3, 4))
        assert arcs == frozenset(
            (SectorX(a, 2), SectorX(a, x)) for x in (1, 3, 4)
        )

    def test_single_arc(self):
        D = Orientation(2, frozenset([(1, 2)]))
        vertices, arcs = sector(D, (1, 2))
        a = (1, 2)
        assert vertices == frozenset({SectorX(a, 1), SectorX(a, 2)})
        assert arcs == frozenset({(SectorX(a, 1), SectorX(a, 2))})

    def test_non_arc_rejected(self, d1):
        with pytest.raises(ValueError):
            gamma_paths_for_arc(d1, (2, 1))


class TestBuildWd:
    def test_d1_exact_figure(self, d1):
        wd = build_wd(d1)
        assert len(wd.vertices) == 18 and len(wd.arcs) == 22
        a12, a13, a24, a32 = (1, 2), (1, 3), (2, 4), (3, 2)
        expected = {
            (SectorX(a12, 1), SectorX(a12, 2)),
            (SectorX(a12, 1), SectorY(a12, 4)),
            (SectorY(a12, 4), SectorX(a12, 4)),
            (SectorX(a13, 1), SectorX(a13, 3)),
            (SectorX(a24, 2), SectorX(a24, 1)),
            (SectorX(a24, 2), SectorX(a24, 3)),
            (SectorX(a24, 2), SectorX(a24, 4)),
            (SectorX(a32, 3), SectorX(a32, 2)),
            (SectorX(a32, 3), SectorY(a32, 4)),
            (SectorY(a32, 4), SectorX(a32, 4)),
            (Star(1), SectorX(a12, 1)),
            (Star(1), SectorX(a13, 1)),
            (Star(2), SectorX(a24, 2)),
            (Star(3), SectorX(a32, 3)),
            (SectorX(a12, 2), Star(2)),
            (SectorX(a12, 4), Star(4)),
            (SectorX(a13, 3), Star(3)),
            (SectorX(a24, 1), Star(1)),
            (SectorX(a24, 3), Star(3)),
            (SectorX(a24, 4), Star(4)),
            (SectorX(a32, 2), Star(2)),
            (SectorX(a32, 4), Star(4)),
        }
        assert wd.arcs == frozenset(expected)

    def test_d2_d3_sizes(self, d2, d3):
        wd2, wd3 = build_wd(d2), build_wd(d3)
        assert (len(wd2.vertices), len(wd2.arcs)) == (20, 25)
        assert (len(wd3.vertices), len(wd3.arcs)) == (24, 32)

    def test_d2_exact_figure(self, d2):
        rendered = {f"{a} -> {b}" for a, b in build_wd(d2).arcs}
        assert rendered == {
            "2^{2>1} -> y^{2>1}_4", "y^{2>1}_4 -> 4^{2>1}", "2^{2>1} -> 1^{2>1}",
            "1^{1>3} -> 3^{1>3}",
            "4^{4>1} -> 1^{4>1}", "4^{4>1} -> y^{4>1}_2", "y^{4>1}_2 -> 2^{4>1}",
            "3^{3>4} -> 4^{3>4}", "3^{3>4} -> 2^{3>4}",
            "3^{3>2} -> 4^{3>2}", "3^{3>2} -> 2^{3>2}",
            "1* -> 1^{1>3}", "2* -> 2^{2>1}", "3* -> 3^{3>4}", "3* -> 3^{3>2}",
            "4* -> 4^{4>1}",
            "4^{3>4} -> 4*", "2^{3>4} -> 2*", "2^{4>1} -> 2*", "3^{1>3} -> 3*",
            "1^{2>1} -> 1*", "4^{2>1} -> 4*", "2^{3>2} -> 2*", "4^{3>2} -> 4*",
            "1^{4>1} -> 1*",
        }

    def test_d3_exact_figure(self, d3):
        rendered = {f"{a} -> {b}" for a, b in build_wd(d3).arcs}
        assert rendered == {
            "2^{2>1} -> y^{2>1}_4", "y^{2>1}_4 -> 4^{2>1}",
            "2^{2>1} -> 1^{2>1}", "2^{2>1} -> 3^{2>1}",
            "4^{4>1} -> 1^{4>1}", "4^{4>1} -> y^{4>1}_2",
            "4^{4>1} -> 3^{4>1}", "y^{4>1}_2 -> 2^{4>1}",
            "3^{3>4} -> 2^{3>4}", "3^{3>4} -> 4^{3>4}",
            "3^{3>4} -> y^{3>4}_1", "y^{3>4}_1 -> 1^{3>4}",
            "3^{3>2} -> 4^{3>2}", "3^{3>2} -> 2^{3>2}",
            "3^{3>2} -> y^{3>2}_1", "y^{3>2}_1 -> 1^{3>2}",
            "2* -> 2^{2>1}", "3* -> 3^{3>4}", "3* -> 3^{3>2}", "4* -> 4^{4>1}",
            "4^{3>4} -> 4*", "2^{3>4} -> 2*", "2^{4>1} -> 2*", "1^{2>1} -> 1*",
            "4^{2>1} -> 4*", "2^{3>2} -> 2*", "4^{3>2} -> 4*", "1^{4>1} -> 1*",
            "3^{2>1} -> 3*", "3^{4>1} -> 3*", "1^{3>2} -> 1*", "1^{3>4} -> 1*",
        }

    def test_d3_every_sector_has_one_detour(self, d3):
        expected_y = {(2, 1): 4, (4, 1): 2, (3, 2): 1, (3, 4): 1}
        assert set(d3.arcs) == set(expected_y)
        for arc in d3.sorted_arcs():
            vertices, _ = sector(d3, arc)
            ys = [v for v in vertices if isinstance(v, SectorY)]
            assert len(ys) == 1
            assert ys[0].x == expected_y[arc]

    def test_arcless(self):
        D = Orientation(3, frozenset())
        wd = build_wd(D)
        assert wd.vertices == frozenset({Star(1), Star(2), Star(3)})
        assert wd.arcs == frozenset()
        assert all_gamma_paths(D) == []

    def test_sectors_vertex_disjoint(self, d1, d2, d3):
        for D in (d1, d2, d3):
            wd = build_wd(D)
            sectors = [sector(D, arc)[0] for arc in D.sorted_arcs()]
            for s, t in itertools.combinations(sectors, 2):
                assert not s & t
            non_star = {v for v in wd.vertices if not isinstance(v, Star)}
            assert non_star == set().union(*sectors)

    def test_degree_structure(self, d1, d2, d3):
        rng = random.Random(5)
        digraphs = [d1, d2, d3] + [random_orientation(rng) for _ in range(20)]
        for D in digraphs:
            wd = build_wd(D)
            indeg = {v: 0 for v in wd.vertices}
            for _, b in wd.arcs:
                indeg[b] += 1
            for v in wd.vertices:
                if isinstance(v, Star):
                    assert star_out_degree(wd, v.x) == D.out_degree(v.x)
                else:
                    assert indeg[v] <= 1
            for arc in D.sorted_arcs():
                root = SectorX(arc, arc[0])
                assert indeg[root] == 1

    def test_size_formulas(self, d1, d2, d3):
        rng = random.Random(9)
        corpus = oracle_corpus(d1, d2, d3) + [random_orientation(rng) for _ in range(20)]
        for D in corpus:
            wd = build_wd(D)
            v_total, e_total = D.n, 0
            for v, w in D.arcs:
                direct, detour = symmetric_difference_neighborhoods(D, v, w)
                v_total += len(direct) + len(detour) + 1 + len(detour)
                e_total += 2 * len(direct) + 3 * len(detour) + 1
            assert len(wd.vertices) == v_total
            assert len(wd.arcs) == e_total
            assert wd_size(D) == (v_total, e_total)

    def test_matches_union_of_paths(self, d1, d2, d3):
        corpus = oracle_corpus(d1, d2, d3)
        # some G(n, p) orientations have arcs and an isolated vertex
        assert any(D.arcs and any(not D.neighbors(v) for v in D.vertices()) for D in corpus)
        # parse and the frontier relabelling build their orientations
        # without the constructor's checks; W(D) of those must match too
        relabelled = [D.frontier_relabelled() for D in corpus]
        assert sum(R is not D for R, D in zip(relabelled, corpus)) > 100
        # (a file with no arcs parses as an edgeless Graph)
        parsed = [parse(to_text(D)) for D in corpus if D.arcs]
        for D in corpus + parsed + relabelled:
            wd, oracle = build_wd(D), build_wd_from_paths(D)
            assert wd.source == D
            assert wd.vertices == oracle.vertices
            assert wd.arcs == oracle.arcs


class TestGammaPaths:
    def test_detour_path(self, d1):
        p = gamma_path(d1, (1, 2), 4)
        a = (1, 2)
        assert p.length == 4 and not p.is_odd
        assert p.edges == (
            (Star(1), SectorX(a, 1)),
            (SectorX(a, 1), SectorY(a, 4)),
            (SectorY(a, 4), SectorX(a, 4)),
            (SectorX(a, 4), Star(4)),
        )

    def test_direct_path(self, d1):
        p = gamma_path(d1, (1, 2), 2)
        a = (1, 2)
        assert p.length == 3 and p.is_odd
        assert p.edges == (
            (Star(1), SectorX(a, 1)),
            (SectorX(a, 1), SectorX(a, 2)),
            (SectorX(a, 2), Star(2)),
        )

    def test_source_is_not_a_target(self, d1):
        with pytest.raises(ValueError):
            gamma_path(d1, (1, 3), 1)

    def test_outside_target_rejected(self, d1):
        with pytest.raises(ValueError):
            gamma_path(d1, (1, 3), 4)

    def test_fan_for_arc(self, d1):
        paths = gamma_paths_for_arc(d1, (2, 4))
        assert [p.target for p in paths] == [1, 3, 4]
        assert all(p.length == 3 for p in paths)
        paths12 = gamma_paths_for_arc(d1, (1, 2))
        assert [(p.target, p.length) for p in paths12] == [(2, 3), (4, 4)]

    def test_single_arc_fan(self):
        D = Orientation(2, frozenset([(1, 2)]))
        paths = gamma_paths_for_arc(D, (1, 2))
        assert len(paths) == 1 and paths[0].target == 2

    def test_target_count_identity(self, d1, d2, d3):
        for D in (d1, d2, d3):
            for arc in D.sorted_arcs():
                v, w = arc
                count = len(gamma_paths_for_arc(D, arc))
                assert count == len(D.neighbors(v) ^ D.neighbors(w)) - 1

    def test_parity_rule(self, d1, d2, d3):
        for D in (d1, d2, d3):
            for arc in D.sorted_arcs():
                direct, _ = symmetric_difference_neighborhoods(D, *arc)
                for p in gamma_paths_for_arc(D, arc):
                    assert p.is_odd == (p.target in direct)

    def test_edge_disjoint_iff_different_arcs(self, d1, d2, d3):
        for D in (d1, d2, d3):
            paths = all_gamma_paths(D)
            for p, q in itertools.combinations(paths, 2):
                shared = set(p.edges) & set(q.edges)
                if p.arc == q.arc:
                    # same-sector paths share exactly the star entry edge
                    v = p.arc[0]
                    assert shared == {(Star(v), SectorX(p.arc, v))}
                else:
                    assert not shared

    def test_paths_cover_all_arcs(self, d1, d2, d3):
        rng = random.Random(17)
        for D in [d1, d2, d3] + [random_orientation(rng) for _ in range(10)]:
            wd = build_wd(D)
            covered = set()
            for p in all_gamma_paths(D):
                assert set(p.edges) <= wd.arcs
                covered |= set(p.edges)
            assert covered == set(wd.arcs)


class TestDecompose:
    def test_empty(self, d1):
        assert decompose_into_gamma_paths(build_wd(d1), frozenset()) == []

    def test_single_path(self, d1):
        wd = build_wd(d1)
        p = gamma_path(d1, (1, 2), 4)
        out = decompose_into_gamma_paths(wd, frozenset(p.edges))
        assert out == [p]

    def test_two_paths(self, d1):
        wd = build_wd(d1)
        p = gamma_path(d1, (1, 2), 4)
        q = gamma_path(d1, (2, 4), 1)
        out = decompose_into_gamma_paths(wd, frozenset(p.edges) | frozenset(q.edges))
        assert out == sorted([p, q], key=lambda g: (g.arc, g.target))

    def test_two_paths_of_one_sector_fail(self, d1):
        # both paths use the sector's star entry edge, so they are not disjoint
        wd = build_wd(d1)
        p = gamma_path(d1, (1, 2), 2)
        q = gamma_path(d1, (1, 2), 4)
        union = frozenset(p.edges) | frozenset(q.edges)
        assert decompose_into_gamma_paths(wd, union) is None
        # one orphan arc makes the edge count match; the arc sets still differ
        orphan = (SectorX((2, 4), 2), SectorX((2, 4), 1))
        assert len(union | {orphan}) == p.length + q.length
        assert decompose_into_gamma_paths(wd, union | {orphan}) is None

    def test_lone_exit_arc_fails(self, d1):
        wd = build_wd(d1)
        exit_arc = gamma_path(d1, (1, 2), 4).edges[-1]
        assert exit_arc == (SectorX((1, 2), 4), Star(4))
        assert decompose_into_gamma_paths(wd, frozenset({exit_arc})) is None

    def test_partial_path_fails(self, d1):
        wd = build_wd(d1)
        p = gamma_path(d1, (1, 2), 4)
        assert decompose_into_gamma_paths(wd, frozenset(p.edges[:-1])) is None

    def test_orphan_sector_arc_fails(self, d1):
        wd = build_wd(d1)
        arc = ((SectorX((1, 2), 1), SectorX((1, 2), 2)),)
        assert decompose_into_gamma_paths(wd, frozenset(arc)) is None

    def test_foreign_arc_rejected(self, d1):
        wd = build_wd(d1)
        with pytest.raises(ValueError):
            decompose_into_gamma_paths(wd, frozenset({(Star(1), Star(2))}))
