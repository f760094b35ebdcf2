from __future__ import annotations

import itertools
import random
import time

import pytest

from helpers import (
    ORACLE_ARC_CAP,
    arc_list,
    caterpillar,
    count_ee_eo_bruteforce,
    count_orientations_same_outdeg_direct,
    decompose_into_gamma_paths,
    enumerate_eulerian_recursive,
    enumerate_orientations,
    gamma_paths_for_arc,
    gnp_orientation,
    interleaved_star,
    is_acyclic,
    is_balanced,
    naive_ee_eo,
    random_orientation,
    symmetric_difference_neighborhoods,
)
from wdlab import (
    BoundExceededError,
    EulerianCount,
    Orientation,
    Star,
    additive_coefficient,
    build_wd,
    classical_coefficient,
    count_ee_eo_classic,
    count_ee_eo_wd,
    gen_sun,
)
from wdlab.eulerian import _count, _wd_arc_plan

THREE_CYCLE = [(1, 2), (2, 3), (3, 1)]
TWO_TWO_CYCLES = [(1, 2), (2, 1), (3, 4), (4, 3)]


class TestEnumerate:
    def test_three_cycle(self):
        subsets = list(enumerate_eulerian_recursive(THREE_CYCLE))
        assert subsets[0] == ()
        assert {frozenset(s) for s in subsets} == {frozenset(), frozenset(THREE_CYCLE)}

    def test_acyclic_only_empty(self, d1):
        assert list(enumerate_eulerian_recursive(d1)) == [()]

    def test_two_disjoint_two_cycles(self):
        subsets = {frozenset(s) for s in enumerate_eulerian_recursive(TWO_TWO_CYCLES)}
        assert len(subsets) == 4

    def test_matches_naive_on_random(self):
        # on orientations and on the same digraphs with 2-cycles, made by
        # adding the reverse of each arc with probability 0.4
        rng = random.Random(23)
        reverse = random.Random(71)
        two_cycles = 0
        for _ in range(30):
            D = random_orientation(rng, n_max=4)
            arcs = sorted(D.arcs)
            with_two_cycles = arcs + [(w, v) for v, w in arcs if reverse.random() < 0.4]
            two_cycles += len(with_two_cycles) > len(arcs)
            for H in (D, with_two_cycles):
                got = [frozenset(s) for s in enumerate_eulerian_recursive(H)]
                ee, eo = naive_ee_eo(arc_list(H))
                assert len(got) == ee + eo
                assert all(is_balanced(s) for s in got)
                assert len(set(got)) == len(got)
                assert count_ee_eo_bruteforce(H) == EulerianCount(ee, eo)
        assert two_cycles >= 15

    def test_duplicate_arcs_rejected(self):
        with pytest.raises(ValueError, match="duplicate arcs"):
            list(enumerate_eulerian_recursive([(1, 2), (1, 2)]))
        with pytest.raises(ValueError, match="self-loop at 1"):
            list(enumerate_eulerian_recursive([(1, 2), (1, 1)]))


class TestBruteforceCounts:
    def test_three_cycle(self):
        assert count_ee_eo_bruteforce(THREE_CYCLE) == EulerianCount(1, 1)

    def test_wd_d1(self, d1):
        assert count_ee_eo_bruteforce(build_wd(d1)) == EulerianCount(3, 1)

    def test_acyclic(self, d1):
        assert count_ee_eo_bruteforce(d1) == EulerianCount(1, 0)

    def test_matches_naive(self):
        rng = random.Random(31)
        for _ in range(25):
            D = random_orientation(rng, n_max=4)
            ee, eo = naive_ee_eo(D.arcs)
            assert count_ee_eo_bruteforce(D) == EulerianCount(ee, eo)


class TestClassic:
    def test_d1(self, d1):
        assert count_ee_eo_classic(d1) == EulerianCount(1, 0)

    def test_three_cycle(self):
        D = Orientation(3, frozenset(THREE_CYCLE))
        assert count_ee_eo_classic(D) == EulerianCount(1, 1)

    def test_d2_has_odd_subdigraphs(self, d2):
        count = count_ee_eo_classic(d2)
        assert count.eo >= 1
        assert (count.ee, count.eo) == naive_ee_eo(d2.arcs)

    def test_matches_bruteforce_up_to_its_bound(self):
        # the oracle check of the frontier counter on the plan of D itself
        rng = random.Random(109)
        relabelled = 0
        for _ in range(300):
            D = random_orientation(rng, n_min=2, n_max=10, arc_cap=ORACLE_ARC_CAP)
            relabelled += D.frontier_relabelled() is not D
            assert count_ee_eo_classic(D) == count_ee_eo_bruteforce(D)
        assert relabelled >= 100

    def test_matches_classical_coefficient_past_the_enumeration_bound(self):
        # past the 24 arcs of the oracle's draws the brute force is too slow
        # to run, and the coefficient route is the independent check
        corpus = [gnp_orientation(f"x:g{n}:{k}", n) for n in (14, 16, 18, 20) for k in "ab"]
        assert all(len(D.arcs) > ORACLE_ARC_CAP for D in corpus)
        for D in corpus:
            assert count_ee_eo_classic(D).difference == classical_coefficient(D)
        g24 = gnp_orientation("x:g24", 24)
        assert len(g24.arcs) == 77
        assert count_ee_eo_classic(g24) == EulerianCount(109275553, 109275588)
        assert classical_coefficient(g24) == -35


class TestWdCounter:
    def test_paper_values(self, d1, d2, d3):
        assert count_ee_eo_wd(d1) == EulerianCount(3, 1)
        assert count_ee_eo_wd(d2) == EulerianCount(2, 8)
        assert count_ee_eo_wd(d3) == EulerianCount(12, 0)

    def test_arcless(self):
        assert count_ee_eo_wd(Orientation(4, frozenset())) == EulerianCount(1, 0)

    def test_oracle_equivalence_random(self, d1, d2, d3):
        rng = random.Random(37)
        digraphs = [d1, d2, d3] + [random_orientation(rng) for _ in range(40)]
        for D in digraphs:
            wd = build_wd(D)
            assert count_ee_eo_wd(D) == count_ee_eo_bruteforce(wd)

    def test_ee_at_least_one_and_acyclic_eo_zero(self):
        rng = random.Random(41)
        for _ in range(30):
            D = random_orientation(rng)
            count = count_ee_eo_wd(D)
            assert count.ee >= 1
            if is_acyclic(build_wd(D).arcs):
                assert count.eo == 0


    def test_relabeling_invariance(self):
        # relabeling the vertices reorders the arcs the counter walks
        rng = random.Random(53)
        for _ in range(30):
            D = random_orientation(rng, n_min=3, n_max=8)
            perm = dict(zip(range(1, D.n + 1), rng.sample(range(1, D.n + 1), D.n)))
            relabeled = Orientation(D.n, frozenset((perm[v], perm[w]) for v, w in D.arcs))
            assert count_ee_eo_wd(relabeled) == count_ee_eo_wd(D)

    def test_caterpillar40_pinned(self):
        D = caterpillar(20, random.Random("limits:caterpillar40"))
        assert count_ee_eo_wd(D).difference == 46992193506

    def test_path1200_matches_coefficient(self):
        D = Orientation(1200, frozenset((i, i + 1) for i in range(1, 1200)))
        count = count_ee_eo_wd(D)
        assert count.eo == 0
        assert count.difference == additive_coefficient(D)

    def test_dense_g14_matches_coefficient(self):
        rng = random.Random("wd:g14:a")
        arcs = [(u, v) if rng.random() < 0.5 else (v, u)
                for u in range(1, 15) for v in range(u + 1, 15) if rng.random() < 0.3]
        D = Orientation(14, frozenset(arcs))
        start = time.monotonic()
        assert count_ee_eo_wd(D).difference == additive_coefficient(D)
        assert time.monotonic() - start < 30

    @pytest.mark.parametrize("k", [1, 2, 3, 4, 7, 8, 15, 16])
    def test_field_widths_on_stars(self, k):
        # star totals on either side of each bit-width step, and stars of
        # isolated vertices, which get no field, between touched ones
        for pattern in ("out", "in", "mixed"):
            D = interleaved_star(k, pattern)
            count = count_ee_eo_wd(D)
            assert count.difference == additive_coefficient(D)
            # the public routes take D relabelled, where the first leaf and
            # the centre swap labels, so the counter also runs on D as
            # labelled: both layouts stay covered
            assert _count(_wd_arc_plan(D)) == count

    @pytest.mark.parametrize(
        "name, n, peak, ee, eo",
        [
            ("wd:g12:c", 12, 12281, 1055575273933, 1053687526407),
            ("wd:g13:b", 13, 12154, 348255563618, 345507877187),
        ],
    )
    def test_widest_level_pinned(self, name, n, peak, ee, eo):
        # the widest level of a 23-arc orientation, counted in label order,
        # holds exactly `peak` states: a change to the plan's order or to
        # the pruning moves it
        D = gnp_orientation(name, n)
        assert len(D.arcs) == 23
        assert _count(_wd_arc_plan(D), bound=peak) == EulerianCount(ee, eo)
        with pytest.raises(BoundExceededError, match=f"reached {peak} balance states"):
            _count(_wd_arc_plan(D), bound=peak - 1)

    @pytest.mark.parametrize(
        "name, n, peak, ee, eo",
        [
            ("wd:g12:c", 12, 7152, 1055575273933, 1053687526407),
            ("wd:g13:b", 13, 7517, 348255563618, 345507877187),
        ],
    )
    def test_widest_level_in_search_order_pinned(self, name, n, peak, ee, eo):
        # the same orientations relabelled in search order, narrower on both;
        # a change to the search order moves it
        D = gnp_orientation(name, n).frontier_relabelled()
        assert _count(_wd_arc_plan(D), bound=peak) == EulerianCount(ee, eo)
        with pytest.raises(BoundExceededError, match=f"reached {peak} balance states"):
            _count(_wd_arc_plan(D), bound=peak - 1)

    def test_runs_once_in_search_order(self):
        # both counters run once, on D relabelled in search order, so the
        # bound must fit that order's widest level: wd:g12:c needs 7,152
        # states there (12,281 in label order) and wd:g14:a 40,024 (23,340),
        # and a bound that only the label order would fit raises the search
        # order's error, whose count can pass the bound by a few states;
        # the same holds for the classical plan of x:g16:c, 30 states in
        # search order and 27 in label order
        g12 = gnp_orientation("wd:g12:c", 12)
        g14 = gnp_orientation("wd:g14:a", 14)
        g16 = gnp_orientation("x:g16:c", 16)
        assert count_ee_eo_wd(g12, bound=7152) == EulerianCount(1055575273933, 1053687526407)
        assert count_ee_eo_wd(g14, bound=40024) == EulerianCount(8455646381602, 8440806944937)
        assert count_ee_eo_classic(g16, bound=30) == EulerianCount(33, 35)
        with pytest.raises(BoundExceededError, match="reached 7152 balance states"):
            count_ee_eo_wd(g12, bound=7151)
        with pytest.raises(BoundExceededError, match="reached 40024 balance states"):
            count_ee_eo_wd(g14, bound=40023)
        with pytest.raises(BoundExceededError, match="reached 23343 balance states"):
            count_ee_eo_wd(g14, bound=23340)
        with pytest.raises(BoundExceededError, match="reached 30 balance states"):
            count_ee_eo_classic(g16, bound=29)
        with pytest.raises(BoundExceededError, match="reached 28 balance states"):
            count_ee_eo_classic(g16, bound=27)

    def test_plan_splits_as_symmetric_difference(self, d1, d2, d3):
        # the plan reads the two neighbourhoods itself; it must split them as
        # symmetric_difference_neighborhoods does, in arc order
        rng = random.Random(67)
        corpus = [d1, d2, d3, gen_sun(4), Orientation(3, frozenset())]
        corpus += [random_orientation(rng, n_min=2, n_max=9) for _ in range(100)]
        for D in corpus:
            expected = []
            for v, w in D.sorted_arcs():
                direct, detour = symmetric_difference_neighborhoods(D, v, w)
                expected.append((v, tuple(sorted(direct)), tuple(sorted(detour))))
            assert _wd_arc_plan(D) == expected

    def test_state_bound(self, d2):
        with pytest.raises(BoundExceededError, match=r"reached 2 balance states.*state bound 1 "):
            count_ee_eo_wd(d2, bound=1)
        # d2's largest level holds 6 states in search order (5 in label
        # order, which the counter no longer tries)
        with pytest.raises(BoundExceededError, match="reached 6 balance states.*state bound 5 "):
            count_ee_eo_wd(d2, bound=5)
        assert count_ee_eo_wd(d2, bound=6) == EulerianCount(2, 8)


class TestEulerianPathStructure:
    def test_forward_every_eulerian_subset_decomposes(self, d1, d2, d3):
        for D in (d1, d2, d3):
            wd = build_wd(D)
            for subset in enumerate_eulerian_recursive(wd):
                paths = decompose_into_gamma_paths(wd, frozenset(subset))
                assert paths is not None
                assert sum(p.length for p in paths) == len(subset)
                star_flow = {v: 0 for v in D.vertices()}
                for p in paths:
                    star_flow[p.arc[0]] += 1
                    star_flow[p.target] -= 1
                assert all(f == 0 for f in star_flow.values())

    def test_converse_balanced_selections_are_eulerian(self, d1, d2, d3):
        for D in (d1, d2, d3):
            wd = build_wd(D)
            arcs = D.sorted_arcs()
            menus = [[None] + gamma_paths_for_arc(D, a) for a in arcs]
            eulerian_sets = set()
            for combo in itertools.product(*menus):
                chosen = [p for p in combo if p is not None]
                flow = {v: 0 for v in D.vertices()}
                for p in chosen:
                    flow[p.arc[0]] += 1
                    flow[p.target] -= 1
                if any(flow.values()):
                    continue
                edges = frozenset(e for p in chosen for e in p.edges)
                assert is_balanced(edges)
                eulerian_sets.add(edges)
            # both enumerators agree exactly
            brute = {frozenset(s) for s in enumerate_eulerian_recursive(wd)}
            assert eulerian_sets == brute
            assert len(eulerian_sets) == count_ee_eo_wd(D).total


class TestOrientationCounts:
    """Orientations of the underlying graph with H's out-degrees, counted
    as ee + eo of H: reversing the arcs of a balanced subset is a bijection
    between such orientations and spanning Eulerian subdigraphs."""

    def test_wd_d1_value(self, d1):
        assert count_ee_eo_bruteforce(build_wd(d1)).total == 4

    def test_wd_d2_value(self, d2):
        assert count_ee_eo_bruteforce(build_wd(d2)).total == 10

    def test_acyclic_is_one(self, d1):
        assert count_ee_eo_bruteforce(d1).total == 1

    def test_parity_bit(self, d1):
        # the count's parity is the certificate bit: odd forces ee != eo
        assert count_ee_eo_bruteforce(build_wd(d1)).total % 2 == 0
        assert count_ee_eo_bruteforce(d1).total % 2 == 1

    def test_direct_matches_eulerian_route(self):
        # relies on the bijection above: the direct search counts
        # orientations, the Eulerian route counts balanced subsets
        rng = random.Random(43)
        for _ in range(25):
            D = random_orientation(rng, n_max=4, arc_cap=5)
            assert count_ee_eo_bruteforce(D).total == count_orientations_same_outdeg_direct(D)

    def test_direct_matches_full_orientation_scan(self):
        # third route: scan all 2^|E| orientations, compare out-degrees
        rng = random.Random(47)
        for _ in range(15):
            D = random_orientation(rng, n_max=5, arc_cap=8)
            G = D.underlying()
            want = D.out_degrees()
            scan = sum(1 for H in enumerate_orientations(G) if H.out_degrees() == want)
            assert count_orientations_same_outdeg_direct(D) == scan

    def test_two_cycles_rejected_by_direct(self):
        with pytest.raises(ValueError):
            count_orientations_same_outdeg_direct(TWO_TWO_CYCLES)


def test_star_balance_is_out_degree(d1):
    # spanning Eulerian subdigraphs never use more than d+(v) paths out of v*
    wd = build_wd(d1)
    for subset in enumerate_eulerian_recursive(wd):
        out = {v: 0 for v in d1.vertices()}
        for a, b in subset:
            if isinstance(a, Star):
                out[a.x] += 1
        for v in d1.vertices():
            assert out[v] <= d1.out_degree(v)
