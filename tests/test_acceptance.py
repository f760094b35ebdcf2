"""Acceptance suite: one test per criterion, exact tolerances, timed.

Each test prints a single `criterion N: PASS ...` line on success (visible
with `pytest -s`); the per-test pass/fail line of `pytest -v` mirrors it.
Random corpora are seeded so every run checks the identical instances.
"""

from __future__ import annotations

import itertools
import random
import time

import pytest

from helpers import (
    all_gamma_paths,
    connected_graphs_up_to,
    count_ee_eo_bruteforce,
    count_orientations_same_outdeg_direct,
    decompose_into_gamma_paths,
    enumerate_eulerian_recursive,
    enumerate_orientations,
    gamma_paths_for_arc,
    is_balanced,
    random_lists,
    random_orientation,
)
from wdlab import (
    EulerianCount,
    Graph,
    Orientation,
    additive_coefficient,
    build_wd,
    check_simplicial_sink_hypothesis,
    classical_coefficient,
    conjecture_sweep,
    count_ee_eo_classic,
    count_ee_eo_wd,
    find_additive_coloring,
    gen_complete,
    gen_complete_bipartite,
    gen_cycle,
    gen_sun,
    is_additive_coloring,
)

PAPER_COUNTS = {"d1": (3, 1), "d2": (2, 8), "d3": (12, 0)}
PAPER_COEFFICIENTS = {"d1": 2, "d2": -6, "d3": 12}


@pytest.fixture(scope="module")
def small_corpus():
    """200 random simple digraphs on at most 5 vertices (criteria 2 and 8)."""
    rng = random.Random(20260809)
    return [random_orientation(rng, n_max=5) for _ in range(200)]


@pytest.fixture(scope="module")
def named(d1, d2, d3):
    return {"d1": d1, "d2": d2, "d3": d3}


def test_criterion_01_paper_value_regression(named):
    for name, D in named.items():
        start = time.monotonic()
        count = count_ee_eo_wd(D)
        elapsed = time.monotonic() - start
        assert (count.ee, count.eo) == PAPER_COUNTS[name]
        assert elapsed < 5.0
    print("criterion 1: PASS - structured counts (3,1), (2,8), (12,0), each < 5 s")


def test_criterion_02_central_identity(named, small_corpus):
    start = time.monotonic()
    for name, D in named.items():
        oracle = count_ee_eo_bruteforce(build_wd(D))
        assert additive_coefficient(D) == oracle.difference == PAPER_COEFFICIENTS[name]
    for D in small_corpus:
        oracle = count_ee_eo_bruteforce(build_wd(D))
        assert additive_coefficient(D) == oracle.difference
    elapsed = time.monotonic() - start
    assert elapsed < 300.0
    print(
        f"criterion 2: PASS - coefficient equals ee-eo of W(D) on 3 worked + "
        f"{len(small_corpus)} random digraphs in {elapsed:.1f} s"
    )


def test_criterion_03_classical_identity():
    rng = random.Random(31415926)
    start = time.monotonic()
    checked = 0
    while checked < 500:
        D = random_orientation(rng, n_max=6, arc_cap=12)
        assert len(D.arcs) <= 12
        assert classical_coefficient(D) == count_ee_eo_classic(D).difference
        checked += 1
    elapsed = time.monotonic() - start
    print(f"criterion 3: PASS - classical identity exact on {checked} digraphs in {elapsed:.1f} s")


def test_criterion_04_eulerian_path_structure(named):
    for name, D in named.items():
        wd = build_wd(D)
        brute_sets = {frozenset(s) for s in enumerate_eulerian_recursive(wd)}
        # forward: every Eulerian subset splits into edge-disjoint paths
        # with balanced star traffic
        for subset in brute_sets:
            paths = decompose_into_gamma_paths(wd, subset)
            assert paths is not None
            assert sum(p.length for p in paths) == len(subset)
            flow = {v: 0 for v in D.vertices()}
            for p in paths:
                flow[p.arc[0]] += 1
                flow[p.target] -= 1
            assert all(f == 0 for f in flow.values())
        # converse: every star-balanced path selection is Eulerian, and the
        # two enumerations agree exactly
        selection_sets = set()
        menus = [[None] + gamma_paths_for_arc(D, a) for a in D.sorted_arcs()]
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
            selection_sets.add(edges)
        assert selection_sets == brute_sets
        assert len(brute_sets) == count_ee_eo_wd(D).total
    print("criterion 4: PASS - Eulerian subsets and path selections coincide on all three examples")


def test_criterion_05_path_disjointness(named):
    pairs = 0
    for D in named.values():
        paths = all_gamma_paths(D)
        for p, q in itertools.combinations(paths, 2):
            disjoint = not (set(p.edges) & set(q.edges))
            assert disjoint == (p.arc != q.arc)
            pairs += 1
    print(f"criterion 5: PASS - edge-disjoint iff different arcs across {pairs} path pairs")


def test_criterion_06_bipartite_mechanism():
    graphs = {
        "C4": gen_cycle(4),
        "C6": gen_cycle(6),
        "K23": gen_complete_bipartite(2, 3),
        "P5": Graph.of(5, [(i, i + 1) for i in range(1, 5)]),
    }
    scanned = 0
    for G in graphs.values():
        for D in enumerate_orientations(G):
            count = count_ee_eo_wd(D)
            assert count.eo == 0
            assert additive_coefficient(D) == count.ee >= 1
            scanned += 1
    print(f"criterion 6: PASS - eo = 0 and coefficient >= 1 for all {scanned} bipartite orientations")


def test_criterion_07_simplicial_sink_certificate():
    rng = random.Random(27182818)
    for k in (2, 3):
        D = gen_sun(k)
        G = D.underlying()
        assert check_simplicial_sink_hypothesis(G, D)
        assert count_ee_eo_wd(D).eo == 0
        for _ in range(50):
            ell = find_additive_coloring(G, random_lists(rng, D))
            assert ell is not None
            assert is_additive_coloring(G, ell)
    K4 = gen_complete(4)
    falsified = 0
    for D in enumerate_orientations(K4):
        assert not check_simplicial_sink_hypothesis(K4, D)
        falsified += 1
    assert falsified == 64
    print("criterion 7: PASS - suns k=2,3 certified and colored 50/50; K4 fails all 64 orientations")


def _long_corpus(rng: random.Random) -> list:
    """Suns k = 4, 5, and paths and cycles of 40-121 vertices with every
    edge oriented by a coin flip: sizes only the pruned search reaches."""
    def orient(n, edges):
        return Orientation(n, frozenset((u, v) if rng.random() < 0.5 else (v, u) for u, v in edges))

    corpus = [gen_sun(4), gen_sun(5)]
    for n in range(40, 121, 8):
        path = [(i, i + 1) for i in range(1, n)]
        corpus.append(orient(n, path))
        corpus.append(orient(n, path + [(1, n)]))
        corpus.append(orient(n + 1, path + [(n, n + 1), (1, n + 1)]))
    return corpus


def test_criterion_08_nullstellensatz_consequence(small_corpus):
    rng = random.Random(16180339)
    failures = 0
    certified = 0
    for D in small_corpus + _long_corpus(rng):
        if additive_coefficient(D) == 0:
            continue
        certified += 1
        G = D.underlying()
        for _ in range(20):
            ell = find_additive_coloring(G, random_lists(rng, D))
            if ell is None or not is_additive_coloring(G, ell):
                failures += 1
    assert failures == 0
    assert certified > 0
    print(
        f"criterion 8: PASS - {certified} nonzero-coefficient digraphs, 20 list samples each, 0 failures"
    )


def test_criterion_09_orientation_count_bijection(d1):
    wd = build_wd(d1)
    start = time.monotonic()
    direct = count_orientations_same_outdeg_direct(wd)
    elapsed = time.monotonic() - start
    eulerian_total = count_ee_eo_bruteforce(wd).total
    assert direct == 4
    assert eulerian_total == 4
    assert EulerianCount(3, 1).total == 4
    assert elapsed < 120.0
    print(f"criterion 9: PASS - 4 orientations of the 22-edge graph by direct search in {elapsed:.2f} s")


def test_criterion_10_conjecture_sweep():
    start = time.monotonic()
    graphs = connected_graphs_up_to(4)
    assert len(graphs) == 10  # connected isomorphism classes on 1..4 vertices
    witnesses = []
    for G in graphs:
        report = conjecture_sweep(G)
        assert report.has_witness
        witnesses.append((G.n, sorted(G.edges), report.witness_index))
    elapsed = time.monotonic() - start
    assert elapsed < 60.0
    print(
        f"criterion 10: PASS - witness orientation for each of {len(graphs)} connected graphs"
        f" in {elapsed:.1f} s"
    )
