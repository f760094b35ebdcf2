from __future__ import annotations

import itertools
import random
import time

import pytest

from helpers import (
    additive_factors,
    caterpillar,
    classical_factors,
    evaluate_additive,
    expand_capped_tuples,
    interleaved_star,
    random_lists,
    random_orientation,
)
from wdlab import (
    LinearFactor,
    Orientation,
    additive_coefficient,
    build_wd,
    classical_coefficient,
    count_ee_eo_bruteforce,
    count_ee_eo_classic,
    count_ee_eo_wd,
    expand_capped,
    find_additive_coloring,
    is_additive_coloring,
)
from wdlab.eulerian import DEFAULT_EULERIAN_BOUND
from wdlab.polynomials import _coefficient


def F(*terms) -> LinearFactor:
    return LinearFactor(tuple(terms))


def packed_coefficient(poly, exponents) -> int:
    """The coefficient of one monomial under the cap, read straight off the
    packed map: the key is the sum of each variable's unit times its
    exponent."""
    return poly.packed.get(sum(e * one for e, one in zip(exponents, poly.unit)), 0)


def splits_of(factors) -> list[tuple[list[int], list[int]]]:
    """Each factor as its (positive, negative) variables, in term order."""
    return [([u for s, u in f.terms if s == 1], [u for s, u in f.terms if s == -1])
            for f in factors]


class TestFactors:
    def test_classical_d1(self, d1):
        assert classical_factors(d1) == [
            F((1, 1), (-1, 2)),
            F((1, 1), (-1, 3)),
            F((1, 2), (-1, 4)),
            F((1, 3), (-1, 2)),
        ]

    def test_classical_trivial(self):
        D = Orientation(2, frozenset([(1, 2)]))
        assert classical_factors(D) == [F((1, 1), (-1, 2))]
        assert classical_factors(Orientation(3, frozenset())) == []

    def test_additive_d1(self, d1):
        factors = additive_factors(d1)
        by_arc = dict(zip(d1.sorted_arcs(), factors))
        assert by_arc[(1, 2)] == F((1, 1), (1, 4), (-1, 2))
        assert by_arc[(2, 4)] == F((1, 2), (-1, 1), (-1, 3), (-1, 4))

    def test_additive_trivial(self):
        D = Orientation(2, frozenset([(1, 2)]))
        assert additive_factors(D) == [F((1, 1), (-1, 2))]

    def test_factor_validation(self):
        with pytest.raises(ValueError):
            F((1, 1), (-1, 1))
        with pytest.raises(ValueError):
            F((2, 1))


class TestExpand:
    def test_single_factor(self):
        poly = expand_capped([F((1, 1), (-1, 2))], (1, 1))
        assert poly.terms == {(1, 0): 1, (0, 1): -1}

    def test_cap_prunes_everything(self):
        factors = [F((1, 1), (-1, 2))] * 2
        poly = expand_capped(factors, (1, 0))
        assert poly.terms == {}
        assert packed_coefficient(poly, (1, 0)) == 0

    def test_capped_classical_d1_matches_eulerian_difference(self, d1):
        poly = expand_capped(classical_factors(d1), (2, 1, 1, 0))
        assert packed_coefficient(poly, (2, 1, 1, 0)) == count_ee_eo_classic(d1).difference == 1

    @pytest.mark.parametrize("k", [1, 2, 3, 4, 7, 8, 15, 16])
    def test_matches_tuple_oracle(self, k):
        # one variable capped at k, on either side of a bit-width step, sits
        # in every factor; the other caps come from the same steps or are 0,
        # and variables above `used` sit in no factor
        rng = random.Random(f"expand:{k}")
        reached = cancelled = 0
        for _ in range(40):
            n = rng.randint(1, 5)
            used = rng.randint(1, n)
            hot = rng.randint(1, used)
            cap = [rng.choice((0, 0, 1, 2, 3, 4, 7, 8, 15, 16)) for _ in range(n)]
            cap[hot - 1] = k
            cap = tuple(cap)
            factors = []
            for _ in range(rng.randint(k - 1, k + 2)):
                others = rng.sample([u for u in range(1, used + 1) if u != hot],
                                    rng.randint(0, min(used - 1, 2)))
                factors.append(F(*((rng.choice((1, -1)), u) for u in [hot] + others)))
            if factors and factors[-1].support() > 1:
                # (a + b)(a - b): the cross terms cancel
                (s, u), *rest = factors[-1].terms
                factors.append(F((s, u), *((-t, w) for t, w in rest)))
                cancelled += 1
            rng.shuffle(factors)
            want = expand_capped_tuples(factors, cap)
            poly = expand_capped(factors, cap)
            assert poly.terms == want
            for exp, coef in want.items():
                assert packed_coefficient(poly, exp) == coef
            for _ in range(20):
                exp = tuple(rng.randint(0, c) for c in cap)
                assert packed_coefficient(poly, exp) == want.get(exp, 0)
            reached += any(exp[hot - 1] == k for exp in want)
        assert reached >= 10 and cancelled >= 10

    def test_cancelled_terms_never_stored(self):
        # (x1 + x2)(x1 - x2): the cross terms cancel and must vanish
        factors = [F((1, 1), (1, 2)), F((1, 1), (-1, 2))]
        poly = expand_capped(factors, (len(factors),) * 2)
        assert poly.terms == {(2, 0): 1, (0, 2): -1}

    @pytest.mark.parametrize("tail", [0, 1, 3])
    def test_no_zero_entry_after_cancellation(self, tail):
        # (a + b)(a - b) chains: x1 x2 cancels at the second factor, then
        # `tail` more factors follow it, so the cancellation falls on an
        # intermediate step or, with tail 0, on the last one
        pair = [F((1, 1), (1, 2)), F((1, 1), (-1, 2))]
        factors = pair + [F((1, 3), (1, 4)), F((1, 3), (-1, 4)), F((1, 1), (1, 3))][:tail]
        for cap in ((3, 3, 3, 3), (1, 1, 1, 1), (2, 1, 2, 1)):
            poly = expand_capped(factors, cap)
            assert 0 not in poly.packed.values()
            assert poly.terms == expand_capped_tuples(factors, cap)
        # with x1 and x2 capped at 1 every term cancels: an empty map
        assert expand_capped(pair, (1, 1)).packed == {}

    def test_negative_cap_entry_rejected(self):
        # the empty product's constant term would sit above a cap of -1
        for factors in ([], [F((1, 1))]):
            with pytest.raises(ValueError, match="cap entry -1 of x_1"):
                expand_capped(factors, (-1,))
        with pytest.raises(ValueError, match="cap entry -2 of x_2"):
            expand_capped([F((1, 1))], (1, -2))

    def test_non_integer_cap_entry_rejected(self):
        for cap in ((1.5,), (1, 2.0), ("1",)):
            with pytest.raises(ValueError, match=f"cap entry {cap[-1]!r} of x_{len(cap)}"):
                expand_capped([F((1, 1))], cap)

    def test_cap_soundness_random(self):
        rng = random.Random(53)
        for _ in range(40):
            n = rng.randint(2, 4)
            m = rng.randint(1, 5)
            factors = []
            for _ in range(m):
                ids = rng.sample(range(1, n + 1), rng.randint(1, n))
                factors.append(F(*((rng.choice((1, -1)), u) for u in ids)))
            cap = tuple(rng.randint(0, m) for _ in range(n))
            capped = expand_capped(factors, cap)
            full = expand_capped(factors, (len(factors),) * n)
            for exp in itertools.product(*(range(c + 1) for c in cap)):
                assert packed_coefficient(capped, exp) == full.terms.get(exp, 0)
            assert all(
                all(e <= c for e, c in zip(exp, cap)) for exp in capped.terms
            )


class TestCapCoefficient:
    def test_matches_expand_capped_random(self):
        rng = random.Random(79)
        nonzero = 0
        for _ in range(300):
            n = rng.randint(1, 6)
            m = rng.randint(0, 7)
            # variables above `used` sit in no factor at all
            used = rng.randint(1, n)
            factors = []
            for _ in range(m):
                ids = rng.sample(range(1, used + 1), rng.randint(1, min(used, 3)))
                factors.append(F(*((rng.choice((1, -1)), u) for u in ids)))
            if rng.random() < 0.5:
                # a cap that sums to m, so the cap term can be nonzero
                cap = [0] * n
                for _ in range(m):
                    cap[rng.randrange(n)] += 1
            else:
                cap = [rng.choice((0, 0, 1, 2, m)) for _ in range(n)]
            cap = tuple(cap)
            want = expand_capped_tuples(factors, cap).get(cap, 0)
            shuffled = factors[:]
            rng.shuffle(shuffled)
            assert _coefficient(splits_of(factors), dict(enumerate(cap, 1))) == want
            assert _coefficient(splits_of(shuffled), dict(enumerate(cap, 1))) == want
            nonzero += want != 0
        assert nonzero > 30

    def test_zero_cap_and_unused_variables(self):
        factors = [F((1, 1), (-1, 2)), F((1, 1), (1, 2))]
        assert _coefficient(splits_of(factors), dict(enumerate((2, 0, 0), 1))) == 1
        assert _coefficient(splits_of(factors), dict(enumerate((0, 2, 0), 1))) == -1
        assert _coefficient(splits_of(factors), dict(enumerate((1, 1, 0), 1))) == 0
        # x3 is in no factor, so a positive cap on it can never be met
        assert _coefficient(splits_of(factors), dict(enumerate((1, 0, 1), 1))) == 0
        assert _coefficient(splits_of([]), dict(enumerate((0, 0), 1))) == 1
        assert _coefficient(splits_of([]), dict(enumerate((1, 0), 1))) == 0
        assert _coefficient(splits_of([F()]), dict(enumerate((0,), 1))) == 0
        # every variable of the second factor has cap 0, so none can fire
        factors = [F((1, 1)), F((1, 2), (-1, 3))]
        assert _coefficient(splits_of(factors), dict(enumerate((1, 0, 0), 1))) == 0

    def test_every_term_cancels_partway(self):
        # capped at (1, 1), (x1 + x2)(x1 - x2) leaves only x1 x2, at 1 - 1 = 0;
        # the factors after it read nothing but that zero
        pair = [F((1, 1), (1, 2)), F((1, 1), (-1, 2))]
        rest = [F((1, 3), (1, 4)), F((1, 3), (-1, 4)), F((1, 3))]
        # each cap sums to the number of factors and is met by some product
        for factors, cap in ((pair, (1, 1)), (pair + rest[:1], (1, 1, 1, 0)),
                             (pair + rest, (1, 1, 3, 0))):
            assert _coefficient(splits_of(factors), dict(enumerate(cap, 1))) == 0
            assert expand_capped_tuples(factors, cap).get(cap, 0) == 0
            # the factors after the pair alone do reach their part of the cap
            assert _coefficient(splits_of(factors[2:]), dict(enumerate((0, 0) + cap[2:], 1))) != 0
        # the same chain with no cancellation under the cap is nonzero
        factors = [F((1, 1), (1, 2)), F((1, 1), (1, 2))]
        assert _coefficient(splits_of(factors), dict(enumerate((1, 1), 1))) == 2
        # a later factor that holds only cap-0 variables also gives 0
        factors = [F((1, 1), (1, 2)), F((1, 3))]
        assert _coefficient(splits_of(factors), dict(enumerate((1, 1, 0), 1))) == 0

    @pytest.mark.parametrize("engine", ["expand_capped"])
    def test_variable_outside_cap_rejected(self, engine):
        # u = 0 and u = n + 1, on a capped and on a cap-0 neighbour, are
        # named, never dropped
        for cap in ((1, 1), (1, 0)):
            for u in (0, 3):
                factors = [F((1, u), (1, 1)), F((1, 1))]
                with pytest.raises(ValueError, match=f"x_{u} lies outside x_1..x_2"):
                    expand_capped(factors, cap)
        with pytest.raises(ValueError, match="x_3"):
            expand_capped([F((1, 3)), F((1, 1))], (1, 1))
        with pytest.raises(ValueError, match="x_1 lies outside x_1..x_0"):
            expand_capped([F((1, 1))], ())
        # in range, the same factors still expand
        assert expand_capped([F((1, 2), (1, 1)), F((1, 1))], (1, 1)).terms == {(1, 1): 1}

    @pytest.mark.parametrize("k", [1, 2, 3, 4, 7, 8, 15, 16])
    def test_field_widths_on_stars(self, k):
        # caps of k and of 1 on either side of each bit-width step, cap-0
        # vertices with in-arcs, and isolated vertices between touched ones
        for pattern in ("out", "in", "mixed"):
            D = interleaved_star(k, pattern)
            cap = D.out_degrees()
            for factors in (additive_factors(D), classical_factors(D)):
                want = expand_capped_tuples(factors, cap).get(tuple(cap), 0)
                assert _coefficient(splits_of(factors), dict(enumerate(cap, 1))) == want
                assert packed_coefficient(expand_capped(factors, cap), cap) == want
            assert classical_coefficient(D) == count_ee_eo_classic(D).difference

    def test_caterpillar40_pinned(self):
        # the limits probe's caterpillar40: the full expansion runs out of memory
        D = caterpillar(20, random.Random("limits:caterpillar40"))
        start = time.monotonic()
        assert additive_coefficient(D) == 46992193506
        assert time.monotonic() - start < 30

    @pytest.mark.parametrize("spine", [4, 5, 6, 7])
    def test_caterpillars_match_wd_counter(self, spine):
        for seed in range(3):
            D = caterpillar(spine, random.Random(seed))
            assert additive_coefficient(D) == count_ee_eo_wd(D).difference

    def test_path200_matches_wd_counter(self):
        rng = random.Random(83)
        for D in (
            Orientation(200, frozenset((i, i + 1) for i in range(1, 200))),
            Orientation(200, frozenset(
                (i, i + 1) if rng.random() < 0.5 else (i + 1, i) for i in range(1, 200))),
        ):
            assert additive_coefficient(D) == count_ee_eo_wd(D).difference


class TestPackedSteps:
    def test_relabelling_keeps_the_coefficient(self):
        # a relabelling of D changes the frontier order and the field layout,
        # but not the coefficient, which the W(D) counter also gives
        rng = random.Random(101)
        nonzero = 0
        for _ in range(50):
            D = random_orientation(rng, n_min=2, n_max=8)
            coef = additive_coefficient(D)
            assert coef == count_ee_eo_wd(D).difference
            perm = list(D.vertices())
            rng.shuffle(perm)
            relabelled = Orientation(D.n, frozenset((perm[v - 1], perm[w - 1]) for v, w in D.arcs))
            assert additive_coefficient(relabelled) == coef
            nonzero += coef != 0
        assert nonzero >= 10


class TestCoefficients:
    def test_additive_paper_values(self, d1, d2, d3):
        assert additive_coefficient(d1) == 2
        assert additive_coefficient(d2) == -6
        assert additive_coefficient(d3) == 12

    def test_classical_acyclic_d1(self, d1):
        coef = classical_coefficient(d1)
        assert abs(coef) == 1
        assert coef == count_ee_eo_classic(d1).difference

    def test_classical_three_cycle_vanishes(self):
        D = Orientation(3, frozenset([(1, 2), (2, 3), (3, 1)]))
        assert classical_coefficient(D) == 0

    def test_classical_transitive_triangle(self):
        D = Orientation(3, frozenset([(1, 2), (1, 3), (2, 3)]))
        assert classical_coefficient(D) == 1
        factors = classical_factors(D)
        full = expand_capped(factors, (len(factors),) * 3)
        assert full.terms[(2, 1, 0)] == 1

    def test_arcless(self):
        D = Orientation(3, frozenset())
        assert additive_coefficient(D) == 1
        assert classical_coefficient(D) == 1

    def test_central_identity_random(self):
        rng = random.Random(59)
        for _ in range(40):
            D = random_orientation(rng)
            brute = count_ee_eo_bruteforce(build_wd(D), bound=64)
            assert additive_coefficient(D) == brute.difference

    def test_classical_identity_random(self):
        rng = random.Random(61)
        for _ in range(60):
            D = random_orientation(rng, n_max=6, arc_cap=12)
            assert classical_coefficient(D) == count_ee_eo_classic(D).difference

    def test_classical_matches_bruteforce_over_its_range(self):
        # the route runs on D relabelled in search order, the brute force on
        # D itself, up to the brute force's default arc bound
        rng = random.Random(107)
        relabelled = 0
        for _ in range(40):
            D = random_orientation(rng, n_min=4, n_max=12, arc_cap=DEFAULT_EULERIAN_BOUND)
            relabelled += D.frontier_relabelled() is not D
            assert classical_coefficient(D) == count_ee_eo_bruteforce(D).difference
        assert relabelled >= 20


class TestEvaluate:
    def test_d1_constant_labeling_vanishes(self, d1):
        assert evaluate_additive(d1, {1: 1, 2: 1, 3: 1, 4: 1}) == 0

    def test_single_arc(self):
        D = Orientation(2, frozenset([(1, 2)]))
        assert evaluate_additive(D, {1: 2, 2: 1}) == 1

    def test_missing_vertex_rejected(self, d1):
        with pytest.raises(ValueError, match="missing"):
            evaluate_additive(d1, {1: 1, 2: 1, 3: 1})

    def test_nonzero_value_gives_proper_coloring(self, d1):
        rng = random.Random(67)
        G = d1.underlying()
        for _ in range(200):
            ell = {v: rng.randint(1, 9) for v in d1.vertices()}
            if evaluate_additive(d1, ell) != 0:
                assert is_additive_coloring(G, ell)

    def test_matches_uncancelled_form(self):
        # the raw neighbor-sum difference and the reduced form agree
        rng = random.Random(71)
        for _ in range(30):
            D = random_orientation(rng)
            ell = {v: rng.randint(1, 20) for v in D.vertices()}
            raw = 1
            for v, w in D.sorted_arcs():
                raw *= sum(ell[u] for u in D.neighbors(w)) - sum(
                    ell[u] for u in D.neighbors(v)
                )
            assert evaluate_additive(D, ell) == raw


def test_nonzero_coefficient_implies_list_colorable():
    rng = random.Random(73)
    found = 0
    while found < 15:
        D = random_orientation(rng, n_max=4)
        if additive_coefficient(D) == 0:
            continue
        found += 1
        G = D.underlying()
        for _ in range(5):
            ell = find_additive_coloring(G, random_lists(rng, D))
            assert ell is not None
            assert is_additive_coloring(G, ell)
