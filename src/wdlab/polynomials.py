"""Capped sparse expansion of the two orientation polynomials.

Both polynomials are products of one degree-1 factor per arc:

* classical: (x_v - x_w) for each arc (v, w);
* additive:  sum of x_u over u in N(w) \\ N(v) minus the sum over
  N(v) \\ N(w), the within-factor cancellation of the neighbor-sum form.

The certificate monomial raises each x_v to the out-degree of v. Both
expansions prune any intermediate term that exceeds the requested exponent
cap in some coordinate; since factors only ever raise exponents, pruning
never loses a coefficient that fits under the cap. Coefficients are exact
Python integers throughout.

This module holds every expansion in the package: both certificate
coefficients and the orientation sweep's (`_sweep_coefficients`, behind
`coloring.conjecture_sweep`). Each factor is spelled once, as its
(positive, negative) variables: a *split*. `_classical_splits` and
`_additive_splits` read them off D, and `expand_capped` takes them from
its `LinearFactor`s; the sweep reads those of P_G with `_additive_splits`
straight off the graph's neighbourhood map. One builder (`_packed`) turns
every split into a packed step and a frontier key. No package code calls
`expand_capped`: it is the factor-object form of `_expand`, kept for the
tests and for the benchmark's tracer, which binds it by name.

`_expand`, behind `expand_capped` and the sweep, keeps every term under
the cap: the sweep reads one coefficient per orientation off the same
product. `_coefficient`, behind `additive_coefficient` and
`classical_coefficient`, wants only the cap monomial, so it also
eliminates each variable at its frontier (frontier-based search;
Kawahara et al., IEICE 2017). Both engines take the factors ordered by
their keys, the largest variable they touch, then their support. Once
x_u has had its last factor, every term whose u-exponent is below cap[u]
can never reach the cap, and `_coefficient` drops it. The live terms
then differ only in the variables whose factors are still in progress,
so the term map grows with the width of that frontier, not with the size
of the graph: on a directed path of 1200 vertices it never holds more
than 3 terms.

Both engines key each term by one packed integer, not by an exponent
vector, with one layout (`_bit_fields`). Variable u with cap[u] > 0 owns
a field of cap[u].bit_length() bits, the fields laid out in vertex order
from the low end, so a field holds any exponent up to its cap and
multiplying by x_u is one integer add. A cap-0 variable gets no field:
its terms can never fire and are dropped before the product starts. The
cap test masks the key and compares it with the cap shifted into place,
and so does `_coefficient`'s retirement test. A `CappedPolynomial`
keeps the packed map and each variable's unit; its exponent-vector view
`terms` is built only when it is first read. No other module reads a
packed key: the sweep's out-degree key is built here too.

A packed *step* holds one (sign, mask, cap, unit) entry per variable that
can fire, and both engines multiply by the steps in one loop
(`_product`). With each step comes a mask of the variables that retire
there; a product is kept only when it already holds the cap in those
fields. `_expand` passes mask 0, so it keeps every product. A
coefficient that cancels to 0 is skipped when the next step reads it
rather than dropped by copying the map after every step; `expand_capped`
drops the zeros once, at the end, and the sweep reads a zero entry as it
reads a missing one.

The frontier follows the vertex labels, so the labels, not the graph,
would set its width. `additive_coefficient` and `classical_coefficient`
therefore run `_coefficient` on the splits of D relabelled in
maximum-cardinality search order (`Orientation.frontier_relabelled`);
`_expand` takes its splits as labelled.
"""

from __future__ import annotations

import itertools
from dataclasses import dataclass
from functools import cached_property
from operator import itemgetter
from typing import Collection, Iterable, Iterator, Mapping, Optional, Sequence

from .graphs import Graph, Orientation

ExponentVector = tuple[int, ...]
#: A packed-key layout: variable -> (mask, cap, unit) of its field.
Field = Mapping[int, tuple[int, int, int]]
#: One factor in the packed layout: a (sign, mask, cap, unit) entry per term.
Step = list[tuple[int, int, int, int]]
#: One factor as its (positive, negative) variables.
Split = tuple[Collection[int], Collection[int]]


@dataclass(frozen=True)
class LinearFactor:
    """Signed sum of distinct variables: terms are (sign, vertex) pairs.

    Construction checks that no variable repeats and that every sign is +1
    or -1, with one set comprehension and one loop over the terms: the
    coefficient route makes one factor per arc, so this runs once per arc.
    """

    terms: tuple[tuple[int, int], ...]

    def __post_init__(self) -> None:
        terms = self.terms
        if len({u for _, u in terms}) != len(terms):
            raise ValueError("repeated variable inside a factor")
        for s, _ in terms:
            if s != 1 and s != -1:
                raise ValueError("signs must be +1 or -1")

    def support(self) -> int:
        return len(self.terms)


@dataclass(frozen=True)
class CappedPolynomial:
    """Sparse terms within a per-variable exponent cap; no zero entries.

    `packed` maps each term's packed key (module docstring) to its
    coefficient, and `unit[u - 1]` is the key of x_u alone, 0 for a cap-0
    variable. `terms`, the same map keyed by exponent vectors, is built on
    first read.
    """

    cap: ExponentVector
    packed: Mapping[int, int]
    unit: tuple[int, ...]

    @cached_property
    def terms(self) -> dict[ExponentVector, int]:
        # a cap-0 variable reads as the empty field at bit 0
        layout = [
            (max(one.bit_length() - 1, 0), (1 << c.bit_length()) - 1)
            for c, one in zip(self.cap, self.unit)
        ]
        return {
            tuple(key >> shift & mask for shift, mask in layout): coef
            for key, coef in self.packed.items()
        }


def _classical_splits(D: Orientation) -> list[Split]:
    """Each arc's classical factor (x_v - x_w) as its (positive, negative)
    variables, ((v,), (w,)), in sorted arc order."""
    return [((v,), (w,)) for v, w in D.sorted_arcs()]


def _additive_splits(
    adj: Mapping[int, frozenset[int]], arcs: Iterable[tuple[int, int]]
) -> list[Split]:
    """Each arc's additive factor as its (positive, negative) variables, in
    the order given: N(w) \\ N(v) and N(v) \\ N(w) for the arc (v, w).

    `adj` is the underlying graph's neighbourhood map: D's
    `_adjacency()`, or for the orientation sweep G's own map with G's
    sorted edges as the arcs of orientation 0. v always lands in the
    positive part and w in the negative one, so neither is ever empty.
    """
    return [(adj[w] - adj[v], adj[v] - adj[w]) for v, w in arcs]


def _bit_fields(caps: Iterable[tuple[int, int]]) -> dict[int, tuple[int, int, int]]:
    """The packed-key layout for the (variable, cap) pairs `caps`, given in
    ascending variable order (see the module docstring).

    Maps each variable u with a cap c > 0 to its field as (mask, c, 1),
    each shifted into place; a cap-0 variable has no entry. Raises
    ValueError for a cap entry that is not a nonnegative integer.
    """
    field: dict[int, tuple[int, int, int]] = {}
    width = 0
    for u, c in caps:
        if not isinstance(c, int) or c < 0:
            raise ValueError(f"cap entry {c!r} of x_{u} is not a nonnegative integer")
        if c:
            bits = c.bit_length()
            field[u] = (((1 << bits) - 1) << width, c << width, 1 << width)
            width += bits
    return field


def _packed(splits: Iterable[Split], field: Field) -> list[Step]:
    """Each split's packed step, in frontier order.

    Frontier order sorts the splits by their keys, (largest variable,
    support), 0 standing for the largest variable of an empty factor;
    equal keys keep the order given. The step holds a (sign, mask, cap,
    unit) entry per positive, then per negative variable that has a field:
    a cap-0 variable can never fire and gets none.
    """
    plus, minus = {}, {}
    for u, f in field.items():
        plus[u] = (1, *f)
        minus[u] = (-1, *f)
    keyed = []
    for positive, negative in splits:
        step = []
        for u in positive:
            if u in plus:
                step.append(plus[u])
        for u in negative:
            if u in minus:
                step.append(minus[u])
        keyed.append(((max((0, *positive, *negative)), len(positive) + len(negative)), step))
    return [step for _, step in sorted(keyed, key=itemgetter(0))]


def _product(steps: Iterable[Step], masks: Iterable[int], packed_cap: int) -> dict[int, int]:
    """The one product loop of both engines: the constant 1 multiplied by
    each step in turn, paired with that step's mask.

    A product is kept only when its fields under the step's mask equal the
    cap's there: `_coefficient` passes the fields of the variables that
    retire at the step, `_expand` mask 0, which keeps every product.
    No product past the cap in any field is formed. A coefficient that
    cancels to 0 stays in the map and is skipped when the next step reads
    it, so the map is never copied to drop it: the result may hold zero
    entries. Stops at the first step that leaves no term.
    """
    terms: dict[int, int] = {0: 1}
    for step, mask in zip(steps, masks):
        full = packed_cap & mask
        nxt: dict[int, int] = {}
        get = nxt.get
        for key, coef in terms.items():
            if coef:
                for sign, mask_u, cap_u, one in step:
                    if key & mask_u < cap_u:
                        bumped = key + one
                        if bumped & mask == full:
                            nxt[bumped] = get(bumped, 0) + sign * coef
        if not nxt:
            return nxt
        terms = nxt
    return terms


def _factor_splits(factors: Iterable[LinearFactor], n: int) -> Iterator[Split]:
    """Each factor as its split, checked to lie on x_1..x_n. Lazy, so
    `_expand` checks the cap entries before any factor."""
    for factor in factors:
        positive: list[int] = []
        negative: list[int] = []
        for sign, u in factor.terms:
            if not 0 < u <= n:
                raise ValueError(f"factor term on x_{u} lies outside x_1..x_{n} of the cap")
            (positive if sign == 1 else negative).append(u)
        yield positive, negative


def _expand(
    splits: Iterable[Split], caps: Iterable[tuple[int, int]]
) -> tuple[dict[int, int], Field]:
    """The capped expansion behind `expand_capped` and the orientation
    sweep: the product of the splits' factors, keeping every term under
    the cap, with no frontier elimination (`_product` with mask 0).

    `caps` gives (variable, cap) pairs in ascending variable order, as
    `_bit_fields` takes them. Returns the packed terms, which may hold
    entries that cancelled to 0, and the field layout that keys them.
    """
    field = _bit_fields(caps)
    return _product(_packed(splits, field), itertools.repeat(0), 0), field


def expand_capped(factors: Sequence[LinearFactor], cap: ExponentVector) -> CappedPolynomial:
    """Multiply the factors, discarding terms that overflow the cap.

    Factors are taken in the frontier order of `_coefficient`, by the
    largest variable they touch, then by support; the product does not
    depend on the order. Every term under the cap is kept, with no
    frontier elimination (`_expand`), so the map can grow with the size
    of the graph; `_coefficient` retires variables instead when only the
    cap term is wanted. Terms are keyed by packed integers. Terms that
    cancel are skipped as the product goes and dropped once at the end,
    so `packed` holds no zero entry. Raises ValueError for a cap
    entry that is not a nonnegative integer and for a factor term on a
    variable outside x_1..x_n, where n = len(cap).
    """
    cap = tuple(cap)
    n = len(cap)
    terms, field = _expand(_factor_splits(factors, n), enumerate(cap, 1))
    unit = tuple(field[u][2] if u in field else 0 for u in range(1, n + 1))
    return CappedPolynomial(cap, {k: c for k, c in terms.items() if c}, unit)


def _coefficient(splits: Iterable[Split], cap: Mapping[int, int]) -> int:
    """Coefficient of the cap monomial in the product of the splits'
    factors, eliminated in frontier order.

    `cap` maps each variable to its exponent in the monomial, and a
    variable it does not name has cap 0, so D's out-degree map serves as
    it is. Each variable retires at its last step: after it, only terms
    with the variable at exactly its cap survive. Returns 0 once a step
    has no entry that can fire or no term survives.
    """
    field = _bit_fields(sorted(cap.items(), key=itemgetter(0)))
    steps = _packed(splits, field)
    last: dict[int, int] = {}  # each variable's mask -> its last step
    for pos, step in enumerate(steps):
        for _, mask_u, _, _ in step:
            last[mask_u] = pos
    masks = [0] * len(steps)
    for mask_u, pos in last.items():
        masks[pos] |= mask_u
    packed_cap = sum(cap_u for _, cap_u, _ in field.values())
    return _product(steps, masks, packed_cap).get(packed_cap, 0)


def classical_coefficient(D: Orientation) -> int:
    """Coefficient of the out-degree monomial in the classical polynomial.

    Equals the even-odd difference of spanning Eulerian subdigraph counts
    of D itself. Computed on D relabelled in maximum-cardinality search
    order (`Orientation.frontier_relabelled`); the coefficient does not
    depend on the labels.
    """
    D = D.frontier_relabelled()
    return _coefficient(_classical_splits(D), D._out_degree_map)


def additive_coefficient(D: Orientation) -> int:
    """Coefficient of the out-degree monomial in the additive polynomial.

    Equals the even-odd difference for W(D); nonzero certifies that every
    assignment of lists of size out-degree + 1 admits an additive coloring.
    Computed on D relabelled in maximum-cardinality search order
    (`Orientation.frontier_relabelled`); the coefficient does not depend
    on the labels.
    """
    D = D.frontier_relabelled()
    return _coefficient(_additive_splits(D._adjacency(), D.sorted_arcs()), D._out_degree_map)


def _sweep_coefficients(
    G: Graph, examined: int
) -> tuple[dict[int, int], Optional[tuple[int, int]]]:
    """The additive coefficients of orientations 0..examined - 1 of G
    (`orientation_from_index`): their histogram, sorted by value, and the
    first nonzero one as (index, coefficient), None when all vanish.

    Reversing an arc negates its additive factor (Alon and Tarsi, 1992),
    so orientation `index` has the polynomial P_G of orientation 0 times
    (-1)^popcount(index). P_G is expanded once (`_expand`), capped at the
    degree vector, and each orientation's coefficient is read off its
    out-degree monomial. Orientation 0 directs each of G's sorted edges
    as it is, so P_G's splits are read straight off G's neighbourhood map,
    with no orientation, factor objects or per-vertex table: an isolated
    vertex has cap 0 and no field, and costs nothing. The indices are
    walked as a binary counter, so each step reverses fewer than 2 arcs on
    average and costs one lookup of the packed out-degree key.
    """
    adj = G._adj
    edges = G.sorted_edges()
    caps = [(u, len(around)) for u, around in adj.items()]
    terms, field = _expand(_additive_splits(adj, edges), caps)
    get = terms.get
    # Bit i of the index reverses edge i = (u, v), which moves one out-arc
    # from u to v. Going from index - 1 to index sets bit t, the lowest set
    # bit of index, and clears bits 0..t-1: that adds jump[t] to the packed
    # out-degree key and flips the sign t + 1 times. Both ends of an edge
    # are touched, so each has a field, whose third entry is the key of x_u.
    jump, cleared = [], 0
    for u, v in edges:
        flip = field[v][2] - field[u][2]
        jump.append(flip - cleared)
        cleared += flip
    # orientation 0 directs every edge (u, v), u < v, out of u
    key = sum(field[u][2] for u, _ in edges)
    sign = 1
    histogram: dict[int, int] = {}
    first: Optional[tuple[int, int]] = None
    for index in range(examined):
        if index:
            t = (index & -index).bit_length() - 1
            key += jump[t]
            if not t & 1:
                sign = -sign
        coef = sign * get(key, 0)
        histogram[coef] = histogram.get(coef, 0) + 1
        if coef != 0 and first is None:
            first = index, coef
    return dict(sorted(histogram.items())), first
