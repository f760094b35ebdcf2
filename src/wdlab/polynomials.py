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

Each factor is spelled once, as its (positive, negative) variables: a
*split*. `_classical_splits` and `_additive_splits` read them off D, and
`expand_capped` takes them from its `LinearFactor`s. One builder
(`_packed`) turns every split into a packed step and a frontier key.

`expand_capped` keeps every term under the cap, which a sweep needs: it
reads one coefficient per orientation off the same product.
`_coefficient`, behind `additive_coefficient` and `classical_coefficient`,
wants only the cap monomial, so it also eliminates each variable at its
frontier (frontier-based search; Kawahara et al., IEICE 2017). Both
engines take the factors ordered by their keys, the largest variable they
touch, then their support. Once x_u has had its last factor, every term
whose u-exponent is below cap[u] can never reach the cap, and
`_coefficient` drops it. The live terms then differ only in the variables
whose factors are still in progress, so the term map grows with the width
of that frontier, not with the size of the graph: on a directed path of
1200 vertices it never holds more than 3 terms.

Both engines key each term by one packed integer, not by an exponent
vector, with one layout (`_bit_fields`). Variable u with cap[u] > 0 owns
a field of cap[u].bit_length() bits, the fields laid out in vertex order
from the low end, so a field holds any exponent up to its cap and
multiplying by x_u is one integer add. A cap-0 variable gets no field:
its terms can never fire and are dropped before the product starts. The
cap test masks the key and compares it with the cap shifted into place,
and so does `_coefficient`'s retirement test. A `CappedPolynomial`
keeps the packed map and each variable's unit; its exponent-vector view
`terms` is built only when it is first read.

A packed *step* holds one (sign, mask, cap, unit) entry per variable that
can fire, and both engines multiply by the steps in one loop
(`_product`). With each step comes a mask of the variables that retire
there; a product is kept only when it already holds the cap in those
fields. `expand_capped` passes mask 0, so it keeps every product. A
coefficient that cancels to 0 is skipped when the next step reads it
rather than dropped by copying the map after every step; `expand_capped`
drops the zeros once, at the end.

The frontier follows the vertex labels, so the labels, not the graph,
would set its width. `additive_coefficient` and `classical_coefficient`
therefore run `_coefficient` on the splits of D relabelled in
maximum-cardinality search order (`Orientation.frontier_relabelled`);
`expand_capped` takes its factors as labelled.
"""

from __future__ import annotations

import itertools
from dataclasses import dataclass
from functools import cached_property
from operator import itemgetter
from typing import Collection, Iterable, Mapping, Sequence

from .graphs import Orientation

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

    def coefficient(self, exponents: ExponentVector) -> int:
        exponents = tuple(exponents)
        if len(exponents) != len(self.cap):
            raise ValueError(
                f"exponents {exponents} have {len(exponents)} entries,"
                f" the cap {self.cap} has {len(self.cap)}"
            )
        # a non-integer entry would pack to the key of another monomial
        if any(not isinstance(e, int) or e < 0 for e in exponents):
            raise ValueError(
                f"exponents {exponents} have an entry that is not a nonnegative integer"
            )
        if any(e > c for e, c in zip(exponents, self.cap)):
            raise ValueError(f"exponents {exponents} exceed the cap {self.cap}")
        return self.packed.get(sum(e * one for e, one in zip(exponents, self.unit)), 0)


def _classical_splits(D: Orientation) -> list[Split]:
    """Each arc's classical factor (x_v - x_w) as its (positive, negative)
    variables, ((v,), (w,)), in sorted arc order."""
    return [((v,), (w,)) for v, w in D.sorted_arcs()]


def _additive_splits(D: Orientation) -> list[Split]:
    """Each arc's additive factor as its (positive, negative) variables, in
    sorted arc order: N(w) \\ N(v) and N(v) \\ N(w) for the arc (v, w).

    v always lands in the positive part and w in the negative one, so
    neither is ever empty.
    """
    adj = D._adjacency()
    splits = []
    for v, w in D.sorted_arcs():
        nv, nw = adj[v], adj[w]
        splits.append((nw - nv, nv - nw))
    return splits


def _factors(splits: Iterable[Split]) -> list[LinearFactor]:
    """Each split as a `LinearFactor`: its positive variables ascending,
    then its negative ones ascending."""
    return [
        LinearFactor(tuple([(1, u) for u in sorted(pos)] + [(-1, u) for u in sorted(neg)]))
        for pos, neg in splits
    ]


def classical_factors(D: Orientation) -> list[LinearFactor]:
    """One (x_v - x_w) factor per arc, in sorted arc order."""
    return _factors(_classical_splits(D))


def additive_factors(D: Orientation) -> list[LinearFactor]:
    """Neighbor-sum difference per arc, reduced to the disjoint parts.

    For the arc (v, w) the positive variables are N(w) \\ N(v) and the
    negative ones N(v) \\ N(w), each ascending; w always appears negatively
    and v positively, so no factor is ever empty.
    """
    return _factors(_additive_splits(D))


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
    retire at the step, `expand_capped` mask 0, which keeps every product.
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


def expand_capped(factors: Sequence[LinearFactor], cap: ExponentVector) -> CappedPolynomial:
    """Multiply the factors, discarding terms that overflow the cap.

    Factors are taken in the frontier order of `_coefficient`, by the
    largest variable they touch, then by support; the product does not
    depend on the order. Every term under the cap is kept, with no
    frontier elimination (`_product` with mask 0), so the map can grow
    with the size of the graph; `_coefficient` retires variables instead
    when only the cap term is wanted. Terms are keyed by packed integers.
    Terms that cancel are skipped as the product goes and dropped once at
    the end, so `packed` holds no zero entry. Raises ValueError for a cap
    entry that is not a nonnegative integer and for a factor term on a
    variable outside x_1..x_n, where n = len(cap).
    """
    cap = tuple(cap)
    field = _bit_fields(enumerate(cap, 1))
    n = len(cap)
    splits = []
    for factor in factors:
        positive: list[int] = []
        negative: list[int] = []
        for sign, u in factor.terms:
            if not 0 < u <= n:
                raise ValueError(f"factor term on x_{u} lies outside x_1..x_{n} of the cap")
            (positive if sign == 1 else negative).append(u)
        splits.append((positive, negative))
    terms = _product(_packed(splits, field), itertools.repeat(0), 0)
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
    return _coefficient(_additive_splits(D), D._out_degree_map)
