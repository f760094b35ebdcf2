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

`expand_capped` keeps every term under the cap, which a sweep needs: it
reads one coefficient per orientation off the same product.
`cap_coefficient` wants only the cap monomial, so it also eliminates each
variable at its frontier (frontier-based search; Kawahara et al., IEICE
2017). It takes the factors ordered by the largest variable they touch,
then by support, and once x_u has had its last factor, every term whose
u-exponent is below cap[u] can never reach the cap and is dropped. The
live terms then differ only in the variables whose factors are still in
progress, so the term map grows with the width of that frontier, not with
the size of the graph: on a directed path of 1200 vertices it never holds
more than 3 terms.

`cap_coefficient` keys each term by one packed integer, not by an
exponent vector. Variable u with cap[u] > 0 owns a field of
cap[u].bit_length() bits, the fields laid out in vertex order from the
low end, so a field holds any exponent up to its cap and multiplying by
x_u is one integer add. A cap-0 variable gets no field: its terms can
never fire and are dropped before the product starts. The cap test and
the retirement test each mask the key and compare it with the cap
shifted into place.
"""

from __future__ import annotations

from collections import defaultdict
from dataclasses import dataclass
from typing import Mapping, Sequence

from .graphs import Orientation

ExponentVector = tuple[int, ...]


@dataclass(frozen=True)
class LinearFactor:
    """Signed sum of distinct variables: terms are (sign, vertex) pairs."""

    terms: tuple[tuple[int, int], ...]

    def __post_init__(self) -> None:
        ids = [u for _, u in self.terms]
        if len(set(ids)) != len(ids):
            raise ValueError("repeated variable inside a factor")
        if any(s not in (1, -1) for s, _ in self.terms):
            raise ValueError("signs must be +1 or -1")

    def support(self) -> int:
        return len(self.terms)


@dataclass(frozen=True)
class CappedPolynomial:
    """Sparse terms within a per-variable exponent cap; no zero entries."""

    cap: ExponentVector
    terms: Mapping[ExponentVector, int]

    def coefficient(self, exponents: ExponentVector) -> int:
        if any(e > c for e, c in zip(exponents, self.cap)):
            raise ValueError(f"exponents {exponents} exceed the cap {self.cap}")
        return self.terms.get(tuple(exponents), 0)


def classical_factors(D: Orientation) -> list[LinearFactor]:
    """One (x_v - x_w) factor per arc, in sorted arc order."""
    return [LinearFactor(((1, v), (-1, w))) for v, w in D.sorted_arcs()]


def additive_factors(D: Orientation) -> list[LinearFactor]:
    """Neighbor-sum difference per arc, reduced to the disjoint parts.

    For the arc (v, w) the positive variables are N(w) \\ N(v) and the
    negative ones N(v) \\ N(w); w always appears negatively and v
    positively, so no factor is ever empty.
    """
    factors = []
    for v, w in D.sorted_arcs():
        nv, nw = D.neighbors(v), D.neighbors(w)
        plus = tuple((1, u) for u in sorted(nw - nv))
        minus = tuple((-1, u) for u in sorted(nv - nw))
        assert plus or minus
        factors.append(LinearFactor(plus + minus))
    return factors


def expand_capped(factors: Sequence[LinearFactor], cap: ExponentVector) -> CappedPolynomial:
    """Multiply the factors, discarding terms that overflow the cap.

    Factors are taken smallest support first to keep the working term map
    small; the product does not depend on the order. Every term under the
    cap is kept, with no frontier elimination, so the map can grow with the
    size of the graph; `cap_coefficient` retires variables instead when
    only the cap term is wanted.
    """
    cap = tuple(cap)
    terms: dict[ExponentVector, int] = {(0,) * len(cap): 1}
    for factor in sorted(factors, key=LinearFactor.support):
        nxt: dict[ExponentVector, int] = defaultdict(int)
        for exp, coef in terms.items():
            for sign, u in factor.terms:
                i = u - 1
                if exp[i] + 1 > cap[i]:
                    continue
                bumped = exp[:i] + (exp[i] + 1,) + exp[i + 1 :]
                nxt[bumped] += sign * coef
        terms = {e: c for e, c in nxt.items() if c != 0}
    return CappedPolynomial(cap, terms)


def _frontier_order(factor: LinearFactor) -> tuple[int, int]:
    return max((u for _, u in factor.terms), default=0), factor.support()


def cap_coefficient(factors: Sequence[LinearFactor], cap: ExponentVector) -> int:
    """Coefficient of the cap monomial in the product of the factors.

    Equal to `expand_capped(factors, cap).coefficient(cap)`, computed by
    frontier elimination over packed keys (see the module docstring):
    after the last factor holding x_u, only terms with x_u at exactly
    cap[u] survive. Returns 0 as soon as a factor has no term that can
    fire or no term survives.
    """
    # variable u's field as (mask, cap[u], 1), each shifted into place
    field: dict[int, tuple[int, int, int]] = {}
    packed_cap = width = 0
    for u, c in enumerate(cap, start=1):
        if c:
            bits = c.bit_length()
            field[u] = (((1 << bits) - 1) << width, c << width, 1 << width)
            packed_cap |= c << width
            width += bits
    order = sorted(factors, key=_frontier_order)
    last: dict[int, int] = {}
    steps = []
    for pos, factor in enumerate(order):
        # a term on a cap-0 variable can never fire
        live = [(sign, u) for sign, u in factor.terms if u in field]
        steps.append([(sign, *field[u]) for sign, u in live])
        for _, u in live:
            last[u] = pos
    done_mask = [0] * len(order)
    for u, pos in last.items():
        done_mask[pos] |= field[u][0]
    terms: dict[int, int] = {0: 1}
    for step, mask in zip(steps, done_mask):
        nxt: dict[int, int] = {}
        get = nxt.get
        for key, coef in terms.items():
            for sign, mask_u, cap_u, one in step:
                if key & mask_u < cap_u:
                    bumped = key + one
                    nxt[bumped] = get(bumped, 0) + sign * coef
        full = packed_cap & mask
        terms = {k: c for k, c in nxt.items() if c and k & mask == full}
        if not terms:
            return 0
    return terms.get(packed_cap, 0)


def classical_coefficient(D: Orientation) -> int:
    """Coefficient of the out-degree monomial in the classical polynomial.

    Equals the even-odd difference of spanning Eulerian subdigraph counts
    of D itself.
    """
    return cap_coefficient(classical_factors(D), D.out_degrees())


def additive_coefficient(D: Orientation) -> int:
    """Coefficient of the out-degree monomial in the additive polynomial.

    Equals the even-odd difference for W(D); nonzero certifies that every
    assignment of lists of size out-degree + 1 admits an additive coloring.
    """
    return cap_coefficient(additive_factors(D), D.out_degrees())
