"""Counting spanning Eulerian subdigraphs, even versus odd.

An arc subset is (spanning) Eulerian when every vertex has equal in- and
out-degree within the subset; the empty subset always qualifies and counts
as even. Two independent routes are provided: a generic pruned
include/exclude enumeration that works on any digraph, and a structured
counter for W(D) that walks gamma-path choices per arc of D instead of raw
arc subsets. Tests hold the two routes to exact agreement.

All counts are exact Python integers; nothing here can overflow.
"""

from __future__ import annotations

from collections import Counter
from dataclasses import dataclass
from typing import Hashable, Iterator, Optional

from .errors import BoundExceededError
from .graphs import Orientation, symmetric_difference_neighborhoods

#: Largest arc count for which subset enumeration is allowed by default.
DEFAULT_EULERIAN_BOUND = 24

Arc = tuple[Hashable, Hashable]


@dataclass(frozen=True)
class EulerianCount:
    """Tally of spanning Eulerian subdigraphs by edge-count parity."""

    ee: int
    eo: int

    @property
    def difference(self) -> int:
        return self.ee - self.eo

    @property
    def total(self) -> int:
        return self.ee + self.eo


def _arc_list(H) -> list[Arc]:
    """Sorted arc list of an Orientation, WDigraph, or raw arc iterable."""
    raw = list(H.arcs if hasattr(H, "arcs") else H)
    if len(set(raw)) != len(raw):
        raise ValueError("duplicate arcs in digraph")
    for v, w in raw:
        if v == w:
            raise ValueError(f"self-loop at {v}")
    return sorted(raw, key=lambda a: (str(a[0]), str(a[1])))


def _check_bound(m: int, bound: Optional[int]) -> None:
    limit = DEFAULT_EULERIAN_BOUND if bound is None else bound
    if m > limit:
        raise BoundExceededError(
            f"digraph has {m} arcs, above the enumeration bound {limit}"
            " (raise WD_LAB_BOUND or the bound argument)"
        )


def enumerate_eulerian_spanning(H, bound: Optional[int] = None) -> Iterator[tuple[Arc, ...]]:
    """Yield every balanced arc subset, the empty subset first.

    Order is deterministic: depth-first over the sorted arc list, skipping
    each arc before taking it. Subsets need not be connected. Pruning uses
    per-vertex remaining in/out capacity, so only prefixes that can still
    balance are explored; the yielded set is exactly the balanced subsets.
    """
    arcs = _arc_list(H)
    m = len(arcs)
    _check_bound(m, bound)
    rem_out = Counter(a[0] for a in arcs)
    rem_in = Counter(a[1] for a in arcs)
    bal: Counter = Counter()
    chosen: list[Arc] = []

    def feasible(z) -> bool:
        return bal[z] <= rem_in[z] and -bal[z] <= rem_out[z]

    def rec(i: int) -> Iterator[tuple[Arc, ...]]:
        if i == m:
            # feasibility at the final incident arc of each vertex forces
            # every balance to zero here
            yield tuple(chosen)
            return
        v, w = arcs[i]
        rem_out[v] -= 1
        rem_in[w] -= 1
        if feasible(v) and feasible(w):
            yield from rec(i + 1)
        bal[v] += 1
        bal[w] -= 1
        if feasible(v) and feasible(w):
            chosen.append(arcs[i])
            yield from rec(i + 1)
            chosen.pop()
        bal[v] -= 1
        bal[w] += 1
        rem_out[v] += 1
        rem_in[w] += 1

    return rec(0)


def count_ee_eo_bruteforce(H, bound: Optional[int] = None) -> EulerianCount:
    """Tally the enumeration stream by subset parity."""
    ee = eo = 0
    for subset in enumerate_eulerian_spanning(H, bound):
        if len(subset) % 2:
            eo += 1
        else:
            ee += 1
    return EulerianCount(ee, eo)


def count_ee_eo_classic(D: Orientation, bound: Optional[int] = None) -> EulerianCount:
    """Even/odd Eulerian counts of the orientation itself."""
    return count_ee_eo_bruteforce(D, bound)


# ---------------------------------------------------------------------------
# Structured counter for W(D)
# ---------------------------------------------------------------------------

class _WdChoices:
    """Per-arc gamma-path choices of W(D) plus suffix capacity tables."""

    def __init__(self, D: Orientation):
        self.n = D.n
        self.arcs = D.sorted_arcs()
        self.direct: list[tuple[int, ...]] = []
        self.detour: list[tuple[int, ...]] = []
        for v, w in self.arcs:
            d, t = symmetric_difference_neighborhoods(D, v, w)
            self.direct.append(tuple(sorted(d)))
            self.detour.append(tuple(sorted(t)))
        m = len(self.arcs)
        zero = (0,) * (self.n + 1)
        self.rem_out: list[tuple[int, ...]] = [zero] * (m + 1)
        self.rem_in: list[tuple[int, ...]] = [zero] * (m + 1)
        for i in range(m - 1, -1, -1):
            ro = list(self.rem_out[i + 1])
            ri = list(self.rem_in[i + 1])
            ro[self.arcs[i][0]] += 1
            for x in self.direct[i] + self.detour[i]:
                ri[x] += 1
            self.rem_out[i] = tuple(ro)
            self.rem_in[i] = tuple(ri)

    def count_from(self, i: int, bal: tuple[int, ...], memo: dict) -> tuple[int, int]:
        """(even, odd) completions of a partial selection with star balances `bal`.

        bal[z-1] is the number of chosen paths leaving star z minus those
        entering it. A selection is accepted only if all balances close to
        zero; parity tracks the number of chosen length-3 paths.
        """
        key = (i, bal)
        cached = memo.get(key)
        if cached is not None:
            return cached
        ro, ri = self.rem_out[i], self.rem_in[i]
        for z in range(1, self.n + 1):
            b = bal[z - 1]
            if b > ri[z] or -b > ro[z]:
                memo[key] = (0, 0)
                return 0, 0
        if i == len(self.arcs):
            memo[key] = (1, 0)
            return 1, 0
        v = self.arcs[i][0]
        even, odd = self.count_from(i + 1, bal, memo)
        work = list(bal)
        for x in self.direct[i]:
            work[v - 1] += 1
            work[x - 1] -= 1
            sub_even, sub_odd = self.count_from(i + 1, tuple(work), memo)
            even += sub_odd  # a direct path has 3 arcs: parity flips
            odd += sub_even
            work[v - 1] -= 1
            work[x - 1] += 1
        for x in self.detour[i]:
            work[v - 1] += 1
            work[x - 1] -= 1
            sub_even, sub_odd = self.count_from(i + 1, tuple(work), memo)
            even += sub_even  # a detour path has 4 arcs: parity kept
            odd += sub_odd
            work[v - 1] -= 1
            work[x - 1] += 1
        memo[key] = (even, odd)
        return even, odd


def count_ee_eo_wd(D: Orientation) -> EulerianCount:
    """Even/odd Eulerian counts of W(D) without materializing W(D).

    Walks the arcs of D in sorted order, choosing per arc either no path
    or one gamma-path target, with memoization on (arc index, star
    balances). Edge-disjointness of distinct-arc gamma-paths makes the
    choice space exact, and star balance is the only Eulerian constraint
    left to track.
    """
    even, odd = _WdChoices(D).count_from(0, (0,) * D.n, {})
    return EulerianCount(even, odd)


# ---------------------------------------------------------------------------
# Orientation counting
# ---------------------------------------------------------------------------

def count_orientations_same_outdeg(H, bound: Optional[int] = None) -> int:
    """Orientations of the underlying graph matching H's out-degrees.

    Computed as ee + eo of H: reversing the arcs of a balanced subset is a
    bijection between such orientations and spanning Eulerian subdigraphs.
    The count's parity is the certificate bit: odd forces ee != eo.
    """
    return count_ee_eo_bruteforce(H, bound).total


def count_orientations_same_outdeg_direct(H) -> int:
    """The same count by direct search over edge directions.

    Independent of the Eulerian route: backtracks over the underlying
    undirected edges, pruning when a vertex's out-degree overshoots its
    target or can no longer reach it. Serves as the oracle for
    `count_orientations_same_outdeg`.
    """
    arcs = _arc_list(H)
    arc_set = set(arcs)
    for v, w in arcs:
        if (w, v) in arc_set:
            raise ValueError(f"both directions of {{{v}, {w}}} present")
    target = Counter(a[0] for a in arcs)
    out: Counter = Counter()
    rem = Counter()
    for v, w in arcs:
        rem[v] += 1
        rem[w] += 1

    def reachable(z) -> bool:
        return out[z] <= target[z] <= out[z] + rem[z]

    def rec(i: int) -> int:
        if i == len(arcs):
            return 1
        v, w = arcs[i]
        rem[v] -= 1
        rem[w] -= 1
        total = 0
        for head in (v, w):
            out[head] += 1
            if reachable(v) and reachable(w):
                total += rec(i + 1)
            out[head] -= 1
        rem[v] += 1
        rem[w] += 1
        return total

    return rec(0)
