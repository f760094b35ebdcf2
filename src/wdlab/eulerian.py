"""Counting spanning Eulerian subdigraphs, even versus odd.

An arc subset is (spanning) Eulerian when every vertex has equal in- and
out-degree within the subset; the empty subset always qualifies and counts
as even. Two independent routes are provided: a generic pruned
include/exclude enumeration that works on any digraph, and a structured
counter for W(D) that walks gamma-path choices per arc of D instead of raw
arc subsets. The latter keeps one level of star-balance states at a time,
each packed into one integer, takes the arcs in frontier order and prunes
each state on the stars the current arc touches (see `count_ee_eo_wd`).
Tests hold the two routes to exact agreement, and the W(D) counter to the
coefficient route of `polynomials`, which it does not share code with.

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
#: Most balance states one level of the W(D) counter may hold by default.
DEFAULT_WD_STATE_BOUND = 1_200_000

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

def _wd_arc_plan(D: Orientation) -> list[tuple[int, tuple[int, ...], tuple[int, ...]]]:
    """(tail, direct targets, detour targets) per arc of D, in frontier order.

    Arcs are sorted by the largest star they touch (their tail or a
    target), then by their number of targets, so that every star's
    remaining capacity runs out early and pins its balance to zero.
    """
    plan = []
    for v, w in D.sorted_arcs():
        direct, detour = symmetric_difference_neighborhoods(D, v, w)
        plan.append((v, tuple(sorted(direct)), tuple(sorted(detour))))
    return sorted(plan, key=lambda a: (max(a[0], *a[1], *a[2]), len(a[1]) + len(a[2])))


def count_ee_eo_wd(D: Orientation, bound: Optional[int] = None) -> EulerianCount:
    """Even/odd Eulerian counts of W(D) without materializing W(D).

    Chooses per arc of D either no gamma-path or one gamma-path target;
    edge-disjointness of distinct-arc gamma-paths makes this choice space
    exact, and star balance is the only Eulerian constraint left. The
    balance of star z is the number of chosen paths leaving z* minus those
    entering it, and a selection is Eulerian when every balance is zero.

    The arcs are taken in the order of `_wd_arc_plan`, one level at a time
    (frontier-based search; Kawahara et al., IEICE 2017): a level maps each
    packed balance key reached so far to its (even, odd) selection counts,
    where parity counts the chosen direct (3-arc) paths; detours have 4
    arcs. After each arc, a state survives only if the stars the arc
    touches can still close to zero with the arcs left: -out <= balance <=
    in, counting the remaining paths out of and into each star. Once a
    star's last arc is past, its balance is pinned to zero, so the live
    states grow with the width of the frontier; on a directed path of 1200
    vertices a level never holds more than 3. Only the current level is
    kept, and the answer is the all-zero state after the last arc.

    A key is one integer with a field per star that some arc touches; an
    untouched star's balance is always 0 and gets no field, so the counter
    does no per-vertex work. The field of star z stores balance +
    out_total(z), which lies in 0..out_total(z) + in_total(z) and is never
    negative, so taking a path from v to x adds one precomputed constant.
    Above each field sits a guard bit, always 0 in a key: adding to the
    targets' fields their distance from the top of the field sets the
    guard bit of exactly the targets above their new upper end, which one
    mask then reads for all of them at once.

    Raises BoundExceededError once one level holds more than `bound`
    states (default DEFAULT_WD_STATE_BOUND).
    """
    limit = DEFAULT_WD_STATE_BOUND if bound is None else bound
    plan = _wd_arc_plan(D)
    rem_out = Counter(v for v, _, _ in plan)
    rem_in = Counter(x for _, direct, detour in plan for x in direct + detour)
    # the field layout, its bias and the guard bits are in the docstring
    out_total = rem_out.copy()
    field: dict[int, int] = {}
    one: dict[int, int] = {}
    guard: dict[int, int] = {}
    zero = width = 0
    for z in sorted(rem_out.keys() | rem_in.keys()):
        bits = (rem_out[z] + rem_in[z]).bit_length()
        one[z] = 1 << width
        field[z] = ((1 << bits) - 1) << width
        guard[z] = 1 << (width + bits)
        zero |= rem_out[z] << width
        width += bits + 1
    level: dict[int, list[int]] = {zero: [1, 0]}
    for v, direct, detour in plan:
        rem_out[v] -= 1
        for x in direct + detour:
            rem_in[x] -= 1
        # Every state was feasible before this arc, and the arc lowers only
        # v's out-capacity and each target's in-capacity by one. So v stays
        # feasible unless it sits at the new lower end minus one, where only
        # taking a path (v + 1) saves it; a target stays feasible unless it
        # sits at its new upper end plus one, where only choosing it saves it.
        # Star z's field reads balance + out_total(z), so each balance bound
        # is a compare of the masked key against a constant in z's place.
        v_field, v_out = field[v], out_total[v]
        v_low = (v_out - rem_out[v]) * one[v]
        v_high = (v_out + rem_in[v]) * one[v]
        arc_targets = direct + detour
        choices = [
            (field[x], (out_total[x] - rem_out[x]) * one[x], one[v] - one[x], x in direct)
            for x in arc_targets
        ]
        forced = {guard[x]: choice for x, choice in zip(arc_targets, choices)}
        guards = sum(forced)
        # key + probe sets x's guard bit exactly when x is above its new upper end
        probe = sum(guard[x] - (out_total[x] + rem_in[x] + 1) * one[x] for x in arc_targets)
        nxt: dict[int, list[int]] = {}
        get = nxt.get
        for key, (even, odd) in level.items():
            over = (key + probe) & guards
            if over:
                if over & (over - 1):  # two targets must be chosen
                    continue
                targets = (forced[over],)
            else:
                targets = choices
                if key & v_field >= v_low:
                    slot = get(key)
                    if slot is None:
                        nxt[key] = [even, odd]
                    else:
                        slot[0] += even
                        slot[1] += odd
            if key & v_field < v_high:
                for x_field, x_low, step, flips in targets:
                    if key & x_field <= x_low:
                        continue
                    sub_even, sub_odd = (odd, even) if flips else (even, odd)
                    bumped = key + step
                    slot = get(bumped)
                    if slot is None:
                        nxt[bumped] = [sub_even, sub_odd]
                    else:
                        slot[0] += sub_even
                        slot[1] += sub_odd
            if len(nxt) > limit:
                raise BoundExceededError(
                    f"a W(D) level reached {len(nxt)} balance states,"
                    f" above the state bound {limit} (raise the bound argument)"
                )
        level = nxt
    even, odd = level.get(zero, (0, 0))
    return EulerianCount(even, odd)
