"""Counting spanning Eulerian subdigraphs, even versus odd.

An arc subset is (spanning) Eulerian when every vertex has equal in- and
out-degree within the subset; the empty subset always qualifies and counts
as even. This module holds one frontier counter, which reads a *plan*,
one entry per arc of an orientation D: a tail, the targets whose choice
flips the parity, and the targets whose choice keeps it. Two plans feed
it. The plan of D itself (`count_ee_eo_classic`) has one flipping target
per arc, its head; the plan of W(D) (`count_ee_eo_wd`) walks gamma-path
choices per arc of D instead of raw arc subsets of W(D). Both counts
run once, on D relabelled in maximum-cardinality search order, the
fewest neighbours breaking ties (`Orientation.frontier_relabelled`):
the counter orders the arcs by vertex label, so the labels, not the
graph, would set the frontier width, and the relabelling changes how
fast it answers, never the answer. The counter keeps one level of
balance states at a time, each packed into one integer, takes the arcs
in frontier order, by the largest and then the smallest vertex each
touches, and prunes each state on the vertices the current arc touches
(see `_count`). Tests hold both counts to a brute-force oracle of their own, a recursive
walk over arc subsets, and each to the matching coefficient route of
`polynomials`; the counter shares code with neither.

All counts are exact Python integers; nothing here can overflow.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Optional

from .errors import BoundExceededError
from .graphs import Orientation, _natural

#: Most balance states one level of the frontier counter may hold by default.
DEFAULT_WD_STATE_BOUND = 1_200_000

#: Per arc of D: its tail, the targets that flip the parity, the others.
Plan = list[tuple[int, tuple[int, ...], tuple[int, ...]]]


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


def count_ee_eo_classic(D: Orientation, bound: Optional[int] = None) -> EulerianCount:
    """Even/odd Eulerian counts of the orientation itself.

    The frontier counter on the plan of D (`_classical_plan`), run once
    as in `count_ee_eo_wd`: `bound` is its state bound, and it answers on any
    number of arcs where the frontier stays narrow. ee - eo is the coefficient of
    the classical graph polynomial (Alon and Tarsi, Combinatorica 1992).
    """
    return _count(_classical_plan(D.frontier_relabelled()), bound)


def _classical_plan(D: Orientation) -> Plan:
    """(tail, (head,), ()) per arc of D: one target, whose choice adds the
    arc to the subset and so flips the parity."""
    return [(v, (w,), ()) for v, w in D.sorted_arcs()]


def _wd_arc_plan(D: Orientation) -> Plan:
    """(tail, direct targets, detour targets) per arc of D, in arc order.

    The targets split N(v) symm-diff N(w), read straight off the two
    neighbourhoods: N(v) \\ N(w) are direct, N(w) \\ N(v) without v detours.
    A direct path has 3 arcs and flips the parity; a detour has 4.
    """
    adj = D._adjacency()
    plan = []
    for v, w in D.sorted_arcs():
        nv, nw = adj[v], adj[w]
        detour = sorted(nw - nv)
        detour.remove(v)  # v is in N(w) but is never a target
        plan.append((v, tuple(sorted(nv - nw)), tuple(detour)))
    return plan


def count_ee_eo_wd(D: Orientation, bound: Optional[int] = None) -> EulerianCount:
    """Even/odd Eulerian counts of W(D) without materializing W(D).

    Chooses per arc of D either no gamma-path or one gamma-path target;
    edge-disjointness of distinct-arc gamma-paths makes this choice space
    exact, and star balance is the only Eulerian constraint left. The
    balance of star z is the number of chosen paths leaving z* minus those
    entering it, and a selection is Eulerian when every balance is zero.
    The frontier counter runs once, on the plan of these choices
    (`_wd_arc_plan`) for D relabelled in search order.

    Raises BoundExceededError once one level holds more than `bound`
    states (default DEFAULT_WD_STATE_BOUND) in search order.
    """
    return _count(_wd_arc_plan(D.frontier_relabelled()), bound)


def _frontier_key(entry: tuple[int, tuple[int, ...], tuple[int, ...]]) -> tuple[int, int]:
    """The largest and then the smallest vertex a plan entry touches."""
    touched = (entry[0], *entry[1], *entry[2])
    return max(touched), min(touched)


def _count(plan: Plan, bound: Optional[int] = None) -> EulerianCount:
    """Even/odd counts of the balanced selections of a plan.

    A selection chooses per plan entry either nothing or one of its
    targets x, which sends one unit from the tail to x. It is balanced when
    every vertex sends as much as it receives, and its parity counts the
    chosen targets that flip it. For W(D) the balance of vertex z is that
    of its star z*.

    The entries are taken in frontier order, one level at a time
    (frontier-based search; Kawahara et al., IEICE 2017): sorted by the
    largest vertex they touch, so that every vertex's remaining capacity
    runs out early and pins its balance to zero, then by the smallest, so
    that among the entries a new vertex brings in, those that close the
    oldest vertices on the frontier come first; equal keys keep the plan's
    order. A level maps each packed balance key reached so far to its
    (even, odd) selection counts. After each entry, a state survives only
    if the vertices the entry touches can still close to zero with the
    entries left: -out <= balance <= in, counting the remaining units out
    of and into each vertex. Once a vertex's last entry is past, its
    balance is pinned to zero, so the live states grow with the width of the
    frontier; on a directed path of 1200 vertices a level never holds more
    than 3. Only the current level is kept, and the answer is the all-zero
    state after the last entry.

    A key is one integer with a field per vertex that some entry touches;
    an untouched vertex's balance is always 0 and gets no field, so the
    counter does no per-vertex work. The field of vertex z stores balance +
    out_total(z), which lies in 0..out_total(z) + in_total(z) and is never
    negative, so sending a unit from v to x adds one precomputed constant.
    Above each field sits a guard bit, always 0 in a key: adding to the
    targets' fields their distance from the top of the field sets the
    guard bit of exactly the targets above their new upper end, which one
    mask then reads for all of them at once.

    On sparse inputs a level holds about two states, so the fixed work per
    entry sets the cost, and it is kept to plain loops: the vertex totals
    and bounds are dicts over the vertices the plan touches, and one loop
    over an entry's targets builds its choices, the guard-bit map of
    forced choices, the guard mask and the probe. Each vertex's lower and
    upper field bounds are kept in its place and move by one unit when an
    entry leaves or enters it.

    Raises BoundExceededError once one level holds more than `bound`
    states (default DEFAULT_WD_STATE_BOUND).
    """
    limit = DEFAULT_WD_STATE_BOUND if bound is None else _natural("bound", bound)
    plan = sorted(plan, key=_frontier_key)
    # units out of and into each vertex the plan touches; no other vertex
    # gets an entry, so nothing here is per vertex
    out_total: dict[int, int] = {}
    in_total: dict[int, int] = {}
    for v, flip, keep in plan:
        out_total[v] = out_total.get(v, 0) + 1
        for x in flip + keep:
            in_total[x] = in_total.get(x, 0) + 1
    # the field layout, its bias and the guard bits are in the docstring;
    # low[z] and high[z] hold the bounds of vertex z's field, in z's place,
    # for the entries not yet taken: (out_total - rem_out) and (out_total +
    # rem_in) times one[z], where rem_out and rem_in count those entries
    field: dict[int, int] = {}
    one: dict[int, int] = {}
    low: dict[int, int] = {}
    high: dict[int, int] = {}
    zero = width = 0
    for z in sorted(out_total.keys() | in_total.keys()):
        out_z = out_total.get(z, 0)
        span = out_z + in_total.get(z, 0)
        bits = span.bit_length()
        one[z] = 1 << width
        field[z] = ((1 << bits) - 1) << width
        low[z] = 0
        high[z] = span << width
        zero |= out_z << width
        width += bits + 1
    level: dict[int, list[int]] = {zero: [1, 0]}
    for v, flip, keep in plan:
        # Every state was feasible before this entry, and the entry lowers
        # only v's out-capacity and each target's in-capacity by one. So v
        # stays feasible unless it sits at the new lower end minus one, where
        # only sending a unit (v + 1) saves it; a target stays feasible unless it
        # sits at its new upper end plus one, where only choosing it saves it.
        # Vertex z's field reads balance + out_total(z), so each balance bound
        # is a compare of the masked key against a constant in z's place.
        v_one, v_field, v_high = one[v], field[v], high[v]
        v_low = low[v] = low[v] + v_one
        choices = []
        forced = {}
        guards = probe = 0
        for x in flip + keep:
            x_one, x_field = one[x], field[x]
            x_high = high[x] = high[x] - x_one
            choice = (x_field, low[x], v_one - x_one, x in flip)
            choices.append(choice)
            x_guard = x_field + x_one  # the bit just above x's field
            forced[x_guard] = choice
            guards |= x_guard
            # key + probe sets x's guard bit exactly when x is above its new upper end
            probe += x_guard - x_high - x_one
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
                    bumped = key + step
                    slot = get(bumped)
                    # a flipping target swaps the pair; spelled out twice
                    # rather than through a swapped pair per product
                    if flips:
                        if slot is None:
                            nxt[bumped] = [odd, even]
                        else:
                            slot[0] += odd
                            slot[1] += even
                    elif slot is None:
                        nxt[bumped] = [even, odd]
                    else:
                        slot[0] += even
                        slot[1] += odd
            if len(nxt) > limit:
                raise BoundExceededError(
                    f"a level reached {len(nxt)} balance states,"
                    f" above the state bound {limit}"
                )
        level = nxt
    even, odd = level.get(zero, (0, 0))
    return EulerianCount(even, odd)
