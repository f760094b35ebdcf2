"""Seeded instance sets and per-instance pipelines for the four workloads.

Every instance is produced as file-format text, so each pass parses it
afresh, the way `wd-lab` does; no `cached_property` state on a parsed
`Orientation` survives from one pass to the next. Sizes follow a fixed
schedule. Of the random shapes (orientations, edge sets), three in four
form a core drawn from a fixed corpus seed, the same in every run, and
every fourth is drawn from the run's seed; the run's seed also draws
every list value. One random shape can cost several times another of the
same size, so with every shape drawn from the seed a few of them would
set a seed's pass time and tail latency; the core keeps the timings of
different seeds comparable while each seed still brings inputs of its
own. Inputs are built here rather than with the library's generators, so
that no change to the library can change them.

The pipelines call the library through its modules (`graphs.parse`, not a
name bound at import), so the wrappers that `spans.Tracer` installs on
those modules see every call.
"""

from __future__ import annotations

import itertools
import random
from dataclasses import dataclass, field
from typing import Callable, Optional

from wdlab import coloring, eulerian, graphs, polynomials, wd
from wdlab.errors import BoundExceededError

WORKLOADS = ("thin", "dense", "sweep", "lists")

#: The paper's three worked orientations on four vertices, with their W(D)
#: counts (ee, eo) and additive coefficients.
PAPER = {
    "d1": ([(1, 2), (1, 3), (2, 4), (3, 2)], (3, 1), 2),
    "d2": ([(2, 1), (4, 1), (1, 3), (3, 4), (3, 2)], (2, 8), -6),
    "d3": ([(2, 1), (3, 2), (3, 4), (4, 1)], (12, 0), 12),
}

#: Largest value a seeded list may hold.
LIST_VALUE_MAX = 1000


#: Every SEEDED_EVERY-th random shape is drawn from the run's seed; the
#: others come from the fixed core.
SEEDED_EVERY = 4


class Draws:
    """The two random sources of one instance set."""

    def __init__(self, workload: str, seed: int) -> None:
        self.core = random.Random(f"{workload}:core")
        self.seeded = random.Random(f"{workload}:{seed}")

    def shape(self, i: int) -> random.Random:
        """Source of the i-th random shape of a size class."""
        return self.seeded if i % SEEDED_EVERY == SEEDED_EVERY - 1 else self.core


class CheckFailed(Exception):
    """A result broke one of the paper's identities or a pinned value."""


@dataclass
class Instance:
    """One input: its file text plus what the pipeline needs besides it."""

    iid: str
    text: str
    lists: Optional[dict[int, list[int]]] = None
    expect: dict = field(default_factory=dict)


@dataclass
class Outcome:
    """What a pipeline returns for one instance.

    `record` is the part pinned by the digest: answers every correct
    implementation must reproduce exactly. `bounded` is true when a library
    bound stopped a step. `detail` holds what the checks and the CLI layer
    compare against.
    """

    record: list
    bounded: bool = False
    detail: dict = field(default_factory=dict)


def orientation_text(n: int, arcs) -> str:
    return "".join([f"{n}\n"] + [f"{v} -> {w}\n" for v, w in sorted(arcs)])


def graph_text(n: int, edges) -> str:
    return "".join([f"{n}\n"] + [f"{u} -- {v}\n" for u, v in sorted(edges)])


def _orient(rng: random.Random, edges) -> list[tuple[int, int]]:
    return [(u, v) if rng.random() < 0.5 else (v, u) for u, v in edges]


def _out_degrees(n: int, arcs) -> list[int]:
    out = [0] * (n + 1)
    for v, _ in arcs:
        out[v] += 1
    return out


def _seeded_lists(rng: random.Random, n: int, sizes) -> dict[int, list[int]]:
    return {
        v: sorted(rng.sample(range(1, LIST_VALUE_MAX + 1), sizes[v]))
        for v in range(1, n + 1)
    }


def _certificate_instance(rng, iid, n, arcs, **expect) -> Instance:
    out = _out_degrees(n, arcs)
    lists = _seeded_lists(rng, n, [d + 1 for d in out])
    return Instance(iid, orientation_text(n, arcs), lists, expect)


def _path(n):
    return [(i, i + 1) for i in range(1, n)]


def _cycle(n):
    return [(i, i % n + 1) for i in range(1, n + 1)]


def _sun(k):
    m = 2 * k
    arcs = []
    for i in range(1, m + 1):
        nxt = i % m + 1
        arcs += [(i, nxt), (i, m + i), (nxt, m + i)]
    return 2 * m, arcs


#: Random instances of each shape in a `thin` pass.
THIN_RANDOM = 50


def thin_instances(seed: int) -> list[Instance]:
    """Paths, cycles and suns: maximum degree at most 3, or a sun.

    Per pass: d1-d3, suns k=3 and k=4, directed paths and cycles, and 50
    randomly oriented paths and 50 randomly oriented cycles. The random
    paths have 40..120 vertices, spaced quadratically so that small ones
    are more common. The random cycles have 20..44 vertices: above that the
    cost of one random cycle varies so much with its orientation (standard
    deviation 60-100% of the mean, at 60-170 ms) that a few of them would
    set the pass time of a seed. The directed cycles, whose cost is the
    same for every seed, carry the larger cycle sizes.
    """
    draws = Draws("thin", seed)
    lists = draws.seeded
    out = []
    for name, (arcs, counts, coef) in PAPER.items():
        out.append(_certificate_instance(lists, name, 4, arcs, counts=counts, coef=coef))
    for k in (3, 4):
        n, arcs = _sun(k)
        out.append(_certificate_instance(lists, f"sun{k}", n, arcs))
    for n in (20, 30, 40, 50):
        out.append(_certificate_instance(lists, f"dpath{n}", n, _path(n)))
    for n in (12, 16, 20, 24, 28, 32):
        out.append(_certificate_instance(lists, f"dcycle{n}", n, _cycle(n)))
    for i in range(THIN_RANDOM):
        n = 40 + round(80 * (i / (THIN_RANDOM - 1)) ** 2)
        arcs = _orient(draws.shape(i), _path(n))
        out.append(_certificate_instance(lists, f"path{n}.{i}", n, arcs))
    for i in range(THIN_RANDOM):
        n = 20 + (i * 24) // (THIN_RANDOM - 1)
        arcs = _orient(draws.shape(i), _cycle(n))
        out.append(_certificate_instance(lists, f"cycle{n}.{i}", n, arcs))
    return out


#: Vertex counts of the `dense` workload and how many instances of each a
#: pass holds. Per-instance cost grows steeply with n, so the large sizes
#: are fewer; otherwise a handful of n=11 graphs would set the pass time.
#: p50 falls inside the n=9 graphs and p90 inside the n=10 ones.
DENSE_SCHEDULE = ((8, 80), (9, 150), (10, 60), (11, 5))

#: Vertex count whose graphs all come from the core. One n=11 graph holds
#: the run's peak memory; a seeded one moved `peak_rss_mb` by a fifth.
DENSE_CORE_N = 11


def dense_instances(seed: int) -> list[Instance]:
    """Seeded orientations of G(n, M) with M = round(0.3 * C(n, 2)).

    Fixing the edge count at its G(n, 0.3) mean, rather than drawing it,
    keeps the pass time of one seed close to that of another.
    """
    draws = Draws("dense", seed)
    out = []
    for n, count in DENSE_SCHEDULE:
        pairs = list(itertools.combinations(range(1, n + 1), 2))
        m = round(0.3 * len(pairs))
        for i in range(count):
            rng = draws.core if n == DENSE_CORE_N else draws.shape(i)
            arcs = _orient(rng, rng.sample(pairs, m))
            out.append(_certificate_instance(draws.seeded, f"g{n}.{i}", n, arcs))
    return out


def _connected_graph(rng: random.Random, n: int, m: int) -> list[tuple[int, int]]:
    """Random spanning tree plus random extra edges, m edges in all."""
    order = list(range(1, n + 1))
    rng.shuffle(order)
    edges = set()
    for i in range(1, n):
        u, v = order[i], order[rng.randrange(i)]
        edges.add((min(u, v), max(u, v)))
    rest = [p for p in itertools.combinations(range(1, n + 1), 2) if p not in edges]
    edges.update(rng.sample(rest, m - (n - 1)))
    return sorted(edges)


#: (vertices, edges, graphs) of the `sweep` workload; a graph with m edges
#: has 2^m orientations to sweep. The classes are far enough apart in cost
#: that p50 falls inside the (5, 6) graphs and p90 inside the (5, 9) ones,
#: the heaviest class. Every graph on 5 vertices with 9 edges is K5 less
#: one edge, so its cost is the same for every seed; heavier classes (6 or
#: 7 vertices with 9 edges) cost 130-370 ms a graph, most of a pass, and
#: vary by a quarter with the graph.
SWEEP_SCHEDULE = ((5, 5, 14), (6, 5, 14), (5, 6, 40), (6, 6, 6), (7, 6, 5),
                  (5, 7, 6), (5, 9, 15))


def sweep_instances(seed: int) -> list[Instance]:
    """Seeded connected graphs on 5..7 vertices with at most 9 edges."""
    draws = Draws("sweep", seed)
    out = []
    for n, m, count in SWEEP_SCHEDULE:
        for i in range(count):
            edges = _connected_graph(draws.shape(i), n, m)
            out.append(Instance(f"sweep{n}.{m}.{i}", graph_text(n, edges), expect={"m": m}))
    return out


def _bipartite_graph(rng: random.Random, n: int) -> list[tuple[int, int]]:
    """Random connected bipartite graph: a tree plus extra cross edges."""
    side = {v: v % 2 for v in range(1, n + 1)}
    edges = set()
    for v in range(2, n + 1):
        u = rng.choice([w for w in range(1, v) if side[w] != side[v]])
        edges.add((u, v))
    cross = [(u, v) for u, v in itertools.combinations(range(1, n + 1), 2)
             if side[u] != side[v] and (u, v) not in edges]
    edges.update(rng.sample(cross, len(cross) // 4))
    return sorted(edges)


def lists_instances(seed: int) -> list[Instance]:
    """Exhaustive "none" answers and guaranteed answers, about half each.

    52 odd cycles C9..C15 with every list {1, 2}: the search walks the whole
    product and answers "none". 48 random orientations of connected
    bipartite graphs on 8..12 vertices with seeded lists of size
    out-degree + 1: a bipartite graph meets the simplicial-sink hypothesis
    vacuously, so the coefficient is nonzero and a coloring must exist.
    The larger "none" half puts p50 and p90 inside that deterministic part.
    """
    draws = Draws("lists", seed)
    out = []
    for i in range(52):
        n = (9, 11, 13, 15)[i % 4]
        lists = {v: [1, 2] for v in range(1, n + 1)}
        out.append(Instance(f"odd{n}.{i}", graph_text(n, _cycle(n)), lists, {"none": True}))
    for i in range(48):
        n = 8 + i % 5
        rng = draws.shape(i)
        edges = _bipartite_graph(rng, n)
        out_deg = _out_degrees(n, _orient(rng, edges))
        lists = _seeded_lists(draws.seeded, n, [d + 1 for d in out_deg])
        out.append(Instance(f"bip{n}.{i}", graph_text(n, edges), lists, {"none": False}))
    return out


GENERATORS: dict[str, Callable[[int], list[Instance]]] = {
    "thin": thin_instances,
    "dense": dense_instances,
    "sweep": sweep_instances,
    "lists": lists_instances,
}


# ---------------------------------------------------------------------------
# Pipelines
# ---------------------------------------------------------------------------

def _certificate(inst: Instance, classical: bool) -> Outcome:
    D = graphs.parse(inst.text)
    W = wd.build_wd(D)
    count = eulerian.count_ee_eo_wd(D)
    coef = polynomials.additive_coefficient(D)
    record = [inst.iid, len(W.vertices), len(W.arcs), str(count.ee), str(count.eo), str(coef)]
    detail = {"ee": count.ee, "eo": count.eo, "coef": coef, "cap": list(D.out_degrees())}
    bounded = False
    if classical:
        try:
            classic = eulerian.count_ee_eo_classic(D)
        except BoundExceededError:
            bounded = True
            classic = None
        ccoef = polynomials.classical_coefficient(D)
        record += [None, None] if classic is None else [str(classic.ee), str(classic.eo)]
        record.append(str(ccoef))
        detail.update(classic=classic, ccoef=ccoef)
    G = D.underlying()
    hypothesis = coloring.check_simplicial_sink_hypothesis(G, D)
    record.append(hypothesis)
    detail.update(G=G, hypothesis=hypothesis, coloring=None)
    if coef != 0:
        try:
            detail["coloring"] = coloring.find_additive_coloring(G, inst.lists)
        except BoundExceededError:
            bounded = True
            detail["coloring"] = "bound"
    return Outcome(record, bounded, detail)


def _sweep(inst: Instance) -> Outcome:
    G = graphs.parse(inst.text)
    report = coloring.conjecture_sweep(G)
    record = [inst.iid, report.examined, report.zero_count,
              [[str(k), v] for k, v in report.histogram.items()], report.witness_index]
    return Outcome(record, False, {"G": G, "report": report})


def _color(inst: Instance) -> Outcome:
    G = graphs.parse(inst.text)
    ell = coloring.find_additive_coloring(G, inst.lists)
    record = [inst.iid, None if ell is None else [ell[v] for v in sorted(ell)]]
    return Outcome(record, False, {"G": G, "coloring": ell})


PIPELINES: dict[str, Callable[[Instance], Outcome]] = {
    "thin": lambda inst: _certificate(inst, classical=False),
    "dense": lambda inst: _certificate(inst, classical=True),
    "sweep": _sweep,
    "lists": _color,
}


# ---------------------------------------------------------------------------
# Correctness gate
# ---------------------------------------------------------------------------

def _check_coloring(inst: Instance, G, ell, is_additive) -> None:
    if not is_additive(G, ell):
        raise CheckFailed(f"{inst.iid}: returned labeling is not an additive coloring")
    for v, value in ell.items():
        if value not in inst.lists[v]:
            raise CheckFailed(f"{inst.iid}: vertex {v} got {value}, not in its list")


def check(workload: str, inst: Instance, outcome: Outcome, oracle) -> None:
    """Raise CheckFailed when the outcome breaks an identity of the paper.

    `oracle` holds untraced library functions for the checks that need
    the library: `is_additive_coloring` and `additive_coefficient`.
    """
    d = outcome.detail
    if workload in ("thin", "dense"):
        if d["coef"] != d["ee"] - d["eo"]:
            raise CheckFailed(
                f"{inst.iid}: additive coefficient {d['coef']} != ee - eo = {d['ee'] - d['eo']}")
        classic = d.get("classic")
        if classic is not None and d["ccoef"] != classic.ee - classic.eo:
            raise CheckFailed(
                f"{inst.iid}: classical coefficient {d['ccoef']} != ee - eo of D")
        if d["hypothesis"] and d["eo"] != 0:
            raise CheckFailed(f"{inst.iid}: simplicial-sink hypothesis holds but eo = {d['eo']}")
        if "counts" in inst.expect:
            if (d["ee"], d["eo"]) != inst.expect["counts"] or d["coef"] != inst.expect["coef"]:
                raise CheckFailed(
                    f"{inst.iid}: got ({d['ee']}, {d['eo']}) and {d['coef']},"
                    f" the paper gives {inst.expect['counts']} and {inst.expect['coef']}")
        ell = d["coloring"]
        if ell is None and d["coef"] != 0:
            raise CheckFailed(f"{inst.iid}: nonzero coefficient but no coloring found")
        if isinstance(ell, dict):
            _check_coloring(inst, d["G"], ell, oracle.is_additive_coloring)
    elif workload == "sweep":
        report = d["report"]
        total = 1 << inst.expect["m"]
        if report.examined != total or sum(report.histogram.values()) != total:
            raise CheckFailed(f"{inst.iid}: histogram does not sum to 2^m = {total}")
        if report.zero_count != report.histogram.get(0, 0):
            raise CheckFailed(f"{inst.iid}: zero count disagrees with the histogram")
        if report.witness is None:
            if set(report.histogram) != {0}:
                raise CheckFailed(f"{inst.iid}: nonzero coefficients but no witness")
        elif oracle.additive_coefficient(report.witness) == 0:
            raise CheckFailed(f"{inst.iid}: witness has a zero coefficient")
    else:
        ell = d["coloring"]
        if inst.expect["none"]:
            if ell is not None:
                raise CheckFailed(f"{inst.iid}: odd cycle with lists {{1,2}} got a coloring")
        elif ell is None:
            raise CheckFailed(f"{inst.iid}: bipartite instance answered none")
        else:
            _check_coloring(inst, d["G"], ell, oracle.is_additive_coloring)
