"""wd-lab: command-line front end.

Exit codes: 0 on success, 1 when a computation's answer is "none" (no
coloring, no witness, hypothesis false), 2 on bad input, on a run
stopped by a bound (`sweep`'s edge bound, `count`'s state bound or
`color`'s node bound), or on a run that exhausts recursion depth or
memory.
All output is deterministic for a fixed input; big integers appear in
JSON as decimal strings. Every command that reads a file accepts `--json`
for machine-readable output; `color` prints JSON either way. The
environment variable WD_LAB_BOUND, a non-negative integer in ASCII
digits, overrides the default edge bound of orientation sweeps (20
edges); no other command reads it. Both `count` modes run one frontier
counter and stop at its state bound. A command stopped by a bound names
the bound and its value, and WD_LAB_BOUND when that raises it; no
command has a bound argument to raise.
"""

from __future__ import annotations

import argparse
import json
import os
import sys
from typing import Optional

from .coloring import (
    check_simplicial_sink_hypothesis,
    check_tripartite_hypothesis,
    conjecture_sweep,
    find_additive_coloring,
)
from .errors import BoundExceededError, ParseError
from .eulerian import count_ee_eo_classic, count_ee_eo_wd
from .graphs import (
    Graph,
    Orientation,
    gen_complete,
    gen_complete_bipartite,
    gen_cycle,
    gen_sun,
    parse,
    strict_int,
    to_text,
)
from .polynomials import additive_coefficient, classical_coefficient
from .wd import build_wd, warc_key, wd_size


def _dump(obj) -> str:
    return json.dumps(obj, separators=(",", ":"))


def _env_bound() -> Optional[int]:
    raw = os.environ.get("WD_LAB_BOUND")
    if raw is None:
        return None
    try:
        bound = strict_int(raw)
        if bound >= 0:
            return bound
    except ValueError:
        pass
    raise ParseError(f"WD_LAB_BOUND must be a non-negative integer, got {raw!r}")


def _load(path: str) -> Graph | Orientation:
    try:
        with open(path, "r", encoding="utf-8") as fh:
            return parse(fh.read())
    except OSError as exc:
        raise ParseError(f"cannot read {path}: {exc}")


def _load_orientation(path: str) -> Orientation:
    obj = _load(path)
    if isinstance(obj, Orientation):
        return obj
    if not obj.edges:
        # an edgeless graph has exactly one orientation
        return Orientation(obj.n, frozenset())
    raise ParseError(f"{path} holds an undirected graph; an orientation is required")


def _load_graph(path: str) -> Graph:
    obj = _load(path)
    if isinstance(obj, Graph):
        return obj
    raise ParseError(f"{path} holds an orientation; an undirected graph is required")


def _cmd_build_wd(args) -> int:
    D = _load_orientation(args.file)
    vertices, arcs = wd_size(D)
    if not args.json:
        # only the listing needs W(D) itself; the counts come from its size.
        # It is built before anything is printed, so a run that stops while
        # building it leaves stdout empty
        listing = sorted(build_wd(D).arcs, key=warc_key)
        print(vertices)
        for a, b in listing:
            print(f"{a} -> {b}")
    print(_dump({"vertices": vertices, "arcs": arcs, "sectors": len(D.arcs)}))
    return 0


def _cmd_count(args) -> int:
    D = _load_orientation(args.file)
    count = count_ee_eo_classic(D) if args.classic else count_ee_eo_wd(D)
    payload = {
        "ee": str(count.ee),
        "eo": str(count.eo),
        "difference": str(count.difference),
    }
    if args.json:
        print(_dump(payload))
    else:
        for key, value in payload.items():
            print(f"{key}={value}")
    return 0


def _cmd_coefficient(args) -> int:
    D = _load_orientation(args.file)
    coef = classical_coefficient(D) if args.classic else additive_coefficient(D)
    if args.json:
        print(_dump({"coefficient": str(coef), "cap": list(D.out_degrees())}))
    else:
        print(coef)
    return 0


class _Pairs(list):
    """A JSON object as its (key, value) pairs, in order and with repeats."""


def _cmd_color(args) -> int:
    G = _load_graph(args.file)
    try:
        # pairs, not a dict: a dict would keep only the last of two equal keys
        raw = json.loads(args.lists, object_pairs_hook=_Pairs)
    except json.JSONDecodeError as exc:
        raise ParseError(f"--lists is not valid JSON: {exc}")
    if not isinstance(raw, _Pairs):
        raise ParseError("--lists must be a JSON object mapping vertex to list")
    lists = {}
    keys: dict[int, str] = {}
    for key, values in raw:
        try:
            v = strict_int(key)
        except ValueError:
            raise ParseError(f"list key {key!r} is not a vertex id")
        if v in keys:
            raise ParseError(f"list keys {keys[v]!r} and {key!r} both name vertex {v}")
        if type(values) is not list:  # a nested object is a _Pairs
            raise ParseError(f"list for vertex {key} must be a JSON array")
        keys[v] = key
        lists[v] = values
    ell = find_additive_coloring(G, lists)
    if ell is None:
        print(_dump({"result": "none"}))
        return 1
    print(_dump({str(v): ell[v] for v in sorted(ell)}))
    return 0


def _cmd_check_hypothesis(args) -> int:
    D = _load_orientation(args.file)
    G = D.underlying()
    if args.tripartite:
        result = check_tripartite_hypothesis(G, D)
    else:
        result = check_simplicial_sink_hypothesis(G, D)
    if args.json:
        print(_dump({"result": result}))
    else:
        print("true" if result else "false")
    return 0 if result else 1


def _cmd_sweep(args) -> int:
    G = _load_graph(args.file)
    report = conjecture_sweep(G, bound=_env_bound(), limit=args.limit)
    if args.json:
        witness = None
        if report.witness is not None:
            witness = {
                "index": report.witness_index,
                "coefficient": str(report.witness_coefficient),
                "arcs": [list(a) for a in report.witness.sorted_arcs()],
            }
        print(
            _dump(
                {
                    "examined": report.examined,
                    "zero": report.zero_count,
                    "histogram": {str(k): v for k, v in report.histogram.items()},
                    "witness": witness,
                }
            )
        )
    else:
        print(f"examined {report.examined} orientations")
        print(f"zero-coefficient orientations: {report.zero_count}")
        print("coefficient histogram:")
        for coef, how_many in report.histogram.items():
            print(f"  {coef}: {how_many}")
        if report.witness is None:
            print("witness: none")
        else:
            print(f"witness: orientation {report.witness_index}")
            for v, w in report.witness.sorted_arcs():
                print(f"{v} -> {w}")
    return 0 if report.has_witness else 1


#: Each `gen` family: its generator and the number of parameters it takes.
_FAMILIES = {
    "sun": (gen_sun, 1),
    "cycle": (gen_cycle, 1),
    "complete": (gen_complete, 1),
    "complete-bipartite": (gen_complete_bipartite, 2),
}


def _cmd_gen(args) -> int:
    make, count = _FAMILIES[args.family]
    if len(args.params) != count:
        raise ParseError(f"{args.family} takes {count} parameter(s), got {len(args.params)}")
    sys.stdout.write(to_text(make(*args.params)))
    return 0


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="wd-lab",
        description="Sector digraphs, Eulerian parity counts, and additive list coloring.",
    )
    sub = parser.add_subparsers(dest="command", required=True)
    # every command that reads a file takes it and --json from here
    reads_file = argparse.ArgumentParser(add_help=False)
    reads_file.add_argument("file")
    reads_file.add_argument("--json", action="store_true")

    p = sub.add_parser(
        "build-wd", parents=[reads_file], help="construct the sector digraph of an orientation"
    )
    p.set_defaults(fn=_cmd_build_wd)

    p = sub.add_parser(
        "count", parents=[reads_file], help="even/odd spanning Eulerian subdigraph counts"
    )
    mode = p.add_mutually_exclusive_group()
    mode.add_argument("--wd", action="store_true", help="count for the sector digraph (default)")
    mode.add_argument("--classic", action="store_true", help="count for the orientation itself")
    p.set_defaults(fn=_cmd_count)

    p = sub.add_parser(
        "coefficient", parents=[reads_file], help="certificate coefficient of a polynomial"
    )
    mode = p.add_mutually_exclusive_group()
    mode.add_argument("--additive", action="store_true", help="additive polynomial (default)")
    mode.add_argument("--classic", action="store_true", help="classical polynomial")
    p.set_defaults(fn=_cmd_coefficient)

    p = sub.add_parser(
        "color", parents=[reads_file], help="find an additive coloring from per-vertex lists"
    )
    p.add_argument("--lists", required=True, help='JSON like {"1":[1,2],"2":[3]}')
    p.set_defaults(fn=_cmd_color)

    p = sub.add_parser(
        "check-hypothesis", parents=[reads_file], help="structural coloring hypotheses"
    )
    p.add_argument("--tripartite", action="store_true")
    p.set_defaults(fn=_cmd_check_hypothesis)

    p = sub.add_parser(
        "sweep", parents=[reads_file], help="additive coefficient of every orientation"
    )
    p.add_argument("--limit", type=strict_int, default=None)
    p.set_defaults(fn=_cmd_sweep)

    p = sub.add_parser("gen", help="emit a generated graph or orientation file")
    p.add_argument("family", choices=_FAMILIES)
    p.add_argument("params", type=strict_int, nargs="+")
    p.set_defaults(fn=_cmd_gen)

    return parser


def main(argv: Optional[list[str]] = None) -> int:
    parser = build_parser()
    args = parser.parse_args(argv)
    try:
        return args.fn(args)
    except BoundExceededError as exc:
        # the library's message also names its bound argument, which no
        # command has; only an environment variable raises a bound here
        knob = "" if exc.env is None else f" (raise {exc.env})"
        print(f"wd-lab: error: {exc.reason}{knob}", file=sys.stderr)
        return 2
    except (ParseError, ValueError) as exc:
        print(f"wd-lab: error: {exc}", file=sys.stderr)
        return 2
    except RecursionError:
        print("wd-lab: error: ran out of recursion depth (input too deep)", file=sys.stderr)
        return 2
    except MemoryError:
        print("wd-lab: error: ran out of memory", file=sys.stderr)
        return 2


def entry() -> None:
    sys.exit(main())


if __name__ == "__main__":
    entry()
