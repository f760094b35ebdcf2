"""Rewrite the CLI's pinned bytes: `inputs/` and `cli.json`.

Run from the repository root with the package importable:

    PYTHONPATH=src python tests/golden/regen.py

Each case runs `wdlab.cli.main` in process and records its exit code,
stdout and stderr. `tests/test_cli.py::test_golden_bytes` replays every
case and compares the bytes. A change that means to alter an output runs
this script and names each changed case; a change that does not must
leave `git diff tests/golden` empty.
"""

from __future__ import annotations

import contextlib
import io
import json
import os
from pathlib import Path

from wdlab import cli

GOLDEN = Path(__file__).resolve().parent

#: Input files by name, as the text written to `inputs/<name>.txt`.
GRAPHS = {
    "k3": "3\n1 -- 2\n1 -- 3\n2 -- 3\n",
    "c4": "4\n1 -- 2\n2 -- 3\n3 -- 4\n1 -- 4\n",
    "c5": "5\n1 -- 2\n2 -- 3\n3 -- 4\n4 -- 5\n1 -- 5\n",
    "k4": "4\n1 -- 2\n1 -- 3\n1 -- 4\n2 -- 3\n2 -- 4\n3 -- 4\n",
    "k23": "5\n1 -- 3\n1 -- 4\n1 -- 5\n2 -- 3\n2 -- 4\n2 -- 5\n",
    "p4": "4\n1 -- 2\n2 -- 3\n3 -- 4\n",
    # a triangle, an edge and the isolated vertex 6
    "split": "6\n1 -- 2\n2 -- 3\n1 -- 3\n4 -- 5\n",
    "header0": "0\n",
    "header5": "5\n",
}
ORIENTATIONS = {
    "d1": "4\n1 -> 2\n1 -> 3\n2 -> 4\n3 -> 2\n",
    "d2": "4\n2 -> 1\n4 -> 1\n1 -> 3\n3 -> 4\n3 -> 2\n",
    "d3": "4\n2 -> 1\n3 -> 2\n3 -> 4\n4 -> 1\n",
}
#: Files the parser rejects, written to `inputs/` like the others.
MALFORMED = {
    "bad-self-loop": "3\n1 -- 1\n2 -- 3\n",
    "bad-duplicate": "3\n1 -- 2\n2 -- 1\n",
    "bad-both-directions": "2\n1 -> 2\n2 -> 1\n",
    "bad-mixed": "3\n1 -- 2\n2 -> 3\n",
    "bad-header": "x\n1 -- 2\n",
    "bad-range": "2\n1 -- 3\n",
}
#: `color --lists` values on k3, by case name: two answers, a "none", and
#: one of each error the lists can raise.
K3_LISTS = {
    "answer": '{"1":[1,2],"2":[1,2,3],"3":[1,2,3]}',
    "padded-key": '{"01":[1],"2":[2],"3":[3]}',
    "none": '{"1":[1],"2":[1],"3":[1]}',
    "missing-vertex": '{"1":[1],"2":[2]}',
    "empty-list": '{"1":[],"2":[2],"3":[3]}',
    "non-integer": '{"1":[1,"a"],"2":[2],"3":[3]}',
    "non-positive": '{"1":[0],"2":[2],"3":[3]}',
    "bad-key": '{"x":[1],"2":[2],"3":[3]}',
    "one-vertex-twice": '{"1":[1],"01":[2],"2":[2],"3":[3]}',
    "non-array": '{"1":1,"2":[2],"3":[3]}',
    "nested-object": '{"1":{"1":1},"2":[2],"3":[3]}',
    "not-an-object": "[1]",
    "not-json": "nope",
}


def cases() -> list[dict]:
    """Every pinned invocation as (name, argv, env); `inputs/` paths in
    argv are relative to this directory."""
    out = [{"name": "gen-sun-3", "argv": ["gen", "sun", "3"], "env": {}}]

    def add(name, argv, env=None):
        for json_flag in ([], ["--json"]):
            suffix = "-json" if json_flag else ""
            out.append({"name": name + suffix, "argv": argv + json_flag, "env": env or {}})

    for name in GRAPHS:
        add(f"sweep-{name}", ["sweep", f"inputs/{name}.txt"])
    for limit in ("0", "3"):
        for name in ("k3", "c5"):
            add(f"sweep-{name}-limit-{limit}", ["sweep", f"inputs/{name}.txt", "--limit", limit])
    add("sweep-k3-bound-2", ["sweep", "inputs/k3.txt"], {"WD_LAB_BOUND": "2"})
    for name in (*ORIENTATIONS, "sun3"):
        for mode in ([], ["--additive"], ["--classic"]):
            tag = mode[0][2:] if mode else "default"
            add(f"coefficient-{name}-{tag}", ["coefficient", f"inputs/{name}.txt", *mode])
    for tag, lists in K3_LISTS.items():
        add(f"color-k3-{tag}", ["color", "inputs/k3.txt", "--lists", lists])
    # C5 from {1, 2} has no coloring, and the search proves it through the
    # dead-state memo; the split graph has an isolated vertex. No case reads
    # the wrong kind of file, since that message holds the file's full path
    c5 = {v: [1, 2] for v in range(1, 6)}
    split = {1: [1, 2, 3], 2: [1, 2, 3], 3: [1, 2, 3], 4: [1, 2], 5: [1, 2], 6: [9]}
    for name, lists in (("c5", c5), ("split", split)):
        text = json.dumps(lists, separators=(",", ":"))
        add(f"color-{name}", ["color", f"inputs/{name}.txt", "--lists", text])
    for name in (*ORIENTATIONS, "sun3", "header5"):
        for mode in ([], ["--wd"], ["--classic"]):
            tag = mode[0][2:] if mode else "default"
            add(f"count-{name}-{tag}", ["count", f"inputs/{name}.txt", *mode])
        for mode in ([], ["--tripartite"]):
            tag = "tripartite" if mode else "sinks"
            argv = ["check-hypothesis", f"inputs/{name}.txt", *mode]
            add(f"check-hypothesis-{name}-{tag}", argv)
        add(f"build-wd-{name}", ["build-wd", f"inputs/{name}.txt"])
    for name in MALFORMED:
        add(f"count-{name}", ["count", f"inputs/{name}.txt"])
    return out


def resolve(argv: list[str]) -> list[str]:
    """argv with every `inputs/` path made absolute."""
    return [str(GOLDEN / a) if a.startswith("inputs/") else a for a in argv]


def run(case: dict) -> dict:
    """The case's exit code, stdout and stderr from `cli.main` in process."""
    out, err = io.StringIO(), io.StringIO()
    saved = os.environ.pop("WD_LAB_BOUND", None)
    os.environ.update(case["env"])
    try:
        with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
            code = cli.main(resolve(case["argv"]))
    finally:
        os.environ.pop("WD_LAB_BOUND", None)
        if saved is not None:
            os.environ["WD_LAB_BOUND"] = saved
    return {**case, "exit": code, "stdout": out.getvalue(), "stderr": err.getvalue()}


def main() -> None:
    inputs = GOLDEN / "inputs"
    inputs.mkdir(exist_ok=True)
    for name, text in {**GRAPHS, **ORIENTATIONS, **MALFORMED}.items():
        (inputs / f"{name}.txt").write_text(text)
    sun3 = run({"name": "", "argv": ["gen", "sun", "3"], "env": {}})
    (inputs / "sun3.txt").write_text(sun3["stdout"])
    records = [run(case) for case in cases()]
    (GOLDEN / "cli.json").write_text(json.dumps(records, indent=1) + "\n")


if __name__ == "__main__":
    main()
