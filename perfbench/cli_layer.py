"""The `cli` layer: `wd-lab` run as `python -m wdlab.cli` on a fixed sample.

Each sampled instance is written to a file and passed to the command its
workload exercises. Stdout must match, byte for byte, what the CLI would
print for the library result the benchmark already holds, and the exit
code must match too; every difference counts as a mismatch.
"""

from __future__ import annotations

import json
import os
import subprocess
import sys
import tempfile
import time

from wdlab import polynomials

#: Wall time allowed to one CLI call, in seconds; a call that overruns is a mismatch.
CALL_TIMEOUT_S = 20


def _dump(obj) -> str:
    return json.dumps(obj, separators=(",", ":")) + "\n"


def _calls(workload: str, inst, outcome, path: str):
    """(argv tail, expected stdout, expected exit code) for one instance."""
    d = outcome.detail
    if workload in ("thin", "dense"):
        counts = {"ee": str(d["ee"]), "eo": str(d["eo"]), "difference": str(d["ee"] - d["eo"])}
        return [
            (["count", path, "--wd", "--json"], _dump(counts), 0),
            (["coefficient", path, "--json"],
             _dump({"coefficient": str(d["coef"]), "cap": d["cap"]}), 0),
        ]
    if workload == "sweep":
        report = d["report"]
        witness = None
        if report.witness is not None:
            witness = {
                "index": report.witness_index,
                "coefficient": str(polynomials.additive_coefficient(report.witness)),
                "arcs": [list(a) for a in report.witness.sorted_arcs()],
            }
        payload = {
            "examined": report.examined,
            "zero": report.zero_count,
            "histogram": {str(k): v for k, v in report.histogram.items()},
            "witness": witness,
        }
        return [(["sweep", path, "--json"], _dump(payload), 0 if witness else 1)]
    ell = d["coloring"]
    lists = json.dumps({str(v): values for v, values in inst.lists.items()})
    if ell is None:
        return [(["color", path, "--lists", lists], _dump({"result": "none"}), 1)]
    return [(["color", path, "--lists", lists], _dump({str(v): ell[v] for v in sorted(ell)}), 0)]


def measure(run, root, src, out_dir, sample: int) -> dict:
    """cli.calls, cli.p50_ms and cli.mismatches over `sample` instances.

    The sample is spread evenly over the instance list, so it is the same
    for every run of a workload and seed.
    """
    picks = [run.instances[i * len(run.instances) // sample] for i in range(sample)]
    env = {k: v for k, v in os.environ.items() if k != "WD_LAB_BOUND"}
    env["PYTHONPATH"] = str(src)
    times, mismatches = [], 0
    out_dir.mkdir(exist_ok=True)
    with tempfile.TemporaryDirectory(dir=out_dir) as tmp:
        for inst in picks:
            if inst.iid not in run.outcomes:  # failed in every pass: nothing to compare
                continue
            path = os.path.join(tmp, inst.iid + ".txt")
            with open(path, "w", encoding="utf-8") as fh:
                fh.write(inst.text)
            for argv, expected, code in _calls(run.workload, inst, run.outcomes[inst.iid], path):
                t0 = time.perf_counter()
                try:
                    done = subprocess.run([sys.executable, "-m", "wdlab.cli", *argv], cwd=root,
                                          env=env, capture_output=True, timeout=CALL_TIMEOUT_S)
                except subprocess.TimeoutExpired:
                    done = None
                times.append(time.perf_counter() - t0)
                if done is None or done.stdout != expected.encode() or done.returncode != code:
                    mismatches += 1
                    print(f"perfbench: cli {argv[0]} on {inst.iid}: no match"
                          f" ({'timeout' if done is None else f'exit {done.returncode}'})",
                          file=sys.stderr)
    times.sort()
    return {
        "cli.calls": {"value": len(times), "unit": "count"},
        "cli.p50_ms": {"value": times[(len(times) - 1) // 2] * 1e3 if times else 0.0,
                       "unit": "ms"},
        "cli.mismatches": {"value": mismatches, "unit": "count"},
    }
