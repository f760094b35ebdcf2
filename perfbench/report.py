"""Every workload, untraced and traced, then the limits probe, as one report.

Reached through `python3 perfbench/run.py --report`. Each workload runs in
its own child processes, so `peak_rss_mb` is that workload's alone. The
table lists every metric by name and unit; `perfbench/out/report.json`
holds the same numbers with the Python version, CPU count and commit.
"""

from __future__ import annotations

import json
import os
import platform
import subprocess
import sys

import limits
from workloads import WORKLOADS


def _commit(root) -> str:
    try:
        done = subprocess.run(["git", "rev-parse", "--short", "HEAD"], cwd=root,
                              capture_output=True, text=True, timeout=10)
    except OSError:
        return "unknown"
    return done.stdout.strip() if done.returncode == 0 else "unknown"


def main(run_py, seed: int, seconds: float, root, out_dir) -> int:
    results: dict[str, dict] = {}
    status = 0
    for workload in WORKLOADS:
        for trace in (0, 1):
            cmd = [sys.executable, str(run_py), "--workload", workload, "--seed", str(seed),
                   "--seconds", str(seconds), "--trace", str(trace)]
            done = subprocess.run(cmd, cwd=root, capture_output=True, text=True, timeout=600)
            lines = done.stdout.strip().splitlines()
            if done.returncode != 0 or not lines:
                sys.stderr.write(done.stderr)
                print(f"{workload} trace={trace}: exit {done.returncode}, no result")
                status = 1
                continue
            result = json.loads(lines[-1])
            result["note"] = lines[-2] if len(lines) > 1 else ""
            results.setdefault(workload, {})[f"trace{trace}"] = result

    print(f"{'workload':8} {'metric':48} {'value':>14}  unit")
    for workload, runs in results.items():
        for key in ("trace0", "trace1"):
            if key not in runs:
                continue
            run = runs[key]
            print(f"{workload:8} {'attempted / failed (' + key + ')':48}"
                  f" {run['attempted']:>7} / {run['failed']:<4}")
            for name, m in run["metrics"].items():
                print(f"{workload:8} {name:48} {m['value']:>14.6g}  {m['unit']}")
            print(f"{workload:8} {run['note']}")

    print("limits probe (not gated):")
    probes = limits.main()

    environment = {
        "python": platform.python_version(),
        "nproc": os.cpu_count(),
        "commit": _commit(root),
        "seed": seed,
        "seconds": seconds,
    }
    out_dir.mkdir(exist_ok=True)
    with open(out_dir / "report.json", "w", encoding="utf-8") as fh:
        json.dump({"environment": environment, "workloads": results, "limits": probes}, fh,
                  indent=1)
    print(f"environment: {json.dumps(environment)}")
    return status
