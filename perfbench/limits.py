"""Limits probe: known blow-ups, each in its own child under a memory cap.

    python3 perfbench/limits.py            # all cases, one JSON line each

Each case runs alone in a fresh process with an address-space limit and a
wall timeout, one case after another. The outcome is one of answer,
bound, oom, timeout or recursion, recorded with the exit code. Nothing
here is gated; the report shows where each case stands, so a change that
turns an oom or a recursion into an answer or a bound can point at it.
"""

from __future__ import annotations

import json
import os
import random
import resource
import signal
import subprocess
import sys
import time
from pathlib import Path

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
SRC = ROOT / "src"
OUT = HERE / "out"

#: Address-space limit of each child, in bytes.
MEMORY_LIMIT = 1 << 30
#: Wall time allowed to each child, in seconds.
TIMEOUT_S = 20

CASES = ("path1200_wd", "g18_wd", "caterpillar40_coef", "cli_header_count")


def _case(name: str) -> None:
    """Child side: build the instance and call the library; print the answer."""
    sys.path.insert(0, str(SRC))
    from wdlab import Orientation, additive_coefficient, count_ee_eo_wd

    if name == "path1200_wd":
        count = count_ee_eo_wd(Orientation(1200, frozenset((i, i + 1) for i in range(1, 1200))))
        print(count.ee, count.eo)
    elif name == "g18_wd":
        rng = random.Random("limits:g18")
        arcs = [(u, v) if rng.random() < 0.5 else (v, u)
                for u in range(1, 19) for v in range(u + 1, 19) if rng.random() < 0.3]
        count = count_ee_eo_wd(Orientation(18, frozenset(arcs)))
        print(count.ee, count.eo)
    elif name == "caterpillar40_coef":
        rng = random.Random("limits:caterpillar40")
        edges = [(i, i + 1) for i in range(1, 20)] + [(i, 20 + i) for i in range(1, 21)]
        arcs = [(u, v) if rng.random() < 0.5 else (v, u) for u, v in edges]
        print(additive_coefficient(Orientation(40, frozenset(arcs))))
    else:
        raise ValueError(f"unknown case {name}")


def _cap_memory() -> None:
    resource.setrlimit(resource.RLIMIT_AS, (MEMORY_LIMIT, MEMORY_LIMIT))


def classify(returncode: int | None, stderr: str) -> str:
    if returncode is None:
        return "timeout"
    if returncode == 0:
        return "answer"
    if "RecursionError" in stderr or returncode == -signal.SIGSEGV:
        return "recursion"
    if "MemoryError" in stderr or returncode == -signal.SIGKILL:
        return "oom"
    if "BoundExceededError" in stderr or (returncode == 2 and "wd-lab: error" in stderr):
        return "bound"
    return "error"


def probe(name: str) -> dict:
    """Run one case in a child process and describe how it ended."""
    env = dict(os.environ, PYTHONPATH=str(SRC))
    if name == "cli_header_count":
        OUT.mkdir(exist_ok=True)
        path = OUT / "header-200000000.txt"
        path.write_text("200000000\n")
        cmd = [sys.executable, "-m", "wdlab.cli", "count", str(path)]
    else:
        cmd = [sys.executable, str(HERE / "limits.py"), "--case", name]
    start = time.perf_counter()
    with subprocess.Popen(cmd, cwd=ROOT, env=env, stdout=subprocess.PIPE, stderr=subprocess.PIPE,
                          text=True, preexec_fn=_cap_memory) as child:
        try:
            _, stderr = child.communicate(timeout=TIMEOUT_S)
            code = child.returncode
        except subprocess.TimeoutExpired:
            child.kill()
            _, stderr = child.communicate()
            code = None
    last = stderr.strip().splitlines()[-1] if stderr.strip() else ""
    return {
        "case": name,
        "outcome": classify(code, stderr),
        "exit_code": code,
        "seconds": round(time.perf_counter() - start, 3),
        "stderr_tail": last[:200],
    }


def main() -> list[dict]:
    results = []
    for name in CASES:
        result = probe(name)
        print(json.dumps(result), flush=True)
        results.append(result)
    return results


if __name__ == "__main__":
    if len(sys.argv) == 3 and sys.argv[1] == "--case":
        _case(sys.argv[2])
    else:
        main()
