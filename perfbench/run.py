"""Certificate benchmark for wdlab: four seeded workloads, closed batch loop.

    python3 perfbench/run.py --workload thin --seed 0 --seconds 20 --trace 0
    python3 perfbench/run.py --report        # every workload, every metric

One process, one thread. A pass runs the workload's pipeline over every
instance, one after another; passes repeat until `--seconds` is used up.
An instance's latency is its best time over the untraced passes, and
`run_s` is the sum of those: the host slows down in bursts, and the best
of many samples spread over the run moves with the code, not the host.
Slow stretches that outlast a run are taken out by the host-speed gauge
(`gauge.py`): the end-to-end times are scaled to the reference speed.
Every result is checked (see `workloads.check`); a wrong answer exits 1
and prints no metrics. The last stdout line is one JSON object with
`correct`, `attempted`, `failed` and `metrics`: the end-to-end metrics
with `--trace 0`, the per-layer metrics with `--trace 1`. See README.md.
"""

from __future__ import annotations

import argparse
import gc
import hashlib
import json
import math
import random
import resource
import signal
import statistics
import subprocess
import sys
import time
from dataclasses import dataclass, field
from pathlib import Path

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
SRC = ROOT / "src"
OUT = HERE / "out"

#: Seed whose result digests are pinned in pins.json.
PIN_SEED = 0
#: Child processes timed for `setup_s`; the median of their scaled times is reported.
SETUP_SAMPLES = 11
#: Gauge calls a set-up child times after "ready"; the best one counts.
SETUP_GAUGE_CALLS = 10
#: Instances run before timing starts, to load modules and warm caches.
WARMUP_INSTANCES = 3
#: Instances per workload run through the CLI in a traced run.
CLI_SAMPLE = 5
#: Wall time after which a run stops starting instances, in seconds.
HARD_DEADLINE_S = 120.0
#: Wall time after which one instance counts as failed (timeout), in seconds.
INSTANCE_TIMEOUT_S = 20.0

if not (SRC / "wdlab" / "__init__.py").is_file():
    print(f"perfbench: no wdlab package under {SRC}", file=sys.stderr)
    sys.exit(2)
sys.path.insert(0, str(SRC))

from wdlab import coloring as _coloring  # noqa: E402
from wdlab import polynomials as _polynomials  # noqa: E402

import gauge  # noqa: E402
import workloads as wl  # noqa: E402
from spans import NAMES, Tracer  # noqa: E402

# Untraced references for the correctness checks, bound before any wrapper
# is installed.
ORACLE = argparse.Namespace(
    is_additive_coloring=_coloring.is_additive_coloring,
    additive_coefficient=_polynomials.additive_coefficient,
)


def percentile(values, p: float) -> float:
    """Nearest-rank percentile: the smallest value with p of the data at or below it."""
    ordered = sorted(values)
    rank = max(1, -(-len(ordered) * p // 100))
    return ordered[int(rank) - 1]


def digest(records) -> str:
    return hashlib.sha256(json.dumps(records, separators=(",", ":")).encode()).hexdigest()


class Run:
    """Instance set, pipeline and tallies of one workload in this process."""

    def __init__(self, workload: str, seed: int) -> None:
        self.workload = workload
        self.seed = seed
        self.instances = wl.GENERATORS[workload](seed)
        self.pipeline = wl.PIPELINES[workload]
        self.passes = 0
        self.gauge_slots = 0
        self.failed = 0
        self.bounded = 0
        self.attempted = 0
        self.outcomes: dict[str, wl.Outcome] = {}

    def warm_up(self) -> None:
        for inst in self.instances[:WARMUP_INSTANCES]:
            self.pipeline(inst)

    def one_pass(self, deadline: float, tracer: Tracer | None = None):
        """Run every instance once, in an order shuffled afresh for each pass,
        so that an instance's samples fall at different moments of the run.
        The `gauge_slots` gauge calls are shuffled in among the instances.

        Returns the wall seconds of the pass, the seconds of each instance
        in instance order (None where it gave no answer), the result
        records in instance order, or None for the records when an
        instance failed (error, timeout or the deadline), and the seconds
        of each gauge slot.
        """
        order = list(range(len(self.instances))) + [-1 - j for j in range(self.gauge_slots)]
        random.Random(f"order:{self.seed}:{self.passes}").shuffle(order)
        self.passes += 1
        gc.collect()
        latencies: list = [None] * len(self.instances)
        records: list = [None] * len(self.instances)
        gauged = [0.0] * self.gauge_slots
        complete = True
        start = time.perf_counter()
        for index in order:
            if index < 0:
                gauged[-1 - index] = gauge.timed()
                continue
            inst = self.instances[index]
            self.attempted += 1
            if time.perf_counter() > deadline:
                self.failed += 1
                complete = False
                continue
            if tracer is not None:
                tracer.instance = inst.iid
                tracer.active = True
            signal.setitimer(signal.ITIMER_REAL, INSTANCE_TIMEOUT_S)
            t0 = time.perf_counter()
            try:
                outcome = self.pipeline(inst)
            except Exception as exc:  # an error or a timeout fails the instance, not the run
                outcome = None
                print(f"perfbench: {inst.iid}: {type(exc).__name__}: {exc}", file=sys.stderr)
            finally:
                t1 = time.perf_counter()
                signal.setitimer(signal.ITIMER_REAL, 0)
                if tracer is not None:
                    tracer.active = False
            if outcome is None:
                self.failed += 1
                complete = False
                continue
            latencies[index] = t1 - t0
            if outcome.bounded:
                self.bounded += 1
            wl.check(self.workload, inst, outcome, ORACLE)
            records[index] = outcome.record
            self.outcomes[inst.iid] = outcome
        return time.perf_counter() - start, latencies, records if complete else None, gauged


class InstanceTimeout(Exception):
    """An instance ran longer than INSTANCE_TIMEOUT_S."""


def _timeout(signum, frame):
    raise InstanceTimeout(f"no answer within {INSTANCE_TIMEOUT_S} s")


@dataclass
class Measured:
    """What `measure` saw: untraced and traced pass times, each instance's
    and each gauge slot's best time over the untraced passes (None if the
    instance never answered), the result digest of the passes without
    failures, and per traced pass its span range and call counts."""

    plain: list[float] = field(default_factory=list)
    traced: list[float] = field(default_factory=list)
    best: list = field(default_factory=list)
    gauge_best: list = field(default_factory=list)
    digest: str | None = None
    windows: list = field(default_factory=list)

    def latencies(self) -> list[float]:
        return [t for t in self.best if t is not None]


def measure(run: Run, seconds: float, deadline: float, tracer: Tracer | None = None,
            between=None) -> Measured:
    """Repeat passes for about `seconds`; stop early rather than overrun.

    With a tracer, passes alternate untraced and traced, so a drift in the
    machine's speed touches both kinds alike. `between`, if given, runs
    before each pass and counts against `seconds`. Every pass without a
    failure must give the same result digest.
    """
    seen = Measured(best=[None] * len(run.instances),
                    gauge_best=[math.inf] * run.gauge_slots)
    digests = set()
    begin = time.perf_counter()
    while True:
        done = seen.plain + seen.traced
        if done and (tracer is None or seen.traced) and (
                time.perf_counter() - begin + statistics.fmean(done) > seconds
                or time.perf_counter() >= deadline):
            break
        if between is not None:
            between()
        active = tracer if tracer is not None and len(done) % 2 == 1 else None
        before = None if active is None else (len(active.spans), active.counts.copy())
        wall, latencies, records, gauged = run.one_pass(deadline, active)
        if records is not None:
            digests.add(digest(records))
        if active is None:
            seen.plain.append(wall)
            seen.best = [t if b is None else b if t is None else min(b, t)
                         for b, t in zip(seen.best, latencies)]
            seen.gauge_best = [min(b, t) for b, t in zip(seen.gauge_best, gauged)]
        else:
            seen.traced.append(wall)
            seen.windows.append((before[0], len(active.spans), active.counts - before[1]))
    if len(digests) > 1:
        raise wl.CheckFailed("passes over the same instances gave different results")
    seen.digest = next(iter(digests), None)
    return seen


def check_pin(workload: str, seed: int, value: str | None) -> None:
    """Compare the digest of a pass without failures with the pinned one."""
    if seed != PIN_SEED or value is None:
        return
    pins = json.loads((HERE / "pins.json").read_text())["digests"]
    if pins.get(workload) != value:
        raise wl.CheckFailed(
            f"result digest {value} differs from the one pinned for seed {seed}")


def setup_probe(workload: str, seed: int) -> None:
    """Child side of `setup_s`: generate, warm up, say ready, exit."""
    run = Run(workload, seed)
    run.warm_up()
    print("ready", flush=True)
    print(min(gauge.timed() for _ in range(SETUP_GAUGE_CALLS)), flush=True)


def time_setup(workload: str, seed: int) -> tuple[float, float]:
    """Wall seconds from starting a fresh interpreter to its "ready", and
    the child's best gauge time just after."""
    cmd = [sys.executable, str(HERE / "run.py"), "--workload", workload,
           "--seed", str(seed), "--setup-probe"]
    t0 = time.perf_counter()
    with subprocess.Popen(cmd, stdout=subprocess.PIPE, text=True, cwd=ROOT) as child:
        line = child.stdout.readline()
        t1 = time.perf_counter()
        rest = child.stdout.read()
        if child.wait(timeout=60) != 0 or line.strip() != "ready":
            raise RuntimeError("set-up probe failed")
    return t1 - t0, float(rest)


def metric(value, unit: str) -> dict:
    return {"value": value, "unit": unit}


def end_to_end(run: Run, seed: int, seconds: float, deadline: float) -> dict:
    """The end-to-end metrics; set-up probes run between passes, so that
    they sample the host at different moments, like the passes."""
    setups: list[tuple[float, float]] = []

    def probe() -> None:
        if len(setups) < SETUP_SAMPLES:
            setups.append(time_setup(run.workload, seed))

    run.warm_up()
    run.gauge_slots = gauge.SLOTS
    seen = measure(run, seconds, deadline, between=probe)
    while len(setups) < SETUP_SAMPLES:
        probe()
    check_pin(run.workload, seed, seen.digest)
    rss_mb = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024
    latencies = seen.latencies()
    reading_ms = statistics.median(seen.gauge_best) * 1e3
    scale = gauge.REFERENCE_MS / reading_ms
    run_s = math.fsum(latencies)
    p50, p90 = percentile(latencies, 50), percentile(latencies, 90)
    setup_wall = statistics.median(w for w, _ in setups)
    setup_s = statistics.median(w * gauge.REFERENCE_MS / (g * 1e3) for w, g in setups)
    print(f"passes: {len(seen.plain)}; latency samples: {len(latencies)}"
          f" (best of the passes per instance); set-up samples: {len(setups)};"
          f" gauge: {reading_ms:.4f} ms (reference {gauge.REFERENCE_MS} ms);"
          f" measured: run_s {run_s:.4f}, latency_p50_ms {p50 * 1e3:.4f},"
          f" latency_p90_ms {p90 * 1e3:.4f}, setup_s {setup_wall:.4f};"
          f" digest: {seen.digest}")
    return {
        "setup_s": metric(setup_s, "s"),
        "run_s": metric(run_s * scale, "s"),
        "latency_p50_ms": metric(p50 * 1e3 * scale, "ms"),
        "latency_p90_ms": metric(p90 * 1e3 * scale, "ms"),
        "peak_rss_mb": metric(rss_mb, "MB"),
    }


#: Modules whose share of the traced pass the report gives, plus the single
#: functions named in the workload rationale.
SHARE_GROUPS = ("graphs", "wd", "eulerian", "polynomials", "coloring",
                "eulerian.count_ee_eo_wd", "polynomials.expand_capped",
                "coloring.find_additive_coloring")

#: Per-layer counts that are not span calls.
COUNTS = ("wd.arcs", "wd.gamma_paths", "eulerian.count_ee_eo_classic.bound",
          "polynomials.factor_support", "polynomials.final_terms",
          "coloring.find_additive_coloring.bound", "coloring.combinations",
          "coloring.none", "coloring.orientations")


def per_layer(run: Run, seed: int, seconds: float, deadline: float) -> dict:
    """The per-layer metrics. Counts are per pass; times and shares are
    medians over the traced passes, a share being self time over the wall
    time of the same pass."""
    import cli_layer

    run.warm_up()
    tracer = Tracer()
    tracer.install()
    try:
        seen = measure(run, seconds, deadline, tracer)
    finally:
        tracer.uninstall()
    check_pin(run.workload, seed, seen.digest)
    if len({tuple(sorted(c.items())) for _, _, c in seen.windows}) != 1:
        raise wl.CheckFailed("passes over the same instances made different call counts")
    per_pass = [tracer.self_times(first, last) for first, last, _ in seen.windows]
    counts = seen.windows[0][2]
    metrics = {}
    for name in NAMES:
        metrics[name + ".calls"] = metric(counts[name + ".calls"], "count")
        metrics[name + ".self_s"] = metric(statistics.median(p[name] for p in per_pass), "s")
    for name in COUNTS:
        metrics[name] = metric(counts[name], "count")
    for group in SHARE_GROUPS:
        shares = [sum(t for name, t in own.items() if name == group or name.startswith(group + "."))
                  / wall for own, wall in zip(per_pass, seen.traced)]
        metrics["share." + group] = metric(statistics.median(shares), "ratio")
    metrics["fail_ratio"] = metric((run.bounded + run.failed) / run.attempted, "ratio")
    metrics["trace.overhead_ratio"] = metric(
        statistics.fmean(seen.traced) / statistics.fmean(seen.plain), "ratio")
    metrics.update(cli_layer.measure(run, ROOT, SRC, OUT, CLI_SAMPLE))
    OUT.mkdir(exist_ok=True)
    trace_path = OUT / f"trace-{run.workload}-seed{seed}.jsonl"
    tracer.write(trace_path)
    print(f"passes: {len(seen.plain)} untraced, {len(seen.traced)} traced;"
          f" {len(tracer.spans)} spans written to {trace_path.relative_to(ROOT)}")
    return metrics


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", choices=wl.WORKLOADS)
    parser.add_argument("--seed", type=int, default=PIN_SEED)
    parser.add_argument("--seconds", type=float, default=10.0)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--report", action="store_true",
                        help="run every workload untraced and traced, then the limits probe")
    parser.add_argument("--setup-probe", action="store_true", help=argparse.SUPPRESS)
    args = parser.parse_args(argv)
    if args.report:
        import report

        return report.main(HERE / "run.py", args.seed, args.seconds, ROOT, OUT)
    if args.workload is None:
        parser.error("--workload is required without --report")
    if args.setup_probe:
        setup_probe(args.workload, args.seed)
        return 0

    signal.signal(signal.SIGALRM, _timeout)
    deadline = time.perf_counter() + HARD_DEADLINE_S
    run = Run(args.workload, args.seed)
    try:
        if args.trace:
            metrics = per_layer(run, args.seed, args.seconds, deadline)
        else:
            metrics = end_to_end(run, args.seed, args.seconds, deadline)
    except wl.CheckFailed as exc:
        print(f"perfbench: correctness check failed: {exc}", file=sys.stderr)
        return 1
    print(json.dumps({"correct": True, "attempted": run.attempted,
                      "failed": run.failed, "metrics": metrics}))
    return 0


if __name__ == "__main__":
    sys.exit(main())
