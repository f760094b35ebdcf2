"""Host-speed gauge: a fixed piece of pure Python timed beside the library.

The reference host is a shared VM whose speed drifts by up to 1.7 times
over seconds to minutes. A best time over a 30 s run absorbs short bursts
but not a slow stretch that lasts the whole run, and such stretches moved
whole ten-seed sets by a quarter. The gauge is timed in the same passes as
the instances, in slots at shuffled positions, and summarised the same
way (each slot's best time over the passes, then the median over the
slots). Over runs of ten seeds its reading rose and fell with the
instances' best times (correlation 0.9-1.0), so the end-to-end times are
reported as seconds at the reference speed:

    reported = measured * REFERENCE_MS / gauge reading

The gauge does not use the library, so a change to the library moves the
reported times exactly as it moves the measured ones. Its shape, a term
map of tuple exponents multiplied out one linear factor at a time, is the
kind of work the library does: tuple building, dict updates and integer
arithmetic in the interpreter.
"""

from __future__ import annotations

import time
from collections import defaultdict

#: Best time of one `gauge()` call on the reference host at full speed,
#: in ms (2-core VM, Intel Xeon at 2.1 GHz, Python 3.11.7).
REFERENCE_MS = 1.40

#: Gauge slots per untraced pass.
SLOTS = 24

#: Variables, factors and exponent cap of the gauge's product.
_VARIABLES, _FACTORS, _CAP = 10, 10, 2


def gauge() -> int:
    """Multiply out `_FACTORS` two-term linear factors over `_VARIABLES`
    variables, dropping terms whose exponent passes `_CAP`; returns the
    number of terms left (675)."""
    terms = {(0,) * _VARIABLES: 1}
    for step in range(_FACTORS):
        nxt: dict = defaultdict(int)
        a, b = step % _VARIABLES, (step * 3 + 1) % _VARIABLES
        for exp, coef in terms.items():
            for i, k in ((a, 2), (b, 3)):
                if exp[i] < _CAP:
                    nxt[exp[:i] + (exp[i] + 1,) + exp[i + 1:]] += k * coef
        terms = {e: c for e, c in nxt.items() if c}
    return len(terms)


def timed() -> float:
    """Seconds of one gauge call."""
    t0 = time.perf_counter()
    gauge()
    return time.perf_counter() - t0
