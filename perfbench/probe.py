"""Speed probe: a fixed reference kernel, timed beside the workload.

The speed of a shared host is not steady. On a 2-vCPU Firecracker VM
(Intel Xeon) a fixed loop ran up to 1.4x slower for seconds or minutes at a
time. CPU time moved with wall time, so the slowdown is in the hardware and
is not descheduling. Raw host times of the same code on different seeds then
spread by 20-35 % between runs.

So every timing metric is reported at a reference speed. Host time `t`,
measured while one pass of the kernel takes `p` seconds, is reported as
`t * REFERENCE_S / p`. The kernel mixes the two kinds of work on mscsim's hot
path: small numpy arrays (a gather from a 256x256 byte table, an xor-reduce,
`nonzero`) and interpreter-bound loop and dict code. It never calls mscsim.
A change to the program therefore moves the reported times, and a change in
host speed does not.
"""

from __future__ import annotations

from time import perf_counter

import numpy as np

from stats import median

# One kernel pass at the reference speed; on the host above a pass takes
# 1.6-2.9 ms.
REFERENCE_S = 0.002
# The same for `big_kernel`, which takes 2.3-3.0 ms there.
BIG_REFERENCE_S = 0.0025
# Probe time after a session, as a share of the session's own time.
PROBE_SHARE = 0.06
MAX_PASSES = 25

_i = np.arange(256, dtype=np.int64)
TABLE = ((_i[:, None] * 167 + _i[None, :] * 89 + _i[:, None] * _i[None, :])
         % 256).astype(np.uint8)
ROWS = TABLE[::11, :80].copy()
# an odd 2048-bit modulus, the size of the keymgmt group's
BIG_MODULUS = (1 << 2048) - 1942289


def kernel() -> int:
    """One pass of fixed work."""
    acc = 0
    seen: dict[int, int] = {}
    for i in range(120):
        row = ROWS[i % len(ROWS)]
        factors = row[:12]
        mixed = row ^ np.bitwise_xor.reduce(TABLE[factors[:, None], ROWS[:12]],
                                            axis=0)
        nonzero = np.nonzero(mixed)[0]
        acc += int(nonzero[0]) if nonzero.size else 0
        for j in range(20):
            key = (i * 31 + j * 7) & 63
            seen[key] = seen.get(key, 0) + j
    return acc + len(seen)


def big_kernel() -> int:
    """One pass of fixed big-integer work: a modular exponentiation.

    The host's slow phases slow it much less than `kernel`, so it scales
    the 2048-bit group's Miller-Rabin test in set-up."""
    return pow(3, (1 << 200) + 12345, BIG_MODULUS)


def probe(passes: int, work=kernel) -> float:
    """Median seconds of one pass of `work`, over `passes` timed passes."""
    times = []
    for _ in range(passes):
        t0 = perf_counter()
        work()
        times.append(perf_counter() - t0)
    return median(times)


def passes_after(session_s: float) -> int:
    """Kernel passes to run after a session that took `session_s`."""
    return max(1, min(MAX_PASSES, round(PROBE_SHARE * session_s / REFERENCE_S)))


def at_reference(seconds: float, probe_s: float,
                 reference_s: float = REFERENCE_S) -> float:
    return seconds * reference_s / probe_s


def run_at_reference(sessions: list, segments: list, probes: list):
    """Session times and wall time of one workload run at the reference speed.

    `probes[0]` runs before the run's clock starts and `probes[i + 1]` right
    after session `i`. Segment `i` is the host time from the end of
    `probes[i]` (or the start of the run) to the end of session `i`; the last
    segment runs from the last probe to the end of the run. A segment is
    scaled by the mean of the probes on either side of it, the last one by
    the probe before it.
    """
    n = len(sessions)
    if len(segments) != n + 1 or len(probes) != n + 1:
        raise ValueError(f"{n} sessions need {n + 1} segments and probes, "
                         f"not {len(segments)} and {len(probes)}")
    speeds = [(probes[i] + probes[i + 1]) / 2 for i in range(n)] + [probes[n]]
    wall = sum(at_reference(s, p) for s, p in zip(segments, speeds))
    return [at_reference(s, p) for s, p in zip(sessions, speeds)], wall
