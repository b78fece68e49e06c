"""Host speed, measured next to every job, and job times scaled by it.

The benchmark runs on shared virtual machines whose speed changes by up
to 1.6x for tens of seconds at a time, as the other tenants load the
host. A wall time taken in a slow spell and one taken in a fast spell
differ by more than any bound a change could be held to. So before each
job the run times one pass of a fixed reference kernel: pure Python
that never calls the program, built from the same operations the
program spends its time on (list indexing in inner loops, small-integer
arithmetic, dict updates). A job's time is then scaled by how long the
kernel took around it:

    scaled = wall * REFERENCE_S / median(kernel times of the jobs nearby)

which is the job's time on a host where one kernel pass takes
REFERENCE_S. A change to the program moves the wall time and not the
kernel, so it shows in full; a slow spell of the host moves both and
cancels. The window is a few jobs on each side, short against the
spells and long enough that one noisy kernel pass does not decide a
job's scale.
"""

from __future__ import annotations

import statistics
import time

# One kernel pass on the host the benchmark was defined on (median over
# its runs). It only sets the unit: scaled times are "seconds on a host
# where one pass takes this long".
REFERENCE_S = 0.005
WINDOW = 5

def kernel() -> int:
    # The watch lists are built on every pass, because the program
    # allocates as it runs: a kernel that allocated nothing tracked the
    # host's spells worse (jobs_per_s spread 0.13 against 0.02 on attack).
    d: dict[int, int] = {}
    s = 0
    for i in range(4000):
        d[i & 511] = d.get(i & 511, 0) ^ i
        s += len(d) & i
    n = 2000
    watch = [list(range(i % 7)) for i in range(n)]
    assign = [0] * n
    for _ in range(3):
        for i in range(n):
            for j in watch[i]:
                if assign[(i + j) % n] == 0:
                    s += 1
                else:
                    assign[i] ^= 1
            assign[i] = (assign[i] + 1) & 1
    return s


def sample(passes: int = 1) -> float:
    """Seconds one kernel pass takes now: the median of ``passes``."""
    times = []
    for _ in range(passes):
        t0 = time.perf_counter()
        kernel()
        times.append(time.perf_counter() - t0)
    return statistics.median(times)


def scale(walls: list[float], samples: list[float]) -> list[float]:
    """Each wall time scaled by the median kernel time of the WINDOW
    samples on either side of it; walls[i] was measured right after
    samples[i]."""
    return [wall * REFERENCE_S
            / statistics.median(samples[max(0, i - WINDOW):i + WINDOW + 1])
            for i, wall in enumerate(walls)]
