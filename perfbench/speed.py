"""The machine's current speed, from a fixed piece of pure-Python graph work.

The shared 2-core virtual machine the benchmark was tuned on switches
between speed levels about 1.8x apart, for seconds to minutes at a time, so
a whole run can land on the slow level. A plain wall time then measures the
machine more than the program. ``measure`` times a fixed piece of work
shaped like the program's own (adjacency sets, a breadth-first search, set
intersections), independent of nearreg; ``launch.py`` measures it just
before and just after ``main`` in every child, and the time metrics divide
the child's times by the speed the two measurements show.

On that machine, measured in one process next to nearreg's own parse and
``bipartite_half``, the log times of this work and of the program correlated
at 0.82; over 1.5-second windows the raw program time spanned 2.0x and the
normalised time 1.3x, with most windows within 5% of their median.
"""

from __future__ import annotations

import time

# The time metrics are seconds at the speed where ``work`` takes this long,
# about its time on the machine the benchmark was tuned on.
REFERENCE_S = 0.017


def work(n: int = 3000, degree: int = 8) -> int:
    """Build a pseudo-random graph as adjacency sets, search it breadth
    first and count triangles through set intersections."""
    x = 12345
    adj = [set() for _ in range(n)]
    for _ in range(n * degree // 2):
        x = (x * 1103515245 + 12345) & 0x7FFFFFFF
        u = x % n
        x = (x * 1103515245 + 12345) & 0x7FFFFFFF
        v = x % n
        if u != v:
            adj[u].add(v)
            adj[v].add(u)
    seen = [False] * n
    seen[0] = True
    order = [0]
    for u in order:
        for v in adj[u]:
            if not seen[v]:
                seen[v] = True
                order.append(v)
    triangles = 0
    for u in range(n):
        for v in adj[u]:
            if v > u:
                triangles += len(adj[u] & adj[v])
    return triangles + len(order)


def measure() -> float:
    """Seconds ``work`` takes now."""
    start = time.perf_counter()
    work()
    return time.perf_counter() - start
