"""Suite-wide fixtures."""

import faulthandler
import itertools
import os
import pathlib
import sys

import pytest

import nearreg
from nearreg import PreconditionError, SizeCapError, degree_stats
from nearreg.graph import as_fraction

# The slowest test takes a few seconds. One still running after this long
# is taken to hang (a search that loops, say): the run ends with every
# thread's traceback on stderr instead of waiting forever.
WATCHDOG_S = 120

# pytest captures stderr while a test runs, into a file that dies with the
# process, so the traceback goes to a copy of the real stderr taken while
# capture is off.
_STDERR = pytest.StashKey[int]()


def pytest_configure(config):
    config.stash[_STDERR] = os.dup(sys.stderr.fileno())


def pytest_unconfigure(config):
    os.close(config.stash[_STDERR])


@pytest.fixture(autouse=True)
def watchdog(request):
    faulthandler.dump_traceback_later(WATCHDOG_S, exit=True,
                                      file=request.config.stash[_STDERR])
    yield
    faulthandler.cancel_dump_traceback_later()


# --- bitmask adjacency, for the tests' exhaustive references -------------
# The package stores neighbour arrays only; these helpers rebuild the
# n-bit rows a reference counts with, from the public neighbour lists.

def child_env() -> dict:
    """The environment of a child process that imports this nearreg,
    whatever its working directory."""
    package_root = str(pathlib.Path(nearreg.__file__).parents[1])
    path = os.environ.get("PYTHONPATH")
    return {**os.environ, "PYTHONPATH": package_root
            + (os.pathsep + path if path else "")}


def bit_indices(mask: int):
    """Yield set-bit positions of ``mask`` in increasing order."""
    while mask:
        lsb = mask & -mask
        yield lsb.bit_length() - 1
        mask ^= lsb


def bitmask_rows(g) -> list:
    """Row v is the bitmask of v's neighbours in ``g``."""
    return [sum(1 << u for u in row) for row in g.neighbor_lists()]


def full_mask(g) -> int:
    return (1 << g.n) - 1


def count_edges_between(g, mask_a: int, mask_b: int) -> int:
    """Edges of ``g`` with one endpoint in each of two disjoint bitmasks."""
    rows = bitmask_rows(g)
    return sum((rows[v] & mask_b).bit_count()
               for v in range(g.n) if mask_a >> v & 1)


def count_edges_in(g, mask: int) -> int:
    """Edges of ``g`` with both endpoints in the bitmask ``mask``."""
    return count_edges_between(g, mask, mask) // 2


def has_edge(g, u: int, v: int) -> bool:
    return v in g.neighbors(u)


def edge_set(g) -> frozenset:
    return frozenset(g.edges())


# --- the tests' own nearly-regular checker --------------------------------

def nearly_regular_check(g, c) -> bool:
    """True iff max degree <= c * min degree (edgeless graphs pass for all c)."""
    cf = as_fraction(c)
    if cf < 1:
        raise ValueError("nearly-regular factor c must be >= 1")
    st = degree_stats(g)
    if st.max_deg == 0:
        return True
    return st.max_deg <= cf * st.min_deg


# --- f(n, c) over all labelled graphs: the reference for exact_f_n.json ----

LABELLED_ORDER_CAP = 7     # 2^21 labelled graphs at n = 7


def _labelled_graphs(n: int):
    """All 2^C(n,2) labelled graphs on n vertices as adjacency-mask lists."""
    pairs = list(itertools.combinations(range(n), 2))
    for code in range(1 << len(pairs)):
        adj = [0] * n
        bits = code
        while bits:
            lsb = bits & -bits
            u, v = pairs[lsb.bit_length() - 1]
            adj[u] |= 1 << v
            adj[v] |= 1 << u
            bits ^= lsb
        yield adj


def exact_f_n(n: int, c) -> int:
    """Minimum of the largest c-nearly regular induced subgraph over every
    labelled graph on n vertices; orders above ``LABELLED_ORDER_CAP`` raise
    ``SizeCapError``."""
    if n < 1:
        raise PreconditionError("n must be >= 1")
    if n > LABELLED_ORDER_CAP:
        raise SizeCapError(
            f"labelled enumeration capped at {LABELLED_ORDER_CAP} vertices")
    cf = as_fraction(c)
    if cf < 1:
        raise PreconditionError("c must be >= 1")
    c_num, c_den = cf.numerator, cf.denominator
    subsets_by_size = [
        [sum(1 << v for v in combo)
         for combo in itertools.combinations(range(n), t)]
        for t in range(n + 1)
    ]

    def valid(adj, mask):
        degrees = [(adj[v] & mask).bit_count() for v in bit_indices(mask)]
        return max(degrees) * c_den <= c_num * min(degrees)

    best = n
    for adj in _labelled_graphs(n):
        # scan sizes downward; the first size with a valid subset is this
        # graph's value (size 1 always succeeds), and a graph stops mattering
        # as soon as its value is known to reach the current minimum
        for t in range(n, 0, -1):
            if any(valid(adj, mask) for mask in subsets_by_size[t]):
                if t < best:
                    best = t
                break
        if best <= 1:
            break  # a single vertex is always regular; 1 is the floor
    return best
