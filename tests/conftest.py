"""Suite-wide fixtures."""

import faulthandler
import os
import sys

import pytest

from nearreg import degree_stats
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
