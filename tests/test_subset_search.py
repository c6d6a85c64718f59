"""The exhaustive searches behind `exact_f` and `find_dense_subset`,
against mask-based references: the same nodes, sizes and witnesses.

The references below are the searches written with popcounts of the
adjacency rows of the chosen prefix and of the ids still to decide at
each node, where the searches under test track those counts
incrementally; both must visit the same nodes, so ``explored`` is
compared as well as the answer.

`exact_f` makes one branch and bound over every size, seeded by the
smallest-last order's largest nearly regular suffix. Its value and
witness are checked against the search it replaced, one include-first
search per size from the top (`reference_exact_f`), and its nodes against
a popcount copy of the all-sizes search (`reference_all_sizes`). The
viability bound is also dropped from that copy, leaving the spread test
and the test on the id a node takes: the same answers, in no more nodes.

`find_dense_subset` probes one size per search, all through one set-up
of its search (`regularize._dense_search`), in an order seeded by the
smallest-last peel; its answer is checked against the reference's scan
of every size from the top, and each probe's nodes against the reference
run at that one size. A brute force over all vertex sets checks the
lemma the probe order rests on: the sizes holding a qualifying set form
an interval starting at the least admissible size.
"""

from fractions import Fraction
from itertools import combinations
from math import ceil, comb

import pytest

from nearreg import (
    Graph,
    complete_bipartite,
    exact_f,
    find_dense_subset,
    sample_gnp_uniform,
)
from nearreg import regularize
from nearreg.graph import as_fraction
from nearreg.regularize import _boost_target, _dense_search

from conftest import bit_indices, bitmask_rows, count_edges_in, full_mask


# --- references: the popcount searches and their prunes ------------------

def reference_largest_subset(g, sizes, prune, accept):
    n, adj = g.n, bitmask_rows(g)
    suffix = [full_mask(g) >> pos << pos for pos in range(n + 1)]
    explored = 0

    def dfs(pos, chosen, rem, e):
        nonlocal explored
        explored += 1
        if rem == 0:
            return chosen if accept(t, chosen, e) else None
        if n - pos < rem:
            return None
        if prune(t, chosen, e, suffix[pos], rem):
            return None
        hit = dfs(pos + 1, chosen | (1 << pos), rem - 1,
                  e + (adj[pos] & chosen).bit_count())
        if hit is not None:
            return hit
        return dfs(pos + 1, chosen, rem, e)

    for t in sizes:
        hit = dfs(0, 0, t, 0)
        if hit is not None:
            return t, hit, explored
    return 0, None, explored


def degree_window(adj, chosen, avail, rem):
    """``(best_max, worst_hi)`` over the chosen vertices, None if none."""
    worst_hi = None
    best_max = 0
    for v in bit_indices(chosen):
        cur = (adj[v] & chosen).bit_count()
        hi = cur + min((adj[v] & avail).bit_count(), rem)
        if worst_hi is None or hi < worst_hi:
            worst_hi = hi
        if cur > best_max:
            best_max = cur
    return None if worst_hi is None else (best_max, worst_hi)


def fits_window(adj, u, chosen, avail, cap, window, c_num, c_den):
    """Whether id ``u``, still to decide, can end with a degree d that has
    best_max <= c * d and d <= c * worst_hi, where its degree ends between
    its neighbours among the chosen and that plus at most ``cap`` more."""
    best_max, worst_hi = window
    low = (adj[u] & chosen).bit_count()
    high = low + min((adj[u] & avail).bit_count(), cap)
    return high * c_num >= best_max * c_den and low * c_den <= c_num * worst_hi


def window_fits(adj, chosen, avail, cap, window, c_num, c_den):
    """How many ids still to decide can end inside the window."""
    return sum(fits_window(adj, u, chosen, avail, cap, window, c_num, c_den)
               for u in bit_indices(avail))


def reference_exact_f(g, c):
    """``(value, mask, explored)`` of the per-size search `exact_f` made
    before it searched every size at once: sizes n, n-1, ... until one
    holds a valid set, each pruned by the spread test and the viability
    bound."""
    cf = as_fraction(c)
    c_num, c_den = cf.numerator, cf.denominator
    adj = bitmask_rows(g)

    def spread_too_wide(t, chosen, e, avail, rem):
        window = degree_window(adj, chosen, avail, rem)
        if window is None:
            return False
        best_max, worst_hi = window
        if best_max * c_den > c_num * worst_hi:
            return True
        # fewer than rem ids still to decide can end inside the window
        return window_fits(adj, chosen, avail, rem - 1, window, c_num,
                           c_den) < rem

    def valid(t, chosen, e):
        degrees = [(adj[v] & chosen).bit_count() for v in bit_indices(chosen)]
        mx, mn = max(degrees, default=0), min(degrees, default=0)
        return mx == 0 or mx * c_den <= c_num * mn

    return reference_largest_subset(g, range(g.n, 0, -1), spread_too_wide,
                                    valid)


def nearly_regular(adj, mask, c_num, c_den):
    degrees = [(adj[v] & mask).bit_count() for v in bit_indices(mask)]
    return max(degrees) * c_den <= c_num * min(degrees)


def nearly_regular_suffix(g, c_num, c_den):
    """Size of the first c-nearly regular set met while deleting a
    least-degree vertex, lowest id first, from the whole graph: the largest
    such suffix of the smallest-last order."""
    adj, live = bitmask_rows(g), full_mask(g)
    while live and not nearly_regular(adj, live, c_num, c_den):
        live ^= 1 << min(bit_indices(live),
                         key=lambda v: ((adj[v] & live).bit_count(), v))
    return live.bit_count()


def reference_all_sizes(g, c, viability=True):
    """``(value, mask, explored)`` of the search `exact_f` makes: one
    include-first search over every size, from a best size one below the
    seed suffix's; ``viability=False`` drops the count of the ids that fit
    the window and keeps the spread test and the include test."""
    cf = as_fraction(c)
    c_num, c_den = cf.numerator, cf.denominator
    n, adj, full = g.n, bitmask_rows(g), full_mask(g)
    best = nearly_regular_suffix(g, c_num, c_den)
    if best == n:
        return n, full or None, 0
    best -= 1
    witness, explored = None, 0

    def dfs(pos, chosen):
        nonlocal best, witness, explored
        explored += 1
        size = chosen.bit_count()
        need = best + 1 - size
        if n - pos < need:
            return
        avail = full >> pos << pos
        window = degree_window(adj, chosen, avail, n)
        if window is not None:
            if size > best and nearly_regular(adj, chosen, c_num, c_den):
                best, witness, need = size, chosen, 1
            best_max, worst_hi = window
            if best_max * c_den > c_num * worst_hi:
                return
            # fewer than need ids still to decide can end inside the window
            if viability and window_fits(adj, chosen, avail, n, window,
                                         c_num, c_den) < need:
                return
        if pos == n:
            return
        # an id that cannot end inside the window is not taken
        if window is None or fits_window(adj, pos, chosen, avail, n, window,
                                         c_num, c_den):
            dfs(pos + 1, chosen | (1 << pos))
        dfs(pos + 1, chosen)

    dfs(0, 0)
    return best, witness, explored


def reference_dense_search(g, eps, sizes=None):
    """`find_dense_subset`'s search as a scan of every size from the top,
    or at the given ``sizes`` only; None when no set can qualify."""
    bar = _boost_target(g.n, g.m, as_fraction(eps))
    if bar is None:
        return None
    num, den, t_min = bar
    adj = bitmask_rows(g)

    def short_of_edges(t, chosen, e, avail, rem):
        universe = chosen | avail
        gains = sorted(
            ((adj[v] & universe).bit_count() for v in bit_indices(avail)),
            reverse=True,
        )
        cross = 0
        for v in bit_indices(avail):
            cross += (adj[v] & chosen).bit_count()
        reach = e + min(sum(gains[:rem]), cross + comb(rem, 2))
        return reach * den < comb(t, 2) * num

    def dense_enough(t, chosen, e):
        return e * den >= comb(t, 2) * num

    if sizes is None:
        sizes = [t for t in range(g.n, t_min - 1, -1)
                 if g.m * den >= comb(t, 2) * num]
    return reference_largest_subset(g, sizes, short_of_edges, dense_enough)


# --- the searches under test ---------------------------------------------

def dense_search(g, eps, monkeypatch):
    """``(t, mask, explored, probes)`` of the searches inside
    `find_dense_subset`, None when it makes none: the size and mask of the
    set returned ((0, None) for no set), the nodes of all probes, and each
    probe ``search(t)`` as the one-size probe ``([t], (t, mask, explored))``,
    with t 0 when the mask is None. Checks that the set returned is the
    witness of the probe at its size."""
    probes = []

    def recording(g, num, den):
        search = _dense_search(g, num, den)

        def probe(t):
            hit, explored = search(t)
            mask = None if hit is None else sum(1 << v for v in hit)
            probes.append(([t], (t if hit is not None else 0, mask,
                                 explored)))
            return hit, explored

        return probe

    with monkeypatch.context() as m:
        m.setattr(regularize, "_dense_search", recording)
        subset = find_dense_subset(g, eps)
    if not probes:
        assert subset is None
        return None
    mask = None if subset is None else sum(1 << v for v in subset)
    t = 0 if subset is None else len(subset)
    if subset is not None:
        assert (t, mask) in [run[:2] for _, run in probes]
    return t, mask, sum(run[2] for _, run in probes), probes


def exact_search(g, c):
    r = exact_f(g, c)
    mask = sum(1 << v for v in r.witness) if r.value else None
    return r.value, mask, r.explored


# --- tie-heavy shapes ----------------------------------------------------

def circulant(n, jumps, chords=()):
    edges = {(min(i, (i + j) % n), max(i, (i + j) % n))
             for i in range(n) for j in jumps}
    return Graph.from_edges(n, edges | set(chords))


def stars_on_a_clique(k, leaves):
    """K_k whose every vertex carries ``leaves`` pendant vertices."""
    edges = [(a, b) for a, b in combinations(range(k), 2)]
    edges += [(a, k + a * leaves + j) for a in range(k) for j in range(leaves)]
    return Graph.from_edges(k + k * leaves, edges)


def disjoint_cliques(*sizes):
    edges, base = [], 0
    for s in sizes:
        edges += [(base + a, base + b) for a, b in combinations(range(s), 2)]
        base += s
    return Graph.from_edges(base, edges)


SHAPES = {
    "C12(1)+chord": circulant(12, [1], [(0, 6)]),
    "C13(1,2)+chords": circulant(13, [1, 2], [(0, 5), (3, 9)]),
    "C14(1,3)": circulant(14, [1, 3]),
    "C16(1,4,8)+chord": circulant(16, [1, 4, 8], [(0, 2)]),
    "K4+3 leaves": stars_on_a_clique(4, 3),
    "K5+2 leaves": stars_on_a_clique(5, 2),
    "K3+K4+K5": disjoint_cliques(3, 4, 5),
    "K2x4+K6": disjoint_cliques(2, 2, 2, 2, 6),
    "K5,9": complete_bipartite(5, 14),
}
SHAPES.update({f"G(14,{p})#{s}": sample_gnp_uniform(14, p, 900 + s)
               for p in (0.3, 0.6) for s in range(2)})
DENSE_SHAPES = dict(SHAPES)
DENSE_SHAPES.update({f"G(20,{p})#{s}": sample_gnp_uniform(20, p, 950 + s)
                     for p in (0.2, 0.5) for s in range(2)})
# the exhaustive boost inputs of the benchmark's exact workload
DENSE_SHAPES.update({f"K{a},{b}": complete_bipartite(a, a + b)
                     for a, b in ((11, 11), (8, 14), (6, 16))})


def check_exact_f_search(g, c):
    run = exact_search(g, c)
    assert run[:2] == reference_exact_f(g, c)[:2]
    assert run == reference_all_sizes(g, c)
    # the viability bound only drops nodes that hold no larger valid set
    spread = reference_all_sizes(g, c, viability=False)
    assert run[:2] == spread[:2]
    assert run[2] <= spread[2]


@pytest.mark.parametrize("name", sorted(SHAPES))
@pytest.mark.parametrize("c", [1, Fraction(3, 2), 2, 5])
def test_exact_f_search_matches_the_popcount_reference(name, c):
    check_exact_f_search(SHAPES[name], c)


@pytest.mark.parametrize("seed", range(8))
def test_exact_f_search_matches_the_popcount_reference_on_gnp(seed):
    g = sample_gnp_uniform(10 + seed % 5, 0.2 + 0.1 * (seed % 6), 970 + seed)
    for c in (1, Fraction(5, 4), Fraction(3, 2), 2, 3, 5):
        check_exact_f_search(g, c)


@pytest.mark.parametrize("name", sorted(DENSE_SHAPES))
@pytest.mark.parametrize("eps", [0.1, 0.2, 0.5])
def test_dense_search_matches_the_popcount_reference(name, eps, monkeypatch):
    g = DENSE_SHAPES[name]
    run = dense_search(g, eps, monkeypatch)
    scan = reference_dense_search(g, eps)
    if scan is None:
        assert run is None
        return
    assert run[:2] == scan[:2]
    for sizes, probe in run[3]:
        assert probe == reference_dense_search(g, eps, sizes)


@pytest.mark.parametrize("name", sorted(DENSE_SHAPES))
@pytest.mark.parametrize("eps", [0.1, 0.2, 0.5])
def test_dense_search_sets_up_one_search_per_call(name, eps, monkeypatch):
    builds = []

    def counting(g, num, den):
        builds.append(g)
        return _dense_search(g, num, den)

    monkeypatch.setattr(regularize, "_dense_search", counting)
    find_dense_subset(DENSE_SHAPES[name], eps)
    assert builds == [DENSE_SHAPES[name]]


# (t, mask, explored) of the searches inside find_dense_subset, pinned; a
# scan of every size from the top took 42712, 42284, 1154 and 5493 nodes
# on the first four, and as many as the seeded probes on the next four.
# The last one's answer lies two sizes above the peel's cut L, one below
# the top size, which misses; after the top its probes search L, L+1 and
# L+2 (17, 28 and 31 of its 121 nodes).
DENSE_PINS = [
    (complete_bipartite(11, 22), 0.1, (6, 14343, 3295)),
    (complete_bipartite(11, 22), 0.2, (0, None, 2398)),
    (complete_bipartite(8, 22), 0.1, (16, 65535, 459)),
    (complete_bipartite(8, 22), 0.2, (6, 1799, 693)),
    (sample_gnp_uniform(16, 0.3, 31), 0.2, (14, 32751, 117)),
    (sample_gnp_uniform(18, 0.4, 32), 0.1, (16, 260094, 884)),
    (sample_gnp_uniform(20, 0.25, 33), 0.2, (17, 442367, 555)),
    (sample_gnp_uniform(20, 0.5, 34), 0.1, (18, 1047295, 330)),
    (sample_gnp_uniform(10, 0.3, 75), 0.2, (8, 879, 121)),
]


@pytest.mark.parametrize("case", range(len(DENSE_PINS)))
def test_dense_search_node_counts(case, monkeypatch):
    g, eps, expected = DENSE_PINS[case]
    run = dense_search(g, eps, monkeypatch)
    assert run[:3] == expected


def spanned_edge_maxima(g):
    """Entry t is the most edges any t-set of ``g`` spans."""
    adj = bitmask_rows(g)
    edges = [0] * (1 << g.n)
    best = [0] * (g.n + 1)
    for mask in range(1, 1 << g.n):
        low = mask & -mask
        rest = mask ^ low
        e = edges[mask] = edges[rest] + (adj[low.bit_length() - 1]
                                         & rest).bit_count()
        t = mask.bit_count()
        if e > best[t]:
            best[t] = e
    return best


LEMMA_GRAPHS = dict(SHAPES)
LEMMA_GRAPHS.update({f"G({n},{p})#{s}": sample_gnp_uniform(n, p, 990 + s)
                     for s, (n, p) in enumerate(
                         (n, p) for n in (6, 8, 10, 11, 12)
                         for p in (0.2, 0.35, 0.5, 0.7))})
# two whose answer lies one below the top size, reached by probes upward
# from the peel's cut (at eps 0.2)
LEMMA_GRAPHS.update({f"G(10,{p})#{s}": sample_gnp_uniform(10, p, s)
                     for p, s in ((0.3, 75), (0.35, 22))})


@pytest.mark.parametrize("name", sorted(LEMMA_GRAPHS))
def test_qualifying_sizes_form_an_interval_from_the_least(name):
    # Deleting a least-degree vertex of a qualifying t-set leaves a
    # qualifying (t-1)-set, so a size that misses rules out every larger
    # one: the premise of find_dense_subset's probe order.
    g = LEMMA_GRAPHS[name]
    if g.m == 0:
        pytest.skip("no edges")
    best = spanned_edge_maxima(g)
    for eps in (0.05, 0.1, 0.2, 0.5):
        eps_f = as_fraction(eps)
        target = Fraction(g.m, comb(g.n, 2)) * (1 + eps_f)
        t_min = max(2, ceil(eps_f * g.n))
        sizes = [t for t in range(t_min, g.n + 1)
                 if best[t] >= comb(t, 2) * target]
        assert sizes == list(range(t_min, t_min + len(sizes)))
        expected = None
        if sizes:
            expected = next(
                frozenset(c) for c in combinations(range(g.n), sizes[-1])
                if count_edges_in(g, sum(1 << v for v in c))
                >= comb(sizes[-1], 2) * target)
        assert find_dense_subset(g, eps) == expected
