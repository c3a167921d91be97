"""Independent reference implementations used as test oracles.

Everything here favors obvious correctness over speed and stays away from
the library's fast paths: decoding uses a heap, isomorphism and
automorphism counts try every bijection, occurrence testing checks the
definition directly, and the exact moments are written out in their
separate factorial forms rather than through one joint probability.  Keep
these naive; they are the ground truth the clever code is measured
against.
"""

from __future__ import annotations

import heapq
import math
from fractions import Fraction
from itertools import combinations, permutations, product

from hypothesis import strategies as st

from treepatterns import PruferSequence, Tree, build_tree, prufer_decode


def heap_decode(seq, n):
    """Textbook decode: pop the smallest current leaf from a heap."""
    deg = [1] * (n + 1)
    for s in seq:
        deg[s] += 1
    heap = [v for v in range(1, n + 1) if deg[v] == 1]
    heapq.heapify(heap)
    edges = []
    for s in seq:
        leaf = heapq.heappop(heap)
        edges.append((leaf, s) if leaf < s else (s, leaf))
        deg[s] -= 1
        if deg[s] == 1:
            heapq.heappush(heap, s)
    u = heapq.heappop(heap)
    v = heapq.heappop(heap)
    edges.append((u, v) if u < v else (v, u))
    return edges


def all_trees(n):
    """Every labelled tree on n vertices, via the heap decoder."""
    if n == 1:
        yield build_tree(1, [])
        return
    for seq in product(range(1, n + 1), repeat=n - 2):
        yield build_tree(n, heap_decode(seq, n))


def relabel(t: Tree, perm) -> Tree:
    """Apply a vertex relabelling; perm is indexable by old label."""
    return build_tree(t.n, [(perm[u], perm[v]) for u, v in t.edges])


def _maps_edges(mapping, edges, target_edge_set) -> bool:
    for u, v in edges:
        a, b = mapping[u], mapping[v]
        if ((a, b) if a < b else (b, a)) not in target_edge_set:
            return False
    return True


def rooted_iso_brute(t1: Tree, r1: int, t2: Tree, r2: int) -> bool:
    """Root-preserving isomorphism by exhaustive bijection search."""
    if t1.n != t2.n:
        return False
    rest1 = [v for v in range(1, t1.n + 1) if v != r1]
    rest2 = [v for v in range(1, t2.n + 1) if v != r2]
    target = set(t2.edges)
    for image in permutations(rest2):
        mapping = dict(zip(rest1, image))
        mapping[r1] = r2
        if _maps_edges(mapping, t1.edges, target):
            return True
    return False


def aut_rooted_brute(t: Tree, root: int) -> int:
    """Count root-fixing edge-preserving permutations directly."""
    rest = [v for v in range(1, t.n + 1) if v != root]
    target = set(t.edges)
    count = 0
    for image in permutations(rest):
        mapping = dict(zip(rest, image))
        mapping[root] = root
        if _maps_edges(mapping, t.edges, target):
            count += 1
    return count


def aut_unrooted_brute(t: Tree) -> int:
    """Count all edge-preserving permutations directly."""
    verts = list(range(1, t.n + 1))
    target = set(t.edges)
    count = 0
    for image in permutations(verts):
        mapping = dict(zip(verts, image))
        if _maps_edges(mapping, t.edges, target):
            count += 1
    return count


def eccentricities(t: Tree) -> dict[int, int]:
    """BFS from every vertex."""
    adj = t.adjacency
    out = {}
    for s in range(1, t.n + 1):
        dist = {s: 0}
        frontier = [s]
        while frontier:
            nxt = []
            for v in frontier:
                for w in adj[v]:
                    if w not in dist:
                        dist[w] = dist[v] + 1
                        nxt.append(w)
            frontier = nxt
        out[s] = max(dist.values())
    return out


def naive_is_occurrence(t: Tree, root: int, others, pat) -> bool:
    """Occurrence test straight from the definition.

    Induced subgraph rooted-isomorphic to the pattern (checked by trying
    every bijection), root with exactly one outside neighbor, others with
    none.
    """
    others = set(others)
    if len(others) != pat.p:
        return False
    verts = others | {root}
    induced = [(u, v) for (u, v) in t.edges if u in verts and v in verts]
    if len(induced) != pat.p:
        return False
    deg_in = {v: 0 for v in verts}
    for u, v in induced:
        deg_in[u] += 1
        deg_in[v] += 1
    if t.degree(root) != deg_in[root] + 1:
        return False
    if any(t.degree(w) != deg_in[w] for w in others):
        return False
    # connectivity of the induced subgraph
    nbr = {v: [] for v in verts}
    for u, v in induced:
        nbr[u].append(v)
        nbr[v].append(u)
    seen = {root}
    stack = [root]
    while stack:
        for w in nbr[stack.pop()]:
            if w not in seen:
                seen.add(w)
                stack.append(w)
    if len(seen) != len(verts):
        return False
    # shape comparison by brute force
    proot = pat.shape.root
    prest = [v for v in range(1, pat.shape.tree.n + 1) if v != proot]
    vrest = sorted(others)
    target = set(pat.shape.tree.edges)
    for image in permutations(prest):
        mapping = dict(zip(vrest, image))
        mapping[root] = proot
        if _maps_edges(mapping, induced, target):
            return True
    return False


def naive_occurrences(t: Tree, pat) -> list[tuple[int, tuple[int, ...]]]:
    """Try every root and every p-subset of the remaining vertices."""
    found = []
    for root in range(1, t.n + 1):
        rest = [v for v in range(1, t.n + 1) if v != root]
        for others in combinations(rest, pat.p):
            if naive_is_occurrence(t, root, others, pat):
                found.append((root, others))
    return found


def naive_count(t: Tree, pat) -> int:
    return len(naive_occurrences(t, pat))


@st.composite
def random_trees(draw, min_n=2, max_n=9):
    """Uniformish random trees through random Pruefer sequences."""
    n = draw(st.integers(min_n, max_n))
    seq = draw(st.lists(st.integers(1, n), min_size=n - 2, max_size=n - 2))
    return prufer_decode(PruferSequence(n, tuple(seq)))


def closed_form_tuple_probability(pat, n):
    """L (n-m)**(n-m-1) / n**(n-2), with L = p!/aut and m = p + 1."""
    m = pat.p + 1
    lc = math.factorial(pat.p) // pat.aut_root_order
    return Fraction(lc * (n - m) ** (n - m - 1), n ** (n - 2))


def closed_form_mean(pat, n):
    """n C(n-1, p) L (n-m)**(n-m-1) / n**(n-2); needs n >= p + 2."""
    m = pat.p + 1
    lc = math.factorial(pat.p) // pat.aut_root_order
    return Fraction(n * math.comb(n - 1, pat.p) * lc * (n - m) ** (n - m - 1),
                    n ** (n - 2))


def closed_form_pair_probability(pat, n):
    """L**2 (n-2m)**(n-2m) / n**(n-2) for two disjoint tuples (0**0 == 1)."""
    k = n - 2 * (pat.p + 1)
    lc = math.factorial(pat.p) // pat.aut_root_order
    return Fraction(lc * lc * k ** k, n ** (n - 2))


def closed_form_second_moment(pat, n):
    """[n! (n-2m)**(n-2m) / (aut**2 (n-2m)!)
        + n! (n-m)**(n-m-1) / (aut (n-m)!)] / n**(n-2); needs n >= 2m."""
    m = pat.p + 1
    a = pat.aut_root_order
    k = n - 2 * m
    nf = math.factorial(n)
    pairs = Fraction(nf * k ** k, a * a * math.factorial(k))
    diag = Fraction(nf * (n - m) ** (n - m - 1), a * math.factorial(n - m))
    return (pairs + diag) / n ** (n - 2)
