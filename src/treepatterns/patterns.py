"""Detecting and counting pattern occurrences in a host tree.

An occurrence of a pattern with p non-root vertices is a set of p + 1
vertices of the host tree whose induced subgraph is rooted-isomorphic to
the pattern, where the root has exactly one neighbor outside the set and
the other vertices have none.  Equivalently: cutting one edge of the host
splits off the occurrence as a whole component, rooted at the cut end.
Counting therefore scans the two sides of every edge for components of
the right size.

Shapes are compared as integers, after Aho, Hopcroft and Ullman: the
patterns' canonical shape tables are merged into one table that numbers
each of their fringe subtrees, keyed by the multiset of its children's
IDs.  The counting core reads the host rooted at vertex n and adds up
subtree sizes and IDs child before parent, in any order that lists each
vertex after its children: Monte Carlo passes the removal order of
trees._decode, the oracle the shapes of trees._rooted_shapes, and
count_patterns a walk of a Tree with trees._walk.  The side of an edge
that holds n is coded by a walk of at most m vertices up to n.  _tally
is the one place that turns the counter's hits into per-pattern count
tuples.  Each tree adds its weight to the tuple of its counts: 1 for a
sampled tree, and for a rooted shape the labelled trees it stands for.
is_pattern stays on the definition: it reads the host's edges and
compares canonical forms.
"""

from __future__ import annotations

import os
import re
from collections import Counter
from dataclasses import dataclass
from typing import Iterable

from .errors import DuplicateVerticesError, FormatError, IndexOutOfRangeError
from .isomorphism import RootedPattern, _canonical
from .trees import RootedTree, Tree, _walk, build_tree

__all__ = [
    "PatternOccurrence",
    "is_pattern",
    "count_patterns",
    "find_patterns",
    "rooted_edge",
    "cherry",
    "star_pattern",
    "path_pattern_end",
    "path_pattern_mid",
    "pattern_from_name",
    "BUILTIN_PATTERN_HELP",
]


@dataclass(frozen=True, init=False)
class PatternOccurrence:
    """Root vertex plus the set of remaining occurrence vertices."""

    root: int
    others: frozenset[int]

    def __init__(self, root: int, others: Iterable[int]) -> None:
        object.__setattr__(self, "root", root)
        listed = list(others)
        dedup = frozenset(listed)
        if len(dedup) != len(listed):
            raise DuplicateVerticesError("occurrence repeats a vertex")
        if root in dedup:
            raise DuplicateVerticesError(f"root {root} repeated in others")
        object.__setattr__(self, "others", dedup)

    @property
    def vertices(self) -> frozenset[int]:
        return self.others | {self.root}

    def sort_key(self) -> tuple[int, tuple[int, ...]]:
        return (self.root, tuple(sorted(self.others)))


def _check_occurrence(t: Tree, occ: PatternOccurrence) -> None:
    for v in occ.vertices:
        if not 1 <= v <= t.n:
            raise IndexOutOfRangeError(f"vertex {v} not in 1..{t.n}")


def _is_occurrence(edges, root: int, others: frozenset[int],
                   pat: RootedPattern) -> bool:
    # Reads the host's edges, never the counter's sizes and IDs.  In a
    # forest, p inner edges on the p + 1 tuple vertices make it connected.
    if len(others) != pat.p:
        return False
    verts = others | {root}
    inner = []
    exits = 0
    for u, v in edges:
        a = u in verts
        if a == (v in verts):
            if a:
                inner.append((u, v))
        elif (u if a else v) != root or exits:
            return False
        else:
            exits = 1
    if len(inner) != pat.p or not exits:
        return False
    adj: dict[int, list[int]] = {v: [] for v in verts}
    for u, v in inner:
        adj[u].append(v)
        adj[v].append(u)
    return _canonical(adj, root)[0] == pat.canonical


def is_pattern(t: Tree, occ: PatternOccurrence, pat: RootedPattern) -> bool:
    """Does occ form an occurrence of pat in t?

    Checks all three conditions directly: the induced subgraph is a tree
    rooted-isomorphic to the pattern, the root has exactly one outside
    neighbor, and the other vertices have none.
    """
    _check_occurrence(t, occ)
    return _is_occurrence(t.edges, occ.root, occ.others, pat)


def _shape_table(pats, base: int):
    """Intern every fringe subtree of the patterns' canonical forms.

    A shape's ID is its index in the table; the leaf is 0.  The key of a
    shape is the base-`base` number whose digit i counts the children
    with ID i, so a multiset of child IDs needs no sorting, and keys are
    exact while no vertex has `base` or more children.  Returns the table
    (key to ID), the weight base**i of each ID i, and each pattern's ID.
    """
    table = {0: 0}
    weight = [1]
    ids = []
    for pat in pats:
        local: list[int] = []
        for kids in pat.canonical.table:
            h = table.setdefault(sum(weight[local[c]] for c in kids),
                                 len(table))
            if h == len(weight):
                weight.append(base ** h)
            local.append(h)
        ids.append(h)
    return table, weight, ids


def _occurrence_finder(n: int, pats):
    """Counting core for trees on n vertices, rooted at n.

    Returns find(order, parent) for a tree given as every vertex but n,
    children first, and its parent array, as trees._decode returns it.
    find lists a (pattern index, occurrence root, cut neighbour) triple
    per occurrence.  IDs are computed only for subtrees of at most top
    vertices, the largest pattern size.
    """
    # A pattern with more than n vertices never occurs, so it gets no IDs.
    # A shape missing from the table gets ID -1, so its weight is that of
    # the last ID.  Shapes are numbered after their children, so no shape
    # has the last one as a child: nothing above a missing shape matches.
    fit = [(i, pat) for i, pat in enumerate(pats) if pat.p < n]
    table, weight, ids = _shape_table([pat for _, pat in fit], n + 1)
    get = table.get
    top = max([pat.p + 1 for _, pat in fit] or [0])
    low = n - top
    # near[s]: (pattern index, ID) pairs of the patterns with s vertices.
    near: list[tuple[tuple[int, int], ...]] = [()] * (top + 1)
    for (i, pat), pid in zip(fit, ids):
        near[pat.p + 1] += ((i, pid),)

    def find(order, parent) -> list[tuple[int, int, int]]:
        # A vertex's subtree is complete when the order reaches it.
        size = [1] * (n + 1)
        key = [0] * (n + 1)
        hits: list[tuple[int, int, int]] = []
        for v in order:
            s = size[v]
            pv = parent[v]
            size[pv] += s
            if s <= top:
                h = get(key[v], -1)
                key[pv] += weight[h]
                for i, pid in near[s]:
                    if h == pid:
                        hits.append((i, v, pv))
        # The root's side of v's edge, rooted at v's parent, is coded down
        # the path from the root: each path vertex keeps its key but the
        # path child's weight, and gains the weight of the part above it.
        # The side has at most top vertices, so the path does too.  Such a
        # cut v has size at least n - top and follows all its descendants,
        # so at most top - 1 of the other n - 1 listed vertices come after
        # it: every cut is among the last top entries of the order.
        for v in order[-top:] if top else ():
            group = near[n - size[v]] if size[v] >= low else ()
            if not group:
                continue
            path = [v]
            u = parent[v]
            while u:
                path.append(u)
                u = parent[u]
            above = 0
            for j in range(len(path) - 1, 0, -1):
                below = path[j - 1]
                k = key[path[j]] + above
                if size[below] <= top:
                    k -= weight[get(key[below], -1)]
                h = get(k, -1)
                above = weight[h]
            for i, pid in group:
                if h == pid:
                    hits.append((i, path[1], v))
        return hits

    return find


def _tally(n: int, pats, trees) -> Counter:
    """Per-pattern count tuples over trees on n vertices.  Each tree is
    (order, parent, weight), order and parent as find takes them, and
    adds weight to the tuple of its counts."""
    find = _occurrence_finder(n, pats)
    tally: Counter = Counter()
    for order, parent, weight in trees:
        counts = [0] * len(pats)
        for i, _, _ in find(order, parent):
            counts[i] += 1
        tally[tuple(counts)] += weight
    return tally


def _marginal(tally: Counter, i: int) -> dict[int, int]:
    out: Counter = Counter()
    for key, c in tally.items():
        out[key[i]] += c
    return dict(out)


def _worker_count(workers: int, parts: int) -> int:
    # Results never depend on the split, so asking for more processes
    # than there are parts or CPUs only costs OS resources.
    return max(1, min(workers, parts, os.cpu_count() or 1))


def _fan_out(job, args, count: int, workers: int) -> Counter:
    """Sum of job(args, a, b) over contiguous parts [a, b) of 0..count.

    One part runs in this process; several run in a process pool, so job
    must be a module-level function and args picklable.
    """
    k = _worker_count(workers, count)
    if k == 1:
        return job(args, 0, count)
    # Imported here, so that a one-process run never loads the pool modules.
    from concurrent.futures import ProcessPoolExecutor
    bounds = [count * i // k for i in range(k + 1)]
    total: Counter = Counter()
    with ProcessPoolExecutor(max_workers=k) as pool:
        for part in pool.map(job, [args] * k, bounds[:-1], bounds[1:]):
            total.update(part)
    return total


def _pattern_cuts(t: Tree, pat: RootedPattern) -> list[tuple[int, int, int]]:
    order, up = _walk(t.adjacency, t.n)
    parent = [0] * (t.n + 1)
    for v, u in zip(order, up):
        parent[v] = u
    return _occurrence_finder(t.n, [pat])(order[:0:-1], parent)


def count_patterns(t: Tree, pat: RootedPattern) -> int:
    """Number of occurrences of pat in t."""
    return len(_pattern_cuts(t, pat))


def find_patterns(t: Tree, pat: RootedPattern) -> list[PatternOccurrence]:
    """All occurrences of pat in t, sorted by root then vertex set."""
    hits = [PatternOccurrence(root, _walk(t.adjacency, root, cut)[0][1:])
            for _, root, cut in _pattern_cuts(t, pat)]
    hits.sort(key=PatternOccurrence.sort_key)
    return hits


def _rooted_pattern(k: int, edges, root: int) -> RootedPattern:
    return RootedPattern.from_rooted_tree(RootedTree(build_tree(k, edges), root))


def rooted_edge() -> RootedPattern:
    """Single edge rooted at one end (p = 1)."""
    return path_pattern_end(2)


def cherry() -> RootedPattern:
    """Path on three vertices rooted at the middle (p = 2)."""
    return path_pattern_mid(3)


def star_pattern(k: int) -> RootedPattern:
    """k leaves attached to the root (p = k)."""
    if k < 1:
        raise FormatError("star needs at least one leaf")
    return _rooted_pattern(k + 1, [(1, i) for i in range(2, k + 2)], 1)


def path_pattern_end(k: int) -> RootedPattern:
    """Path on k vertices rooted at an end (p = k - 1)."""
    if k < 2:
        raise FormatError("path needs at least two vertices")
    return _rooted_pattern(k, [(i, i + 1) for i in range(1, k)], 1)


def path_pattern_mid(k: int) -> RootedPattern:
    """Path on k vertices rooted at the middle; k must be odd."""
    if k < 3 or k % 2 == 0:
        raise FormatError("midpoint-rooted path needs an odd k >= 3")
    return _rooted_pattern(k, [(i, i + 1) for i in range(1, k)], (k + 1) // 2)


BUILTIN_PATTERN_HELP = (
    "cherry | edge | star<k> | path<k>@end | path<k>@mid (odd k)"
)

# The grammar of BUILTIN_PATTERN_HELP: a star's leaf count, or a path's
# vertex count and the end it is rooted at.
_NAME_RE = re.compile(r"cherry|edge|star(\d+)|path(\d+)@(end|mid)")


def pattern_from_name(name: str) -> RootedPattern:
    """Build one of the named patterns: cherry, edge, star<k>, path<k>@end,
    path<k>@mid."""
    m = _NAME_RE.fullmatch(name)
    if m is None:
        raise FormatError(
            f"unknown pattern name {name!r}; expected {BUILTIN_PATTERN_HELP}")
    star, path, at = m.groups()
    if star is not None:
        return star_pattern(int(star))
    if path is not None:
        if at == "end":
            return path_pattern_end(int(path))
        return path_pattern_mid(int(path))
    return cherry() if name == "cherry" else rooted_edge()


def is_builtin_pattern_name(name: str) -> bool:
    return _NAME_RE.fullmatch(name) is not None
