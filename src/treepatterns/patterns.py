"""Detecting and counting pattern occurrences in a host tree.

An occurrence of a pattern with p non-root vertices is a set of p + 1
vertices of the host tree whose induced subgraph is rooted-isomorphic to
the pattern, where the root has exactly one neighbor outside the set and
the other vertices have none.  Equivalently: cutting one edge of the host
splits off the occurrence as a whole component, rooted at the cut end.
Counting therefore scans the two sides of every edge for components of
the right size and compares canonical codes.
"""

from __future__ import annotations

import os
import re
from collections import Counter
from concurrent.futures import ProcessPoolExecutor
from dataclasses import dataclass
from typing import Iterable

from .errors import DuplicateVerticesError, FormatError, IndexOutOfRangeError
from .isomorphism import RootedPattern, ahu_code
from .trees import RootedTree, Tree, _decode_edges, build_tree

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


def _is_occurrence(adj, root: int, others: frozenset[int], p: int,
                   code: str) -> bool:
    # Induced-subgraph route, independent of the edge-cut counter.
    if len(others) != p:
        return False
    verts = others | {root}
    induced = {v: [w for w in adj[v] if w in verts] for v in verts}
    if sum(len(x) for x in induced.values()) != 2 * p:
        return False
    if len(adj[root]) != len(induced[root]) + 1:
        return False
    for w in others:
        if len(adj[w]) != len(induced[w]):
            return False
    seen = {root}
    stack = [root]
    while stack:
        v = stack.pop()
        for w in induced[v]:
            if w not in seen:
                seen.add(w)
                stack.append(w)
    if len(seen) != p + 1:
        return False
    return ahu_code(induced, root) == code


def is_pattern(t: Tree, occ: PatternOccurrence, pat: RootedPattern) -> bool:
    """Does occ form an occurrence of pat in t?

    Checks all three conditions directly: the induced subgraph is a tree
    rooted-isomorphic to the pattern, the root has exactly one outside
    neighbor, and the other vertices have none.
    """
    _check_occurrence(t, occ)
    return _is_occurrence(t.adjacency, occ.root, occ.others, pat.p,
                          pat.canonical.code)


def _tree_shape(adj, n: int):
    # Anchor a DFS at vertex 1: traversal order, parents, subtree sizes.
    parent = [0] * (n + 1)
    order = [1]
    stack = [1]
    while stack:
        v = stack.pop()
        pv = parent[v]
        for w in adj[v]:
            if w != pv:
                parent[w] = v
                order.append(w)
                stack.append(w)
    size = [1] * (n + 1)
    for v in reversed(order):
        if v != 1:
            size[parent[v]] += size[v]
    return order, parent, size


def _count_multi(n: int, adj, targets) -> list[int]:
    """Count occurrences of several patterns in one pass.

    targets is a list of (vertex count, canonical code) pairs.  Each edge
    contributes a candidate side per orientation whose component has the
    requested size; the component code decides the match.
    """
    counts = [0] * len(targets)
    if n < 2:
        return counts
    by_size: dict[int, list[tuple[int, str]]] = {}
    for i, (m, code) in enumerate(targets):
        by_size.setdefault(m, []).append((i, code))
    order, parent, size = _tree_shape(adj, n)
    for v in order[1:]:
        pv = parent[v]
        group = by_size.get(size[v])
        if group is not None:
            c = ahu_code(adj, v, blocked=pv)
            for i, code in group:
                if c == code:
                    counts[i] += 1
        group = by_size.get(n - size[v])
        if group is not None:
            c = ahu_code(adj, pv, blocked=v)
            for i, code in group:
                if c == code:
                    counts[i] += 1
    return counts


def _sweep(outcome, n: int, seqs) -> Counter:
    """Decode each Pruefer sequence on n vertices once and tally
    outcome(adjacency lists) over the trees."""
    tally: Counter = Counter()
    for seq in seqs:
        adj: list[list[int]] = [[] for _ in range(n + 1)]
        for u, v in _decode_edges(seq, n):
            adj[u].append(v)
            adj[v].append(u)
        tally[outcome(adj)] += 1
    return tally


def _worker_count(workers: int, parts: int) -> int:
    # Results never depend on the split, so asking for more processes
    # than there are parts or CPUs only costs OS resources.
    return max(1, min(workers, parts, os.cpu_count() or 1))


def _fan_out(job, args, lo: int, hi: int, workers: int) -> Counter:
    """Sum of job(args, a, b) over contiguous parts [a, b) of lo..hi.

    One part runs in this process; several run in a process pool, so job
    must be a module-level function and args picklable.
    """
    k = _worker_count(workers, hi - lo)
    if k == 1:
        return job(args, lo, hi)
    bounds = [lo + (hi - lo) * i // k for i in range(k + 1)]
    total: Counter = Counter()
    with ProcessPoolExecutor(max_workers=k) as pool:
        for part in pool.map(job, [args] * k, bounds[:-1], bounds[1:]):
            total.update(part)
    return total


def count_patterns(t: Tree, pat: RootedPattern) -> int:
    """Number of occurrences of pat in t."""
    return _count_multi(t.n, t.adjacency, [(pat.p + 1, pat.canonical.code)])[0]


def _component(adj, root: int, blocked: int) -> list[int]:
    out = [root]
    stack = [(root, blocked)]
    while stack:
        v, pv = stack.pop()
        for w in adj[v]:
            if w != pv:
                out.append(w)
                stack.append((w, v))
    return out


def find_patterns(t: Tree, pat: RootedPattern) -> list[PatternOccurrence]:
    """All occurrences of pat in t, sorted by root then vertex set."""
    n = t.n
    adj = t.adjacency
    m = pat.p + 1
    code = pat.canonical.code
    hits: list[PatternOccurrence] = []
    if n >= 2:
        order, parent, size = _tree_shape(adj, n)
        for v in order[1:]:
            pv = parent[v]
            if size[v] == m and ahu_code(adj, v, blocked=pv) == code:
                verts = _component(adj, v, pv)
                hits.append(PatternOccurrence(v, [x for x in verts if x != v]))
            if n - size[v] == m and ahu_code(adj, pv, blocked=v) == code:
                verts = _component(adj, pv, v)
                hits.append(
                    PatternOccurrence(pv, [x for x in verts if x != pv]))
    hits.sort(key=PatternOccurrence.sort_key)
    return hits


def rooted_edge() -> RootedPattern:
    """Single edge rooted at one end (p = 1)."""
    return RootedPattern.from_rooted_tree(
        RootedTree(build_tree(2, [(1, 2)]), 1))


def cherry() -> RootedPattern:
    """Path on three vertices rooted at the middle (p = 2)."""
    return path_pattern_mid(3)


def star_pattern(k: int) -> RootedPattern:
    """k leaves attached to the root (p = k)."""
    if k < 1:
        raise FormatError("star needs at least one leaf")
    edges = [(1, i) for i in range(2, k + 2)]
    return RootedPattern.from_rooted_tree(RootedTree(build_tree(k + 1, edges), 1))


def path_pattern_end(k: int) -> RootedPattern:
    """Path on k vertices rooted at an end (p = k - 1)."""
    if k < 2:
        raise FormatError("path needs at least two vertices")
    edges = [(i, i + 1) for i in range(1, k)]
    return RootedPattern.from_rooted_tree(RootedTree(build_tree(k, edges), 1))


def path_pattern_mid(k: int) -> RootedPattern:
    """Path on k vertices rooted at the middle; k must be odd."""
    if k < 3 or k % 2 == 0:
        raise FormatError("midpoint-rooted path needs an odd k >= 3")
    edges = [(i, i + 1) for i in range(1, k)]
    return RootedPattern.from_rooted_tree(
        RootedTree(build_tree(k, edges), (k + 1) // 2))


BUILTIN_PATTERN_HELP = (
    "cherry | edge | star<k> | path<k>@end | path<k>@mid (odd k)"
)

_STAR_RE = re.compile(r"star(\d+)$")
_PATH_RE = re.compile(r"path(\d+)@(end|mid)$")


def pattern_from_name(name: str) -> RootedPattern:
    """Build one of the named patterns: cherry, edge, star<k>, path<k>@end,
    path<k>@mid."""
    if name == "cherry":
        return cherry()
    if name == "edge":
        return rooted_edge()
    m = _STAR_RE.fullmatch(name)
    if m:
        return star_pattern(int(m.group(1)))
    m = _PATH_RE.fullmatch(name)
    if m:
        k = int(m.group(1))
        if m.group(2) == "end":
            return path_pattern_end(k)
        return path_pattern_mid(k)
    raise FormatError(
        f"unknown pattern name {name!r}; expected {BUILTIN_PATTERN_HELP}")


def is_builtin_pattern_name(name: str) -> bool:
    return (name in ("cherry", "edge") or _STAR_RE.fullmatch(name) is not None
            or _PATH_RE.fullmatch(name) is not None)
