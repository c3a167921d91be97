"""Labelled trees on vertices 1..n.

Construction and validation, the Pruefer codec (smallest-labelled-leaf
convention), every unlabelled rooted tree on n vertices, the one walk
every traversal of a valid tree uses, centers, rootification, and the
plain-text file formats used by the command line tools.
"""

from __future__ import annotations

from dataclasses import dataclass
from functools import cached_property
from itertools import islice, product
from math import factorial
from typing import Iterable, Iterator, Sequence

from .errors import (
    DisconnectedError,
    DuplicateEdgeError,
    FormatError,
    SelfLoopError,
    TooSmallError,
    VertexOutOfRangeError,
    WrongEdgeCountError,
)

Edge = tuple[int, int]


@dataclass(frozen=True)
class Tree:
    """Immutable labelled tree on vertices 1..n.

    Edges are stored as (u, v) pairs with u < v.  Use build_tree to
    construct from untrusted input; the constructor itself does not
    validate.
    """

    n: int
    edges: frozenset[Edge]

    @cached_property
    def adjacency(self) -> tuple[tuple[int, ...], ...]:
        """Neighbor lists in no set order, indexed by vertex; 0 is unused."""
        nbr: list[list[int]] = [[] for _ in range(self.n + 1)]
        for u, v in self.edges:
            nbr[u].append(v)
            nbr[v].append(u)
        return tuple(map(tuple, nbr))

    def degree(self, v: int) -> int:
        return len(self.adjacency[v])

    def neighbors(self, v: int) -> tuple[int, ...]:
        return self.adjacency[v]

    def __repr__(self) -> str:
        return f"Tree(n={self.n}, edges={sorted(self.edges)})"


@dataclass(frozen=True)
class RootedTree:
    """A tree together with a distinguished root vertex."""

    tree: Tree
    root: int

    def __post_init__(self) -> None:
        if not 1 <= self.root <= self.tree.n:
            raise VertexOutOfRangeError(
                f"root {self.root} not in 1..{self.tree.n}")


@dataclass(frozen=True)
class PruferSequence:
    """A Pruefer sequence for a tree on n labelled vertices.

    The sequence has length n - 2 and entries in 1..n.  n = 2 gives the
    empty sequence.
    """

    n: int
    seq: tuple[int, ...]

    def __post_init__(self) -> None:
        if self.n < 2:
            raise TooSmallError("Pruefer sequences require n >= 2")
        object.__setattr__(self, "seq", tuple(self.seq))
        if len(self.seq) != self.n - 2:
            raise ValueError(
                f"sequence length {len(self.seq)} != n - 2 = {self.n - 2}")
        for s in self.seq:
            if not 1 <= s <= self.n:
                raise VertexOutOfRangeError(f"entry {s} not in 1..{self.n}")


def build_tree(n: int, edges: Iterable[Sequence[int]]) -> Tree:
    """Validate an edge list and return the tree it describes.

    Raises SelfLoopError, VertexOutOfRangeError, DuplicateEdgeError,
    WrongEdgeCountError, or DisconnectedError on bad input.
    """
    if n < 1:
        raise TooSmallError("a tree needs at least one vertex")
    seen: set[Edge] = set()
    for e in edges:
        u, v = e
        if u == v:
            raise SelfLoopError(f"self-loop at vertex {u}")
        if not 1 <= u <= n or not 1 <= v <= n:
            raise VertexOutOfRangeError(f"edge ({u}, {v}) not within 1..{n}")
        key = (u, v) if u < v else (v, u)
        if key in seen:
            raise DuplicateEdgeError(f"edge {key} listed twice")
        seen.add(key)
    if len(seen) != n - 1:
        raise WrongEdgeCountError(
            f"{len(seen)} edges for n={n}; a tree needs {n - 1}")
    t = Tree(n, frozenset(seen))
    adj = t.adjacency
    # Not _walk: untrusted input may hold a cycle, so mark visited vertices.
    reached = 1
    visited = bytearray(n + 1)
    visited[1] = 1
    stack = [1]
    while stack:
        v = stack.pop()
        for w in adj[v]:
            if not visited[w]:
                visited[w] = 1
                reached += 1
                stack.append(w)
    if reached != n:
        raise DisconnectedError(f"only {reached} of {n} vertices reachable")
    return t


def _sequences(n: int, lo: int, hi: int) -> Iterator[tuple[int, ...]]:
    # Sequences lo..hi - 1 of all n**(n - 2) in lexicographic order.
    return islice(product(range(1, n + 1), repeat=n - 2), lo, hi)


def _decode(seq: Sequence[int], n: int) -> tuple[list[int], list[int]]:
    # Linear-time decode.  At each step the smallest-labelled remaining
    # leaf is joined to the next sequence entry; vertex n survives to the
    # final edge.  Rooted at n, every leaf is removed after all of its
    # children, so the removal order lists each vertex but n once, child
    # before parent; parent[v] is the entry v was joined to, and
    # parent[n] = 0.
    deg = [1] * (n + 1)
    for s in seq:
        deg[s] += 1
    parent = [0] * (n + 1)
    order: list[int] = []
    ptr = 1
    while deg[ptr] != 1:
        ptr += 1
    leaf = ptr
    for s in seq:
        order.append(leaf)
        parent[leaf] = s
        deg[s] -= 1
        if deg[s] == 1 and s < ptr:
            leaf = s
        else:
            ptr += 1
            while deg[ptr] != 1:
                ptr += 1
            leaf = ptr
    order.append(leaf)
    parent[leaf] = n
    return order, parent


def _rooted_shapes(n: int) -> Iterator[tuple[list[int], list[int], int]]:
    # Every unlabelled rooted tree on n vertices once, after Beyer and
    # Hedetniemi (1980): level sequences, the depths in preorder, from the
    # path down to the star.  The next sequence takes the last vertex p
    # deeper than 1 and its parent q, and repeats the levels from q up to
    # p from p on.
    # Preorder position i gets label n - i, so the root is n, parent[n] = 0
    # and order, labels 1..n - 1, lists children before parents, as
    # _decode's removal order does.
    # The weight is the (n - 1)!/aut labelled trees the shape stands for.
    # A canonical sequence lists each vertex's child subtrees in
    # non-increasing order, each one canonical itself, so isomorphic
    # siblings are adjacent with equal slices.  A subtree whose start
    # equals its previous sibling's whole slice ends there too, as a
    # longer one would sort above it.  aut is the product of r! over each
    # run of r such siblings.
    level = list(range(n))
    full = factorial(n - 1)
    while True:
        parent = [0] * (n + 1)
        last = [0] * n  # last[d]: the latest position at depth d
        run = [1] * n   # run[i]: i's place in its run of equal siblings
        weight = full
        for i in range(1, n):
            d = level[i]
            up = last[d - 1]
            parent[n - i] = n - up
            prev = last[d]  # i's previous sibling, if it comes after up
            if prev > up and level[i:2 * i - prev] == level[prev:i]:
                run[i] = run[prev] + 1
                weight //= run[i]
            last[d] = i
        yield list(range(1, n)), parent, weight
        p = n - 1
        while p and level[p] <= 1:
            p -= 1
        if not p:
            return
        q = p - 1
        while level[q] != level[p] - 1:
            q -= 1
        for i in range(p, n):
            level[i] = level[i - p + q]


def _tree_from_order(n: int, order: list[int], parent: list[int]) -> Tree:
    edges: list[Edge] = []
    for v in order:
        w = parent[v]
        edges.append((v, w) if v < w else (w, v))
    return Tree(n, frozenset(edges))


def prufer_decode(s: PruferSequence) -> Tree:
    """Decode a Pruefer sequence into the unique tree it encodes."""
    return _tree_from_order(s.n, *_decode(s.seq, s.n))


def prufer_encode(t: Tree) -> PruferSequence:
    """Encode a tree by repeatedly deleting the smallest-labelled leaf.

    Each deletion appends the leaf's neighbor to the sequence; encoding
    stops when two vertices remain.  Inverse of prufer_decode.
    """
    n = t.n
    if n < 2:
        raise TooSmallError("Pruefer encoding requires n >= 2")
    # Not _walk: deletion goes by smallest label; a walk-based one was slower.
    adj = t.adjacency
    deg = [0] + [len(adj[v]) for v in range(1, n + 1)]
    removed = bytearray(n + 1)
    out: list[int] = []
    ptr = 1
    while deg[ptr] != 1:
        ptr += 1
    leaf = ptr
    for _ in range(n - 2):
        y = 0
        for w in adj[leaf]:
            if not removed[w]:
                y = w
                break
        out.append(y)
        removed[leaf] = 1
        deg[y] -= 1
        if deg[y] == 1 and y < ptr:
            leaf = y
        else:
            ptr += 1
            while deg[ptr] != 1:
                ptr += 1
            leaf = ptr
    return PruferSequence(n, tuple(out))


@dataclass(frozen=True)
class Center:
    """Center of a tree: a single vertex or a pair of adjacent vertices."""

    vertices: tuple[int, ...]

    @property
    def is_edge(self) -> bool:
        return len(self.vertices) == 2

    @property
    def vertex(self) -> int:
        if self.is_edge:
            raise ValueError("center is an edge, not a single vertex")
        return self.vertices[0]


def _walk(adjacency, root: int,
          blocked: int = 0) -> tuple[list[int], list[int]]:
    """Vertices reachable from root without crossing the edge root-blocked,
    in breadth-first order (reversed: children before parents), and each
    one's parent, blocked for the root.  adjacency is any mapping or
    sequence of neighbor lists of a forest: no visited set is kept.
    """
    order = [root]
    parent = [blocked]
    for v, pv in zip(order, parent):
        for w in adjacency[v]:
            if w != pv:
                order.append(w)
                parent.append(v)
    return order, parent


def tree_center(t: Tree) -> Center:
    """Middle of a longest path (Jordan, 1869).  A walk ends at one end of
    such a path, and a walk from there ends at the other."""
    adj = t.adjacency
    far = _walk(adj, 1)[0][-1]
    order, parent = _walk(adj, far)
    up = dict(zip(order, parent))
    path = [order[-1]]
    while path[-1] != far:
        path.append(up[path[-1]])
    k = len(path)
    return Center(tuple(sorted(path[(k - 1) // 2:k // 2 + 1])))


def rootify(t: Tree) -> RootedTree:
    """Root a tree canonically at its center.

    A vertex center becomes the root directly.  An edge center {u, w} is
    subdivided: the new vertex n + 1 replaces the edge and becomes the
    root, so the result always has a vertex center equal to its root.
    """
    c = tree_center(t)
    if not c.is_edge:
        return RootedTree(t, c.vertex)
    u, w = c.vertices
    m = t.n + 1
    return RootedTree(Tree(m, t.edges - {(u, w)} | {(u, m), (w, m)}), m)


def _data_lines(text: str) -> list[str]:
    out = []
    for raw in text.splitlines():
        line = raw.strip()
        if not line or line.startswith("#"):
            continue
        out.append(line)
    return out


def _parse_header(line: str) -> int:
    parts = line.split()
    if len(parts) != 2 or parts[0] != "n":
        raise FormatError(f"expected header 'n <int>', got {line!r}")
    try:
        return int(parts[1])
    except ValueError:
        raise FormatError(f"bad vertex count {parts[1]!r}") from None


def _parse_edges(lines: Iterable[str]) -> list[Edge]:
    edges = []
    for line in lines:
        parts = line.split()
        if len(parts) != 2:
            raise FormatError(f"expected edge line 'u v', got {line!r}")
        try:
            edges.append((int(parts[0]), int(parts[1])))
        except ValueError:
            raise FormatError(f"bad edge line {line!r}") from None
    return edges


def tree_from_text(text: str) -> Tree:
    """Parse the tree format: 'n <int>' then n - 1 lines 'u v'.

    Blank lines and lines starting with '#' are ignored.
    """
    lines = _data_lines(text)
    if not lines:
        raise FormatError("empty tree input")
    n = _parse_header(lines[0])
    return build_tree(n, _parse_edges(lines[1:]))


def tree_to_text(t: Tree) -> str:
    lines = [f"n {t.n}"]
    lines.extend(f"{u} {v}" for u, v in sorted(t.edges))
    return "\n".join(lines) + "\n"


def prufer_from_text(text: str) -> PruferSequence:
    """Parse the sequence format: 'n <int>' then the space-separated entries."""
    lines = _data_lines(text)
    if not lines:
        raise FormatError("empty sequence input")
    n = _parse_header(lines[0])
    toks: list[int] = []
    for line in lines[1:]:
        for tok in line.split():
            try:
                toks.append(int(tok))
            except ValueError:
                raise FormatError(f"bad sequence entry {tok!r}") from None
    try:
        return PruferSequence(n, tuple(toks))
    except ValueError as exc:
        raise FormatError(str(exc)) from None


def prufer_to_text(s: PruferSequence) -> str:
    head = f"n {s.n}\n"
    if not s.seq:
        return head
    return head + " ".join(str(x) for x in s.seq) + "\n"
