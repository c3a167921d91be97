"""Canonical forms, isomorphism tests, and automorphism counts for rooted trees.

After Aho, Hopcroft and Ullman, one pass from the leaves up gives every
fringe subtree an integer ID, keyed by the sorted tuple of its children's
IDs and numbered by height, then by that tuple.  The table of tuples is
canonical, and the pass also yields the root-fixing automorphism order.
"""

from __future__ import annotations

from dataclasses import dataclass
from math import factorial

from .errors import FormatError, TooSmallError
from .trees import RootedTree, Tree, _data_lines, _parse_edges, _parse_header, _walk, build_tree, rootify, tree_to_text


@dataclass(frozen=True)
class CanonicalForm:
    """Canonical shape table: entry i is the sorted tuple of shape i's
    children's IDs, and the root's shape is the last entry."""

    table: tuple[tuple[int, ...], ...]

    @property
    def code(self) -> str:
        """Parenthesis rendering, each shape's children in string order; a
        string is freed after its last parent's, so memory stays linear."""
        uses = [0] * len(self.table)
        for kids in self.table:
            for c in kids:
                uses[c] += 1
        out: list[str | None] = []
        for kids in self.table:
            out.append("(" + "".join(sorted(out[c] for c in kids)) + ")")
            for c in kids:
                uses[c] -= 1
                if not uses[c]:
                    out[c] = None
        return out[-1]


def _canonical(adjacency, root: int,
               blocked: int = 0) -> tuple[CanonicalForm, int]:
    # up[i]: position of order[i]'s parent (root: unused).  Lists are
    # dropped once used, to keep the peak memory of deep trees low.
    order, parent = _walk(adjacency, root, blocked)
    up = list(map(dict(zip(order, range(len(order)))).get, parent))
    del order, parent
    height = [0] * len(up)
    for i, u in zip(range(len(up) - 1, 0, -1), reversed(up)):
        if height[u] <= height[i]:
            height[u] = height[i] + 1
    levels: list[list[int]] = [[] for _ in range(height[0] + 1)]
    for i, h in enumerate(height):
        levels[h].append(i)
    del height
    kids: list[list[int]] = [[] for _ in up]
    table: list[tuple[int, ...]] = []
    aut: list[int] = []
    for level in levels:
        keys = [tuple(sorted(kids[i])) for i in level]
        ids: dict[tuple[int, ...], int] = {}
        for key in sorted(set(keys)):
            ids[key] = len(table)
            table.append(key)
            # Isomorphic siblings carry equal IDs and may be permuted.
            a = run = 1
            for j, c in enumerate(key):
                run = run + 1 if j and key[j - 1] == c else 1
                a *= aut[c] * run
            aut.append(a)
        for i, key in zip(level, keys):
            if i:
                kids[up[i]].append(ids[key])
    return CanonicalForm(tuple(table)), aut[-1]


def ahu_code(adjacency, root: int, blocked: int | None = None) -> str:
    """Rendered canonical form of the subtree reachable from root.

    adjacency may be any mapping or sequence giving neighbor lists; with
    blocked set, the edge root-blocked is not crossed.
    """
    return _canonical(adjacency, root, blocked)[0].code


def canonical_form_rooted(rt: RootedTree) -> CanonicalForm:
    return _canonical(rt.tree.adjacency, rt.root)[0]


def rooted_isomorphic(a: RootedTree, b: RootedTree) -> bool:
    """True when a root-preserving isomorphism exists."""
    return canonical_form_rooted(a) == canonical_form_rooted(b)


def aut_rooted(rt: RootedTree) -> int:
    """Order of the automorphism group fixing the root."""
    return _canonical(rt.tree.adjacency, rt.root)[1]


def aut_unrooted(t: Tree) -> int:
    """Order of the full automorphism group of an unlabelled tree; every
    automorphism fixes the center, and rootify makes that the root."""
    return aut_rooted(rootify(t))


@dataclass(frozen=True)
class RootedPattern:
    """A rooted tree shape used as an attachment pattern.

    p is the number of non-root vertices (at least 1); aut_root_order and
    the canonical form are computed once at construction.
    """

    shape: RootedTree
    p: int
    aut_root_order: int
    canonical: CanonicalForm

    @classmethod
    def from_rooted_tree(cls, rt: RootedTree) -> "RootedPattern":
        p = rt.tree.n - 1
        if p < 1:
            raise TooSmallError("a pattern needs at least one non-root vertex")
        form, aut = _canonical(rt.tree.adjacency, rt.root)
        return cls(rt, p, aut, form)


def labelled_rooted_count(pat: RootedPattern) -> int:
    """Number of rooted labelled trees on p + 1 fixed labels, with a fixed
    root label, that are rooted-isomorphic to the pattern: p! / aut."""
    q, r = divmod(factorial(pat.p), pat.aut_root_order)
    if r:
        raise RuntimeError(
            f"automorphism order {pat.aut_root_order} does not divide "
            f"{pat.p}! (internal inconsistency)")
    return q


def pattern_from_text(text: str) -> RootedPattern:
    """Parse a pattern file: the tree format followed by one line 'root <r>'."""
    lines = _data_lines(text)
    if len(lines) < 2:
        raise FormatError("pattern input needs a tree and a root line")
    n = _parse_header(lines[0])
    if len(lines) != n + 1:
        raise FormatError(
            f"expected {n - 1} edge lines plus a root line for n={n}")
    edges = _parse_edges(lines[1:-1])
    parts = lines[-1].split()
    if len(parts) != 2 or parts[0] != "root":
        raise FormatError(f"expected final line 'root <r>', got {lines[-1]!r}")
    try:
        root = int(parts[1])
    except ValueError:
        raise FormatError(f"bad root {parts[1]!r}") from None
    tree = build_tree(n, edges)
    return RootedPattern.from_rooted_tree(RootedTree(tree, root))


def pattern_to_text(pat: RootedPattern) -> str:
    return tree_to_text(pat.shape.tree) + f"root {pat.shape.root}\n"
