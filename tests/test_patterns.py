"""Occurrence testing, counting, and locating; builtin pattern names;
the worker clamp of the shared sweep."""

import os
import tracemalloc
from collections import Counter
from functools import cache
from itertools import product

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from treepatterns import (
    DuplicateVerticesError,
    FormatError,
    IndexOutOfRangeError,
    PatternOccurrence,
    PruferSequence,
    build_tree,
    cherry,
    count_patterns,
    exact_pattern_distributions,
    find_patterns,
    is_pattern,
    path_pattern_end,
    path_pattern_mid,
    pattern_from_name,
    prufer_decode,
    prufer_encode,
    rooted_edge,
    star_pattern,
    stream_for,
)
from treepatterns.patterns import (
    _occurrence_finder,
    _worker_count,
    is_builtin_pattern_name,
)
from treepatterns.trees import _decode, _tree_from_order, _walk

import naive


def path(n):
    return build_tree(n, [(i, i + 1) for i in range(1, n)])


def star(n, center=1):
    return build_tree(n, [(center, v) for v in range(1, n + 1) if v != center])


def random_tree(n, stream):
    return prufer_decode(PruferSequence(n, tuple(stream.randints(n - 2, n))))


SMALL_PATTERNS = [rooted_edge(), path_pattern_end(3), cherry(), star_pattern(3)]


class TestPatternOccurrence:
    def test_vertices_and_sort_key(self):
        occ = PatternOccurrence(3, [5, 2])
        assert occ.vertices == frozenset({2, 3, 5})
        assert occ.sort_key() == (3, (2, 5))

    def test_rejects_repeated_vertex(self):
        with pytest.raises(DuplicateVerticesError):
            PatternOccurrence(1, [2, 2])

    def test_rejects_root_among_others(self):
        with pytest.raises(DuplicateVerticesError):
            PatternOccurrence(1, [1, 2])


class TestIsPattern:
    @pytest.mark.parametrize("tree, root, others, pat, expect", [
        (path(4), 2, [1], rooted_edge(), True),
        (path(4), 2, [3], rooted_edge(), False),   # 3 still touches 4
        (path(4), 1, [2], rooted_edge(), False),   # root needs an outside edge
        (path(4), 3, [4], rooted_edge(), True),
        (path(3), 2, [1, 3], cherry(), False),     # covers the whole tree
        (star(4), 1, [2, 3], cherry(), True),
        (star(4), 2, [1, 3], cherry(), False),
        (star(4), 1, [2, 3, 4], star_pattern(3), False),  # covers everything
        (star(5), 1, [2, 3, 4], star_pattern(3), True),
        (path(5), 3, [4, 5], path_pattern_end(3), True),
        (path(5), 3, [1, 2], path_pattern_end(3), True),
        (path(5), 2, [1], rooted_edge(), True),
        (path(5), 3, [2, 4], cherry(), False),     # induced path, wrong degrees
    ])
    def test_examples(self, tree, root, others, pat, expect):
        assert is_pattern(tree, PatternOccurrence(root, others), pat) is expect

    def test_wrong_size_is_false(self):
        assert not is_pattern(path(5), PatternOccurrence(2, [1]), cherry())

    def test_out_of_range_vertex(self):
        with pytest.raises(IndexOutOfRangeError):
            is_pattern(path(4), PatternOccurrence(2, [7]), rooted_edge())

    @pytest.mark.parametrize("pat", SMALL_PATTERNS,
                             ids=lambda p: p.canonical.code)
    @given(t=naive.random_trees(min_n=2, max_n=8), data=st.data())
    def test_agrees_with_the_naive_check(self, pat, t, data):
        if t.n < pat.p + 1:
            return
        root = data.draw(st.integers(1, t.n))
        rest = [v for v in range(1, t.n + 1) if v != root]
        others = data.draw(st.permutations(rest).map(lambda x: x[:pat.p]))
        occ = PatternOccurrence(root, others)
        assert (is_pattern(t, occ, pat)
                == naive.naive_is_occurrence(t, root, others, pat))


class TestCountAndFind:
    @pytest.mark.parametrize("tree, pat, expect", [
        (path(5), path_pattern_end(3), [(3, (1, 2)), (3, (4, 5))]),
        (path(5), cherry(), []),
        (path(4), rooted_edge(), [(2, (1,)), (3, (4,))]),
        (star(4), rooted_edge(), []),
        (star(4), cherry(), [(1, (2, 3)), (1, (2, 4)), (1, (3, 4))]),
        (star(5), star_pattern(3), [(1, (2, 3, 4)), (1, (2, 3, 5)),
                                    (1, (2, 4, 5)), (1, (3, 4, 5))]),
        (build_tree(2, [(1, 2)]), rooted_edge(), []),
        (path(3), rooted_edge(), [(2, (1,)), (2, (3,))]),
    ])
    def test_find_examples(self, tree, pat, expect):
        got = [(o.root, tuple(sorted(o.others))) for o in find_patterns(tree, pat)]
        assert got == expect
        assert count_patterns(tree, pat) == len(expect)

    @pytest.mark.parametrize("pat", SMALL_PATTERNS,
                             ids=lambda p: p.canonical.code)
    @pytest.mark.parametrize("n", [2, 3, 4, 5])
    def test_matches_naive_count_exhaustively(self, n, pat):
        for t in naive.all_trees(n):
            assert count_patterns(t, pat) == naive.naive_count(t, pat)

    @pytest.mark.parametrize("pat", SMALL_PATTERNS,
                             ids=lambda p: p.canonical.code)
    def test_matches_naive_count_exhaustively_n6(self, pat):
        for t in naive.all_trees(6):
            assert count_patterns(t, pat) == naive.naive_count(t, pat)

    @pytest.mark.parametrize("n", [7, 8])
    def test_matches_naive_count_on_random_trees(self, n):
        stream = stream_for(987654321, n)
        for _ in range(12):
            t = random_tree(n, stream)
            for pat in SMALL_PATTERNS:
                assert count_patterns(t, pat) == naive.naive_count(t, pat)

    @given(naive.random_trees(min_n=2, max_n=9))
    def test_find_is_sorted_consistent_and_verified(self, t):
        for pat in (rooted_edge(), cherry()):
            occs = find_patterns(t, pat)
            assert len(occs) == count_patterns(t, pat)
            keys = [o.sort_key() for o in occs]
            assert keys == sorted(keys)
            assert len(set(keys)) == len(keys)
            for o in occs:
                assert is_pattern(t, o, pat)

    @pytest.mark.parametrize("pat", SMALL_PATTERNS,
                             ids=lambda p: p.canonical.code)
    def test_occurrences_are_disjoint_in_large_hosts(self, pat):
        # distinct occurrences cannot share a vertex once n >= 2(p + 1)
        stream = stream_for(555, pat.p)
        n = 2 * (pat.p + 1) + 3
        for _ in range(40):
            occs = find_patterns(random_tree(n, stream), pat)
            for i, a in enumerate(occs):
                for b in occs[i + 1:]:
                    assert not (a.vertices & b.vertices)

    def test_shared_vertices_happen_below_the_threshold(self):
        # the star on 4 vertices packs three overlapping cherries
        occs = find_patterns(star(4), cherry())
        assert len(occs) == 3
        assert occs[0].vertices & occs[1].vertices

    @given(naive.random_trees(min_n=2, max_n=8),
           st.randoms(use_true_random=False))
    def test_find_commutes_with_relabelling(self, t, rng):
        perm = list(range(1, t.n + 1))
        rng.shuffle(perm)
        perm = [0] + perm
        mapped = naive.relabel(t, perm)
        for pat in (rooted_edge(), cherry()):
            want = sorted(
                (perm[o.root], tuple(sorted(perm[v] for v in o.others)))
                for o in find_patterns(t, pat))
            got = [(o.root, tuple(sorted(o.others)))
                   for o in find_patterns(mapped, pat)]
            assert got == want


MIXED_NAMES = ["edge", "cherry", "star3", "path4@end"]


def decoded_count(t, pat):
    """Count on the decoder's removal order, as the samplers do."""
    return len(_occurrence_finder(t.n, [pat])(
        *_decode(prufer_encode(t).seq, t.n)))


class TestCountingCore:
    # Both callers root the host at vertex n: count_patterns through a
    # breadth-first walk, the samplers through the decoder.  The side of
    # an edge that holds n is coded by the walk up to n, the other by the
    # bottom-up pass; each host below needs one or both.

    @pytest.mark.parametrize("name", MIXED_NAMES)
    def test_both_sides_of_one_edge_match_at_twice_the_size(self, name):
        # Two copies of the pattern joined at their roots: n = 2m.
        pat = pattern_from_name(name)
        m = pat.p + 1
        r = pat.shape.root
        edges = sorted(pat.shape.tree.edges)
        host = build_tree(2 * m, edges + [(u + m, v + m) for u, v in edges]
                          + [(r, r + m)])
        assert naive.naive_count(host, pat) >= 2
        assert count_patterns(host, pat) == naive.naive_count(host, pat)
        assert decoded_count(host, pat) == naive.naive_count(host, pat)

    @pytest.mark.parametrize("name", MIXED_NAMES)
    def test_occurrence_holding_vertex_n(self, name):
        # A path 1-2-3 with the pattern hung from vertex 3 by its root;
        # each pattern vertex in turn carries the label n.
        pat = pattern_from_name(name)
        m = pat.p + 1
        n = 3 + m
        r = pat.shape.root
        for w in range(1, m + 1):
            rest = iter(range(4, n))
            label = {x: n if x == w else next(rest) for x in range(1, m + 1)}
            host = build_tree(n, [(1, 2), (2, 3), (3, label[r])]
                              + [(label[u], label[v])
                                 for u, v in pat.shape.tree.edges])
            want = naive.naive_count(host, pat)
            assert want >= 1
            assert count_patterns(host, pat) == want
            assert decoded_count(host, pat) == want
            roots = {o.root for o in find_patterns(host, pat)
                     if n in o.vertices}
            assert roots == {label[r]}

    def test_deep_pattern_holding_vertex_n(self):
        # path1500@end occurs twice in a 1501-vertex path: rooted at 1500
        # away from n, and rooted at 2 with n at the far end.  Walking
        # 1500 vertices up to n must not recurse.
        pat = pattern_from_name("path1500@end")
        host = path(1501)
        assert count_patterns(host, pat) == 2
        got = [(o.root, min(o.others), max(o.others))
               for o in find_patterns(host, pat)]
        assert got == [(2, 3, 1501), (1500, 1, 1499)]

    @pytest.mark.parametrize("pats", [
        SMALL_PATTERNS, [pattern_from_name(name) for name in MIXED_NAMES],
    ], ids=["small", "mixed"])
    def test_decode_and_walk_orders_find_the_same_hits(self, pats):
        # Two child-first orders of every tree with n <= 7: the decoder's
        # leaf removals and the reversed breadth-first walk that
        # count_patterns takes.  One core must find the same hits in both.
        for n in range(2, 8):
            find = _occurrence_finder(n, pats)
            for seq in product(range(1, n + 1), repeat=n - 2):
                order, parent = _decode(seq, n)
                tree = _tree_from_order(n, order, parent)
                walk, up = _walk(tree.adjacency, n)
                walk_parent = [0] * (n + 1)
                for v, u in zip(walk, up):
                    walk_parent[v] = u
                assert walk_parent == parent
                assert sorted(find(order, parent)) == sorted(
                    find(walk[:0:-1], walk_parent))

    def test_building_it_takes_memory_of_the_pattern_size(self):
        # Nothing is allocated per host vertex until a tree is counted.
        tracemalloc.start()
        try:
            _occurrence_finder(10 ** 6, [cherry()])
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert peak < 1 << 20

    def test_a_pattern_too_big_for_the_host_costs_nothing(self):
        # It never occurs, so it gets no shape IDs.  Its 8000 IDs would
        # cost about the square of their count, as ID i weighs 15**i.
        pat = path_pattern_end(8000)
        tracemalloc.start()
        try:
            _occurrence_finder(14, [pat])
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert peak < 1 << 20
        assert count_patterns(path(14), pat) == 0


@cache
def labelled_trees(n):
    return list(naive.all_trees(n))


@cache
def naive_occurrences(n, name):
    pat = pattern_from_name(name)
    return [naive.naive_occurrences(t, pat) for t in labelled_trees(n)]


def check_against_naive(n, names):
    """count_patterns on every labelled tree with n vertices, and one
    exact_pattern_distributions sweep of all the names, against the naive
    count."""
    pats = [pattern_from_name(name) for name in names]
    want = []
    for name, pat in zip(names, pats):
        counts = [len(occs) for occs in naive_occurrences(n, name)]
        assert [count_patterns(t, pat) for t in labelled_trees(n)] == counts
        want.append(dict(Counter(counts)))
    assert [d.histogram for d in exact_pattern_distributions(n, pats)] == want


class SlicedOrder(list):
    """A child-first order that records the slices taken of it."""

    def __init__(self, order):
        super().__init__(order)
        self.taken = []

    def __getitem__(self, i):
        self.taken.append(i)
        return super().__getitem__(i)


class TestTailCutScan:
    # The root side of a cut holds at most top vertices, top the largest
    # pattern size below n, so find looks for cuts among the last top
    # entries of the order only.

    @pytest.mark.parametrize("n", range(2, 8))
    def test_no_pattern_below_n_scans_nothing(self, n):
        # top = 0, where order[-top:] would be the whole order.
        names = [f"path{n + 1}@end", f"star{n}"]
        check_against_naive(n, names)
        order, parent = _decode([1] * (n - 2), n)
        order = SlicedOrder(order)
        find = _occurrence_finder(n, [pattern_from_name(x) for x in names])
        assert find(order, parent) == []
        assert order.taken == []

    @pytest.mark.parametrize("n", range(2, 8))
    def test_top_longer_than_the_order(self, n):
        # p = n - 1 sets top = n, one more than the n - 1 listed vertices;
        # the edge still finds its occurrences on both sides of each cut.
        check_against_naive(n, [f"path{n}@end", "edge"])

    @pytest.mark.parametrize("name, n", [("edge", n) for n in range(5, 8)]
                             + [("cherry", n) for n in range(4, 7)])
    def test_occurrences_only_on_vertex_ns_side(self, name, n):
        # Trees whose every occurrence holds vertex n: only the tail scan
        # finds them, on a walk's order (count_patterns, checked on every
        # tree) and on the decoder's.
        check_against_naive(n, [name])
        pat = pattern_from_name(name)
        seen = 0
        for t, occs in zip(labelled_trees(n), naive_occurrences(n, name)):
            if occs and all(n in (root, *others) for root, others in occs):
                seen += 1
                assert decoded_count(t, pat) == len(occs)
        assert seen


class TestBuiltinNames:
    @pytest.mark.parametrize("name, p, aut", [
        ("edge", 1, 1),
        ("cherry", 2, 2),
        ("star1", 1, 1),
        ("star3", 3, 6),
        ("star5", 5, 120),
        ("path2@end", 1, 1),
        ("path4@end", 3, 1),
        ("path5@mid", 4, 2),
        ("path3@mid", 2, 2),
    ])
    def test_named_patterns(self, name, p, aut):
        pat = pattern_from_name(name)
        assert pat.p == p
        assert pat.aut_root_order == aut

    def test_star1_and_path2_are_the_edge(self):
        edge = rooted_edge()
        assert pattern_from_name("star1").canonical == edge.canonical
        assert pattern_from_name("path2@end").canonical == edge.canonical

    def test_cherry_is_the_midpoint_path3(self):
        assert cherry().canonical == path_pattern_mid(3).canonical

    @pytest.mark.parametrize("name", [
        "path4@mid",     # even length has no midpoint vertex
        "path1@end",
        "star0",
        "path3",
        "path3@middle",
        "triangle",
        "",
    ])
    def test_bad_names_are_rejected(self, name):
        with pytest.raises(FormatError):
            pattern_from_name(name)

    @pytest.mark.parametrize("name, expect", [
        ("edge", True),
        ("cherry", True),
        ("star12", True),
        ("path9@mid", True),
        ("path9@midd", False),
        ("wedge", False),
        ("", False),
    ])
    def test_name_detection(self, name, expect):
        assert is_builtin_pattern_name(name) is expect


class TestWorkerCount:
    # The clamp is tested directly: starting a large pool to test it
    # would ask the OS for that many processes.
    def test_capped_by_cpus_and_parts(self, monkeypatch):
        monkeypatch.setattr(os, "cpu_count", lambda: 4)
        assert _worker_count(64, 1000) == 4
        assert _worker_count(3, 1000) == 3
        assert _worker_count(8, 2) == 2
        assert _worker_count(8, 1) == 1

    @pytest.mark.parametrize("workers", [1, 0, -3])
    def test_at_least_one(self, monkeypatch, workers):
        monkeypatch.setattr(os, "cpu_count", lambda: 4)
        assert _worker_count(workers, 10) == 1

    def test_unknown_cpu_count_means_one(self, monkeypatch):
        monkeypatch.setattr(os, "cpu_count", lambda: None)
        assert _worker_count(8, 100) == 1
