"""Canonical codes, isomorphism, automorphism counts, pattern shapes."""

import tracemalloc

import pytest
from hypothesis import given
from hypothesis import strategies as st

from treepatterns import (
    FormatError,
    RootedPattern,
    RootedTree,
    TooSmallError,
    ahu_code,
    aut_rooted,
    aut_unrooted,
    build_tree,
    canonical_form_rooted,
    cherry,
    labelled_rooted_count,
    path_pattern_end,
    path_pattern_mid,
    pattern_from_text,
    pattern_to_text,
    rooted_edge,
    rooted_isomorphic,
    star_pattern,
)

import naive
from conftest import make_pattern, rooted_shape_reps


def path(n):
    return build_tree(n, [(i, i + 1) for i in range(1, n)])


def star(n, center=1):
    return build_tree(n, [(center, v) for v in range(1, n + 1) if v != center])


class TestAhuCode:
    @pytest.mark.parametrize("tree, root, code", [
        (build_tree(1, []), 1, "()"),
        (build_tree(2, [(1, 2)]), 1, "(())"),
        (path(3), 2, "(()())"),
        (path(3), 1, "((()))"),
        (star(4), 1, "(()()())"),
        (path(4), 2, "((())())"),
    ])
    def test_known_codes(self, tree, root, code):
        assert ahu_code(tree.adjacency, root) == code
        assert canonical_form_rooted(RootedTree(tree, root)).code == code

    def test_blocked_edge_codes_one_side(self):
        # cutting (2, 3) of a path on 4 leaves an edge on each side
        t = path(4)
        assert ahu_code(t.adjacency, 2, blocked=3) == "(())"
        assert ahu_code(t.adjacency, 3, blocked=2) == "(())"

    def test_deep_path_does_not_recurse(self):
        n = 5000
        t = path(n)
        code = ahu_code(t.adjacency, 1)
        assert code == "(" * n + ")" * n

    @given(naive.random_trees(min_n=2, max_n=9),
           st.randoms(use_true_random=False))
    def test_code_is_a_relabelling_invariant(self, t, rng):
        perm = list(range(1, t.n + 1))
        rng.shuffle(perm)
        perm = [0] + perm
        mapped = naive.relabel(t, perm)
        for root in range(1, t.n + 1):
            assert (ahu_code(t.adjacency, root)
                    == ahu_code(mapped.adjacency, perm[root]))
            assert (canonical_form_rooted(RootedTree(t, root))
                    == canonical_form_rooted(RootedTree(mapped, perm[root])))


class TestRootedIsomorphic:
    @pytest.mark.parametrize("r1, r2, expect", [
        (1, 4, True),
        (2, 3, True),
        (1, 2, False),
    ])
    def test_path4_roots(self, r1, r2, expect):
        t = path(4)
        assert rooted_isomorphic(RootedTree(t, r1), RootedTree(t, r2)) is expect

    def test_different_sizes_never_match(self):
        a = RootedTree(path(3), 1)
        b = RootedTree(path(4), 1)
        assert not rooted_isomorphic(a, b)

    def test_matches_brute_force_on_all_rooted_pairs_n4(self):
        rooted = [(t, r) for t in naive.all_trees(4) for r in range(1, 5)]
        for t1, r1 in rooted:
            for t2, r2 in rooted:
                fast = rooted_isomorphic(RootedTree(t1, r1), RootedTree(t2, r2))
                assert fast == naive.rooted_iso_brute(t1, r1, t2, r2)

    def test_code_classes_agree_with_brute_force_n5(self):
        # every member must be brute-isomorphic to its class representative,
        # and representatives of different classes must not be
        classes = {}
        forms = {}
        for t in naive.all_trees(5):
            for r in range(1, 6):
                code = ahu_code(t.adjacency, r)
                classes.setdefault(code, []).append((t, r))
                form = canonical_form_rooted(RootedTree(t, r))
                assert forms.setdefault(code, form) == form
        # one form per code and one code per form
        assert len(set(forms.values())) == len(forms)
        reps = {code: members[0] for code, members in classes.items()}
        for code, members in classes.items():
            t0, r0 = reps[code]
            for t, r in members[1:]:
                assert naive.rooted_iso_brute(t, r, t0, r0)
        rep_list = list(reps.values())
        for i, (t1, r1) in enumerate(rep_list):
            for t2, r2 in rep_list[i + 1:]:
                assert not naive.rooted_iso_brute(t1, r1, t2, r2)


class TestAutRooted:
    @pytest.mark.parametrize("tree, root, order", [
        (build_tree(2, [(1, 2)]), 1, 1),
        (path(3), 2, 2),
        (path(3), 1, 1),
        (star(4), 1, 6),
        (star(5, center=2), 2, 24),
        (path(5), 3, 2),
        # two cherries hanging off the root: swap within each, swap the pair
        (build_tree(7, [(1, 2), (2, 3), (2, 4), (1, 5), (5, 6), (5, 7)]),
         1, 8),
    ])
    def test_known_orders(self, tree, root, order):
        assert aut_rooted(RootedTree(tree, root)) == order

    @pytest.mark.parametrize("n", [2, 3, 4, 5])
    def test_matches_brute_force_exhaustively(self, n):
        for t in naive.all_trees(n):
            for root in range(1, n + 1):
                assert (aut_rooted(RootedTree(t, root))
                        == naive.aut_rooted_brute(t, root))

    def test_matches_brute_force_on_shape_representatives_n6(self):
        for t, root in rooted_shape_reps(6):
            assert aut_rooted(RootedTree(t, root)) == naive.aut_rooted_brute(t, root)


class TestAutUnrooted:
    @pytest.mark.parametrize("tree, order", [
        (build_tree(1, []), 1),
        (build_tree(2, [(1, 2)]), 2),
        (path(3), 2),
        (path(4), 2),
        (star(4), 6),
        # spider with three legs of length 2
        (build_tree(7, [(1, 2), (2, 3), (1, 4), (4, 5), (1, 6), (6, 7)]), 6),
        # edge center with isomorphic cherry halves: 2 * 2 * 2
        (build_tree(6, [(1, 2), (1, 3), (1, 4), (2, 5), (2, 6)]), 8),
        # edge center with distinct halves: edge vs cherry, no flip
        (build_tree(5, [(1, 2), (1, 3), (2, 4), (2, 5)]), 2),
    ])
    def test_known_orders(self, tree, order):
        assert aut_unrooted(tree) == order

    @pytest.mark.parametrize("n", [2, 3, 4, 5])
    def test_matches_brute_force_exhaustively(self, n):
        for t in naive.all_trees(n):
            assert aut_unrooted(t) == naive.aut_unrooted_brute(t)

    def test_matches_brute_force_on_random_trees_n7(self):
        from treepatterns import PruferSequence, prufer_decode, stream_for
        stream = stream_for(20240817, 0)
        for _ in range(25):
            seq = tuple(stream.randints(5, 7))
            t = prufer_decode(PruferSequence(7, seq))
            assert aut_unrooted(t) == naive.aut_unrooted_brute(t)


class TestAutMemory:
    @staticmethod
    def peak_bytes(fn, t):
        t.adjacency  # built outside the measurement
        tracemalloc.start()
        try:
            fn(t)
            return tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()

    @pytest.mark.parametrize("fn", [
        lambda t: aut_rooted(RootedTree(t, 1)),
        aut_unrooted,
        lambda t: ahu_code(t.adjacency, 1),
    ], ids=["rooted", "unrooted", "code"])
    def test_grows_linearly_on_paths(self, fn):
        # Four times the vertices may cost four times the memory, plus
        # slack for allocator steps; a string per vertex costs sixteen.
        assert (self.peak_bytes(fn, path(8000))
                < 6 * self.peak_bytes(fn, path(2000)))


class TestRootedPattern:
    @pytest.mark.parametrize("pat_factory, p, aut, code", [
        (rooted_edge, 1, 1, "(())"),
        (cherry, 2, 2, "(()())"),
        (lambda: path_pattern_end(3), 2, 1, "((()))"),
        (lambda: star_pattern(3), 3, 6, "(()()())"),
        (lambda: path_pattern_end(4), 3, 1, "(((())))"),
        (lambda: star_pattern(4), 4, 24, "(()()()())"),
        (lambda: path_pattern_mid(5), 4, 2, "((())(()))"),
    ])
    def test_builtin_shapes(self, pat_factory, p, aut, code):
        pat = pat_factory()
        assert pat.p == p
        assert pat.aut_root_order == aut
        assert pat.canonical.code == code

    def test_rejects_rootless_shapes(self):
        with pytest.raises(TooSmallError):
            RootedPattern.from_rooted_tree(RootedTree(build_tree(1, []), 1))

    @pytest.mark.parametrize("pat_factory, count", [
        (rooted_edge, 1),
        (cherry, 1),
        (lambda: path_pattern_end(3), 2),
        (lambda: star_pattern(3), 1),
        (lambda: path_pattern_end(4), 6),
        (lambda: star_pattern(4), 1),
        (lambda: path_pattern_mid(5), 12),
    ])
    def test_labelled_rooted_count_values(self, pat_factory, count):
        assert labelled_rooted_count(pat_factory()) == count

    @pytest.mark.parametrize("m", [2, 3, 4, 5])
    def test_labelled_rooted_count_against_enumeration(self, m):
        # count labelled trees on m vertices whose rooting at label 1 is
        # brute-isomorphic to the pattern shape
        for shape, root in rooted_shape_reps(m):
            pat = make_pattern(m, list(shape.edges), root)
            hits = sum(
                1 for t in naive.all_trees(m)
                if naive.rooted_iso_brute(t, 1, shape, root))
            assert hits == labelled_rooted_count(pat)

    @pytest.mark.parametrize("m", [2, 3, 4, 5, 6])
    def test_counts_sum_to_all_rooted_labelled_trees(self, m):
        # summing p!/aut over the rooted shapes on m vertices recovers
        # m**(m-2), the number of labelled trees rooted at a fixed label
        total = sum(
            labelled_rooted_count(make_pattern(m, list(t.edges), root))
            for t, root in rooted_shape_reps(m))
        assert total == m ** (m - 2)


class TestPatternText:
    def test_round_trip(self):
        pat = make_pattern(4, [(1, 2), (2, 3), (2, 4)], 2)
        again = pattern_from_text(pattern_to_text(pat))
        assert again.canonical == pat.canonical
        assert again.shape == pat.shape

    def test_exact_output(self):
        text = pattern_to_text(make_pattern(3, [(1, 2), (2, 3)], 2))
        assert text == "n 3\n1 2\n2 3\nroot 2\n"

    @pytest.mark.parametrize("text", [
        "",
        "n 3\n1 2\n2 3\n",            # missing root line
        "n 3\n1 2\nroot 1\n",          # missing an edge line
        "n 3\n1 2\n2 3\nroot x\n",
        "n 3\n1 2\n2 3\nanchor 1\n",
        "n 3\n1 x\n2 3\nroot 1\n",       # edge line not two integers
        "n 3\n1 2 3\n2 3\nroot 1\n",     # edge line with three fields
    ])
    def test_rejects_malformed_input(self, text):
        with pytest.raises(FormatError):
            pattern_from_text(text)

    def test_out_of_range_root(self):
        from treepatterns import VertexOutOfRangeError
        with pytest.raises(VertexOutOfRangeError):
            pattern_from_text("n 3\n1 2\n2 3\nroot 7\n")
