"""Tree construction, Pruefer codec, centers, rootification, text formats."""

import random
from functools import cached_property
from math import factorial

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from treepatterns import (
    DisconnectedError,
    DuplicateEdgeError,
    FormatError,
    PruferSequence,
    RootedTree,
    SelfLoopError,
    TooSmallError,
    Tree,
    VertexOutOfRangeError,
    WrongEdgeCountError,
    ahu_code,
    aut_rooted,
    aut_unrooted,
    build_tree,
    find_patterns,
    pattern_from_name,
    prufer_decode,
    prufer_encode,
    prufer_from_text,
    prufer_to_text,
    rootify,
    tree_center,
    tree_from_text,
    tree_to_text,
)
from treepatterns.isomorphism import _canonical
from treepatterns.trees import _decode, _rooted_shapes, _tree_from_order

import naive


def path(n):
    return build_tree(n, [(i, i + 1) for i in range(1, n)])


def star(n, center=1):
    return build_tree(n, [(center, v) for v in range(1, n + 1) if v != center])


class TestBuildTree:
    def test_accepts_single_vertex(self):
        t = build_tree(1, [])
        assert t.n == 1
        assert t.edges == frozenset()

    def test_normalizes_edge_order(self):
        t = build_tree(3, [(3, 1), (3, 2)])
        assert t.edges == frozenset({(1, 3), (2, 3)})

    def test_adjacency_is_sorted_and_one_indexed(self):
        t = build_tree(4, [(2, 1), (4, 2), (2, 3)])
        assert t.adjacency[0] == ()
        assert set(t.adjacency[2]) == {1, 3, 4}
        assert t.degree(2) == 3
        assert t.neighbors(1) == (2,)

    @pytest.mark.parametrize("n, edges, exc", [
        (0, [], TooSmallError),
        (3, [(1, 1), (2, 3)], SelfLoopError),
        (3, [(1, 2), (2, 4)], VertexOutOfRangeError),
        (3, [(0, 1), (2, 3)], VertexOutOfRangeError),
        (3, [(1, 2), (2, 1)], DuplicateEdgeError),
        (3, [(1, 2)], WrongEdgeCountError),
        (2, [(1, 2), (1, 2)], DuplicateEdgeError),
        (4, [(1, 2), (2, 3), (3, 4), (1, 4)], WrongEdgeCountError),
        # triangle plus a path: right edge count, not connected
        (6, [(1, 2), (2, 3), (1, 3), (4, 5), (5, 6)], DisconnectedError),
    ])
    def test_rejects_invalid_input(self, n, edges, exc):
        with pytest.raises(exc):
            build_tree(n, edges)


class TestPruferSequence:
    def test_rejects_small_n(self):
        with pytest.raises(TooSmallError):
            PruferSequence(1, ())

    def test_rejects_wrong_length(self):
        with pytest.raises(ValueError):
            PruferSequence(4, (1,))

    def test_rejects_out_of_range_entries(self):
        with pytest.raises(VertexOutOfRangeError):
            PruferSequence(4, (1, 5))

    def test_coerces_sequence_to_tuple(self):
        s = PruferSequence(4, [2, 3])
        assert s.seq == (2, 3)


class TestPruferDecode:
    @pytest.mark.parametrize("n, seq, edges", [
        (2, (), {(1, 2)}),
        (3, (2,), {(1, 2), (2, 3)}),
        (4, (1, 1), {(1, 2), (1, 3), (1, 4)}),
        (4, (2, 3), {(1, 2), (2, 3), (3, 4)}),
        (5, (3, 3, 3), {(1, 3), (2, 3), (3, 4), (3, 5)}),
    ])
    def test_known_sequences(self, n, seq, edges):
        assert prufer_decode(PruferSequence(n, seq)).edges == frozenset(edges)

    @pytest.mark.parametrize("n", [2, 3, 4, 5, 6, 7])
    def test_matches_heap_decoder_exhaustively(self, n):
        from itertools import product
        for seq in product(range(1, n + 1), repeat=n - 2):
            fast = prufer_decode(PruferSequence(n, seq)).edges
            assert fast == frozenset(naive.heap_decode(seq, n))

    @pytest.mark.parametrize("n", [2, 3, 4, 5, 6, 7])
    def test_order_lists_children_before_parents(self, n):
        # The counting core relies on this: rooted at n, every other
        # vertex appears once, after all of its children.
        from itertools import product
        for seq in product(range(1, n + 1), repeat=n - 2):
            order, parent = _decode(seq, n)
            assert sorted(order) == list(range(1, n))
            assert parent[n] == 0
            place = {v: i for i, v in enumerate(order)}
            place[n] = n
            assert all(place[v] < place[parent[v]] for v in order)
            assert ({(min(v, parent[v]), max(v, parent[v])) for v in order}
                    == set(naive.heap_decode(seq, n)))

    @pytest.mark.parametrize("n, count", [(3, 3), (4, 16), (5, 125)])
    def test_decoding_is_injective(self, n, count):
        from itertools import product
        trees = {prufer_decode(PruferSequence(n, seq)).edges
                 for seq in product(range(1, n + 1), repeat=n - 2)}
        assert len(trees) == count == n ** (n - 2)


class TestRootedShapes:
    # Rooted trees on n = 1..10 unlabelled vertices (OEIS A000081).
    COUNTS = [1, 1, 2, 4, 9, 20, 48, 115, 286, 719]

    @staticmethod
    def trees(n):
        return [_tree_from_order(n, order, parent)
                for order, parent, _ in _rooted_shapes(n)]

    @pytest.mark.parametrize("n", range(1, 11))
    def test_one_shape_per_rooted_tree(self, n):
        forms = [_canonical(t.adjacency, n)[0].table for t in self.trees(n)]
        assert len(forms) == self.COUNTS[n - 1]
        assert len(set(forms)) == len(forms)

    @pytest.mark.parametrize("n", range(1, 11))
    def test_yields_are_in_the_decode_format(self, n):
        # Vertex n is the root, and order lists every other label once,
        # after all of its children, as _decode's removal order does.
        for order, parent, _ in _rooted_shapes(n):
            assert sorted(order) == list(range(1, n))
            assert len(parent) == n + 1
            assert parent[n] == 0
            place = {v: i for i, v in enumerate(order)}
            place[n] = n
            assert all(place[v] < place[parent[v]] for v in order)
            build_tree(n, [(v, parent[v]) for v in order])

    @pytest.mark.parametrize("n", range(1, 12))
    def test_weight_is_the_labellings_of_the_shape(self, n):
        # A shape rooted at n has (n - 1)!/aut labellings of the others;
        # _canonical, which shares no code with the generator, gives aut.
        for order, parent, weight in _rooted_shapes(n):
            t = _tree_from_order(n, order, parent)
            assert weight == factorial(n - 1) // _canonical(t.adjacency, n)[1]

    @pytest.mark.parametrize("n", range(2, 13))
    def test_weights_cover_every_labelled_tree(self, n):
        assert sum(weight for _, _, weight in _rooted_shapes(n)) == n ** (n - 2)


class TestPruferEncode:
    @pytest.mark.parametrize("tree, seq", [
        (path(3), (2,)),
        (star(4), (1, 1)),
        (path(6), (2, 3, 4, 5)),
        (star(5, center=3), (3, 3, 3)),
        (build_tree(2, [(1, 2)]), ()),
    ])
    def test_known_trees(self, tree, seq):
        assert prufer_encode(tree).seq == seq

    def test_rejects_single_vertex(self):
        with pytest.raises(TooSmallError):
            prufer_encode(build_tree(1, []))

    def test_round_trip_all_sequences_n4(self):
        from itertools import product
        for seq in product(range(1, 5), repeat=2):
            s = PruferSequence(4, seq)
            assert prufer_encode(prufer_decode(s)) == s

    @given(st.integers(2, 9).flatmap(
        lambda n: st.tuples(st.just(n), st.lists(
            st.integers(1, n), min_size=n - 2, max_size=n - 2))))
    def test_encode_inverts_decode(self, case):
        n, seq = case
        s = PruferSequence(n, tuple(seq))
        assert prufer_encode(prufer_decode(s)) == s

    @given(naive.random_trees(min_n=2, max_n=9))
    def test_decode_inverts_encode(self, t):
        assert prufer_decode(prufer_encode(t)) == t


class TestTreeCenter:
    @pytest.mark.parametrize("tree, vertices", [
        (build_tree(1, []), (1,)),
        (build_tree(2, [(1, 2)]), (1, 2)),
        (path(3), (2,)),
        (path(4), (2, 3)),
        (path(5), (3,)),
        (star(5, center=3), (3,)),
        # spider: three legs of length 2 joined at vertex 1
        (build_tree(7, [(1, 2), (2, 3), (1, 4), (4, 5), (1, 6), (6, 7)]),
         (1,)),
    ])
    def test_known_centers(self, tree, vertices):
        c = tree_center(tree)
        assert c.vertices == vertices
        assert c.is_edge == (len(vertices) == 2)

    def test_vertex_accessor_rejects_edge_center(self):
        c = tree_center(path(4))
        with pytest.raises(ValueError):
            c.vertex

    @given(naive.random_trees(min_n=2, max_n=9))
    def test_center_is_the_min_eccentricity_set(self, t):
        ecc = naive.eccentricities(t)
        best = min(ecc.values())
        expect = tuple(sorted(v for v in ecc if ecc[v] == best))
        c = tree_center(t)
        assert c.vertices == expect
        if c.is_edge:
            u, w = c.vertices
            assert w in t.neighbors(u)

    @pytest.mark.parametrize("n", range(1, 8))
    def test_center_is_the_min_eccentricity_set_on_every_tree(self, n):
        for t in naive.all_trees(n):
            ecc = naive.eccentricities(t)
            best = min(ecc.values())
            expect = tuple(sorted(v for v in ecc if ecc[v] == best))
            assert tree_center(t).vertices == expect

    @given(naive.random_trees(min_n=2, max_n=8),
           st.randoms(use_true_random=False))
    def test_center_commutes_with_relabelling(self, t, rng):
        perm = list(range(1, t.n + 1))
        rng.shuffle(perm)
        perm = [0] + perm
        mapped = naive.relabel(t, perm)
        expect = tuple(sorted(perm[v] for v in tree_center(t).vertices))
        assert tree_center(mapped).vertices == expect


class TestRootify:
    def test_vertex_center_keeps_the_tree(self):
        rt = rootify(path(5))
        assert rt.tree == path(5)
        assert rt.root == 3

    def test_edge_center_subdivides(self):
        rt = rootify(build_tree(2, [(1, 2)]))
        assert rt.root == 3
        assert rt.tree.edges == frozenset({(1, 3), (2, 3)})

    def test_path4_gains_a_middle_vertex(self):
        rt = rootify(path(4))
        assert rt.tree.n == 5
        assert rt.root == 5
        assert rt.tree.edges == frozenset({(1, 2), (2, 5), (3, 5), (3, 4)})

    @given(naive.random_trees(min_n=2, max_n=9))
    def test_root_is_the_center_afterwards(self, t):
        rt = rootify(t)
        c = tree_center(rt.tree)
        assert not c.is_edge
        assert c.vertex == rt.root
        # rootifying again changes nothing
        again = rootify(rt.tree)
        assert again.tree == rt.tree
        assert again.root == rt.root

    @given(naive.random_trees(min_n=2, max_n=9))
    def test_adjacency_matches_a_fresh_build(self, t):
        # the subdivided tree is an ordinary Tree of its edges
        rt = rootify(t)
        assert rt.tree.adjacency == Tree(rt.tree.n, rt.tree.edges).adjacency


class ReversedNeighbors(Tree):
    """The same tree with every neighbor list read back to front."""

    @cached_property
    def adjacency(self):
        return tuple(x[::-1] for x in Tree(self.n, self.edges).adjacency)


ORDER_PATTERNS = [pattern_from_name(name)
                  for name in ("edge", "cherry", "star3", "path4@end")]


def neighbor_order_results(t):
    # count_patterns is the length of find_patterns' list, from one core.
    rt = rootify(t)
    return (tree_center(t), rt.tree.edges, rt.root, aut_unrooted(t),
            aut_rooted(RootedTree(t, 1)), prufer_encode(t),
            ahu_code(t.adjacency, t.n),
            [find_patterns(t, pat) for pat in ORDER_PATTERNS])


class TestNeighborOrder:
    # Tree.adjacency lists each vertex's neighbors in no set order, so no
    # result may change when every list is reversed.
    @pytest.mark.parametrize("n", range(2, 8))
    def test_every_tree_up_to_seven(self, n):
        for t in naive.all_trees(n):
            assert (neighbor_order_results(ReversedNeighbors(n, t.edges))
                    == neighbor_order_results(t))

    def test_random_trees_up_to_sixty(self):
        rng = random.Random(19)
        for _ in range(200):
            n = rng.randint(2, 60)
            t = prufer_decode(PruferSequence(
                n, tuple(rng.randint(1, n) for _ in range(n - 2))))
            assert (neighbor_order_results(ReversedNeighbors(n, t.edges))
                    == neighbor_order_results(t))


class TestDeepPath:
    # Far deeper than Python's recursion limit: every walker must loop.
    def test_walkers_do_not_recurse(self):
        t = path(20000)
        assert tree_center(t).vertices == (10000, 10001)
        assert aut_unrooted(t) == 2
        assert len(find_patterns(t, pattern_from_name("path4@end"))) == 2


class TestTreeText:
    def test_exact_output(self):
        assert tree_to_text(path(3)) == "n 3\n1 2\n2 3\n"

    def test_parses_comments_and_blank_lines(self):
        text = "# a path\n\nn 3\n1 2\n\n# middle\n2 3\n"
        assert tree_from_text(text) == path(3)

    @pytest.mark.parametrize("text", [
        "",
        "# only a comment\n",
        "m 3\n1 2\n2 3\n",
        "n three\n",
        "n 3 extra\n1 2\n2 3\n",
        "n 3\n1 2 3\n",
        "n 3\n1 two\n2 3\n",
    ])
    def test_rejects_malformed_input(self, text):
        with pytest.raises(FormatError):
            tree_from_text(text)

    def test_bad_edges_raise_tree_errors(self):
        with pytest.raises(WrongEdgeCountError):
            tree_from_text("n 3\n1 2\n")

    @given(naive.random_trees(min_n=2, max_n=9))
    def test_round_trip(self, t):
        assert tree_from_text(tree_to_text(t)) == t


class TestPruferText:
    def test_exact_output(self):
        assert prufer_to_text(PruferSequence(4, (2, 3))) == "n 4\n2 3\n"

    def test_empty_sequence_has_no_data_line(self):
        assert prufer_to_text(PruferSequence(2, ())) == "n 2\n"

    @pytest.mark.parametrize("n, seq", [(2, ()), (4, (2, 3)), (6, (1, 1, 6, 2))])
    def test_round_trip(self, n, seq):
        s = PruferSequence(n, seq)
        assert prufer_from_text(prufer_to_text(s)) == s

    def test_entries_may_span_lines(self):
        assert prufer_from_text("n 5\n2 2\n4\n") == PruferSequence(5, (2, 2, 4))

    def test_wrong_length_is_a_format_error(self):
        with pytest.raises(FormatError):
            prufer_from_text("n 4\n2\n")

    def test_out_of_range_entry(self):
        with pytest.raises(VertexOutOfRangeError):
            prufer_from_text("n 3\n5\n")

    def test_non_integer_entry(self):
        with pytest.raises(FormatError):
            prufer_from_text("n 3\nx\n")


class TestTreeValue:
    def test_equality_is_structural(self):
        a = build_tree(3, [(1, 2), (2, 3)])
        b = build_tree(3, [(2, 3), (2, 1)])
        assert a == b
        assert hash(a) == hash(b)

    def test_repr_is_deterministic(self):
        t = build_tree(3, [(2, 3), (1, 2)])
        assert repr(t) == "Tree(n=3, edges=[(1, 2), (2, 3)])"
