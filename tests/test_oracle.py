"""Exhaustive enumeration: tree sweeps, exact distributions, formula checks."""

import concurrent.futures
import os
from collections import Counter
from fractions import Fraction
from itertools import product

import pytest

from treepatterns import (
    CapExceededError,
    TooSmallError,
    cherry,
    chebyshev_zero_bound,
    enumerate_trees,
    exact_pattern_distribution,
    exact_pattern_distributions,
    iter_trees,
    mean_pattern_count,
    path_pattern_end,
    pattern_from_name,
    pattern_from_text,
    rooted_edge,
    second_moment_pattern_count,
    star_pattern,
    verify_labelled_count,
    verify_moments,
)
from treepatterns import patterns
from treepatterns.montecarlo import _marginal
from treepatterns.oracle import (
    ExactDistribution,
    FormulaCheck,
    _fixed_tuples,
    _moment_job,
    _shape_tally,
)

import naive


class TestIterTrees:
    @pytest.mark.parametrize("n, count", [(2, 1), (3, 3), (4, 16), (5, 125)])
    def test_visits_every_tree_once(self, n, count):
        seen = [t.edges for t in iter_trees(n)]
        assert len(seen) == count == n ** (n - 2)
        assert len(set(seen)) == count

    def test_agrees_with_the_naive_enumeration(self):
        assert ({t.edges for t in iter_trees(5)}
                == {t.edges for t in naive.all_trees(5)})

    def test_enumerate_returns_the_count(self):
        hits = []
        assert enumerate_trees(4, hits.append) == 16
        assert len(hits) == 16

    def test_cap_blocks_large_n(self):
        with pytest.raises(CapExceededError):
            list(iter_trees(10))

    def test_hard_cap_wins_over_a_raised_cap(self):
        with pytest.raises(CapExceededError):
            list(iter_trees(11, cap=99))

    def test_too_small_n(self):
        with pytest.raises(TooSmallError):
            list(iter_trees(1))


class TestExactDistribution:
    def test_every_three_vertex_tree_has_two_pendant_edges(self):
        d = exact_pattern_distribution(3, rooted_edge())
        assert d.histogram == {2: 3}
        assert d.total == 3
        assert d.p_zero == 0
        assert d.p_at_least_one == 1
        assert d.mean == 2
        assert d.second_moment == 4

    def test_four_vertex_split(self):
        # 12 labelled paths with two occurrences, 4 stars with none
        d = exact_pattern_distribution(4, rooted_edge())
        assert d.histogram == {0: 4, 2: 12}
        assert d.p_zero == Fraction(1, 4)
        assert d.mean == Fraction(3, 2)
        assert d.second_moment == 3

    @pytest.mark.parametrize("pat, n", [
        (rooted_edge(), 4),
        (rooted_edge(), 6),
        (cherry(), 6),
        (path_pattern_end(3), 6),
    ])
    def test_moments_match_the_closed_forms(self, pat, n):
        d = exact_pattern_distribution(n, pat)
        assert d.mean == mean_pattern_count(pat, n)
        assert d.second_moment == second_moment_pattern_count(pat, n)
        assert d.p_zero <= chebyshev_zero_bound(pat, n)

    def test_mean_matches_outside_the_second_moment_domain(self):
        # star3 needs n >= 8 for pair formulas but the mean holds from 5
        d = exact_pattern_distribution(6, star_pattern(3))
        assert d.mean == mean_pattern_count(star_pattern(3), 6)

    def test_batch_equals_individual_runs(self):
        pats = [rooted_edge(), cherry(), star_pattern(3)]
        batch = exact_pattern_distributions(6, pats)
        for pat, dist in zip(pats, batch):
            assert dist.histogram == exact_pattern_distribution(6, pat).histogram

    def test_a_pattern_too_big_for_the_host_keeps_its_place(self):
        # Only the patterns that fit get shape IDs; each hit must still
        # be tallied under its own pattern's index.
        pats = [cherry(), path_pattern_end(50), star_pattern(3)]
        batch = exact_pattern_distributions(6, pats)
        for pat, dist in zip(pats, batch):
            assert dist.histogram == exact_pattern_distribution(6, pat).histogram
        assert batch[1].histogram == {0: 1296}

    def test_two_vertex_sweep_sees_one_tree_with_workers(self, monkeypatch):
        # n = 2 is a one-part range: the labelled sweep runs in-process
        # whatever the worker count, and it and the shape pass both see
        # the single tree once.
        def no_pool(*args, **kwargs):
            raise AssertionError("a one-part sweep started a process pool")

        monkeypatch.setattr(concurrent.futures, "ProcessPoolExecutor", no_pool)
        d = exact_pattern_distribution(2, rooted_edge())
        assert d.total == 1
        assert d.histogram == {0: 1}
        # verify_moments needs n >= p + 2 = 3, so its sweep is called
        # directly at n = 2.
        pat = rooted_edge()
        tally = patterns._fan_out(_moment_job, (2, pat), 1, 3)
        assert sum(tally.values()) == 1

    def test_histogram_must_cover_every_tree(self):
        with pytest.raises(RuntimeError):
            ExactDistribution(3, rooted_edge(), {2: 2}, 3)

    def test_cap_applies(self):
        with pytest.raises(CapExceededError):
            exact_pattern_distribution(10, rooted_edge())


class TestMixedSizeCounts:
    # One shape pass counts patterns of different sizes; the IDs of all
    # of them live in one table and are computed up to the largest size.
    NAMES = ["edge", "cherry", "star3", "path4@end"]

    # The joint histogram at n = 7, keyed by the four counts.  Checked
    # once against naive.naive_count over all 16807 trees, which takes
    # about 20 s, too long to repeat here.
    JOINT_7 = {
        (0, 0, 0, 0): 7, (0, 1, 1, 0): 420, (0, 2, 0, 0): 630,
        (1, 0, 0, 0): 210, (1, 0, 1, 0): 840, (1, 1, 0, 0): 2520,
        (1, 1, 0, 1): 2520, (2, 0, 0, 0): 6300, (2, 0, 0, 2): 2520,
        (3, 0, 0, 0): 840,
    }

    def joint(self, n):
        pats = [pattern_from_name(name) for name in self.NAMES]
        return _shape_tally(n, pats)

    @pytest.mark.parametrize("n", [2, 3, 4, 5, 6])
    def test_joint_histogram_matches_the_naive_count(self, n):
        pats = [pattern_from_name(name) for name in self.NAMES]
        want = Counter(tuple(naive.naive_count(t, pat) for pat in pats)
                       for t in naive.all_trees(n))
        assert self.joint(n) == want

    def test_joint_histogram_at_seven(self):
        assert self.joint(7) == self.JOINT_7

    def test_batch_marginals_at_seven(self):
        pats = [pattern_from_name(name) for name in self.NAMES]
        for i, dist in enumerate(exact_pattern_distributions(7, pats)):
            want = Counter()
            for key, c in self.JOINT_7.items():
                want[key[i]] += c
            assert dist.histogram == dict(want)


class TestShapeHistogram:
    # Rooted shapes weighted by (n - 1)!/aut against labelled trees: the
    # naive count on every labelled tree up to n = 6, and at n = 7 and 8
    # the histograms of the labelled Pruefer sweep that counted them
    # before the shape pass did.  The second-to-last pattern is a spider
    # read from text: a leaf and a two-edge leg on the root.  path50@end
    # never fits.
    PATTERNS = [pattern_from_name(name) for name in (
        "edge", "cherry", "star3", "path3@end", "path4@end", "path5@mid")] + [
        pattern_from_text("n 4\n1 2\n1 3\n3 4\nroot 1\n"),
        path_pattern_end(50)]

    LABELLED = {
        7: [{0: 1057, 1: 6090, 2: 8820, 3: 840},
            {0: 10717, 1: 5460, 2: 630},
            {0: 15547, 1: 1260},
            {0: 5887, 1: 8400, 2: 2520},
            {0: 11767, 1: 2520, 2: 2520},
            {0: 15967, 3: 840},
            {0: 9247, 1: 7560}],
        8: [{0: 14848, 1: 86016, 2: 134400, 3: 26880},
            {0: 167224, 1: 84840, 2: 10080},
            {0: 244784, 1: 16800, 2: 560},
            {0: 92464, 1: 129360, 2: 40320},
            {0: 174784, 1: 67200, 2: 20160},
            {0: 231904, 1: 30240},
            {0: 174784, 1: 67200, 2: 20160}],
    }

    @pytest.mark.parametrize("n", range(2, 9))
    def test_equals_the_labelled_sweep(self, n):
        if n in self.LABELLED:
            want = [*self.LABELLED[n], {0: n ** (n - 2)}]
        else:
            trees = list(naive.all_trees(n))
            want = [dict(Counter(naive.naive_count(t, pat) for t in trees))
                    for pat in self.PATTERNS]
        assert ([d.histogram
                 for d in exact_pattern_distributions(n, self.PATTERNS)]
                == want)

    @pytest.mark.parametrize("n", [11, 12])
    def test_past_the_enumeration_cap_it_gives_the_closed_forms(self, n):
        # No labelled sweep reaches n = 11 or 12.  Each marginal must cover
        # every labelled tree, and give the closed-form moments, which
        # share no code with the shape pass.
        pats = [pattern_from_name(name) for name in (
            "edge", "cherry", "star3", "path4@end", "path5@mid")] + [
            pattern_from_text("n 4\n1 2\n1 3\n3 4\nroot 1\n")]
        tally = _shape_tally(n, pats)
        total = n ** (n - 2)
        for i, pat in enumerate(pats):
            counts = _marginal(tally, i)
            assert sum(counts.values()) == total
            dist = ExactDistribution(n, pat, counts, total)
            assert dist.mean == mean_pattern_count(pat, n)
            assert dist.second_moment == second_moment_pattern_count(pat, n)


class TestMomentSweep:
    # _moment_job keys each tree by the four fixed-tuple indicators (base,
    # disjoint, overlap with the same root, overlap with another root);
    # verify_moments takes the count from _shape_tally.

    # The joint tallies at n = 7, indicators then count, frozen from the
    # adjacency-list check.
    MOMENT_7 = {
        "cherry": {
            (False, False, False, False, 0): 10717,
            (False, False, False, False, 1): 5408,
            (False, False, False, False, 2): 618,
            (True, False, False, False, 1): 52,
            (True, False, False, False, 2): 11,
            (True, True, False, False, 2): 1,
        },
        "star3": {
            (False, False, False, False, 0): 15547,
            (False, False, False, False, 1): 1251,
            (True, False, False, False, 1): 9,
        },
    }

    @pytest.mark.parametrize("name", sorted(MOMENT_7))
    def test_tallies_at_seven(self, name):
        pat = pattern_from_name(name)
        table = self.MOMENT_7[name]
        indicators = Counter()
        for key, c in table.items():
            indicators[key[:4]] += c
        assert _moment_job((7, pat), 0, 7 ** 5) == indicators
        assert _marginal(_shape_tally(7, [pat]), 0) == _marginal(table, 4)

    # Every n from p + 2, the first that verify_moments sweeps, up to 6.
    @pytest.mark.parametrize("name, n", [
        (name, n) for name, p in [("edge", 1), ("path3@end", 2),
                                  ("cherry", 2), ("star3", 3)]
        for n in range(p + 2, 7)])
    def test_indicators_match_the_naive_check(self, name, n):
        pat = pattern_from_name(name)
        tuples = _fixed_tuples(pat.p).values()
        indicators = Counter()
        counts = Counter()
        for t in naive.all_trees(n):
            found = [all(v <= n for v in (root, *others))
                     and naive.naive_is_occurrence(t, root, others, pat)
                     for root, others in tuples]
            if not found[0]:
                found = [False] * 4
            indicators[tuple(found)] += 1
            counts[naive.naive_count(t, pat)] += 1
        assert _moment_job((n, pat), 0, n ** (n - 2)) == indicators
        assert _marginal(_shape_tally(n, [pat]), 0) == counts

    # Roots with 1, 2, 2 and 3 children, and a spider read from text: a
    # leaf and a two-edge leg on the root.
    FILTERED = [pattern_from_name(name) for name in (
        "path4@end", "cherry", "path5@mid", "star3")] + [
        pattern_from_text("n 4\n1 2\n1 3\n3 4\nroot 1\n")]

    @pytest.mark.parametrize("n", range(4, 8))
    def test_a_base_tuple_needs_both_label_counts(self, n):
        # _moment_job decodes only the sequences in which label 1 occurs
        # k times, k the root's child count, and labels 1..p+1 occur p
        # times in all.  Every tree holding (1; 2..p+1) must meet both.
        seen = 0
        for seq, t in zip(product(range(1, n + 1), repeat=n - 2),
                          naive.all_trees(n)):
            for pat in self.FILTERED:
                k = pat.shape.tree.degree(pat.shape.root)
                if (n >= pat.p + 2 and naive.naive_is_occurrence(
                        t, 1, range(2, pat.p + 2), pat)):
                    seen += 1
                    assert seq.count(1) == k
                    assert sum(s <= pat.p + 1 for s in seq) == pat.p
        assert seen

    # Uneven parts of 0..7**5: two empty ranges, and 0..6, where label 1
    # occurs at least four times, so no sequence is decoded.
    CUTS = [0, 0, 7, 7, 1000, 1001, 8403, 12000, 7 ** 5]

    @pytest.mark.parametrize("name", ["cherry", "star3"])
    def test_parts_sum_to_the_whole_range(self, name):
        pat = pattern_from_name(name)
        whole = _moment_job((7, pat), 0, 7 ** 5)
        parts = [_moment_job((7, pat), lo, hi)
                 for lo, hi in zip(self.CUTS, self.CUTS[1:])]
        assert parts[0] == parts[2] == Counter()
        assert parts[1] == Counter({(False,) * 4: 7})
        assert all(c > 0 for part in parts for c in part.values())
        assert sum(parts, Counter()) == whole
        assert whole == _marginal(self.MOMENT_7[name], slice(4))


@pytest.fixture
def in_process_pool(monkeypatch):
    """Stand in for ProcessPoolExecutor: run every part in this process
    and return the list of index ranges the parts were given."""
    parts = []

    class Pool:
        def __init__(self, max_workers):
            pass

        def __enter__(self):
            return self

        def __exit__(self, *exc):
            return False

        def map(self, fn, args, los, his):
            parts.extend(zip(los, his))
            return map(fn, args, los, his)

    monkeypatch.setattr(concurrent.futures, "ProcessPoolExecutor", Pool)
    return parts


class TestSweepSplit:
    # A pooled sweep splits the n**(n - 2) sequence indices into equal
    # contiguous parts, by the same rule as Monte Carlo's sample indices.
    # n = 8 is the first n whose moment sweep is pooled.
    def test_two_workers_get_equal_index_ranges(self, in_process_pool,
                                                monkeypatch):
        serial = verify_moments(cherry(), 8, workers=1)
        assert in_process_pool == []
        monkeypatch.setattr(os, "cpu_count", lambda: 2)
        pooled = verify_moments(cherry(), 8, workers=2)
        assert in_process_pool == [(0, 131072), (131072, 262144)]
        assert pooled.checks == serial.checks

    @pytest.mark.parametrize("workers", [2, 3])
    def test_parts_tile_the_sweep(self, in_process_pool, monkeypatch,
                                  workers):
        monkeypatch.setattr(os, "cpu_count", lambda: 3)
        for n in range(4, 9):
            serial = verify_moments(cherry(), n, workers=1)
            pooled = verify_moments(cherry(), n, workers=workers)
            assert pooled.checks == serial.checks
        bounds = [8 ** 6 * i // workers for i in range(workers + 1)]
        assert in_process_pool == list(zip(bounds, bounds[1:]))


class TestVerifyLabelledCount:
    @pytest.mark.parametrize("pat", [
        rooted_edge(), cherry(), path_pattern_end(3), star_pattern(3),
        path_pattern_end(4), star_pattern(4),
    ], ids=lambda p: p.canonical.code)
    def test_enumeration_matches_the_formula(self, pat):
        report = verify_labelled_count(pat)
        assert report.equal
        assert report.enumerated == report.formula

    def test_large_patterns_are_refused(self):
        with pytest.raises(CapExceededError):
            verify_labelled_count(star_pattern(7))


class TestVerifyMoments:
    def test_edge_at_four_passes_everything(self):
        ver = verify_moments(rooted_edge(), 4)
        assert ver.all_passed
        by_name = {c.name: c for c in ver.checks}
        assert by_name["tuple_probability"].status == "ok"
        assert by_name["tuple_probability"].oracle_value == Fraction(1, 8)
        assert by_name["mean_count"].oracle_value == Fraction(3, 2)
        assert by_name["pair_disjoint"].status == "ok"
        assert by_name["second_moment"].status == "ok"
        assert by_name["zero_probability_bound"].status == "ok"
        assert by_name["zero_probability_bound"].oracle_value == Fraction(1, 4)
        assert by_name["zero_probability_bound"].formula_value == Fraction(1, 3)

    def test_pair_checks_skip_below_their_domain(self):
        # cherry needs n >= 6 for the pair formulas; n = 5 still verifies
        # the tuple probability and the mean
        ver = verify_moments(cherry(), 5)
        assert ver.all_passed
        by_name = {c.name: c for c in ver.checks}
        assert by_name["tuple_probability"].status == "ok"
        assert by_name["mean_count"].status == "ok"
        assert by_name["pair_same_tuple"].status == "ok"
        for name in ("pair_disjoint", "pair_overlap_same_root",
                     "pair_overlap_diff_root", "second_moment",
                     "zero_probability_bound"):
            assert by_name[name].status == "skipped"
            assert by_name[name].passed

    def test_cherry_at_six_passes_everything(self):
        ver = verify_moments(cherry(), 6)
        assert ver.all_passed
        assert all(c.status == "ok" for c in ver.checks)

    def test_overlap_checks_run_from_the_pair_domain_on(self):
        ver = verify_moments(cherry(), 6)
        by_name = {c.name: c for c in ver.checks}
        assert by_name["pair_overlap_same_root"].status == "ok"
        assert by_name["pair_overlap_same_root"].oracle_value == 0
        assert by_name["pair_overlap_diff_root"].oracle_value == 0

    def test_below_the_verification_domain(self):
        with pytest.raises(TooSmallError):
            verify_moments(cherry(), 3)

    def test_workers_do_not_change_the_outcome(self):
        serial = verify_moments(rooted_edge(), 6, workers=1)
        parallel = verify_moments(rooted_edge(), 6, workers=3)
        assert serial.checks == parallel.checks

    @pytest.mark.parametrize("n", [3, 4, 5, 6, 7])
    def test_small_sweeps_start_no_pool(self, monkeypatch, n):
        # Up to n = 7 starting a pool costs more than the whole sweep.
        def no_pool(*args, **kwargs):
            raise AssertionError("a sweep with n <= 7 started a process pool")

        monkeypatch.setattr(concurrent.futures, "ProcessPoolExecutor", no_pool)
        assert verify_moments(rooted_edge(), n, workers=2).all_passed

    def test_pooled_sweeps_match_serial_from_eight(self):
        # The first n whose moment sweep may be split across processes;
        # the job sends its pattern to the workers.
        assert (verify_moments(cherry(), 8, workers=1).checks
                == verify_moments(cherry(), 8, workers=2).checks)

    def test_failed_check_is_reported(self):
        check = FormulaCheck("x", Fraction(1), Fraction(2), "fail")
        assert not check.passed
