"""Counter-based sampling, estimates, and the convergence experiment."""

import math
from collections import Counter
from fractions import Fraction

import pytest

from treepatterns import (
    CapExceededError,
    DomainTooSmallError,
    McEstimate,
    PruferSequence,
    RandomStream,
    cherry,
    chebyshev_zero_bound,
    convergence_csv,
    convergence_experiment,
    count_patterns,
    estimate_pattern_stats,
    exact_pattern_distribution,
    mean_pattern_count,
    mix64,
    pattern_from_name,
    prufer_decode,
    rooted_edge,
    sample_tree,
    star_pattern,
    stream_for,
)
from treepatterns import montecarlo
from treepatterns.montecarlo import CSV_HEADER, _count_job, _wilson


class TestRandomStream:
    def test_reference_sequence(self):
        # SplitMix64 seeded with 0; reference outputs of the original
        # C implementation
        s = RandomStream(0)
        assert s.next_u64() == 0xE220A8397B1DCDAF
        assert s.next_u64() == 0x6E789E6AA1B965F4
        assert s.next_u64() == 0x06C45D188009454F

    def test_mix64_fixes_zero(self):
        assert mix64(0) == 0

    def test_randint_stays_in_range(self):
        s = RandomStream(99)
        draws = [s.randint(7) for _ in range(500)]
        assert set(draws) <= set(range(1, 8))
        assert len(set(draws)) == 7

    def test_randints_equals_repeated_randint(self):
        # 2**63 + 1 rejects about half of all draws and 3 * 2**62 + 1
        # about a quarter, so the larger counts take the replay branch.
        # 2**64 - 2**50 rejects one draw in 16384; from state 5 the first
        # rejected draw is the 5576th, in the second block of lanes.
        cases = [(2024, n, count)
                 for n in (3, 7, 64, 200, 2**63 + 1, 3 * 2**62 + 1)
                 for count in (0, 1, 2, 50, 1998)]
        blocks = 3 * montecarlo._BLOCK + 5
        cases += [(2024, 200, blocks), (5, 2**64 - 2**50, blocks)]
        for state, n, count in cases:
            a = RandomStream(state)
            b = RandomStream(state)
            assert a.randints(count, n) == [b.randint(n) for _ in range(count)]
            # the bulk path must consume the stream identically
            assert a.next_u64() == b.next_u64()

    def test_range_ends_are_accepted(self):
        assert RandomStream(8).randint(1) == 1
        assert RandomStream(8).randints(3, 1) == [1, 1, 1]
        # n = 2**64 rejects nothing: each draw is the next output plus one
        ref = RandomStream(8)
        expected = [1 + ref.next_u64() for _ in range(3)]
        assert RandomStream(8).randint(2**64) == expected[0]
        assert RandomStream(8).randints(3, 2**64) == expected

    def test_out_of_range_n_raises_before_drawing(self):
        s = RandomStream(8)
        for n in (0, -3, 2**64 + 1):
            with pytest.raises(ValueError, match=r"1\.\.2\*\*64"):
                s.randint(n)
            with pytest.raises(ValueError, match=r"1\.\.2\*\*64"):
                s.randints(3, n)
        assert s.next_u64() == RandomStream(8).next_u64()

    def test_streams_are_reproducible(self):
        assert (RandomStream(5).randints(20, 9)
                == RandomStream(5).randints(20, 9))

    def test_stream_for_keys_by_seed_and_index(self):
        firsts = {stream_for(1, k).next_u64() for k in range(100)}
        assert len(firsts) == 100
        assert stream_for(1, 0).next_u64() != stream_for(2, 0).next_u64()


class TestSampleTree:
    def test_single_vertex_consumes_no_randomness(self):
        s = stream_for(7, 0)
        before = s.next_u64()
        s2 = stream_for(7, 0)
        t = sample_tree(1, s2)
        assert t.n == 1
        assert s2.next_u64() == before

    def test_two_vertices_is_always_the_edge(self):
        for k in range(10):
            t = sample_tree(2, stream_for(3, k))
            assert t.edges == frozenset({(1, 2)})

    @pytest.mark.parametrize("n", [3, 5, 17, 80])
    def test_samples_are_valid_trees(self, n):
        t = sample_tree(n, stream_for(11, n))
        assert t.n == n
        assert len(t.edges) == n - 1

    def test_uniformity_chi_square(self):
        # 16 labelled trees on 4 vertices, 10000 expected hits each;
        # 37.697 is the 99.9th percentile of chi-square with 15 dof
        samples = 160000
        hist = Counter()
        for k in range(samples):
            seq = tuple(stream_for(20250614, k).randints(2, 4))
            hist[prufer_decode(PruferSequence(4, seq)).edges] += 1
        assert len(hist) == 16
        expected = samples / 16
        chi2 = sum((c - expected) ** 2 / expected for c in hist.values())
        assert chi2 < 37.697


class TestWilson:
    def test_degenerate_tallies(self):
        lo, hi = _wilson(0, 100)
        assert lo == pytest.approx(0.0, abs=1e-12)
        assert 0 < hi < 0.05
        lo, hi = _wilson(100, 100)
        assert 0.95 < lo < 1
        assert hi == pytest.approx(1.0, abs=1e-12)

    def test_brackets_the_point_estimate(self):
        for hits, total in ((1, 10), (5, 10), (250, 1000), (999, 1000)):
            lo, hi = _wilson(hits, total)
            assert 0.0 <= lo <= hits / total <= hi <= 1.0

    def test_close_to_the_normal_interval_for_large_samples(self):
        hits, total = 5000, 10000
        lo, hi = _wilson(hits, total)
        half = 1.959963984540054 * math.sqrt(0.25 / total)
        assert lo == pytest.approx(0.5 - half, abs=1e-3)
        assert hi == pytest.approx(0.5 + half, abs=1e-3)


class TestMcEstimate:
    def test_derived_statistics(self):
        e = McEstimate(n=10, samples=2, seed=0, hits_ge1=1,
                       sum_count=2, sum_count_sq=4)
        assert e.p_hat == 0.5
        assert e.mean_hat == 1.0
        # counts 0 and 2: sample variance 2, stderr sqrt(2/2) = 1
        assert e.stderr_mean == 1.0

    def test_single_sample_has_no_stderr(self):
        e = McEstimate(n=10, samples=1, seed=0, hits_ge1=1,
                       sum_count=3, sum_count_sq=9)
        assert e.stderr_mean == 0.0

    def test_to_dict_round_trips_the_tallies(self):
        e = McEstimate(n=5, samples=10, seed=7, hits_ge1=4,
                       sum_count=6, sum_count_sq=12)
        d = e.to_dict()
        assert d["hits_ge1"] == 4
        assert d["sum_count"] == 6
        assert d["p_hat"] == 0.4
        assert d["mean_hat"] == 0.6


class TestEstimatePatternStats:
    def test_frozen_regression(self):
        # the last three are the sizes of the mc benchmark workloads
        path4 = pattern_from_name("path4@end")
        for pat, n, samples, seed, workers, tallies in (
                (cherry(), 30, 2000, 123, 1, (1215, 1732, 2988)),
                (cherry(), 200, 500, 20261018, 1, (498, 2566, 15258)),
                (path4, 2000, 40, 4242, 1, (40, 1473, 55261)),
                (path4, 2000, 40, 4242, 2, (40, 1473, 55261))):
            e = estimate_pattern_stats(pat, n, samples, seed, workers)
            assert (e.hits_ge1, e.sum_count, e.sum_count_sq) == tallies

    def test_matches_the_public_sampling_path(self):
        # the tally loop skips Tree construction; it must agree with
        # sample_tree + count_patterns sample by sample
        pat = cherry()
        n, samples, seed = 12, 300, 77
        hits = s1 = s2 = 0
        for k in range(samples):
            c = count_patterns(sample_tree(n, stream_for(seed, k)), pat)
            if c:
                hits += 1
                s1 += c
                s2 += c * c
        e = estimate_pattern_stats(pat, n, samples, seed)
        assert (e.hits_ge1, e.sum_count, e.sum_count_sq) == (hits, s1, s2)

    def test_seeded_tally_of_several_patterns(self):
        # One seeded pass over four patterns of different sizes: the joint
        # tally is that of the public path, each pattern's marginal is its
        # own estimate's tallies, and two parts add up to the whole.
        pats = [pattern_from_name(name)
                for name in ["edge", "cherry", "star3", "path4@end"]]
        n, samples, seed = 40, 300, 7
        joint = _count_job((n, pats, seed), 0, samples)
        assert joint == Counter(
            tuple(count_patterns(sample_tree(n, stream_for(seed, k)), pat)
                  for pat in pats)
            for k in range(samples))
        for i, pat in enumerate(pats):
            e = estimate_pattern_stats(pat, n, samples, seed)
            assert (e.hits_ge1, e.sum_count, e.sum_count_sq) == (
                sum(c for key, c in joint.items() if key[i]),
                sum(key[i] * c for key, c in joint.items()),
                sum(key[i] ** 2 * c for key, c in joint.items()))
        assert (_count_job((n, pats, seed), 0, 150)
                + _count_job((n, pats, seed), 150, samples)) == joint

    def test_agrees_with_the_exact_distribution(self):
        # 100000 samples at n = 7: both the hit rate and the mean must
        # land within a few standard errors of the exhaustive values
        pat = cherry()
        e = estimate_pattern_stats(pat, 7, 100000, seed=42)
        d = exact_pattern_distribution(7, pat)
        p_exact = float(d.p_at_least_one)
        sigma = math.sqrt(p_exact * (1 - p_exact) / e.samples)
        assert abs(e.p_hat - p_exact) < 4 * sigma
        assert e.p_ci_low <= p_exact <= e.p_ci_high
        assert abs(e.mean_hat - float(d.mean)) < 5 * e.stderr_mean

    @pytest.mark.parametrize("workers", [2, 3])
    def test_workers_produce_identical_tallies(self, workers):
        serial = estimate_pattern_stats(rooted_edge(), 15, 400, seed=9)
        parallel = estimate_pattern_stats(rooted_edge(), 15, 400, seed=9,
                                          workers=workers)
        assert serial == parallel

    def test_host_exactly_pattern_sized_never_hits(self):
        # an occurrence needs a vertex outside the pattern
        e = estimate_pattern_stats(cherry(), 3, 50, seed=1)
        assert e.hits_ge1 == 0
        assert e.sum_count == 0

    def test_deep_pattern_holding_vertex_n(self, monkeypatch):
        # Every draw is the Pruefer sequence 2..n-1 of the path 1-2-...-n,
        # which holds path1500@end twice at n = 1501: once rooted at 2,
        # running up to n, and once rooted at 1500.  The walk to n covers
        # 1500 vertices and must not recurse.
        class PathStream:
            def randints(self, count, n):
                return list(range(2, n))

        monkeypatch.setattr(montecarlo, "stream_for",
                            lambda seed, index: PathStream())
        e = estimate_pattern_stats(pattern_from_name("path1500@end"), 1501,
                                   2, seed=0)
        assert (e.hits_ge1, e.sum_count, e.sum_count_sq) == (2, 4, 8)

    def test_too_small_host_raises(self):
        with pytest.raises(DomainTooSmallError):
            estimate_pattern_stats(cherry(), 2, 10, seed=0)

    def test_zero_samples_raise(self):
        with pytest.raises(ValueError):
            estimate_pattern_stats(cherry(), 5, 0, seed=0)


class TestConvergence:
    def test_rows_equal_direct_estimates(self):
        pat = rooted_edge()
        rows = convergence_experiment(pat, [5, 8], 200, seed=31)
        for row in rows:
            direct = estimate_pattern_stats(pat, row.estimate.n, 200, seed=31)
            assert row.estimate == direct

    def test_exact_columns_follow_the_domains(self):
        rows = convergence_experiment(cherry(), [3, 4, 6], 50, seed=5)
        by_n = {r.estimate.n: r for r in rows}
        assert by_n[3].exact_mean is None
        assert by_n[3].cheb_bound is None
        assert by_n[4].exact_mean == mean_pattern_count(cherry(), 4)
        assert by_n[4].cheb_bound is None
        assert by_n[6].exact_mean == mean_pattern_count(cherry(), 6)
        assert by_n[6].cheb_bound == chebyshev_zero_bound(cherry(), 6)

    def test_every_n_is_checked_before_the_first_sample(self, monkeypatch):
        def no_sampling(*args):
            raise AssertionError("sampled before refusing")

        monkeypatch.setattr(montecarlo, "_fan_out", no_sampling)
        with pytest.raises(CapExceededError, match="n = 300000"):
            convergence_experiment(rooted_edge(), [10, 300000], 20, 1)
        with pytest.raises(DomainTooSmallError, match="p \\+ 1 = 3"):
            convergence_experiment(cherry(), [50, 2], 20, 1)
        # list order decides which refusal is raised
        with pytest.raises(DomainTooSmallError):
            convergence_experiment(rooted_edge(), [1, 300000], 20, 1)

    def test_csv_layout(self):
        rows = convergence_experiment(cherry(), [3, 6], 40, seed=2)
        text = convergence_csv(rows)
        lines = text.strip().split("\n")
        assert lines[0] == CSV_HEADER
        assert lines[0] == ("n,samples,hits_ge1,p_hat,ci_low,ci_high,"
                            "mean_hat,stderr_mean,exact_mean,cheb_bound")
        first = lines[1].split(",")
        assert first[0] == "3"
        assert first[1] == "40"
        assert first[8] == ""           # no exact mean at n = 3
        assert first[9] == ""
        second = lines[2].split(",")
        assert second[8] == "5/12"
        assert second[9] == "11/5"
        # float cells must round trip exactly
        est = rows[1].estimate
        assert float(second[3]) == est.p_hat
        assert float(second[6]) == est.mean_hat
