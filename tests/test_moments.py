"""Exact moment formulas: frozen values, identities, domain handling."""

import math
import time
from fractions import Fraction

import pytest

import naive
from treepatterns import (
    CapExceededError,
    DomainTooSmallError,
    PairRelation,
    asymptotic_slope,
    chebyshev_zero_bound,
    cherry,
    mean_pattern_count,
    moment_report,
    occurrence_probability,
    pair_occurrence_probability,
    path_pattern_end,
    pattern_from_name,
    rooted_edge,
    second_moment_pattern_count,
    star_pattern,
    variance_pattern_count,
)
from treepatterns import moments
from treepatterns.moments import MAX_DIGITS, rational_str

F = Fraction


class TestOccurrenceProbability:
    @pytest.mark.parametrize("pat, n, expect", [
        (rooted_edge(), 3, F(1, 3)),
        (rooted_edge(), 4, F(1, 8)),
        (rooted_edge(), 5, F(9, 125)),
        (cherry(), 5, F(2, 125)),
        (cherry(), 6, F(1, 144)),
        (path_pattern_end(3), 5, F(4, 125)),
        (star_pattern(3), 6, F(1, 648)),
    ])
    def test_frozen_values(self, pat, n, expect):
        assert occurrence_probability(pat, n) == expect

    def test_repeated_indices_give_zero_for_any_n(self):
        assert occurrence_probability(rooted_edge(), 2,
                                      duplicate_indices=True) == 0
        assert occurrence_probability(cherry(), 100,
                                      duplicate_indices=True) == 0

    @pytest.mark.parametrize("pat, n", [
        (rooted_edge(), 2),
        (cherry(), 3),
        (star_pattern(3), 4),
    ])
    def test_below_domain_raises(self, pat, n):
        with pytest.raises(DomainTooSmallError):
            occurrence_probability(pat, n)


class TestMeanPatternCount:
    @pytest.mark.parametrize("pat, n, expect", [
        (rooted_edge(), 3, F(2)),
        (rooted_edge(), 4, F(3, 2)),
        (cherry(), 5, F(12, 25)),
        (cherry(), 6, F(5, 12)),
        (path_pattern_end(3), 5, F(24, 25)),
    ])
    def test_frozen_values(self, pat, n, expect):
        assert mean_pattern_count(pat, n) == expect

    def test_mean_is_tuple_count_times_tuple_probability(self):
        for pat in (rooted_edge(), cherry(), star_pattern(3)):
            p = pat.p
            for n in range(p + 2, p + 9):
                tuples = n * math.comb(n - 1, p)
                assert (mean_pattern_count(pat, n)
                        == tuples * occurrence_probability(pat, n))

    def test_below_domain_raises(self):
        with pytest.raises(DomainTooSmallError):
            mean_pattern_count(cherry(), 3)


class TestPairProbability:
    @pytest.mark.parametrize("pat, n, expect", [
        (rooted_edge(), 4, F(1, 16)),        # boundary, 0**0 == 1
        (rooted_edge(), 5, F(1, 125)),
        (cherry(), 6, F(1, 1296)),
        (cherry(), 7, F(1, 16807)),
    ])
    def test_disjoint_frozen_values(self, pat, n, expect):
        got = pair_occurrence_probability(pat, n, PairRelation.ALL_DISTINCT)
        assert got == expect

    def test_identical_pair_reduces_to_the_single_tuple(self):
        for n in (4, 5, 9):
            assert (pair_occurrence_probability(
                        rooted_edge(), n, PairRelation.SAME_ROOT_SAME_SET)
                    == occurrence_probability(rooted_edge(), n))

    def test_overlapping_pairs_are_impossible(self):
        assert pair_occurrence_probability(
            cherry(), 8, PairRelation.OTHER) == 0

    def test_disjoint_below_domain_raises(self):
        with pytest.raises(DomainTooSmallError):
            pair_occurrence_probability(rooted_edge(), 3,
                                        PairRelation.ALL_DISTINCT)
        with pytest.raises(DomainTooSmallError):
            pair_occurrence_probability(cherry(), 5,
                                        PairRelation.ALL_DISTINCT)


class TestSecondMoment:
    @pytest.mark.parametrize("pat, n, expect", [
        (rooted_edge(), 4, F(3)),
        (cherry(), 6, F(5, 9)),
    ])
    def test_frozen_values(self, pat, n, expect):
        assert second_moment_pattern_count(pat, n) == expect

    @pytest.mark.parametrize("pat", [rooted_edge(), cherry(), star_pattern(3),
                                     path_pattern_end(3)],
                             ids=lambda p: p.canonical.code)
    def test_decomposes_over_tuple_pairs(self, pat):
        # ordered tuple pairs are identical, disjoint, or impossible, so
        # the closed form must match the combinatorial decomposition
        p = pat.p
        m = p + 1
        for n in range(2 * m, 2 * m + 6):
            tuples = n * math.comb(n - 1, p)
            disjoint_partners = (n - m) * math.comb(n - m - 1, p)
            expect = (
                tuples * occurrence_probability(pat, n)
                + tuples * disjoint_partners
                * pair_occurrence_probability(pat, n, PairRelation.ALL_DISTINCT))
            assert second_moment_pattern_count(pat, n) == expect

    def test_below_domain_raises(self):
        with pytest.raises(DomainTooSmallError):
            second_moment_pattern_count(rooted_edge(), 3)
        with pytest.raises(DomainTooSmallError):
            second_moment_pattern_count(cherry(), 5)

    def test_variance_is_second_minus_squared_mean(self):
        for n in (4, 6, 9):
            mean = mean_pattern_count(rooted_edge(), n)
            assert (variance_pattern_count(rooted_edge(), n)
                    == second_moment_pattern_count(rooted_edge(), n)
                    - mean * mean)


class TestChebyshevBound:
    @pytest.mark.parametrize("pat, n, expect", [
        (rooted_edge(), 4, F(1, 3)),
        (cherry(), 6, F(11, 5)),
    ])
    def test_frozen_values(self, pat, n, expect):
        assert chebyshev_zero_bound(pat, n) == expect

    def test_bound_shrinks_as_n_grows(self):
        values = [chebyshev_zero_bound(cherry(), n) for n in (10, 20, 40, 80)]
        assert values == sorted(values, reverse=True)
        assert values[-1] < F(1, 2)

    def test_below_domain_raises(self):
        with pytest.raises(DomainTooSmallError):
            chebyshev_zero_bound(cherry(), 5)


class TestAsymptoticSlope:
    def test_frozen_values(self):
        assert asymptotic_slope(rooted_edge()) == pytest.approx(
            0.1353352832366127, rel=1e-12)
        assert asymptotic_slope(cherry()) == pytest.approx(
            0.024893534183931972, rel=1e-12)

    def test_mean_over_n_approaches_the_slope(self):
        pat = cherry()
        slope = asymptotic_slope(pat)
        errors = [abs(float(mean_pattern_count(pat, n)) / n - slope)
                  for n in (50, 100, 200, 400)]
        assert errors == sorted(errors, reverse=True)
        assert errors[-1] < 5e-4

    def test_star_slopes_decrease_with_size(self):
        slopes = [asymptotic_slope(star_pattern(k)) for k in range(1, 6)]
        assert slopes == sorted(slopes, reverse=True)


class TestMomentReport:
    def test_fields_match_the_functions(self):
        pat = cherry()
        rep = moment_report(pat, 6)
        assert rep.n == 6
        assert rep.p == 2
        assert rep.aut_root_order == 2
        assert rep.mean == mean_pattern_count(pat, 6)
        assert rep.second_moment == second_moment_pattern_count(pat, 6)
        assert rep.variance == variance_pattern_count(pat, 6)
        assert rep.chebyshev_zero_bound == chebyshev_zero_bound(pat, 6)
        assert rep.asymptotic_slope == asymptotic_slope(pat)

    def test_dict_uses_rational_strings(self):
        d = moment_report(rooted_edge(), 4).to_dict()
        assert d["mean"] == "3/2"
        assert d["mean_float"] == 1.5
        assert d["second_moment"] == "3/1"
        assert d["chebyshev_zero_bound"] == "1/3"
        assert d["aut_root_order"] == 1

    def test_below_domain_raises(self):
        with pytest.raises(DomainTooSmallError):
            moment_report(cherry(), 5)


class TestOutsideTheDomain:
    # math.perm raises ValueError on a negative n, so every function must
    # check the domain before it counts tuples.
    @pytest.mark.parametrize("func", [
        mean_pattern_count, variance_pattern_count, chebyshev_zero_bound,
        moment_report], ids=lambda f: f.__name__)
    def test_negative_n_is_below_the_domain(self, func):
        with pytest.raises(DomainTooSmallError):
            func(cherry(), -1)

    def test_huge_n_is_refused_at_once(self):
        start = time.perf_counter()
        with pytest.raises(CapExceededError, match=f"{MAX_DIGITS} digits"):
            mean_pattern_count(rooted_edge(), 10**9)
        assert time.perf_counter() - start < 1

    def test_every_formula_stops_at_the_ceiling(self, monkeypatch):
        # n**(n - 2) has (n - 2) log10 n digits: 2.1 at n = 5, 3.1 at 6.
        monkeypatch.setattr(moments, "MAX_DIGITS", 3)
        edge = rooted_edge()
        assert occurrence_probability(edge, 5) == Fraction(9, 125)
        for call in (lambda: occurrence_probability(edge, 6),
                     lambda: mean_pattern_count(edge, 6),
                     lambda: pair_occurrence_probability(
                         edge, 6, PairRelation.ALL_DISTINCT),
                     lambda: moment_report(edge, 6)):
            with pytest.raises(CapExceededError, match="than 3 digits"):
                call()


REFERENCE_PATTERNS = ["edge", "cherry", "star3", "path4@end", "path5@mid"]


class TestAgainstTheFactorialForms:
    """Every wrapper against the separate closed forms in naive.py, up to
    the benchmark ladder's sizes, where the oracle cannot reach.  Values
    are compared as Fractions: at n = 2000 they pass 4300 digits."""

    @pytest.mark.parametrize("name", REFERENCE_PATTERNS)
    @pytest.mark.parametrize("n", ["2m", "2m+1", 50, 777, 2000])
    def test_every_wrapper_and_report_field(self, name, n):
        pat = pattern_from_name(name)
        m = pat.p + 1
        n = {"2m": 2 * m, "2m+1": 2 * m + 1}.get(n, n)
        mean = naive.closed_form_mean(pat, n)
        second = naive.closed_form_second_moment(pat, n)
        variance = second - mean * mean
        bound = second / (mean * mean) - 1
        tuple_p = naive.closed_form_tuple_probability(pat, n)
        assert occurrence_probability(pat, n) == tuple_p
        assert mean_pattern_count(pat, n) == mean
        assert pair_occurrence_probability(
            pat, n, PairRelation.ALL_DISTINCT) == (
            naive.closed_form_pair_probability(pat, n))
        assert pair_occurrence_probability(
            pat, n, PairRelation.SAME_ROOT_SAME_SET) == tuple_p
        assert second_moment_pattern_count(pat, n) == second
        assert variance_pattern_count(pat, n) == variance
        assert chebyshev_zero_bound(pat, n) == bound
        rep = moment_report(pat, n)
        assert (rep.n, rep.p, rep.aut_root_order) == (
            n, pat.p, pat.aut_root_order)
        assert (rep.mean, rep.second_moment, rep.variance,
                rep.chebyshev_zero_bound) == (mean, second, variance, bound)
        assert rep.asymptotic_slope == asymptotic_slope(pat)

    @pytest.mark.parametrize("name", REFERENCE_PATTERNS)
    def test_mean_at_the_smallest_n(self, name):
        pat = pattern_from_name(name)
        n = pat.p + 2
        assert mean_pattern_count(pat, n) == naive.closed_form_mean(pat, n)
        assert (occurrence_probability(pat, n)
                == naive.closed_form_tuple_probability(pat, n))


class TestRationalStr:
    @pytest.mark.parametrize("q, s", [
        (F(3, 2), "3/2"),
        (F(2), "2/1"),
        (F(0), "0/1"),
        (F(-5, 3), "-5/3"),
    ])
    def test_format(self, q, s):
        assert rational_str(q) == s
