"""Acceptance suite: the end-to-end checks the package must pass.

Each test prints one PASS/FAIL line (run with -s to watch them go by).
The exhaustive sweeps feeding criteria 2, 3, and 5 are computed once in a
module fixture and shared.
"""

import math
from fractions import Fraction

import pytest

from treepatterns import (
    PruferSequence,
    cherry,
    chebyshev_zero_bound,
    asymptotic_slope,
    convergence_experiment,
    estimate_pattern_stats,
    exact_pattern_distributions,
    mean_pattern_count,
    prufer_decode,
    prufer_encode,
    sample_tree,
    second_moment_pattern_count,
    stream_for,
    verify_labelled_count,
    verify_moments,
)
from treepatterns import RootedTree, aut_rooted, aut_unrooted, ahu_code
from treepatterns import labelled_rooted_count, pattern_from_name

import naive
from conftest import make_pattern, rooted_shape_reps


def report(name, ok):
    print(f"criterion {name}: {'PASS' if ok else 'FAIL'}")
    assert ok


@pytest.fixture(scope="module")
def small_patterns():
    """Every rooted shape with at most 3 non-root vertices: 7 patterns."""
    pats = []
    for m in (2, 3, 4):
        for tree, root in rooted_shape_reps(m):
            pats.append(make_pattern(m, list(tree.edges), root))
    return pats


@pytest.fixture(scope="module")
def sweeps(small_patterns):
    """Exact count distributions for all 7 small patterns at n = 3..8."""
    return {n: exact_pattern_distributions(n, small_patterns)
            for n in range(3, 9)}


class TestAcceptance:
    def test_criterion_1_labelled_rooted_counts(self):
        # every rooted shape on up to 6 vertices: enumerated labelled
        # rooted trees must equal p!/aut exactly
        checked = 0
        ok = True
        for m in (2, 3, 4, 5, 6):
            for tree, root in rooted_shape_reps(m):
                rep = verify_labelled_count(
                    make_pattern(m, list(tree.edges), root))
                ok = ok and rep.equal
                checked += 1
        ok = ok and checked == 1 + 2 + 4 + 9 + 20
        report("1 (labelled rooted counts, shapes up to 6 vertices)", ok)

    def test_criterion_2_mean_formula(self, small_patterns, sweeps):
        # closed-form mean equals the exhaustive mean for every small
        # pattern at every n from p+2 through 8
        ok = True
        for n in range(3, 9):
            for pat, dist in zip(small_patterns, sweeps[n]):
                if n < pat.p + 2:
                    continue
                ok = ok and dist.mean == mean_pattern_count(pat, n)
        by_code = {p.canonical.code: p for p in small_patterns}
        ok = ok and mean_pattern_count(by_code["(()())"], 5) == Fraction(12, 25)
        ok = ok and mean_pattern_count(by_code["(())"], 4) == Fraction(3, 2)
        # frozen n=8 values, one per pattern
        frozen = {
            "(())": Fraction(1701, 1024),
            "((()))": Fraction(13125, 16384),
            "(()())": Fraction(13125, 32768),
            "(((())))": Fraction(105, 256),
            "((())())": Fraction(105, 256),
            "((()()))": Fraction(105, 512),
            "(()()())": Fraction(35, 512),
        }
        for code, value in frozen.items():
            ok = ok and mean_pattern_count(by_code[code], 8) == value
        report("2 (exact means vs exhaustive enumeration, n <= 8)", ok)

    def test_criterion_3_second_moment_formula(self, small_patterns, sweeps):
        # closed-form second moment equals the exhaustive one for every
        # small pattern at every n from 2p+2 through 8, boundary included
        ok = True
        for n in range(3, 9):
            for pat, dist in zip(small_patterns, sweeps[n]):
                if n < 2 * (pat.p + 1):
                    continue
                ok = ok and (dist.second_moment
                             == second_moment_pattern_count(pat, n))
        by_code = {p.canonical.code: p for p in small_patterns}
        ok = ok and second_moment_pattern_count(by_code["(())"], 4) == 3
        ok = ok and (second_moment_pattern_count(by_code["(()())"], 6)
                     == Fraction(5, 9))
        report("3 (exact second moments vs exhaustive enumeration)", ok)

    def test_criterion_4_fixed_tuple_pair_cases(self):
        # fixed-tuple averages over all trees must match the pair
        # probability in all three relations: disjoint, identical, and
        # overlapping-but-different (zero)
        runs = ([(pattern_from_name("edge"), n) for n in range(4, 9)]
                + [(pattern_from_name("cherry"), n) for n in (6, 7, 8)]
                + [(pattern_from_name("path3@end"), n) for n in (6, 7, 8)])
        ok = True
        for pat, n in runs:
            ver = verify_moments(pat, n, workers=1)
            by_name = {c.name: c for c in ver.checks}
            for name in ("tuple_probability", "pair_disjoint",
                         "pair_same_tuple", "pair_overlap_same_root",
                         "pair_overlap_diff_root"):
                ok = ok and by_name[name].status == "ok"
        report("4 (pair probabilities in all three tuple relations)", ok)

    def test_criterion_5_chebyshev_soundness(self, small_patterns, sweeps):
        # the zero-probability bound must cover the exact value wherever
        # both are defined
        ok = True
        for n in range(3, 9):
            for pat, dist in zip(small_patterns, sweeps[n]):
                if n < 2 * (pat.p + 1):
                    continue
                ok = ok and dist.p_zero <= chebyshev_zero_bound(pat, n)
        by_code = {p.canonical.code: p for p in small_patterns}
        edge = by_code["(())"]
        edge_dist = sweeps[4][small_patterns.index(edge)]
        ok = ok and edge_dist.p_zero == Fraction(1, 4)
        ok = ok and chebyshev_zero_bound(edge, 4) == Fraction(1, 3)
        report("5 (zero-probability bound covers the exact value)", ok)

    def test_criterion_6_containment_convergence(self):
        # simulated containment probability must respect the exact bound
        # at every n and improve as n grows
        pat = cherry()
        rows = convergence_experiment(pat, [10, 20, 50, 100, 200],
                                      samples=100000, seed=20240901)
        ok = True
        for row in rows:
            e = row.estimate
            miss = 1.0 - e.p_hat
            ok = ok and row.cheb_bound is not None
            ok = ok and miss <= float(row.cheb_bound) + 3 * e.p_stderr
        ok = ok and rows[-1].estimate.p_hat > rows[0].estimate.p_hat
        report("6 (simulated containment within the exact bound)", ok)

    def test_criterion_7_asymptotic_slope(self):
        # mean/n must approach exp(-(p+1))/aut, within 2% by n = 2000,
        # with the discrepancy shrinking as n grows
        pat = cherry()
        slope = asymptotic_slope(pat)
        errors = []
        for n in (500, 1000, 2000, 5000):
            errors.append(abs(float(mean_pattern_count(pat, n)) / n - slope))
        ok = errors == sorted(errors, reverse=True)
        ok = ok and errors[2] / slope < 0.02
        report("7 (asymptotic slope of the mean)", ok)

    def test_criterion_8_determinism(self):
        # identical tallies for 1 and 4 workers; codec round trip on ten
        # thousand random trees up to n = 200
        pat = cherry()
        serial = estimate_pattern_stats(pat, 50, 2000, seed=77, workers=1)
        parallel = estimate_pattern_stats(pat, 50, 2000, seed=77, workers=4)
        ok = serial == parallel
        stream = stream_for(424242, 0)
        for _ in range(10000):
            n = stream.randint(199) + 1      # 2..200
            seq = PruferSequence(n, tuple(stream.randints(n - 2, n)))
            t = prufer_decode(seq)
            ok = ok and prufer_encode(t) == seq
            ok = ok and prufer_decode(prufer_encode(t)) == t
        report("8 (worker-count determinism and codec round trips)", ok)

    def test_criterion_9_automorphism_oracles(self):
        # brute-force permutation search confirms both automorphism
        # counters on every tree with up to 7 vertices, and the counting
        # identity sums to (p+1)**(p-1)
        ok = True
        for n in (2, 3, 4, 5):
            for t in naive.all_trees(n):
                ok = ok and aut_unrooted(t) == naive.aut_unrooted_brute(t)
                for root in range(1, n + 1):
                    ok = ok and (aut_rooted(RootedTree(t, root))
                                 == naive.aut_rooted_brute(t, root))
        for n in (6, 7):
            # brute force once per shape; every labelled tree must then
            # report its shape's order
            rooted_brute = {}
            for tree, root in rooted_shape_reps(n):
                rooted_brute[ahu_code(tree.adjacency, root)] = \
                    naive.aut_rooted_brute(tree, root)
            unrooted_brute = {}
            for t in naive.all_trees(n):
                for root in range(1, n + 1):
                    code = ahu_code(t.adjacency, root)
                    ok = ok and aut_rooted(RootedTree(t, root)) \
                        == rooted_brute[code]
                key = min(ahu_code(t.adjacency, r) for r in range(1, n + 1))
                if key not in unrooted_brute:
                    unrooted_brute[key] = naive.aut_unrooted_brute(t)
                ok = ok and aut_unrooted(t) == unrooted_brute[key]
            # the grouping key itself: representatives must be pairwise
            # non-isomorphic as rooted trees from any fixed root choice
            ok = ok and len(unrooted_brute) == (6 if n == 6 else 11)
        for p in (1, 2, 3, 4):
            total = sum(labelled_rooted_count(
                make_pattern(p + 1, list(t.edges), root))
                for t, root in rooted_shape_reps(p + 1))
            ok = ok and total == (p + 1) ** (p - 1)
        report("9 (automorphism counts vs brute force, counting identity)",
               ok)
