"""Exhaustive ground truth for small n.

Two sweeps cover every labelled tree on n vertices.  The exact count
distributions, and verify's count histogram, come from one pass over the
unlabelled rooted trees of trees._rooted_shapes: a count does not depend
on labels, so each shape is counted once by patterns._tally, the loop
that also tallies Monte Carlo's samples, and weighted by the
(n - 1)!/aut labelled trees it stands for.  The generator reads that
weight off the shape's level sequence, where aut is the product of r!
over each run of r equal sibling subtrees.  That pass refuses n above
SHAPE_CAP, where one pattern takes about a minute.  Only the four
fixed-tuple indicators of the moment check depend on labels, and they
are read from the n**(n-2) Pruefer sequences, decoded by trees._decode.
A vertex occurs deg - 1 times in its Pruefer sequence, so that sweep
decodes only the sequences whose label counts allow the base tuple.
The sequences are numbered in lexicographic order, and a sweep split
across processes hands each one a contiguous range of those numbers, as
Monte Carlo does with its sample indices.  iter_trees and
verify_labelled_count enumerate the same sequences.  This enumeration
refuses to run past a small cap: the tree count explodes, and the cap
keeps mistakes cheap.
"""

from __future__ import annotations

from collections import Counter
from dataclasses import dataclass
from fractions import Fraction
from typing import Callable, Iterator, Sequence

from .errors import CapExceededError, TooSmallError
from .isomorphism import RootedPattern, _canonical, labelled_rooted_count
from .moments import (
    PairRelation,
    chebyshev_zero_bound,
    mean_pattern_count,
    occurrence_probability,
    pair_occurrence_probability,
    second_moment_pattern_count,
)
from .patterns import _fan_out, _is_occurrence, _marginal, _tally
from .trees import Tree, _decode, _rooted_shapes, _sequences, _tree_from_order

DEFAULT_CAP = 9
HARD_CAP = 10
# Where one pattern's shape pass takes about a minute: for the cherry,
# 25 s at n = 18 and 50 s at n = 19 on a 2-core Xeon VM.
SHAPE_CAP = 19


def _check_n(n: int, cap: int) -> None:
    if n < 2:
        raise TooSmallError("enumeration needs n >= 2")
    if n > cap:
        raise CapExceededError(
            f"n = {n} exceeds the enumeration cap {cap} ({n}**{n - 2} trees)")


def _check_cap(n: int, cap: int) -> None:
    # The labelled sweeps' cap: HARD_CAP bounds whatever cap is asked for.
    _check_n(n, min(cap, HARD_CAP))


def _check_verifiable(pat: RootedPattern, n: int) -> None:
    if n < pat.p + 2:
        raise TooSmallError(
            f"verification needs n >= p + 2 = {pat.p + 2}, got n = {n}")


def iter_trees(n: int, cap: int = DEFAULT_CAP) -> Iterator[Tree]:
    """Yield every labelled tree on n vertices exactly once."""
    _check_cap(n, cap)
    for seq in _sequences(n, 0, n ** (n - 2)):
        yield _tree_from_order(n, *_decode(seq, n))


def enumerate_trees(n: int, visitor: Callable[[Tree], None],
                    cap: int = DEFAULT_CAP) -> int:
    """Apply visitor to every labelled tree on n vertices; return the count."""
    count = 0
    for t in iter_trees(n, cap):
        visitor(t)
        count += 1
    return count


@dataclass(frozen=True, eq=False)
class ExactDistribution:
    """Exact distribution of the occurrence count over all labelled trees."""

    n: int
    pattern: RootedPattern
    histogram: dict[int, int]
    total: int

    def __post_init__(self) -> None:
        if sum(self.histogram.values()) != self.total:
            raise RuntimeError("histogram does not cover every tree")

    @property
    def p_zero(self) -> Fraction:
        return Fraction(self.histogram.get(0, 0), self.total)

    @property
    def p_at_least_one(self) -> Fraction:
        return 1 - self.p_zero

    @property
    def mean(self) -> Fraction:
        return Fraction(sum(k * c for k, c in self.histogram.items()),
                        self.total)

    @property
    def second_moment(self) -> Fraction:
        return Fraction(sum(k * k * c for k, c in self.histogram.items()),
                        self.total)


def exact_pattern_distributions(n: int, pats: Sequence[RootedPattern]
                                ) -> list[ExactDistribution]:
    """Exact count distributions for several patterns in one shape pass."""
    _check_n(n, SHAPE_CAP)
    tally = _tally(n, pats, _rooted_shapes(n))
    total = n ** (n - 2)
    return [ExactDistribution(n, pat, _marginal(tally, i), total)
            for i, pat in enumerate(pats)]


def exact_pattern_distribution(n: int, pat: RootedPattern
                               ) -> ExactDistribution:
    """Exact distribution of the occurrence count of pat over all trees."""
    return exact_pattern_distributions(n, [pat])[0]


@dataclass(frozen=True)
class LabelledCountReport:
    """Enumerated labelled rooted trees matching a shape vs the formula."""

    pattern: RootedPattern
    enumerated: int
    formula: int

    @property
    def equal(self) -> bool:
        return self.enumerated == self.formula


def verify_labelled_count(pat: RootedPattern) -> LabelledCountReport:
    """Count labelled trees on p + 1 fixed labels that, rooted at label 1,
    match the pattern shape; compare with p!/aut."""
    m = pat.p + 1
    if m > 7:
        raise CapExceededError(f"pattern size {m} exceeds the rooted "
                               "enumeration cap 7")

    found = sum(_canonical(t.adjacency, 1)[0] == pat.canonical
                for t in iter_trees(m))
    return LabelledCountReport(pat, found, labelled_rooted_count(pat))


_OK = "ok"
_FAIL = "fail"
_SKIP = "skipped"


@dataclass(frozen=True)
class FormulaCheck:
    """One exhaustive-vs-formula comparison."""

    name: str
    oracle_value: Fraction | None
    formula_value: Fraction | None
    status: str
    note: str = ""

    @property
    def passed(self) -> bool:
        return self.status != _FAIL


@dataclass(frozen=True)
class MomentVerification:
    """All formula checks for one pattern at one n."""

    pattern: RootedPattern
    n: int
    checks: tuple[FormulaCheck, ...]

    @property
    def all_passed(self) -> bool:
        return all(c.passed for c in self.checks)


def _fixed_tuples(p: int) -> dict[str, tuple[int, frozenset[int]]]:
    # Index tuples used for the fixed-tuple averages.  base is the tuple
    # (1; 2..p+1); disjoint shifts it past p+1; the two overlap variants
    # share indices with base without equalling it.
    base = (1, frozenset(range(2, p + 2)))
    return {
        "base": base,
        "disjoint": (p + 2, frozenset(range(p + 3, 2 * p + 3))),
        "overlap_same_root": (1, frozenset(range(3, p + 3))),
        "overlap_diff_root": (2, frozenset(range(3, p + 3))),
    }


def _moment_job(args, lo: int, hi: int) -> Counter:
    # Outcome key: the four fixed-tuple indicators, the only part of the
    # check that depends on labels; the shape pass gives the count.
    n, pat = args
    (r1, o1), *rest = _fixed_tuples(pat.p).values()
    # A vertex occurs deg - 1 times in its Pruefer sequence.  If the base
    # tuple (1; 2..p+1) is an occurrence, vertex 1 has the root's k
    # children and one outside neighbour, and labels 1..p+1 carry p inner
    # edges and one exit, so 1 occurs k times and 1..p+1 occur p times.
    # Only those sequences are decoded; the rest hold no base tuple.
    k = pat.shape.tree.degree(pat.shape.root)
    base = (r1, *o1)
    # The pairs (v, parent[v]) for v < n: the edges, and (0, 0).  Below
    # n = 2(p + 1) the disjoint tuple holds a label above n, so it has
    # fewer than p inner edges and is never an occurrence.
    child = range(n)

    def allowed(seq):
        return seq.count(r1) == k and sum(map(seq.count, base)) == pat.p

    def outcome(seq):
        parent = _decode(seq, n)[1]
        if not _is_occurrence(zip(child, parent), r1, o1, pat):
            return False, False, False, False
        return (True, *[_is_occurrence(zip(child, parent), r, o, pat)
                        for r, o in rest])

    tally = Counter(map(outcome, filter(allowed, _sequences(n, lo, hi))))
    skipped = hi - lo - tally.total()
    if skipped:
        tally[False, False, False, False] += skipped
    return tally


def verify_moments(pat: RootedPattern, n: int, cap: int = DEFAULT_CAP,
                   workers: int = 1) -> MomentVerification:
    """Compare each exact formula against exhaustive enumeration at n.

    The fixed-tuple probabilities are averaged over all n**(n-2) labelled
    trees, and the count's mean, second moment and zero probability are
    read from exact_pattern_distribution's shape pass.  Checks outside
    their domain (the pair and second-moment formulas need n >= 2(p + 1))
    are reported as skipped rather than failed.
    """
    _check_cap(n, cap)
    _check_verifiable(pat, n)
    # Up to n = 7 a pool costs more than the whole sweep.  In-process
    # against two workers, best of 5 on a 2-core VM: at n = 7 cherry 5 vs
    # 14 ms, star3 2.5 vs 11, path4@end 12 vs 21, edge 18 vs 29; at n = 8
    # cherry 84 vs 90, star3 40 vs 28, path4@end 182 vs 113, edge 337 vs
    # 189.  No pool is kept: peak RSS must count its workers.
    tally = _fan_out(_moment_job, (n, pat), n ** (n - 2),
                     workers if n > 7 else 1)
    g_base, g_disjoint, g_same, g_diff = (
        sum(c for key, c in tally.items() if key[i]) for i in range(4))
    dist = exact_pattern_distribution(n, pat)
    total = dist.total
    least = 2 * (pat.p + 1)
    # One row per check, in frozen order: name, oracle value, whether the
    # formula needs n >= 2(p + 1), and the formula with any extra
    # arguments.  Overlapping-but-different tuples exclude each other only
    # from n = 2(p + 1) on; below that a small host can satisfy both (for
    # the cherry at n = 4, the star does), so those checks would be
    # vacuously wrong there.
    table = (
        ("tuple_probability", Fraction(g_base, total), False,
         occurrence_probability),
        ("mean_count", dist.mean, False, mean_pattern_count),
        ("pair_disjoint", Fraction(g_disjoint, total), True,
         pair_occurrence_probability, PairRelation.ALL_DISTINCT),
        ("pair_same_tuple", Fraction(g_base, total), False,
         pair_occurrence_probability, PairRelation.SAME_ROOT_SAME_SET),
        ("pair_overlap_same_root", Fraction(g_same, total), True,
         pair_occurrence_probability, PairRelation.OTHER),
        ("pair_overlap_diff_root", Fraction(g_diff, total), True,
         pair_occurrence_probability, PairRelation.OTHER),
        ("second_moment", dist.second_moment, True,
         second_moment_pattern_count),
        ("zero_probability_bound", dist.p_zero, True, chebyshev_zero_bound),
    )
    checks: list[FormulaCheck] = []
    for name, oracle, paired, formula, *extra in table:
        if paired and n < least:
            checks.append(FormulaCheck(name, None, None, _SKIP,
                                       f"needs n >= {least}"))
            continue
        value = formula(pat, n, *extra)
        bound = name == "zero_probability_bound"
        ok = oracle <= value if bound else oracle == value
        checks.append(FormulaCheck(
            name, oracle, value, _OK if ok else _FAIL,
            "bound must cover the exact value" if bound else ""))
    return MomentVerification(pat, n, tuple(checks))
