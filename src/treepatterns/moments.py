"""Exact moments of pattern counts over uniform random labelled trees.

All values are exact rationals from integer arithmetic; n**(n - 2) grows
to thousands of digits and is never pushed through floating point.  With
m = p + 1, L = p!/aut labelled rooted shapes on a fixed vertex set and
k = n - j*m, every value comes from one closed form: j fixed disjoint
(root, others) tuples are all occurrences with probability

  q_j = L**j * k**(k + j - 2) / n**(n - 2)      (0**0 == 1).

There are T_j = n!/(k! p!**j) ordered j-tuples of such tuples, so
E[X] = T_1 q_1; for n >= 2m distinct occurrences are disjoint, so
E[X**2] = T_2 q_2 + E[X].  P(X = 0) <= E[X**2]/E[X]**2 - 1 is the
one-sided Chebyshev bound, and E[X]/n tends to exp(-m) / aut, the
reported asymptotic slope.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from enum import Enum
from fractions import Fraction

from .errors import CapExceededError, DomainTooSmallError
from .isomorphism import RootedPattern, labelled_rooted_count

# The most digits n**(n - 2) may have, reached near n = 10**5, where a
# cherry report took 80 s.  Past it the exact path refuses at once
# instead of running for hours.
MAX_DIGITS = 500_000


class PairRelation(Enum):
    """How two occurrence tuples relate: disjoint vertex sets, identical
    root and set, or anything else (overlapping but not identical)."""

    ALL_DISTINCT = "all_distinct"
    SAME_ROOT_SAME_SET = "same_root_same_set"
    OTHER = "other"


def _require(n: int, least: int, what: str) -> None:
    if n < least:
        raise DomainTooSmallError(f"{what} needs n >= {least}, got n = {n}")


def _joint_probability(pat: RootedPattern, n: int, j: int,
                       what: str) -> Fraction:
    # n >= j*p + 2 keeps k + j - 2 >= 0; `what` names the caller's formula.
    _require(n, j * pat.p + 2, what)
    if (n - 2) * math.log10(n) > MAX_DIGITS:
        raise CapExceededError(
            f"n = {n} exceeds the exact-path ceiling: n**(n - 2) would "
            f"have more than {MAX_DIGITS} digits")
    k = n - j * (pat.p + 1)
    return Fraction(labelled_rooted_count(pat) ** j * k ** (k + j - 2),
                    n ** (n - 2))


def _tuple_count(pat: RootedPattern, n: int, j: int) -> int:
    return math.perm(n, j * (pat.p + 1)) // math.factorial(pat.p) ** j


def occurrence_probability(pat: RootedPattern, n: int, *,
                           duplicate_indices: bool = False) -> Fraction:
    """Probability that one fixed (root, others) tuple is an occurrence.

    A tuple with repeated indices never forms an occurrence, so the value
    is 0 regardless of n; otherwise n >= p + 2 is required.
    """
    if duplicate_indices:
        return Fraction(0)
    return _joint_probability(pat, n, 1, "occurrence probability")


def mean_pattern_count(pat: RootedPattern, n: int) -> Fraction:
    """Expected number of occurrences in a uniform tree on n vertices."""
    # The probability checks the domain before math.perm sees n.
    return (_joint_probability(pat, n, 1, "mean pattern count")
            * _tuple_count(pat, n, 1))


def pair_occurrence_probability(pat: RootedPattern, n: int,
                                relation: PairRelation) -> Fraction:
    """Probability that two fixed tuples are both occurrences.

    Disjoint tuples need n >= 2(p + 1), with 0**0 == 1 exactly at the
    boundary.  An identical pair reduces to the single-tuple probability.
    Overlapping-but-different tuples give 0: for n >= 2(p + 1) they can
    never both be occurrences (below that bound hosts are too cramped for
    the exclusion argument, so the zero only applies from there on).
    """
    if relation is PairRelation.OTHER:
        return Fraction(0)
    if relation is PairRelation.SAME_ROOT_SAME_SET:
        return occurrence_probability(pat, n)
    return _joint_probability(pat, n, 2, "disjoint pair probability")


def _moments(pat: RootedPattern, n: int) -> tuple[Fraction, Fraction]:
    mean = mean_pattern_count(pat, n)
    q2 = _joint_probability(pat, n, 2, "second moment")
    return mean, _tuple_count(pat, n, 2) * q2 + mean


def _zero_bound(square: Fraction, second: Fraction) -> Fraction:
    # square = mean**2, positive wherever the second moment is defined
    return second / square - 1


def second_moment_pattern_count(pat: RootedPattern, n: int) -> Fraction:
    """Exact second moment of the occurrence count; needs n >= 2(p + 1)."""
    _require(n, 2 * (pat.p + 1), "second moment")  # ahead of the mean's check
    return _moments(pat, n)[1]


def variance_pattern_count(pat: RootedPattern, n: int) -> Fraction:
    mean, second = _moments(pat, n)
    return second - mean * mean


def chebyshev_zero_bound(pat: RootedPattern, n: int) -> Fraction:
    """Upper bound on P(no occurrence): second/mean**2 - 1."""
    mean, second = _moments(pat, n)
    return _zero_bound(mean * mean, second)


def asymptotic_slope(pat: RootedPattern) -> float:
    """Limit of mean/n as n grows: exp(-(p + 1)) / aut."""
    return math.exp(-(pat.p + 1)) / pat.aut_root_order


def rational_str(q: Fraction) -> str:
    return f"{q.numerator}/{q.denominator}"


# The report's exact fields, in report order; each is written as 'num/den'
# and followed by its float view.
EXACT_FIELDS = ("mean", "second_moment", "variance", "chebyshev_zero_bound")


@dataclass(frozen=True)
class MomentReport:
    """Exact moment summary for one pattern at one n (n >= 2(p + 1))."""

    n: int
    p: int
    aut_root_order: int
    mean: Fraction
    second_moment: Fraction
    variance: Fraction
    chebyshev_zero_bound: Fraction
    asymptotic_slope: float

    def to_dict(self) -> dict:
        """Flat record; rationals as 'num/den' strings plus float views."""
        d = {"n": self.n, "p": self.p, "aut_root_order": self.aut_root_order}
        for k in EXACT_FIELDS:
            q = getattr(self, k)
            d[k] = rational_str(q)
            d[k + "_float"] = float(q)
        d["asymptotic_slope"] = self.asymptotic_slope
        return d


def moment_report(pat: RootedPattern, n: int) -> MomentReport:
    mean, second = _moments(pat, n)
    square = mean * mean
    return MomentReport(n=n, p=pat.p, aut_root_order=pat.aut_root_order,
                        mean=mean, second_moment=second,
                        variance=second - square,
                        chebyshev_zero_bound=_zero_bound(square, second),
                        asymptotic_slope=asymptotic_slope(pat))
