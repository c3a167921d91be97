"""Monte Carlo estimation of pattern statistics in uniform random trees.

Sampling is counter based: sample k of a run with seed s draws from its
own SplitMix64 stream keyed by (s, k), so results do not depend on how
samples are split across workers, and a fixed seed reproduces the same
tallies on any platform.  Uniform draws in 1..n use rejection, never a
bare modulus.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from fractions import Fraction

from .errors import DomainTooSmallError, SampleCountError, TooSmallError
from .isomorphism import RootedPattern
from .moments import _moments, _zero_bound, mean_pattern_count, rational_str
from .patterns import _fan_out, _occurrence_finder, _sweep
from .trees import PruferSequence, Tree, prufer_decode

_MASK = (1 << 64) - 1
_GOLDEN = 0x9E3779B97F4A7C15


def mix64(x: int) -> int:
    """SplitMix64 finalizer: a 64-bit bijective scramble."""
    x &= _MASK
    x = ((x ^ (x >> 30)) * 0xBF58476D1CE4E5B9) & _MASK
    x = ((x ^ (x >> 27)) * 0x94D049BB133111EB) & _MASK
    return x ^ (x >> 31)


class RandomStream:
    """SplitMix64 generator: increment by the golden gamma, then finalize."""

    __slots__ = ("_state",)

    def __init__(self, state: int) -> None:
        self._state = state & _MASK

    def next_u64(self) -> int:
        self._state = (self._state + _GOLDEN) & _MASK
        return mix64(self._state)

    def randint(self, n: int) -> int:
        """Uniform integer in 1..n via rejection sampling."""
        limit = (1 << 64) - ((1 << 64) % n)
        while True:
            x = self.next_u64()
            if x < limit:
                return 1 + x % n

    def randints(self, count: int, n: int) -> list[int]:
        """count uniform integers in 1..n.

        Consumes the stream exactly as count successive randint calls;
        the generator arithmetic is inlined because this sits on the hot
        path of the samplers.
        """
        limit = (1 << 64) - ((1 << 64) % n)
        state = self._state
        out = []
        append = out.append
        while len(out) < count:
            state = (state + _GOLDEN) & _MASK
            x = ((state ^ (state >> 30)) * 0xBF58476D1CE4E5B9) & _MASK
            x = ((x ^ (x >> 27)) * 0x94D049BB133111EB) & _MASK
            x ^= x >> 31
            if x < limit:
                append(1 + x % n)
        self._state = state
        return out


def stream_for(seed: int, index: int) -> RandomStream:
    """Independent stream for one sample index under one seed."""
    return RandomStream(mix64(seed ^ mix64((index + 1) * _GOLDEN)))


def sample_tree(n: int, stream: RandomStream) -> Tree:
    """Uniform random labelled tree on n vertices.

    n = 1 returns the single-vertex tree without consuming randomness;
    otherwise n - 2 uniform draws feed the Pruefer decoder.
    """
    if n < 1:
        raise TooSmallError(f"a tree needs at least one vertex, got n = {n}")
    if n == 1:
        return Tree(1, frozenset())
    seq = tuple(stream.randints(n - 2, n))
    return prufer_decode(PruferSequence(n, seq))


_Z95 = 1.959963984540054  # two-sided 95% normal quantile


def _wilson(hits: int, total: int) -> tuple[float, float]:
    p = hits / total
    z2 = _Z95 * _Z95
    denom = 1.0 + z2 / total
    center = (p + z2 / (2 * total)) / denom
    half = _Z95 * math.sqrt(p * (1 - p) / total + z2 / (4 * total * total)) / denom
    return (max(0.0, center - half), min(1.0, center + half))


@dataclass(frozen=True)
class McEstimate:
    """Tallies and derived statistics from one Monte Carlo run."""

    n: int
    samples: int
    seed: int
    hits_ge1: int
    sum_count: int
    sum_count_sq: int

    @property
    def p_hat(self) -> float:
        return self.hits_ge1 / self.samples

    @property
    def p_stderr(self) -> float:
        return math.sqrt(self.p_hat * (1 - self.p_hat) / self.samples)

    @property
    def p_ci_low(self) -> float:
        return _wilson(self.hits_ge1, self.samples)[0]

    @property
    def p_ci_high(self) -> float:
        return _wilson(self.hits_ge1, self.samples)[1]

    @property
    def mean_hat(self) -> float:
        return self.sum_count / self.samples

    @property
    def stderr_mean(self) -> float:
        if self.samples < 2:
            return 0.0
        var = (self.sum_count_sq - self.sum_count ** 2 / self.samples)
        var /= self.samples - 1
        return math.sqrt(max(var, 0.0) / self.samples)

    def to_dict(self) -> dict:
        return {
            "n": self.n,
            "samples": self.samples,
            "seed": self.seed,
            "hits_ge1": self.hits_ge1,
            "sum_count": self.sum_count,
            "sum_count_sq": self.sum_count_sq,
            "p_hat": self.p_hat,
            "p_ci_low": self.p_ci_low,
            "p_ci_high": self.p_ci_high,
            "mean_hat": self.mean_hat,
            "stderr_mean": self.stderr_mean,
        }


def _tally_job(args, lo: int, hi: int):
    # Same draws and same counting core as sample_tree + count_patterns,
    # minus the per-sample Tree object; the equivalence is under test.
    n, seed, pat = args
    find = _occurrence_finder(n, [pat])
    seqs = (stream_for(seed, k).randints(n - 2, n) for k in range(lo, hi))
    return _sweep(lambda order, parent: len(find(order, parent)), n, seqs)


def estimate_pattern_stats(pat: RootedPattern, n: int, samples: int,
                           seed: int, workers: int = 1) -> McEstimate:
    """Estimate containment probability and mean count by simulation.

    Tallies are integers and samples are keyed by index, so the result is
    bit-identical for any worker count.
    """
    if n < pat.p + 1:
        raise DomainTooSmallError(
            f"host tree needs at least p + 1 = {pat.p + 1} vertices")
    if samples < 1:
        raise SampleCountError(f"samples must be positive, got {samples}")
    hist = _fan_out(_tally_job, (n, seed, pat), 0, samples, workers)
    return McEstimate(n, samples, seed, samples - hist[0],
                      sum(c * k for c, k in hist.items()),
                      sum(c * c * k for c, k in hist.items()))


@dataclass(frozen=True)
class ConvergenceRow:
    """One n of a convergence experiment: simulation next to exact values."""

    estimate: McEstimate
    exact_mean: Fraction | None
    cheb_bound: Fraction | None


CSV_HEADER = ("n,samples,hits_ge1,p_hat,ci_low,ci_high,"
              "mean_hat,stderr_mean,exact_mean,cheb_bound")


def convergence_experiment(pat: RootedPattern, n_list, samples: int,
                           seed: int, workers: int = 1) -> list[ConvergenceRow]:
    """Run one estimate per n; each row reuses the seed, so a row equals a
    direct estimate_pattern_stats call with the same arguments.

    Exact columns are attached where the formulas are defined (the mean
    needs n >= p + 2, the bound n >= 2(p + 1)) and left empty otherwise.
    """
    rows = []
    for n in n_list:
        est = estimate_pattern_stats(pat, n, samples, seed, workers)
        exact = bound = None
        if n >= 2 * (pat.p + 1):
            exact, second = _moments(pat, n)
            bound = _zero_bound(exact, second)
        elif n >= pat.p + 2:
            exact = mean_pattern_count(pat, n)
        rows.append(ConvergenceRow(est, exact, bound))
    return rows


def convergence_csv(rows) -> str:
    """Frozen CSV layout; exact rationals as num/den strings, blank when
    undefined."""
    out = [CSV_HEADER]
    for row in rows:
        e = row.estimate
        out.append(",".join([
            str(e.n),
            str(e.samples),
            str(e.hits_ge1),
            repr(e.p_hat),
            repr(e.p_ci_low),
            repr(e.p_ci_high),
            repr(e.mean_hat),
            repr(e.stderr_mean),
            rational_str(row.exact_mean) if row.exact_mean is not None else "",
            rational_str(row.cheb_bound) if row.cheb_bound is not None else "",
        ]))
    return "\n".join(out) + "\n"
