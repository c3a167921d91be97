"""Monte Carlo estimation of pattern statistics in uniform random trees.

Sampling is counter based: sample k of a run with seed s draws from its
own SplitMix64 stream keyed by (s, k), so results do not depend on how
samples are split across workers, and a fixed seed reproduces the same
tallies on any platform.  Uniform draws in 1..n use rejection, never a
bare modulus.

`RandomStream.randints` mixes a Pruefer sequence's draws together: it
packs the SplitMix64 states, up to 4096 at a time, into 128-bit lanes of
one Python int and runs the finalizer on the whole int, masking each
lane back to 64 bits after every xor-shift and multiply so that no lane
carries into its neighbour.  The values equal those of count successive
`randint` calls; once a lane would be rejected, the rest of the draws
replay exactly those calls.
"""

from __future__ import annotations

import math
import sys
from array import array
from collections import Counter
from dataclasses import dataclass
from fractions import Fraction
from functools import lru_cache

from .errors import (
    DomainTooSmallError,
    SampleCountError,
    SamplerRangeError,
    TooSmallError,
)
from .isomorphism import RootedPattern
from .moments import _moments, _zero_bound, mean_pattern_count, rational_str
from .patterns import _fan_out, _occurrence_finder
from .trees import PruferSequence, Tree, _decode, prufer_decode

_MASK = (1 << 64) - 1
_GOLDEN = 0x9E3779B97F4A7C15
# randints mixes at most this many lanes in one int, so its working
# memory stays that of a 64 KB int whatever the count
_BLOCK = 4096


def mix64(x: int) -> int:
    """SplitMix64 finalizer: a 64-bit bijective scramble."""
    return _mix_lanes(x & _MASK, _MASK)


def _mix_lanes(x: int, low: int) -> int:
    # low masks each lane to its 64-bit value; the mask after each
    # xor-shift clears the bits shifted in from the lane above
    x = ((x ^ (x >> 30)) & low) * 0xBF58476D1CE4E5B9 & low
    x = ((x ^ (x >> 27)) & low) * 0x94D049BB133111EB & low
    return (x ^ (x >> 31)) & low


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
        _check_range(n)
        limit = (1 << 64) - ((1 << 64) % n)
        while True:
            x = self.next_u64()
            if x < limit:
                return 1 + x % n

    def randints(self, count: int, n: int) -> list[int]:
        """count uniform integers in 1..n.

        Equals count successive randint calls, in values and in the state
        left behind.  The draws go in blocks of up to _BLOCK lanes of one
        big int: lane i holds the state after i + 1 increments, the
        finalizer runs on all lanes together, and lane i is rejected iff
        adding 2**64 % n carries it past 64 bits.  A rejection happens
        with odds below count * n / 2**64; then the rest of the draws
        replay the randint loop from the block's starting state.
        """
        _check_range(n)
        out = []
        for done in range(0, count, _BLOCK):
            k = min(_BLOCK, count - done)
            ones, ramp, low = _lanes(k)
            x = _mix_lanes((self._state * ones + ramp) & low, low)
            if (x + (1 << 64) % n * ones) & ~low:
                return out + [self.randint(n) for _ in range(count - done)]
            self._state = (self._state + k * _GOLDEN) & _MASK
            words = array("Q", x.to_bytes(16 * k, "little"))[::2]
            if sys.byteorder == "big":
                words.byteswap()
            out += [1 + w % n for w in words]
        return out


def _check_range(n: int) -> None:
    if not 1 <= n <= 1 << 64:
        raise SamplerRangeError(f"n must be in 1..2**64, got {n}")


@lru_cache(maxsize=4)
def _lanes(count: int) -> tuple[int, int, int]:
    """Constants for count 128-bit lanes: 1 in each lane, the lane-i
    state offset (i + 1) * gamma mod 2**64, and a 64-bit mask per lane."""
    pad = bytes(8)
    ramp = b"".join(((i + 1) * _GOLDEN & _MASK).to_bytes(8, "little") + pad
                    for i in range(count))
    return (int.from_bytes((b"\x01" + bytes(15)) * count, "little"),
            int.from_bytes(ramp, "little"),
            int.from_bytes((b"\xff" * 8 + pad) * count, "little"))


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


def _count_job(args, lo: int, hi: int) -> Counter:
    """Tally per-pattern count tuples over samples lo..hi - 1: sample k is
    the draws of stream_for(seed, k), decoded and counted as sample_tree +
    count_patterns would, minus the Tree object; the equivalence is under
    test."""
    n, pats, seed = args
    find = _occurrence_finder(n, pats)
    draws = (stream_for(seed, k).randints(n - 2, n) for k in range(lo, hi))

    def outcome(seq):
        counts = [0] * len(pats)
        for i, _, _ in find(*_decode(seq, n)):
            counts[i] += 1
        return tuple(counts)

    return Counter(map(outcome, draws))


def _marginal(tally: Counter, i: int) -> dict[int, int]:
    out: Counter = Counter()
    for key, c in tally.items():
        out[key[i]] += c
    return dict(out)


def _check_run(pat: RootedPattern, n: int, samples: int) -> None:
    if n < pat.p + 1:
        raise DomainTooSmallError(
            f"host tree needs at least p + 1 = {pat.p + 1} vertices")
    if samples < 1:
        raise SampleCountError(f"samples must be positive, got {samples}")
    _check_range(n)


def estimate_pattern_stats(pat: RootedPattern, n: int, samples: int,
                           seed: int, workers: int = 1) -> McEstimate:
    """Estimate containment probability and mean count by simulation.

    Tallies are integers and samples are keyed by index, so the result is
    bit-identical for any worker count.
    """
    _check_run(pat, n, samples)
    tally = _fan_out(_count_job, (n, [pat], seed), samples, workers)
    hist = _marginal(tally, 0)
    return McEstimate(n, samples, seed, samples - hist.get(0, 0),
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
    Every n is checked, and its exact columns computed, before the first
    sample, so a refused n costs no simulation.
    """
    columns = []
    for n in n_list:
        _check_run(pat, n, samples)
        exact = bound = None
        if n >= 2 * (pat.p + 1):
            exact, second = _moments(pat, n)
            bound = _zero_bound(exact * exact, second)
        elif n >= pat.p + 2:
            exact = mean_pattern_count(pat, n)
        columns.append((n, exact, bound))
    return [ConvergenceRow(estimate_pattern_stats(pat, n, samples, seed,
                                                  workers), exact, bound)
            for n, exact, bound in columns]


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
