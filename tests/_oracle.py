"""Test-side oracles: the literal definitions the library's tables must equal.

``enumerate_partitions`` lists partitions as tuples instead of counting,
so it shares no structure with the library.  ``count_dp`` does share its
structure with ``TableFactory``: it is the literal coin-change definition
(one ascending pass per part, from the empty partition), which the
factory's kernel, its slice cache and its pentagonal start must equal.
``eq4_rhs_direct`` evaluates the double-counting identity's right side
term by term, and ``convolution_check_range`` splits full-set counts into
head and tail counts, both from ``count_dp`` tables.

``lhs_series_truncated`` is the weighted tail series summed from scratch
to one cutoff, and ``series_sum_reference`` is the doubling tail rule
that re-sums it at every doubled cutoff: the reference that the
library's one-pass ``series_sum_adaptive`` must equal bit for bit.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Iterable, Iterator

from partlab.counting import _validated_parts
from partlab.partset import A_PLUS, FULL_A, R_PLUS, ResidueSpec, parts_up_to
from partlab.series import TAIL_RULE_CAP, TAIL_RULE_REL, TAIL_RULE_START


def enumerate_partitions(parts: Iterable[int], n: int) -> Iterator[tuple[int, ...]]:
    """Yield every partition of n with summands from parts, nonincreasing tuples."""
    usable = sorted(p for p in set(parts) if 1 <= p <= n)
    if n == 0:
        yield ()
        return

    def rec(remaining: int, top: int, acc: list[int]) -> Iterator[tuple[int, ...]]:
        for i in range(top + 1):
            p = usable[i]
            if p > remaining:
                break
            acc.append(p)
            if p == remaining:
                yield tuple(acc)
            else:
                yield from rec(remaining - p, i, acc)
            acc.pop()

    yield from rec(n, len(usable) - 1, [])


def brute_count(parts: Iterable[int], n: int) -> int:
    return sum(1 for _ in enumerate_partitions(parts, n))


def count_dp(parts: Iterable[int], n: int) -> tuple[int, ...]:
    """Exact counts of partitions of 0..n via part-by-part accumulation.

    Outer loop over parts, inner ascending loop over totals: unordered
    multiset semantics, so partitions are counted rather than compositions.
    """
    ps = _validated_parts(parts)
    if n < 0:
        raise ValueError(f"n must be >= 0, got {n}")
    values = [0] * (n + 1)
    values[0] = 1
    for a in ps:
        if a > n:
            break
        for j in range(a, n + 1):
            values[j] += values[j - a]
    return tuple(values)


def eq4_rhs_direct(parts: Iterable[int], values: tuple[int, ...], n: int) -> int:
    """Literal evaluation of ``sum_{s <= n} s * sum_{1 <= k <= n/s} p(n - s*k)``.

    ``values`` are the counts of 0..n_max over the increasing part list.
    """
    if not 0 <= n < len(values):
        raise ValueError(f"n={n} outside table range 0..{len(values) - 1}")
    total = 0
    for s in parts:
        if s > n:
            break
        inner = 0
        for j in range(n - s, -1, -s):
            inner += values[j]
        total += s * inner
    return total


@dataclass(frozen=True)
class ConvolutionReport:
    """One check of splitting partitions into head (R+) and tail (A+) parts."""

    n: int
    lhs: int
    rhs: int

    @property
    def holds(self) -> bool:
        return self.lhs == self.rhs


def convolution_check_range(spec: ResidueSpec, n_max: int) -> list[ConvolutionReport]:
    """Verify p_A(n) = sum_{n'} p_{R+}(n') * p_{A+}(n - n') for 0 <= n <= n_max.

    Every partition from the full set splits uniquely into its parts below
    m (members of R+) and its parts at least m (members of A+).  The three
    count tables are built once and shared by every level.
    """
    if n_max < 0:
        raise ValueError(f"n_max must be >= 0, got {n_max}")
    full = count_dp(parts_up_to(spec, FULL_A, n_max), n_max)
    head = count_dp(parts_up_to(spec, R_PLUS, n_max), n_max)
    tail = count_dp(parts_up_to(spec, A_PLUS, n_max), n_max)
    out = []
    for n in range(n_max + 1):
        rhs = sum(head[k] * tail[n - k] for k in range(n + 1))
        out.append(ConvolutionReport(n=n, lhs=full[n], rhs=rhs))
    return out


def lhs_series_truncated(spec: ResidueSpec, t: float, cutoff: int) -> float:
    """Partial sum of ``a * t**a`` over tail-set members a <= cutoff.

    Terms are accumulated in increasing a; powers advance by repeated
    multiplication with t**m within each residue class.
    """
    if not 0.0 < t < 1.0:
        raise ValueError(f"t must lie in (0, 1), got {t}")
    if cutoff < 1:
        raise ValueError(f"cutoff must be >= 1, got {cutoff}")
    m = spec.m
    residues = spec.residues
    if not residues:
        return 0.0
    tm = t**m
    powers = [t ** (m + r) for r in residues]
    total = 0.0
    k = 1
    while m * k + residues[0] <= cutoff:
        base = m * k
        for i, r in enumerate(residues):
            a = base + r
            if a > cutoff:
                break
            total += a * powers[i]
            powers[i] *= tm
        k += 1
    return total


def series_sum_reference(spec: ResidueSpec, t: float) -> tuple[float, bool]:
    """The doubling tail rule, re-summing from scratch at every cutoff.

    Doubles the cutoff from TAIL_RULE_START until the last doubling
    changes the partial sum by less than TAIL_RULE_REL relatively (or the
    sum is 0.0); gives up (converged=False) past TAIL_RULE_CAP.
    """
    if not 0.0 < t < 1.0:
        raise ValueError(f"t must lie in (0, 1), got {t}")
    if not spec.residues:
        return 0.0, True
    cutoff = TAIL_RULE_START
    value = lhs_series_truncated(spec, t, cutoff)
    while cutoff <= TAIL_RULE_CAP // 2:
        cutoff *= 2
        extended = lhs_series_truncated(spec, t, cutoff)
        if extended == 0.0 or (extended - value) <= TAIL_RULE_REL * extended:
            return extended, True
        value = extended
    return value, False
