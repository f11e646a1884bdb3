"""Exact partition counts: one table builder and two independent engines.

All counts are exact Python integers (arbitrary precision, never floats).
Each route returns the whole ``CountTable`` of 0..n.

``TableFactory`` builds every table the commands read, for many residue
subsets at one n_max, with one coin-change kernel, ``_add_part``: the
ascending loop ``values[j] += values[j - a]`` for each part a.  Each
subset's tail table is the table of the subset without its highest
residue, extended by that residue's slice of parts, with every table
cached per factory.  The one exception is the subset of every residue,
whose tail is all parts >= m: its table starts from p(n) by Euler's
pentagonal recurrence and takes the parts 1..m-1 back out, because adding
its n - m + 1 parts one pass at a time costs O(n**2) big-integer
additions.  Full-set tables extend the tail table, and head tables the
empty table, by the small parts of R+ with the same kernel.

Two engines that share no code with the factory, or with each other,
certify its tables:

* ``count_recurrence`` - bottom-up evaluation of the double-counting
  identity ``n * p(n) = sum_{s <= n} s * sum_{k >= 1} p(n - s*k)``, grouped
  by d = s*k, with a hard divisibility assertion at every level;
* ``count_bruteforce`` - one exhaustive walk over nonincreasing summand
  sequences that tallies every partition of 0..n at its total (the runs of
  the smallest part in one strided loop), usable up to a configured ceiling.

``partlab count`` compares the factory's table with the recurrence's, and
``partlab verify``'s counts check compares the very tables the bound
checks read with the recurrence and the brute-force walk.
"""

from __future__ import annotations

import operator
from dataclasses import dataclass
from typing import Iterable

from .partset import (
    A_PLUS,
    FULL_A,
    R_PLUS,
    ResidueSpec,
    parts_up_to,
)

# Partition counts are plain ints; the alias marks contract boundaries.
BigCount = int

ORACLE_CEILING_DEFAULT = 60


class IntegrityError(RuntimeError):
    """An exact identity that is a theorem failed; indicates an engine bug."""


@dataclass(frozen=True)
class CountTable:
    """Counts of partitions of 0..n from a fixed part list; immutable."""

    parts: tuple[int, ...]
    values: tuple[BigCount, ...]

    @property
    def n_max(self) -> int:
        return len(self.values) - 1


def _validated_parts(parts: Iterable[int]) -> tuple[int, ...]:
    ps = tuple(parts)
    prev = 0
    for p in ps:
        if not isinstance(p, int) or isinstance(p, bool) or p < 1:
            raise ValueError(f"parts must be positive integers, got {p!r}")
        if p <= prev:
            raise ValueError("parts must be strictly increasing")
        prev = p
    return ps


def _divisor_sums(parts: tuple[int, ...], n: int) -> list[int]:
    """sigma[d] = sum of the parts that divide d, for 0 <= d <= n (sigma[0] = 0)."""
    sigma = [0] * (n + 1)
    for s in parts:
        if s > n:
            break
        for d in range(s, n + 1, s):
            sigma[d] += s
    return sigma


def count_recurrence(parts: Iterable[int], n: int) -> CountTable:
    """Exact counts built bottom-up from the double-counting identity.

    Grouping ``sum_{s <= j} s * sum_{k >= 1} p(j - s*k)`` by the product
    d = s*k gives ``j * p(j) = sum_{1 <= d <= j} sigma(d) * p(j - d)``, with
    sigma(d) the sum of the parts dividing d.  That sum must be divisible
    by j at each level; the divisibility is a theorem, so failure raises
    IntegrityError rather than returning a wrong table.

    Memory is O(n): the table, sigma, and one reversed slice of the table.
    Time is O(n**2) big-integer products.
    """
    ps = _validated_parts(parts)
    if n < 0:
        raise ValueError(f"n must be >= 0, got {n}")
    sigma = _divisor_sums(ps, n)
    values = [0] * (n + 1)
    values[0] = 1
    for j in range(1, n + 1):
        acc = sum(map(operator.mul, sigma[1 : j + 1], values[j - 1 :: -1]))
        if acc % j:
            raise IntegrityError(
                f"level {j}: weighted tail sum {acc} not divisible by {j}"
            )
        values[j] = acc // j
    return CountTable(parts=ps, values=tuple(values))


def count_bruteforce(
    parts: Iterable[int], n: int, *, ceiling: int = ORACLE_CEILING_DEFAULT
) -> CountTable:
    """Exact counts of 0..n from one exhaustive walk over nonincreasing summands.

    Independent oracle: no memoization, no shared state with the other
    engines.  The walk adds summands no larger than the last, recursing
    only over the parts above the smallest.  Each partition it reaches is
    tallied at its total, and so is each extension of it by 1, 2, ...
    copies of the smallest part, in one strided loop.  So every partition
    of every total up to n is tallied once.  Rejects n above the ceiling
    because the walk visits every partition.
    """
    ps = _validated_parts(parts)
    if n < 0:
        raise ValueError(f"n must be >= 0, got {n}")
    if n > ceiling:
        raise ValueError(f"n={n} exceeds brute-force ceiling {ceiling}")
    usable = [p for p in ps if p <= n]
    # with no usable part the stride n + 1 tallies only the empty partition
    smallest = usable[0] if usable else n + 1
    tally = [0] * (n + 1)

    def walk(total: int, top: int) -> None:
        for reached in range(total, n + 1, smallest):
            tally[reached] += 1
        for i in range(1, top + 1):
            reached = total + usable[i]
            if reached > n:
                break
            walk(reached, i)

    walk(0, len(usable) - 1)
    return CountTable(parts=ps, values=tuple(tally))


# --- sweep-scale table factory -----------------------------------------------


def _partition_numbers(n: int) -> list[int]:
    """p(0..n) over every positive part, by Euler's pentagonal recurrence.

    ``p(j) = sum_{k >= 1} (-1)**(k+1) * (p(j - k(3k-1)/2) + p(j - k(3k+1)/2))``:
    about 2*sqrt(2j/3) terms per level, so O(n**1.5) additions in all
    instead of the O(n**2) of adding the parts 1..n one pass at a time.
    """
    # generalized pentagonal numbers 1, 2, 5, 7, 12, 15, ... in increasing
    # order, split by the sign they carry: + + - - + + - - ...
    plus: list[int] = []
    minus: list[int] = []
    k = 1
    while (g := k * (3 * k - 1) // 2) <= n:
        (plus if k % 2 else minus).extend((g, g + k))
        k += 1
    values = [1] + [0] * n
    for j in range(1, n + 1):
        total = 0
        for g in plus:
            if g > j:
                break
            total += values[j - g]
        for g in minus:
            if g > j:
                break
            total -= values[j - g]
        values[j] = total
    return values


def _add_part(values: list[int], a: int) -> None:
    """Extend a count table in place by the part a (a >= 1).

    The ascending loop multiplies the generating function by 1/(1 - q**a):
    each total reads the already updated total a below it, so the part may
    occur any number of times.
    """
    for j in range(a, len(values)):
        values[j] += values[j - a]


def _remove_part(values: list[int], a: int) -> None:
    """Take the part a (a >= 1) back out of a count table, in place.

    Multiplies the generating function by (1 - q**a) in one pass; both
    right-hand slices are copies, so every total reads the old table.
    """
    values[a:] = map(operator.sub, values[a:], values[: len(values) - a])


class TableFactory:
    """Exact count tables for many residue subsets at one fixed n_max.

    The tail set of (m, R) is the disjoint union of its single-residue
    slices {r+m, r+2m, ...}, so the tail table for R is the table for R
    without its highest residue r, extended by the parts of r's slice.
    The table for every residue is built from the other end instead: p(n)
    from Euler's pentagonal recurrence with the parts 1..m-1 taken out,
    m - 1 passes where adding the n - m + 1 tail parts one at a time would
    take O(n) passes (checked: below m only the empty partition remains).
    Every tail table built on the way is cached per (m, R), so a sweep over
    many subsets of one modulus extends each table by one slice only.
    Full-set tables extend the tail table with the small parts of R+, and
    head tables extend the empty table with them.
    """

    def __init__(self, n_max: int) -> None:
        if n_max < 0:
            raise ValueError(f"n_max must be >= 0, got {n_max}")
        self.n_max = n_max
        # (m, residue bitmask) -> tail-set counts of 0..n_max; never mutated
        self._tails: dict[tuple[int, int], list[int]] = {}

    def _tail_values(self, m: int, bits: int) -> list[int]:
        """Cached tail-set counts for the residue subset encoded by bits."""
        key = (m, bits)
        values = self._tails.get(key)
        if values is None:
            if bits == 0:
                values = [1] + [0] * self.n_max  # only the empty partition
            elif bits == (1 << m) - 1:
                values = self._every_residue(m)
            else:
                r = bits.bit_length() - 1
                values = list(self._tail_values(m, bits ^ (1 << r)))
                for a in range(m + r, self.n_max + 1, m):
                    _add_part(values, a)
            self._tails[key] = values
        return values

    def _every_residue(self, m: int) -> list[int]:
        """Counts over the parts >= m: p(n) with the parts 1..m-1 removed."""
        values = _partition_numbers(self.n_max)
        for a in range(1, m):
            _remove_part(values, a)
        # parts >= m cannot sum to 1..m-1; only the empty partition sums to 0
        if values[:m] != [1] + [0] * min(m - 1, self.n_max):
            raise IntegrityError(
                f"m={m}: tail counts below m are {values[:m]}, "
                "expected the empty partition only"
            )
        return values

    def _tail_of(self, spec: ResidueSpec) -> list[int]:
        """The cached tail-set counts of spec; callers copy before changing them."""
        return self._tail_values(spec.m, sum(1 << r for r in spec.residues))

    def aplus(self, spec: ResidueSpec) -> CountTable:
        """Counts over the tail set (all members >= m)."""
        parts = tuple(parts_up_to(spec, A_PLUS, self.n_max))
        return CountTable(parts=parts, values=tuple(self._tail_of(spec)))

    def full_a(self, spec: ResidueSpec) -> CountTable:
        """Counts over the full set: tail table extended by the R+ parts."""
        values = list(self._tail_of(spec))
        for r in spec.residues:
            if r >= 1:
                _add_part(values, r)
        parts = tuple(parts_up_to(spec, FULL_A, self.n_max))
        return CountTable(parts=parts, values=tuple(values))

    def rplus(self, spec: ResidueSpec) -> CountTable:
        """Counts over the head set R+ (at most m-1 small parts)."""
        parts = tuple(parts_up_to(spec, R_PLUS, self.n_max))
        values = [1] + [0] * self.n_max
        for a in parts:
            _add_part(values, a)
        return CountTable(parts=parts, values=tuple(values))
