"""Exact partition counts: one table builder, one engine, one certificate.

All counts are exact Python integers (arbitrary precision, never floats).
A ``CountTable`` is the counts of 0..n_max over one variant set of one
residue spec (the full set A, the tail set A+ or the head set R+), and it
carries that spec and variant, so a table always says what it counts.

``TableFactory.table(spec, variant)`` builds every table the commands
read, for many residue subsets at one n_max, with one coin-change kernel,
``_add_part``: the ascending loop ``values[j] += values[j - a]`` for each
part a.  Each subset's tail table is the table of the subset without its
highest residue, extended by that residue's slice of parts, with every
tail table cached per factory.  The one exception is the subset of every
residue, whose full set is every part: its table is p(n), built once per
factory by Euler's pentagonal recurrence, and its tail table a copy with
the parts 1..m-1 taken out, as adding the n - m + 1 tail parts one pass at
a time costs O(n**2) big-integer additions.  Other full-set tables extend
the tail table, and head tables the empty table, by the small parts of R+.

Two checks share no code with the factory, or with each other:

* ``recurrence_holds`` - the double-counting identity
  ``n * p(n) = sum_{s <= n} s * sum_{k >= 1} p(n - s*k)`` at every level
  of a table at once, by one packed product; with p(0) = 1 the levels fix
  the table by induction, so the identity certifies it, unrecomputed;
* ``count_bruteforce`` - the one engine: an exhaustive walk over
  nonincreasing summand sequences of the parts above the smallest that
  tallies each at its total, then one ascending pass that adds the runs
  of the smallest part, refused above ``ORACLE_CEILING``.

``certify`` runs both over the parts of the variant a table claims, so a
table is certified against the definition of what it says it counts.
``partlab count`` and ``partlab verify``'s counts check both call it.
"""

from __future__ import annotations

import operator
from dataclasses import dataclass
from typing import Iterable, Sequence

from .partset import (
    A_PLUS,
    FULL_A,
    R_PLUS,
    ResidueSpec,
    SpecError,
    parts_up_to,
)

# The brute-force walk visits every partition, so it refuses any n above
# ORACLE_CEILING, and certify runs it only up to ORACLE_N_CAP: it must not
# scale with a table's n_max.
ORACLE_CEILING = 60
ORACLE_N_CAP = 40


class IntegrityError(RuntimeError):
    """An exact identity that is a theorem failed; indicates an engine bug."""


@dataclass(frozen=True)
class CountTable:
    """Counts of partitions of 0..n_max over one variant set of spec; immutable."""

    spec: ResidueSpec
    variant: str
    values: tuple[int, ...]

    @property
    def n_max(self) -> int:
        return len(self.values) - 1

    @property
    def parts(self) -> tuple[int, ...]:
        """The members <= n_max of the variant set that the table counts over."""
        return tuple(parts_up_to(self.spec, self.variant, self.n_max))

    def require(self, variant: str) -> None:
        """Raise IntegrityError unless the table counts over the variant set."""
        if self.variant != variant:
            raise IntegrityError(
                f"{self.spec}: a check of the {variant} counts "
                f"was handed the {self.variant} table"
            )


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
        for d in range(s, n + 1, s):
            sigma[d] += s
    return sigma


def recurrence_holds(values: Sequence[int], parts: Iterable[int]) -> bool:
    """Whether counts of 0..n obey the double-counting identity at every level.

    Grouping ``sum_{s <= j} s * sum_{k >= 1} p(j - s*k)`` by d = s*k gives
    ``j * p(j) = sum_{1 <= d <= j} sigma(d) * p(j - d)``, sigma(d) the sum
    of the parts dividing d.  Given p(0) = 1, level j fixes p(j) from the
    levels below, so by induction the identity holds only for the counts.

    One product checks every level (Kronecker substitution): sigma and the
    table go into integers of fixed-width little-endian slots, and the low
    n + 1 slots of their product are the right sides.  No term is negative
    and every side is below (n+1) * max(sigma, 1) * max(values), so slots
    that wide never carry and comparing the packed ``j * values[j]`` with
    the product's low n + 1 slots, byte for byte, is exact.  An empty
    table, values[0] != 1 or a negative entry gives False, never an
    exception.
    """
    ps = _validated_parts(parts)
    n = len(values) - 1
    if n < 0 or values[0] != 1 or min(values) < 0:
        return False
    sigma = _divisor_sums(ps, n)
    width = ((n + 1) * max(*sigma, 1) * max(values)).bit_length() // 8 + 1

    def pack(entries: Iterable[int]) -> bytes:
        return b"".join([v.to_bytes(width, "little") for v in entries])

    size = width * (n + 1)
    product = int.from_bytes(pack(sigma), "little") * int.from_bytes(pack(values), "little")
    # each factor is below 256**size, so the product fits in 2 * size bytes
    low = product.to_bytes(2 * size, "little")[:size]
    return low == pack(map(operator.mul, range(n + 1), values))


def count_bruteforce(parts: Iterable[int], n: int) -> tuple[int, ...]:
    """Exact counts of 0..n from one exhaustive walk over nonincreasing summands.

    Independent oracle: no memoization, no shared state with the factory
    or the identity.  The walk adds summands no larger than the last,
    recursing only over the parts above the smallest, and tallies each
    partition it reaches once, at its total.  One ascending pass after the
    walk, ``tally[j] += tally[j - smallest]``, then adds the runs of 1, 2,
    ... copies of the smallest part to every partition.  So every partition
    of every total up to n is tallied once.  Rejects n above ORACLE_CEILING
    because the walk visits every partition.
    """
    ps = _validated_parts(parts)
    if n < 0:
        raise ValueError(f"n must be >= 0, got {n}")
    if n > ORACLE_CEILING:
        raise ValueError(f"n={n} exceeds brute-force ceiling {ORACLE_CEILING}")
    usable = [p for p in ps if p <= n]
    tally = [0] * (n + 1)

    def walk(total: int, top: int) -> None:
        tally[total] += 1
        for i in range(1, top + 1):
            reached = total + usable[i]
            if reached > n:
                break
            walk(reached, i)

    walk(0, len(usable) - 1)
    if usable:
        smallest = usable[0]
        for j in range(smallest, n + 1):
            tally[j] += tally[j - smallest]
    return tuple(tally)


def certify(table: CountTable, cache: dict) -> bool:
    """Whether the table holds the counts of the variant set it claims.

    Over ``table.parts`` it must obey the identity at every level
    (``recurrence_holds``) and equal the brute-force walk at every n up to
    ORACLE_N_CAP.  The walk runs once per (part list, cap) in the cache,
    which callers share across the tables of a run; the identity is
    checked for every table, also where its part list was seen before.
    """
    parts = table.parts
    top = min(table.n_max, ORACLE_N_CAP)
    walked = cache.get((parts, top))
    if walked is None:
        walked = cache[parts, top] = count_bruteforce(parts, top)
    return table.values[: top + 1] == walked and recurrence_holds(table.values, parts)


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
    For every residue, p(n) (the m = 1 tail, by the pentagonal recurrence
    once per factory) is the full-set table, and its copy with the parts
    1..m-1 taken out, m - 1 passes, the tail table (checked: below m only
    the empty partition remains).  Every tail table built on the way is
    cached per (m, R), so a sweep over many subsets of one modulus extends
    each table by one slice only.
    """

    def __init__(self, n_max: int) -> None:
        if n_max < 0:
            raise ValueError(f"n_max must be >= 0, got {n_max}")
        self.n_max = n_max
        # (m, residues) -> tail-set counts of 0..n_max; never mutated
        self._tails: dict[tuple[int, tuple[int, ...]], list[int]] = {}

    def _tail_values(self, m: int, residues: tuple[int, ...]) -> list[int]:
        """Cached tail-set counts for a spec's residues, strictly increasing."""
        key = (m, residues)
        values = self._tails.get(key)
        if values is None:
            if not residues:
                values = [1] + [0] * self.n_max  # only the empty partition
            elif len(residues) == m:
                values = self._every_residue(m)
            else:
                values = self._tail_values(m, residues[:-1]).copy()
                for a in range(m + residues[-1], self.n_max + 1, m):
                    _add_part(values, a)
            self._tails[key] = values
        return values

    def _every_residue(self, m: int) -> list[int]:
        """Counts over the parts >= m: p(n), the m = 1 table, with the parts 1..m-1 removed."""
        values = _partition_numbers(self.n_max) if m == 1 else self._tail_values(1, (0,)).copy()
        for a in range(1, m):
            _remove_part(values, a)
        # parts >= m cannot sum to 1..m-1; only the empty partition sums to 0
        if values[:m] != [1] + [0] * min(m - 1, self.n_max):
            raise IntegrityError(
                f"m={m}: tail counts below m are {values[:m]}, "
                "expected the empty partition only"
            )
        return values

    def table(self, spec: ResidueSpec, variant: str) -> CountTable:
        """The counts of 0..n_max over the variant set of spec.

        The tail set (a-plus) reads the cached tail table.  The full set
        (full-a) is p(n) for every residue, else a copy of the tail table
        extended by the parts of R+ = R minus {0}; the head set (r-plus)
        extends the empty table by them.
        """
        if variant == A_PLUS:
            return CountTable(spec, variant, tuple(self._tail_values(spec.m, spec.residues)))
        if variant == FULL_A:
            if len(spec.residues) == spec.m:  # every residue: the full set is every part
                return CountTable(spec, variant, tuple(self._tail_values(1, (0,))))
            values = self._tail_values(spec.m, spec.residues).copy()
        elif variant == R_PLUS:
            values = [1] + [0] * self.n_max
        else:
            raise SpecError(f"unknown variant {variant!r}")
        for r in spec.residues:
            if r >= 1:
                _add_part(values, r)
        return CountTable(spec, variant, tuple(values))
