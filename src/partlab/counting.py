"""Exact partition counts: one table builder, one engine, one certificate.

All counts are exact Python integers (arbitrary precision, never floats).
A ``CountTable`` is the counts of 0..n_max over one variant set of one
residue spec (the full set A, the tail set A+ or the head set R+), and it
carries that spec and variant, so a table always says what it counts.

``TableFactory.table(spec, variant)`` builds every table the commands
read, for many residue subsets at one n_max, with one coin-change kernel,
``_add_part``: the ascending loop ``values[j] += values[j - a]`` for each
part a.  One cache per factory holds every table's counts, one tuple per
part set: a read is keyed by the set it counts, so sets equal by
definition are built once.  A head table is keyed by R+ alone, as are
the tables of R = {}, whose sets are all empty; the full set of every
residue is all of N, p(n)'s key; and the full set of R = {0}, which has
no head parts, is keyed as its tail set.  Each table is built from the
cached table it extends: a subset's tail table from the tail table of
the subset without its highest residue, by that residue's slice of
parts; its full-set table from its tail table, by the parts of R+; and
a head table from the empty partition, by the same parts.  The one
exception is the tail set of every residue: p(n), built once per factory
by Euler's pentagonal recurrence, with the parts 1..m-1 taken out, as
adding the n - m + 1 tail parts one pass at a time costs O(n**2)
big-integer additions.

Two checks share no code with the factory, or with each other:

* ``recurrence_holds`` - the double-counting identity
  ``n * p(n) = sum_{s <= n} s * sum_{k >= 1} p(n - s*k)`` at every level
  of a table at once, by one packed product; with p(0) = 1 the levels fix
  the table by induction, so the identity certifies it, unrecomputed;
* ``count_bruteforce`` - the one engine: an exhaustive walk over
  nonincreasing summand sequences of the parts above the smallest that
  tallies each at its total (a leaf in its parent's loop, with no call of
  its own), then one ascending pass that adds the runs of the smallest
  part, refused above ``ORACLE_CEILING``.

``certify`` runs both over the parts of the variant a table claims, so a
table is certified against the definition of what it says it counts.
Through the cache a run shares, the walk runs once per (part list, cap)
and the identity once per distinct (part list, count list).
``partlab count`` and ``partlab verify``'s counts check both call it.
"""

from __future__ import annotations

import operator
from dataclasses import dataclass
from typing import Iterable, Sequence

from .partset import (
    A_PLUS,
    FULL_A,
    P_SPEC,
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
    partition it reaches once, at its total: a leaf, on top of which not
    even the smallest walked part fits, in its parent's loop, and any other
    in the call that walks on from it.  One ascending pass after the
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
    # a partition that reaches a total above this is a leaf: not even the
    # smallest walked part, usable[1], fits on top of it
    leaf_above = n - usable[1] if len(usable) > 1 else n

    def walk(total: int, top: int) -> None:
        tally[total] += 1
        for i in range(1, top + 1):
            reached = total + usable[i]
            if reached > n:
                break
            if reached > leaf_above:
                tally[reached] += 1
            else:
                walk(reached, i)

    walk(0, len(usable) - 1)
    if usable:
        smallest = usable[0]
        for j in range(smallest, n + 1):
            tally[j] += tally[j - smallest]
    return tuple(tally)


def certify(table: CountTable, cache: dict) -> bool:
    """Whether the table holds the counts of the variant set it claims.

    Over ``table.parts`` it must equal the brute-force walk at every n up
    to ORACLE_N_CAP and obey the identity at every level
    (``recurrence_holds``).  The cache, which callers share across the
    tables of a run, keeps the walk once per (part list, cap) and the
    identity's verdict once per distinct (part list, count list): the key
    holds the counts themselves, so any other count list, a wrong one
    included, is checked on its own.
    """
    parts = table.parts
    top = min(table.n_max, ORACLE_N_CAP)
    walked = cache.get((parts, top))
    if walked is None:
        walked = cache[parts, top] = count_bruteforce(parts, top)
    if table.values[: top + 1] != walked:
        return False
    key = (parts, table.values)
    holds = cache.get(key)
    if holds is None:
        holds = cache[key] = recurrence_holds(table.values, parts)
    return holds


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

    One dict caches every table's counts, one tuple per part set, and the
    builder reads each table it extends back through it, so each set is
    built once and every read of it shares its tuple; ``_values`` maps a
    read to its set's key.  The tail set of (m, R) is the disjoint union
    of its slices {r+m, r+2m, ...}, so its table is that of R without its
    highest residue r plus r's slice, down to the empty partition of R =
    {}.  For every residue the tail table is p(n) (by the pentagonal
    recurrence) without the parts 1..m-1 (checked: below m only the empty
    partition remains).
    """

    def __init__(self, n_max: int) -> None:
        if n_max < 0:
            raise ValueError(f"n_max must be >= 0, got {n_max}")
        self.n_max = n_max
        # the key of a part set, as _values makes it -> counts of 0..n_max
        self._cache: dict[tuple[int, tuple[int, ...], str], tuple[int, ...]] = {}

    def table(self, spec: ResidueSpec, variant: str) -> CountTable:
        """The counts of 0..n_max over the variant set of spec."""
        return CountTable(spec, variant, self._values(spec.m, spec.residues, variant))

    def _values(self, m: int, residues: tuple[int, ...], variant: str) -> tuple[int, ...]:
        """The cached counts of (m, R, variant), built on the first read; R strictly increasing.

        A read is keyed by the part set it counts: a head table, or any of
        R = {}, as (0, R+, R_PLUS); the full set of every residue as p(n),
        (1, (0,), A_PLUS); that of R = {0} as its tail set; else (m, R, variant).
        """
        if variant not in (FULL_A, A_PLUS, R_PLUS):
            raise SpecError(f"unknown variant {variant!r}")
        if variant == R_PLUS or not residues:
            # the head set is R+ alone, whatever m and whether 0 is in R;
            # for R = {} every variant set is empty, as R+ is
            m, residues, variant = 0, tuple(r for r in residues if r), R_PLUS
        elif variant == FULL_A and len(residues) == m:
            # every residue: the full set is every part
            m, residues, variant = P_SPEC.m, P_SPEC.residues, A_PLUS
        elif variant == FULL_A and residues == (0,):
            variant = A_PLUS  # no head parts: A = A+
        key = (m, residues, variant)
        values = self._cache.get(key)
        if values is None:
            values = self._cache[key] = self._build(m, residues, variant)
        return values

    def _build(self, m: int, residues: tuple[int, ...], variant: str) -> tuple[int, ...]:
        """The counts of a part set keyed by ``_values``, from the cached table they extend."""
        n_max = self.n_max
        if variant == R_PLUS:
            values = [1] + [0] * n_max  # the empty partition, then the parts of R+
            parts = residues
        elif variant == FULL_A:
            values = list(self._values(m, residues, A_PLUS))
            parts = [r for r in residues if r >= 1]
        elif len(residues) == m:
            if m == 1:
                values = _partition_numbers(n_max)
            else:
                values = list(self._values(P_SPEC.m, P_SPEC.residues, A_PLUS))
            for a in range(1, m):
                _remove_part(values, a)
            # parts >= m cannot sum to 1..m-1; only the empty partition sums to 0
            if values[:m] != [1] + [0] * min(m - 1, n_max):
                raise IntegrityError(
                    f"m={m}: tail counts below m are {values[:m]}, "
                    "expected the empty partition only"
                )
            return tuple(values)
        else:
            values = list(self._values(m, residues[:-1], A_PLUS))
            parts = range(m + residues[-1], n_max + 1, m)
        for a in parts:
            _add_part(values, a)
        return tuple(values)
