"""Test-side oracle: enumerate partitions explicitly, independent of the library.

Used to freeze expected values and to audit the counting engines.
Deliberately lists partitions as tuples instead of counting, so it shares
no structure with any library engine.
"""

from __future__ import annotations

from typing import Iterable, Iterator


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

