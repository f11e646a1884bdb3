"""Correctness gate for one benchmark command: exit code, report digest,
verify status lines, and p(n) from an independent recurrence.

Every check returns a list of problems; an empty list means the run passed.
The gate shares no code with partlab, so a wrong count in partlab cannot
also be wrong here in the same way.
"""

from __future__ import annotations

import csv
import hashlib
import io
import json
import re

STATUS_LINE = re.compile(
    r"^check=(?P<name>\S+) rows=(?P<rows>\d+) failures=(?P<failures>\d+) .*status=(?P<status>\S+)$",
    re.MULTILINE,
)


def partition_numbers(n_max: int) -> list[int]:
    """p(0..n_max) by Euler's pentagonal-number recurrence.

    p(n) = sum_{k>=1} (-1)^(k+1) * (p(n - k(3k-1)/2) + p(n - k(3k+1)/2)).
    """
    p = [1] + [0] * n_max
    for n in range(1, n_max + 1):
        total = 0
        k = 1
        while True:
            g = k * (3 * k - 1) // 2
            if g > n:
                break
            term = p[n - g]
            if g + k <= n:  # k(3k+1)/2 = g + k
                term += p[n - g - k]
            total += term if k % 2 else -term
            k += 1
        p[n] = total
    return p


def check_exit(code: int, expected: int = 0) -> list[str]:
    return [] if code == expected else [f"exit code {code}, expected {expected}"]


def check_digest(data: bytes, expected: str) -> list[str]:
    got = hashlib.sha256(data).hexdigest()
    return [] if got == expected else [f"report sha256 {got}, expected {expected}"]


def check_verify_status(stderr: str, expected_rows: dict[str, int]) -> list[str]:
    """Each selected check reports status=ok, no failures and the seed's rows."""
    seen = {m["name"]: m for m in STATUS_LINE.finditer(stderr)}
    problems = []
    for name, rows in expected_rows.items():
        line = seen.get(name)
        if line is None:
            problems.append(f"no status line for check {name}")
            continue
        if line["status"] != "ok" or int(line["failures"]) != 0:
            problems.append(f"check {name}: status={line['status']} failures={line['failures']}")
        if int(line["rows"]) != rows:
            problems.append(f"check {name}: rows={line['rows']}, expected {rows}")
    extra = sorted(set(seen) - set(expected_rows))
    if extra:
        problems.append(f"unexpected checks {extra}")
    return problems


def check_count_output(stdout: bytes, n: int, p: list[int]) -> list[str]:
    """`partlab count` over all positive integers must print p(n)."""
    try:
        payload = json.loads(stdout)
        count, agree, got_n = int(payload["count"]), payload["engines_agree"], payload["n"]
    except (ValueError, KeyError, TypeError) as exc:
        return [f"unreadable count output: {exc}"]
    problems = []
    if got_n != n or count != p[n]:
        problems.append(f"count at n={got_n} differs from p({n})")
    if agree is not True:
        problems.append("engines_agree is not true")
    return problems


def check_table_p_a(stdout: bytes, n_max: int, p: list[int]) -> list[str]:
    """A table whose R is every residue has p_a(n) = p(n) for n = 0..n_max."""
    try:
        reader = csv.DictReader(io.StringIO(stdout.decode("utf-8")))
        column = [int(row["p_a"]) for row in reader]
    except (UnicodeDecodeError, ValueError, KeyError, csv.Error) as exc:
        return [f"unreadable table output: {exc}"]
    if len(column) != n_max + 1:
        return [f"table has {len(column)} rows, expected {n_max + 1}"]
    bad = [n for n, v in enumerate(column) if v != p[n]]
    return [f"p_a differs from p(n) at {len(bad)} n, first n={bad[0]}"] if bad else []
