"""Sweep drivers: every checker, over grids of residue families.

``check_rows`` holds each check as one entry, a call that yields its rows
over the whole grid: every residue subset R of {0..m-1} for each modulus
m <= m_max (the empty subset rides along vacuously).  ``run_verify`` runs
the selected entries one at a time, in CHECK_NAMES order.  All entries
read one run-wide TableFactory, whose one cache builds a (spec, variant)
table when a check first reads it, and never twice, so the bound checks
read the very values the counts check certified.
Every check returns the row dicts that are emitted, so each row is built
once, and ``summarize`` folds one check's rows, any iterable of them,
into the summary dict the report's head holds; the acceptance suite folds
entries over its larger grids the same way.  ``table_rows`` gives
theorem1's own rows the count and ratio columns, and ``sweep_rows`` yields
them for one modulus's TableFactory at a time.  Every command runs its
work in this process, in order, so output is deterministic.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field
from typing import Callable, Iterable, Iterator

from . import bounds, series
from .counting import CountTable, TableFactory, certify
from .partset import A_PLUS, FULL_A, P_SPEC, R_PLUS, ResidueSpec

CHECK_NAMES = (
    "counts",
    "theorem1",
    "erdos",
    "chain",
    "rpoly",
    "eq1",
    "eq2",
    "eq3",
    "helpers",
    "remark",
    "ratio",
)

SWEEP_VARIANTS = (FULL_A, A_PLUS, R_PLUS)

SQRT_SWEEP_N_MAX = 200


@dataclass(frozen=True)
class SweepConfig:
    """What to verify, over which grid.

    No code reads ``workers``: every run is one process.  The field stays
    only because ``partbench/layertrace.pool_speedup`` copies a config with
    ``workers=2``; it goes when that call does (ROADMAP item 12).
    """

    m_max: int = 4
    n_max: int = 300
    checks: tuple[str, ...] = CHECK_NAMES
    workers: int = 1

    def __post_init__(self) -> None:
        """Refuse a config no run can take, and put the checks in CHECK_NAMES order."""
        if not self.checks:
            raise ValueError(f"no checks selected; choose from {CHECK_NAMES}")
        if self.m_max < 1:
            raise ValueError(f"m_max must be >= 1, got {self.m_max}")
        if self.n_max < 0:
            raise ValueError(f"n_max must be >= 0, got {self.n_max}")
        for c in self.checks:
            if c not in CHECK_NAMES:
                raise ValueError(f"unknown check {c!r}; choose from {CHECK_NAMES}")
        if self.workers < 1:
            raise ValueError(f"workers must be >= 1, got {self.workers}")
        object.__setattr__(self, "checks", tuple(c for c in CHECK_NAMES if c in self.checks))


@dataclass
class VerifyResult:
    summaries: list[dict] = field(default_factory=list)  # summarize's dicts
    rows: list[dict] = field(default_factory=list)

    @property
    def ok(self) -> bool:
        return all(s["holds"] for s in self.summaries)


def subsets_for_modulus(m: int, include_empty: bool = True) -> list[ResidueSpec]:
    """All residue subsets of {0..m-1} as specs, in bitmask order."""
    start = 0 if include_empty else 1
    out = []
    for bits in range(start, 1 << m):
        residues = tuple(r for r in range(m) if bits >> r & 1)
        out.append(ResidueSpec(m=m, residues=residues))
    return out


def ratio_checkpoints(n_max: int) -> list[int]:
    """Sparse n values for the convergence diagnostic."""
    marks = {n for n in (1, 10, 100, 1000, 10000) if n <= n_max}
    if n_max >= 1:
        marks.add(n_max)
    return sorted(marks)


# --- per-spec row builders ----------------------------------------------------


def _ratio_rows(table: CountTable) -> list[dict]:
    """log p_A(n) / (c*sqrt(n)) at the checkpoints of a full-a table; no verdict.

    The ratio drifts toward 1 from below as n grows; no convergence rate is
    asserted because none is quantified for it.  Unreachable n are skipped.
    """
    table.require(FULL_A)
    spec = table.spec
    c = bounds.tail_constant(spec)
    rows = []
    for n in ratio_checkpoints(table.n_max):
        cnt = table.values[n]
        if cnt < 1:
            continue
        log_count = math.log(cnt)
        bound = c * math.sqrt(n)
        rows.append(
            {
                "check": "ratio",
                "m": spec.m,
                "R": spec.residues,
                "variant": FULL_A,
                "n": n,
                "count": str(cnt),
                "log_count": log_count,
                "bound": bound,
                "ratio": log_count / bound,
                "holds": True,
            }
        )
    return rows


def _counts_row(table: CountTable, oracle_cache: dict) -> dict:
    """The counts row of one table the checks read: does ``certify`` pass it?"""
    n_max = table.n_max
    return {
        "check": "counts",
        "m": table.spec.m,
        "R": table.spec.residues,
        "variant": table.variant,
        "n": n_max,
        "count": str(table.values[n_max]),
        "holds": certify(table, oracle_cache),
    }


def check_rows(config: SweepConfig) -> dict[str, Callable[[], Iterable[dict]]]:
    """One entry per CHECK_NAMES name: a call that yields the check's rows in report order.

    The counts rows read all three tables of every spec, and so certify
    the very values that theorem1, erdos, chain, rpoly and ratio read.
    """
    table = TableFactory(config.n_max).table
    moduli = range(1, config.m_max + 1)
    specs = [spec for m in moduli for spec in subsets_for_modulus(m)]
    # the grid's own spec of p(n), so erdos's rows carry the grid's R tuple
    p_spec = specs[specs.index(P_SPEC)]
    x_grid = series.default_x_grid()
    t_grid = series.default_t_grid()
    # One recurrence-and-walk cache for the run, keyed by part list: lists
    # such as {1, 2, ...} recur for every m.
    oracle_cache: dict = {}

    def per_spec(check, variant):
        return lambda: (row for spec in specs for row in check(table(spec, variant)))

    def helpers() -> Iterator[dict]:
        """The sinh gap, the envelope facts, and the sqrt split."""
        yield from map(series.check_sinh_inequality, x_grid)
        envelope_grid = [0.0] + x_grid
        for m in moduli:
            for r in range(m):
                yield from series.check_derivative_nonpositive(r, m, envelope_grid)
        yield from map(series.check_sqrt_split, range(1, min(config.n_max, SQRT_SWEEP_N_MAX) + 1))

    return {
        "counts": lambda: (
            _counts_row(table(spec, label), oracle_cache)
            for spec in specs
            for label in SWEEP_VARIANTS
        ),
        "theorem1": per_spec(bounds.check_theorem1, A_PLUS),
        "erdos": lambda: bounds.check_erdos(table(p_spec, A_PLUS)),
        "chain": per_spec(bounds.check_nathanson_chain, FULL_A),
        "rpoly": per_spec(bounds.check_rplus_poly_bound, R_PLUS),
        "eq1": lambda: (series.check_eq1(spec, t) for spec in specs for t in t_grid),
        "eq2": lambda: (
            series.check_eq2_pointwise(r, m, x) for m in moduli for r in range(m) for x in x_grid
        ),
        "eq3": lambda: (series.check_eq3(spec, x) for spec in specs for x in x_grid),
        "helpers": helpers,
        "remark": lambda: series.find_counterexample_odd_remark(x_grid),
        "ratio": per_spec(_ratio_rows, FULL_A),
    }


def summarize(name: str, rows: Iterable[dict]) -> dict:
    """Fold one check's rows, in one pass, into ``{name, rows, failures, worst_margin, holds}``.

    A check holds when it produced rows and none of them failed.
    A selected check with no rows checked nothing, so it does not hold.
    A row's margin is its margin, else its slack; the worst is the smallest
    (the largest for remark, whose rows are witnesses of a violation), and
    the first of equal values wins, as with min and max.  ``rows`` is read
    once, so a generator folds without its rows being kept.
    """
    largest = name == "remark"
    worst = None
    count = failures = 0
    for row in rows:
        count += 1
        if row.get("holds") is False:
            failures += 1
        margin = row.get("margin")
        if margin is None:
            margin = row.get("slack")
            if margin is None:
                continue
        if worst is None or (margin > worst if largest else margin < worst):
            worst = margin
    return {
        "name": name,
        "rows": count,
        "failures": failures,
        "worst_margin": worst,
        "holds": count > 0 and failures == 0,
    }


def run_verify(config: SweepConfig) -> VerifyResult:
    """Run every selected check over the configured grid, one check at a time."""
    entries = check_rows(config)
    result = VerifyResult()
    for name in config.checks:
        rows = list(entries[name]())
        result.summaries.append(summarize(name, rows))
        result.rows.extend(rows)
    return result


# --- per-spec tables for the table/sweep commands ------------------------------


def table_rows(spec: ResidueSpec, factory: TableFactory) -> list[dict]:
    """The list check_theorem1 returns for the spec's a-plus table, each row given columns in place.

    A row gains p_a, p_a_plus (its own count), p_r_plus and the ratio.  Its
    keys variant, count, log_count and holds are in neither TABLE_FIELDS
    nor SWEEP_FIELDS, so the writers print nothing of them.
    """
    full = factory.table(spec, FULL_A).values
    head = factory.table(spec, R_PLUS).values
    rows = bounds.check_theorem1(factory.table(spec, A_PLUS))
    for row, full_count, head_count in zip(rows, full, head):
        bound = row["bound"]
        row["p_a"] = str(full_count)
        row["p_a_plus"] = row["count"]
        row["p_r_plus"] = str(head_count)
        # log_count / bound, as in _ratio_rows; bound > 0 exactly when n >= 1 and R is nonempty
        row["ratio"] = math.log(full_count) / bound if bound > 0 and full_count >= 1 else None
    return rows


def sweep_rows(m_max: int, n_max: int) -> Iterator[dict]:
    """table_rows for every nonempty subset of every modulus up to m_max; each row has m and R.

    Bad m_max or n_max is refused here, at the call, before a writer sees
    the rows.  The rows then come lazily, from one TableFactory per
    modulus built in turn, so a sweep holds one modulus's tables at a time.
    """
    if m_max < 1:
        raise ValueError(f"m_max must be >= 1, got {m_max}")
    if n_max < 0:
        raise ValueError(f"n_max must be >= 0, got {n_max}")

    def rows() -> Iterator[dict]:
        for m in range(1, m_max + 1):
            factory = TableFactory(n_max)
            for spec in subsets_for_modulus(m, include_empty=False):
                yield from table_rows(spec, factory)

    return rows()
