"""Sweep drivers: every checker, over grids of residue families.

A verify run walks all residue subsets R of {0..m-1} for each modulus
m <= m_max (the empty subset rides along vacuously) in one task per
modulus.  A task builds each (spec, variant) table from the modulus's
TableFactory the first time a check reads it, and never twice; with the
counts check selected it first certifies all three tables of every spec
with ``counting.certify``, so the bound checks read the very objects it
certified, and take the spec and the n range from the table itself.
Every check returns the row dicts that are emitted, so each row is built
once, and ``summarize`` folds one check's rows, any iterable of them,
into the summary dict the report's head holds; the acceptance suite
folds its own larger grids through it too.  ``table_rows`` takes the
bound and slack columns from theorem1's rows, and ``sweep_rows`` yields
them for one modulus's TableFactory at a time.  Every command runs its
work in this process, in order, so output is deterministic.
``run_verify`` maps one task per modulus, for every selection, through
``_per_modulus``, whose process pool only an explicit
``SweepConfig.workers`` above 1 reaches.
"""

from __future__ import annotations

import functools
import math
from dataclasses import dataclass, field
from typing import Iterable, Iterator

from . import bounds, series
from .counting import CountTable, TableFactory, certify
from .partset import A_PLUS, FULL_A, R_PLUS, ResidueSpec

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
    """What to verify, over which grid, with how many worker processes."""

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


def _rows_for_modulus(args: tuple) -> dict[str, list[dict]]:
    """All spec-dependent check rows for one modulus (worker entry point).

    Each check asks for its table where it reads it, through one cached
    lookup per spec, so a (spec, variant) table is built when first read
    and never twice; the counts rows ask for all three first, and so
    certify the very objects that theorem1, chain, rpoly, ratio and (for
    m = 1) erdos read.
    """
    m, n_max, checks, oracle_cache = args
    by_check: dict[str, list[dict]] = {name: [] for name in checks}
    factory = TableFactory(n_max)
    x_grid = series.default_x_grid()
    t_grid = series.default_t_grid()

    if "eq2" in by_check:
        for r in range(m):
            for x in x_grid:
                by_check["eq2"].append(series.check_eq2_pointwise(r, m, x))

    for spec in subsets_for_modulus(m):
        table = functools.cache(functools.partial(factory.table, spec))
        if "counts" in by_check:
            for label in SWEEP_VARIANTS:
                by_check["counts"].append(_counts_row(table(label), oracle_cache))
        if "theorem1" in by_check:
            by_check["theorem1"].extend(bounds.check_theorem1(table(A_PLUS)))
        # p(n) is the tail table of m=1, R={0}: the pentagonal table theorem1 reads
        if "erdos" in by_check and m == 1 and spec.residues == (0,):
            by_check["erdos"] = bounds.check_erdos(table(A_PLUS))
        if "chain" in by_check:
            by_check["chain"].extend(bounds.check_nathanson_chain(table(FULL_A)))
        if "ratio" in by_check:
            by_check["ratio"].extend(_ratio_rows(table(FULL_A)))
        if "rpoly" in by_check:
            by_check["rpoly"].extend(bounds.check_rplus_poly_bound(table(R_PLUS)))
        if "eq1" in by_check:
            for t in t_grid:
                by_check["eq1"].append(series.check_eq1(spec, t))
        if "eq3" in by_check:
            for x in x_grid:
                by_check["eq3"].append(series.check_eq3(spec, x))
    return by_check


def _helper_rows(m_max: int, n_sqrt_max: int) -> list[dict]:
    """Grid rows for the sinh gap, the envelope facts, and the sqrt split."""
    rows = []
    x_grid = series.default_x_grid()
    for x in x_grid:
        rows.append(series.check_sinh_inequality(x))
    envelope_grid = [0.0] + x_grid
    for m in range(1, m_max + 1):
        for r in range(m):
            rows.extend(series.check_derivative_nonpositive(r, m, envelope_grid))
    rows.extend(series.check_sqrt_split(n) for n in range(1, n_sqrt_max + 1))
    return rows


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


def _per_modulus(fn, tasks: list, workers: int):
    """Yield fn(task) for every task, in order.

    One worker, or one task, runs them here with the builtin map, as every
    command does.  Otherwise a process pool of at most one worker per task
    maps them; the one caller that asks for that is the benchmark's
    ``partbench/layertrace.pool_speedup``, which times ``run_verify`` at
    ``workers=2``.  The pool's module loads multiprocessing, so it is
    imported only then, and a serial run never pays for it.
    """
    workers = min(workers, len(tasks))
    if workers <= 1:
        yield from map(fn, tasks)
        return
    from concurrent.futures import ProcessPoolExecutor

    with ProcessPoolExecutor(max_workers=workers) as pool:
        yield from pool.map(fn, tasks)


def run_verify(config: SweepConfig) -> VerifyResult:
    """Run every selected check over the configured grid."""
    by_check: dict[str, list[dict]] = {name: [] for name in config.checks}

    # One task per modulus for every selection, each building only the tables
    # its checks read.  One recurrence-and-walk cache for the run, keyed by part
    # list: lists such as {1, 2, ...} recur for every m.  The builtin map shares
    # it across moduli; a pool pickles a copy into each task, which may re-walk.
    oracle_cache: dict = {}
    tasks = [
        (m, config.n_max, config.checks, oracle_cache) for m in range(1, config.m_max + 1)
    ]
    for partial in _per_modulus(_rows_for_modulus, tasks, config.workers):
        for name, rows in partial.items():
            by_check[name].extend(rows)

    if "helpers" in by_check:
        by_check["helpers"] = _helper_rows(
            config.m_max, min(config.n_max, SQRT_SWEEP_N_MAX)
        )
    if "remark" in by_check:
        by_check["remark"] = series.find_counterexample_odd_remark(series.default_x_grid())

    result = VerifyResult()
    for name in config.checks:
        rows = by_check[name]
        result.summaries.append(summarize(name, rows))
        result.rows.extend(rows)
    return result


# --- per-spec tables for the table/sweep commands ------------------------------


def table_rows(spec: ResidueSpec, factory: TableFactory) -> list[dict]:
    """Per-n rows over the factory's n range: three counts, theorem1's bound and slack, the ratio."""
    full = factory.table(spec, FULL_A).values
    head = factory.table(spec, R_PLUS).values
    rows = []
    for n, tail in enumerate(bounds.check_theorem1(factory.table(spec, A_PLUS))):
        bound = tail["bound"]
        full_count = full[n]
        # log_count / bound, as in _ratio_rows; bound > 0 exactly when n >= 1 and R is nonempty
        ratio = math.log(full_count) / bound if bound > 0 and full_count >= 1 else None
        rows.append(
            {
                "n": n,
                "p_a": str(full_count),
                "p_a_plus": tail["count"],
                "p_r_plus": str(head[n]),
                "bound": bound,
                "slack": tail["slack"],
                "ratio": ratio,
            }
        )
    return rows


def sweep_rows(m_max: int, n_max: int) -> Iterator[dict]:
    """table_rows, with m and R, for every nonempty subset of every modulus up to m_max.

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
                for row in table_rows(spec, factory):
                    yield {"m": m, "R": spec.residues, **row}

    return rows()
