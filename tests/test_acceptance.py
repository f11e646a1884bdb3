"""Acceptance suite: every criterion at its stated tolerance.

Each test prints one PASS/FAIL line (visible with ``pytest -s`` or ``-v``
plus ``-rA``); the asserts carry the same conditions, row counts included.
The criteria run the code ``partlab verify`` runs: criteria 1, 4, 7, 8 and
9 call ``run_verify`` on their own grids and read its rows and summaries.
Criteria 3 and 5 sweep every subset for m <= 8, n <= 2000 with the
theorem1, chain and rpoly checks, whose 510 x 2001 rows each are too many
to hold at once (``run_verify`` would keep about 3 M row dicts), so they
fold each check's ``check_rows`` entry, the one ``run_verify`` lists,
with ``summarize`` and drop the rows as they go.
Criteria 2, 6 and 10 hold the library's engines and tables to the literal
definitions in ``_oracle``.
"""

import math
import time

import pytest

from _oracle import convolution_check_range, count_dp, eq4_rhs_direct
from partlab.counting import TableFactory, recurrence_holds
from partlab.partset import A_PLUS, FULL_A, R_PLUS, make_residue_spec, parts_up_to
from partlab.sweeps import SweepConfig, check_rows, run_verify, subsets_for_modulus, summarize

SWEEP_M_MAX = 8
SWEEP_N_MAX = 2000
# every subset R of every modulus m <= 8; the 8 empty ones add vacuous rows
SWEEP_SPECS = 510
SWEEP_ROWS = SWEEP_SPECS * (SWEEP_N_MAX + 1)


def _report(num: int, ok: bool, detail: str) -> None:
    print(f"[criterion {num:2d}] {'PASS' if ok else 'FAIL'}  {detail}")


@pytest.fixture(scope="module")
def bound_sweep():
    """(summaries by check name, seconds) of one timed bound sweep.

    theorem1, chain and rpoly each fold their ``check_rows`` entry over
    every subset for m <= 8, n <= 2000 with ``summarize``, as ``partlab
    verify`` does, and the rows are dropped as they stream.  The entries
    share the run's one table lookup, so each table is built once, and one
    span times the whole sweep.
    """
    start = time.monotonic()
    config = SweepConfig(
        m_max=SWEEP_M_MAX, n_max=SWEEP_N_MAX, checks=("theorem1", "chain", "rpoly")
    )
    entries = check_rows(config)
    summaries = {name: summarize(name, entries[name]()) for name in config.checks}
    return summaries, time.monotonic() - start


def test_criterion_01_oracle_equivalence():
    """Three engines agree for every m <= 6, nonempty R, variant, n <= 40."""
    start = time.monotonic()
    rows = run_verify(SweepConfig(m_max=6, n_max=40, checks=("counts",))).rows
    elapsed = time.monotonic() - start
    nonempty = [r for r in rows if r["R"]]
    disagreements = [r for r in rows if not r["holds"]]
    ok = len(rows) == 378 and len(nonempty) == 360 and not disagreements and elapsed < 60
    _report(
        1,
        ok,
        f"{len(nonempty)} nonempty (spec, variant) combos of {len(rows)}, "
        f"{len(disagreements)} disagreements, {elapsed:.1f}s",
    )
    assert len(rows) == 378
    assert len(nonempty) == 360
    assert not disagreements
    assert elapsed < 60


def test_criterion_02_double_counting_integrity():
    """Every dp table obeys identity (4) at every level, n <= 500; one level off fails it."""
    checked = 0
    seen: set[tuple[int, ...]] = set()
    ok = True
    for m in range(1, 7):
        for spec in subsets_for_modulus(m, include_empty=False):
            for variant in (FULL_A, A_PLUS, R_PLUS):
                parts = tuple(parts_up_to(spec, variant, 500))
                if parts in seen:
                    continue
                seen.add(parts)
                ok = ok and recurrence_holds(count_dp(parts, 500), parts)
                checked += 1
    # literal double sum cross-check on a sample
    parts = parts_up_to(make_residue_spec(3, [1, 2]), FULL_A, 500)
    table = count_dp(parts, 500)
    literal_ok = all(
        eq4_rhs_direct(parts, table, n) == n * table[n] for n in (0, 1, 7, 100, 500)
    )
    off_by_one = table[:100] + (table[100] + 1,) + table[101:]
    ok = ok and literal_ok and not recurrence_holds(off_by_one, parts) and checked == 251
    _report(2, ok, f"{checked} distinct part sets verified at n <= 500")
    assert checked == 251
    assert ok


def test_criterion_03_tail_bound_sweep(bound_sweep):
    """log p_{A+}(n) <= pi*sqrt(2n|R|/3m) + 1e-9 over the full grid."""
    summaries, elapsed = bound_sweep
    stats = summaries["theorem1"]
    ok = stats["rows"] == SWEEP_ROWS and stats["holds"] and elapsed < 300
    _report(
        3,
        ok,
        f"{SWEEP_SPECS} specs, {stats['rows']} rows, {stats['failures']} failures, "
        f"min slack {stats['worst_margin']:.3g}, sweep {elapsed:.1f}s",
    )
    assert stats["rows"] == SWEEP_ROWS
    assert stats["failures"] == 0
    assert stats["holds"]
    assert elapsed < 300


def test_criterion_04_classical_special_case():
    """log p(n) <= pi*sqrt(2n/3) to n=2000; p(100) from factory and dp, certified by (4)."""
    result = run_verify(SweepConfig(m_max=1, n_max=SWEEP_N_MAX, checks=("erdos",)))
    (stats,) = result.summaries
    dp_table = count_dp(range(1, 101), 100)
    dp_value = dp_table[100]
    identity = recurrence_holds(dp_table, range(1, 101))
    ok = (
        stats["rows"] == SWEEP_N_MAX + 1
        and stats["holds"]
        and result.rows[100]["count"] == str(dp_value)
        and dp_value == 190569292
        and identity
    )
    _report(
        4,
        ok,
        f"{stats['rows']} rows, {stats['failures']} failures; "
        f"p(100): table={result.rows[100]['count']} dp={dp_value}, "
        f"identity (4) {'holds' if identity else 'FAILS'}",
    )
    assert stats["rows"] == SWEEP_N_MAX + 1
    assert stats["failures"] == 0
    assert stats["holds"]
    assert [r["n"] for r in result.rows] == list(range(SWEEP_N_MAX + 1))
    assert result.rows[100]["count"] == "190569292"
    assert dp_value == 190569292
    assert identity


def test_criterion_05_full_set_chain(bound_sweep):
    """Chain bound on p_A plus the exact head-count polynomial bound."""
    summaries, elapsed = bound_sweep
    chain = summaries["chain"]
    rpoly = summaries["rpoly"]
    ok = (
        chain["rows"] == rpoly["rows"] == SWEEP_ROWS
        and chain["holds"]
        and rpoly["holds"]
        and elapsed < 300
    )
    _report(
        5,
        ok,
        f"chain: {chain['rows']} rows, {chain['failures']} failures, "
        f"min slack {chain['worst_margin']:.3g}; "
        f"head bound: {rpoly['rows']} rows, {rpoly['failures']} failures; "
        f"sweep {elapsed:.1f}s",
    )
    assert chain["failures"] == 0
    assert chain["rows"] == SWEEP_ROWS
    assert chain["holds"]
    assert rpoly["failures"] == 0
    assert rpoly["rows"] == SWEEP_ROWS
    assert rpoly["holds"]
    assert elapsed < 300


def test_criterion_06_convolution_identity():
    """p_A(n) = sum p_{R+}(n') * p_{A+}(n-n') exactly, m <= 6, all R, n <= 200."""
    specs = 0
    failures = 0
    for m in range(1, 7):
        for spec in subsets_for_modulus(m, include_empty=True):
            specs += 1
            failures += sum(
                1 for rep in convolution_check_range(spec, 200) if not rep.holds
            )
    ok = failures == 0 and specs == 126
    _report(6, ok, f"{specs} specs x 201 values, {failures} mismatches")
    assert specs == 126
    assert failures == 0


def test_criterion_07_series_identity():
    """Truncated weighted series matches the closed form within 1e-9 relative."""
    result = run_verify(SweepConfig(m_max=SWEEP_M_MAX, checks=("eq1",)))
    (stats,) = result.summaries
    nonempty = sum(1 for r in result.rows if r["R"])
    # the summary's worst margin is the smallest; the largest deviation is the max
    worst = max(r["margin"] for r in result.rows)
    ok = stats["rows"] == 9690 and nonempty == 9538 and stats["holds"] and worst <= 1e-9
    _report(
        7,
        ok,
        f"{stats['rows']} (spec, t) points ({nonempty} with R nonempty), "
        f"{stats['failures']} failures, max relative deviation {worst:.3g}",
    )
    assert stats["rows"] == 9690
    assert nonempty == 9538
    assert stats["failures"] == 0
    assert stats["holds"]
    assert worst <= 1e-9


def test_criterion_08_pointwise_inequalities():
    """Kernel bounds and helper inequalities across their grids.

    helpers covers the sinh gap, the envelope and the sqrt split for n <=
    200; the split of sqrt(n - a*k) depends on a and k only through d = a*k,
    and each row covers every 1 <= d <= n.
    """
    config = SweepConfig(m_max=SWEEP_M_MAX, n_max=200, checks=("eq2", "eq3", "helpers"))
    stats = {s["name"]: s for s in run_verify(config).summaries}
    expected = {"eq2": 7236, "eq3": 102510, "helpers": 14945}
    rows = {name: s["rows"] for name, s in stats.items()}
    ok = rows == expected and all(s["holds"] for s in stats.values())
    _report(
        8,
        ok,
        "; ".join(
            f"{name}: {s['rows']} rows, {s['failures']} failures" for name, s in stats.items()
        ),
    )
    assert rows == expected
    for s in stats.values():
        assert s["failures"] == 0
        assert s["holds"]


def test_criterion_09_odd_remark_counterexample():
    """The finder returns witnesses on the default grid, including x = 1."""
    result = run_verify(SweepConfig(checks=("remark",)))
    (stats,) = result.summaries
    found = result.rows
    at_unit = [r for r in found if r["x"] == 1.0]
    ok = stats["rows"] == 138 and stats["holds"] and bool(at_unit) and at_unit[0]["margin"] >= 0.05
    margin = at_unit[0]["margin"] if at_unit else float("nan")
    _report(
        9,
        ok,
        f"{stats['rows']} violating grid points; margin at x=1 is {margin:.6f} >= 0.05",
    )
    assert stats["rows"] == 138
    assert stats["holds"]
    assert at_unit
    assert at_unit[0]["margin"] >= 0.05


def test_criterion_10_asymptotic_diagnostic():
    """Exact p(10^4) by DP within 60 s; log ratio inside (0.9, 1.0).

    The table factory's pentagonal p(n) must give the same whole table.
    """
    spec = make_residue_spec(1, [0])
    start = time.monotonic()
    table = count_dp(range(1, 10_001), 10_000)
    elapsed = time.monotonic() - start
    count = table[10_000]
    ratio = math.log(count) / (math.pi * math.sqrt(2 * 10_000 / 3))
    factory_agrees = TableFactory(10_000).table(spec, FULL_A).values == table
    ok = elapsed < 60 and 0.9 < ratio < 1.0 and factory_agrees
    _report(
        10,
        ok,
        f"DP at n=10^4 in {elapsed:.1f}s; ratio {ratio:.6f} in (0.9, 1.0); "
        f"table factory {'agrees' if factory_agrees else 'DIFFERS'}",
    )
    assert elapsed < 60
    assert 0.9 < ratio < 1.0
    assert factory_agrees
