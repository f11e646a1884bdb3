"""Acceptance suite: every criterion at its stated tolerance.

Each test prints one PASS/FAIL line (visible with ``pytest -s`` or ``-v``
plus ``-rA``); the asserts carry the same conditions.  The heavy bound
sweep (all residue subsets for m <= 8, n <= 2000) runs once in a module
fixture and feeds the three criteria that share it.
"""

import math
import time

import pytest

from _oracle import convolution_check_range, count_dp, eq4_rhs_direct
from partlab.bounds import (
    check_erdos,
    check_nathanson_chain,
    check_rplus_poly_bound,
    check_theorem1,
)
from partlab.counting import TableFactory, count_recurrence
from partlab.partset import (
    A_PLUS,
    FULL_A,
    R_PLUS,
    make_residue_spec,
    parts_up_to,
)
from partlab.series import (
    check_eq1,
    check_eq2_pointwise,
    check_eq3,
    check_derivative_nonpositive,
    check_sinh_inequality,
    check_sqrt_split,
    default_t_grid,
    default_x_grid,
    find_counterexample_odd_remark,
)
from partlab.sweeps import SweepConfig, run_verify, subsets_for_modulus

SWEEP_M_MAX = 8
SWEEP_N_MAX = 2000


def _report(num: int, ok: bool, detail: str) -> None:
    print(f"[criterion {num:2d}] {'PASS' if ok else 'FAIL'}  {detail}")


def _absorb(bucket: dict, reports) -> None:
    for rep in reports:
        bucket["rows"] += 1
        if not rep["holds"]:
            bucket["failures"] += 1
        if rep["slack"] is not None:
            bucket["min_slack"] = min(bucket["min_slack"], rep["slack"])


@pytest.fixture(scope="module")
def bound_sweep():
    """One pass over every nonempty subset, m <= 8, n <= 2000."""
    stats = {
        name: {"rows": 0, "failures": 0, "min_slack": math.inf}
        for name in ("theorem1", "chain", "rpoly")
    }
    start = time.monotonic()
    factory = TableFactory(SWEEP_N_MAX)
    specs = 0
    for m in range(1, SWEEP_M_MAX + 1):
        for spec in subsets_for_modulus(m, include_empty=False):
            specs += 1
            _absorb(
                stats["theorem1"],
                check_theorem1(factory.table(spec, A_PLUS)),
            )
            _absorb(
                stats["chain"],
                check_nathanson_chain(factory.table(spec, FULL_A)),
            )
            _absorb(
                stats["rpoly"],
                check_rplus_poly_bound(factory.table(spec, R_PLUS)),
            )
    stats["specs"] = specs
    stats["elapsed"] = time.monotonic() - start
    return stats


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
    """The recurrence built from identity (4) equals the dp table, n <= 500."""
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
                ok = ok and count_recurrence(parts, 500) == count_dp(parts, 500)
                checked += 1
    # literal double sum cross-check on a sample
    parts = parts_up_to(make_residue_spec(3, [1, 2]), FULL_A, 500)
    table = count_dp(parts, 500)
    literal_ok = all(
        eq4_rhs_direct(parts, table, n) == n * table[n] for n in (0, 1, 7, 100, 500)
    )
    ok = ok and literal_ok and checked == 251
    _report(2, ok, f"{checked} distinct part sets verified at n <= 500")
    assert checked == 251
    assert ok


def test_criterion_03_tail_bound_sweep(bound_sweep):
    """log p_{A+}(n) <= pi*sqrt(2n|R|/3m) + 1e-9 over the full grid."""
    stats = bound_sweep["theorem1"]
    ok = (
        bound_sweep["specs"] == 502
        and stats["rows"] == 502 * (SWEEP_N_MAX + 1)
        and stats["failures"] == 0
        and bound_sweep["elapsed"] < 300
    )
    _report(
        3,
        ok,
        f"{bound_sweep['specs']} specs, {stats['rows']} rows, "
        f"{stats['failures']} failures, min slack {stats['min_slack']:.3g}, "
        f"sweep {bound_sweep['elapsed']:.1f}s",
    )
    assert bound_sweep["specs"] == 502
    assert stats["rows"] == 502 * (SWEEP_N_MAX + 1)
    assert stats["failures"] == 0
    assert bound_sweep["elapsed"] < 300


def test_criterion_04_classical_special_case():
    """log p(n) <= pi*sqrt(2n/3) to n=2000; p(100) agreed by two engines."""
    p_table = TableFactory(SWEEP_N_MAX).table(make_residue_spec(1, [0]), A_PLUS)
    reports = check_erdos(p_table)
    failures = sum(1 for r in reports if not r["holds"])
    dp_value = count_dp(range(1, 101), 100)[100]
    rec_value = count_recurrence(range(1, 101), 100)[100]
    ok = failures == 0 and dp_value == rec_value == 190569292
    _report(
        4,
        ok,
        f"{len(reports)} rows, {failures} failures; "
        f"p(100): dp={dp_value} recurrence={rec_value}",
    )
    assert failures == 0
    assert dp_value == 190569292
    assert rec_value == 190569292


def test_criterion_05_full_set_chain(bound_sweep):
    """Chain bound on p_A plus the exact head-count polynomial bound."""
    chain = bound_sweep["chain"]
    rpoly = bound_sweep["rpoly"]
    ok = chain["failures"] == 0 and rpoly["failures"] == 0
    _report(
        5,
        ok,
        f"chain: {chain['rows']} rows, {chain['failures']} failures, "
        f"min slack {chain['min_slack']:.3g}; "
        f"head bound: {rpoly['rows']} rows, {rpoly['failures']} failures",
    )
    assert chain["failures"] == 0
    assert chain["rows"] == 502 * (SWEEP_N_MAX + 1)
    assert rpoly["failures"] == 0
    assert rpoly["rows"] == 502 * (SWEEP_N_MAX + 1)


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
    worst = 0.0
    failures = 0
    points = 0
    for m in range(1, SWEEP_M_MAX + 1):
        for spec in subsets_for_modulus(m, include_empty=False):
            for t in default_t_grid():
                points += 1
                report = check_eq1(spec, t)
                worst = max(worst, report["margin"])
                if not report["holds"]:
                    failures += 1
    ok = failures == 0 and worst <= 1e-9
    _report(7, ok, f"{points} (spec, t) points, max relative deviation {worst:.3g}")
    assert failures == 0
    assert worst <= 1e-9


def test_criterion_08_pointwise_inequalities():
    """Kernel bounds and helper inequalities across their grids."""
    x_grid = default_x_grid()
    eq2_failures = sum(
        1
        for m in range(1, SWEEP_M_MAX + 1)
        for r in range(m)
        for x in x_grid
        if not check_eq2_pointwise(r, m, x)["holds"]
    )
    eq3_failures = 0
    for m in range(1, SWEEP_M_MAX + 1):
        for spec in subsets_for_modulus(m, include_empty=False):
            eq3_failures += sum(1 for x in x_grid if not check_eq3(spec, x)["holds"])
    sinh_failures = sum(1 for x in x_grid if not check_sinh_inequality(x)["holds"])
    envelope_failures = sum(
        1
        for m in range(1, SWEEP_M_MAX + 1)
        for r in range(m)
        for rep in check_derivative_nonpositive(r, m, [0.0] + x_grid)
        if not rep["holds"]
    )
    # the split of sqrt(n - a*k) depends on a and k only through d = a*k,
    # and each row covers every 1 <= d <= n
    sqrt_failures = sum(1 for n in range(1, 201) if not check_sqrt_split(n)["holds"])
    total = eq2_failures + eq3_failures + sinh_failures + envelope_failures + sqrt_failures
    ok = total == 0
    _report(
        8,
        ok,
        f"failures: kernel={eq2_failures} summed={eq3_failures} sinh={sinh_failures} "
        f"envelope={envelope_failures} sqrt={sqrt_failures}",
    )
    assert total == 0


def test_criterion_09_odd_remark_counterexample():
    """The finder returns witnesses on the default grid, including x = 1."""
    found = find_counterexample_odd_remark(default_x_grid())
    at_unit = [r for r in found if r["x"] == 1.0]
    ok = bool(found) and bool(at_unit) and at_unit[0]["margin"] >= 0.05
    margin = at_unit[0]["margin"] if at_unit else float("nan")
    _report(
        9,
        ok,
        f"{len(found)} violating grid points; margin at x=1 is {margin:.6f} >= 0.05",
    )
    assert found
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
