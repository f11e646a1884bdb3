"""The bound checkers and the log values their rows carry."""

import math
import sys

import mpmath
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from partlab.bounds import (
    check_erdos,
    check_nathanson_chain,
    check_rplus_poly_bound,
    check_theorem1,
    tail_constant,
)
from _oracle import count_dp
from partlab.counting import CountTable, IntegrityError, TableFactory, recurrence_holds
from partlab.partset import A_PLUS, FULL_A, R_PLUS, make_residue_spec
from partlab.sweeps import _ratio_rows, table_rows
from partlab.series import (
    check_derivative_nonpositive,
    check_eq1,
    check_eq2_pointwise,
    check_eq3,
    check_sinh_inequality,
    find_counterexample_odd_remark,
)
from test_partset import spec_strategy


def bound_at(spec, n):
    """The tail-set bound c*sqrt(n) from the spec's constant."""
    return tail_constant(spec) * math.sqrt(n)


def log_count(c):
    """The log_count field a bound row carries for the count c (a one-entry table)."""
    table = CountTable(make_residue_spec(1, [0]), A_PLUS, (c,))
    return check_theorem1(table)[0]["log_count"]


class TestLogOfCount:
    def test_one(self):
        assert log_count(1) == 0.0

    def test_zero_has_no_log(self):
        row = check_theorem1(CountTable(make_residue_spec(1, [0]), A_PLUS, (0,)))[0]
        assert row["log_count"] is None and row["slack"] is None

    def test_power_of_two(self):
        assert log_count(2**1000) == pytest.approx(1000 * math.log(2), rel=1e-12)

    def test_p100(self):
        # p(100) from the coin-change oracle, certified by identity (4)
        values = count_dp(range(1, 101), 100)
        assert values[100] == 190569292 and recurrence_holds(values, range(1, 101))
        assert log_count(190569292) == pytest.approx(19.06552642392738, abs=1e-6)

    @given(st.integers(1, 10**40))
    @settings(max_examples=80)
    def test_against_mpmath(self, c):
        with mpmath.workdps(40):
            reference = float(mpmath.log(c))
        assert log_count(c) == pytest.approx(reference, rel=1e-12)

    def test_huge_count_against_mpmath(self):
        c = 3**12345 + 17
        with mpmath.workdps(60):
            reference = float(mpmath.log(mpmath.mpf(3) ** 12345))
        # the row also writes the count's 5,891 digits, above str()'s default cap
        limit = sys.get_int_max_str_digits()
        sys.set_int_max_str_digits(0)
        try:
            assert log_count(c) == pytest.approx(reference, rel=1e-12)
        finally:
            sys.set_int_max_str_digits(limit)


class TestRhsFormulas:
    def test_erdos_values(self):
        classical = make_residue_spec(1, [0])
        assert bound_at(classical, 0) == 0.0
        assert bound_at(classical, 6) == pytest.approx(2 * math.pi, rel=1e-15)
        assert bound_at(classical, 100) == pytest.approx(25.65099660323728, rel=1e-12)

    def test_classical_constant(self):
        c = tail_constant(make_residue_spec(1, [0]))
        assert c == pytest.approx(math.pi * math.sqrt(2.0 / 3.0), rel=1e-15)
        assert c == pytest.approx(2.565099660323728, rel=1e-12)

    @given(st.integers(0, 5000))
    @settings(max_examples=60)
    def test_reduces_to_classical(self, n):
        classical = bound_at(make_residue_spec(1, [0]), n)
        assert classical == pytest.approx(math.pi * math.sqrt(2.0 * n / 3.0), rel=1e-12)

    def test_halved_modulus(self):
        spec = make_residue_spec(2, [1])
        assert bound_at(spec, 300) == pytest.approx(10 * math.pi, rel=1e-12)
        assert bound_at(spec, 0) == 0.0


class TestTheorem1Check:
    def test_classical_at_100(self):
        spec = make_residue_spec(1, [0])
        reports = check_theorem1(TableFactory(100).table(spec, A_PLUS))
        last = reports[100]
        assert last["count"] == "190569292"
        assert last["slack"] == pytest.approx(6.585470179309901, abs=1e-9)
        assert last["holds"]

    def test_base_case_zero_slack(self):
        spec = make_residue_spec(3, [1, 2])
        report = check_theorem1(TableFactory(0).table(spec, A_PLUS))[0]
        assert report["count"] == "1"
        assert report["log_count"] == 0.0
        assert report["bound"] == 0.0
        assert report["slack"] == 0.0
        assert report["holds"]

    def test_sparse_tail(self):
        # m=2, R={1}: the only tail partition of 5 is the singleton {5}
        spec = make_residue_spec(2, [1])
        reports = check_theorem1(TableFactory(5).table(spec, A_PLUS))
        assert reports[5]["count"] == "1"
        assert reports[5]["log_count"] == 0.0
        assert reports[5]["bound"] == pytest.approx(math.pi * math.sqrt(10 / 6), rel=1e-12)

    def test_vacuous_rows(self):
        # m=2, R={0}: even parts only, odd n unreachable
        spec = make_residue_spec(2, [0])
        reports = check_theorem1(TableFactory(6).table(spec, A_PLUS))
        for n in (1, 3, 5):
            assert reports[n]["count"] == "0"
            assert reports[n]["log_count"] is None
            assert reports[n]["slack"] is None
            assert reports[n]["holds"]

    @given(spec=spec_strategy(m_max=6, allow_empty=False))
    @settings(max_examples=30, deadline=None)
    def test_small_sweep_holds(self, spec):
        table = TableFactory(150).table(spec, A_PLUS)
        assert all(r["holds"] for r in check_theorem1(table))


class TestErdosCheck:
    def test_all_hold_to_500(self):
        reports = check_erdos(TableFactory(500).table(make_residue_spec(1, [0]), A_PLUS))
        assert len(reports) == 501
        assert all(r["holds"] for r in reports)
        assert reports[100]["count"] == "190569292"


class TestRPlusPolyBound:
    def test_examples(self):
        spec = make_residue_spec(2, [1])
        reports = check_rplus_poly_bound(TableFactory(6).table(spec, R_PLUS))
        assert reports[6]["count"] == "1"  # only 1+1+1+1+1+1
        assert reports[6]["holds"]
        spec = make_residue_spec(5, [2, 3])
        reports = check_rplus_poly_bound(TableFactory(6).table(spec, R_PLUS))
        assert reports[6]["count"] == "2"  # 2+2+2 and 3+3
        assert reports[6]["holds"]

    def test_empty_head_set(self):
        spec = make_residue_spec(3, [0])
        reports = check_rplus_poly_bound(TableFactory(5).table(spec, R_PLUS))
        assert [r["count"] for r in reports] == ["1", "0", "0", "0", "0", "0"]
        assert all(r["holds"] for r in reports)

    def test_verdict_is_integer_exact(self):
        # At n'=0 the bound is exactly 1 and the count is exactly 1: equality
        spec = make_residue_spec(4, [1, 3])
        report = check_rplus_poly_bound(TableFactory(0).table(spec, R_PLUS))[0]
        assert report["count"] == "1"
        assert report["holds"]

    def test_one_over_the_bound_fails_below_float_resolution(self):
        # |R| = 40 and n' = 1: the bound is 2**40, and 2**40 + 1 lies only
        # about 9e-13 above it in logs; the integer verdict decides it exactly
        spec = make_residue_spec(41, range(1, 41))
        table = CountTable(spec, R_PLUS, (1, 2**40 + 1))
        row = check_rplus_poly_bound(table)[1]
        assert -1e-9 < row["slack"] < 0
        assert not row["holds"]
        at_bound = CountTable(spec, R_PLUS, (1, 2**40))
        assert check_rplus_poly_bound(at_bound)[1]["holds"]

    @given(spec=spec_strategy(m_max=8), n_max=st.integers(0, 200))
    @settings(max_examples=40, deadline=None)
    def test_holds_exactly(self, spec, n_max):
        table = TableFactory(n_max).table(spec, R_PLUS)
        assert all(r["holds"] for r in check_rplus_poly_bound(table))


class TestNathansonChain:
    def test_odd_parts_at_5(self):
        spec = make_residue_spec(2, [1])
        reports = check_nathanson_chain(TableFactory(5).table(spec, FULL_A))
        r5 = reports[5]
        assert r5["count"] == "3"
        assert r5["log_count"] == pytest.approx(math.log(3), rel=1e-12)
        expected = 2 * math.log(6) + math.pi * math.sqrt(10 / 6)
        assert r5["bound"] == pytest.approx(expected, rel=1e-12)
        assert r5["holds"]

    def test_base_cases(self):
        spec = make_residue_spec(1, [0])
        reports = check_nathanson_chain(TableFactory(1).table(spec, FULL_A))
        assert reports[0]["slack"] == 0.0 and reports[0]["holds"]
        assert reports[1]["holds"]

    def test_two_class_case(self):
        spec = make_residue_spec(4, [1, 3])
        reports = check_nathanson_chain(TableFactory(10).table(spec, FULL_A))
        assert reports[10]["holds"]
        assert reports[10]["slack"] > 0

    @given(spec=spec_strategy(m_max=6, allow_empty=False), n_max=st.integers(0, 120))
    @settings(max_examples=30, deadline=None)
    def test_chain_consistency(self, spec, n_max):
        """Chain bound >= log p_A >= log p_{A+} wherever counts are positive."""
        factory = TableFactory(n_max)
        full = factory.table(spec, FULL_A)
        tail = factory.table(spec, A_PLUS)
        chain = check_nathanson_chain(full)
        for n in range(n_max + 1):
            if full.values[n] >= 1:
                assert chain[n]["bound"] >= math.log(full.values[n]) - 1e-9
            if tail.values[n] >= 1:
                assert full.values[n] >= tail.values[n]
                assert chain[n]["bound"] >= math.log(tail.values[n]) - 1e-9


def ratio_at(table, n):
    """The ratio of verify's ratio row at n for a full-set table, or None without one."""
    return next((row["ratio"] for row in _ratio_rows(table) if row["n"] == n), None)


class TestAsymptoticRatio:
    """The diagnostic ratio log p_A(n) / (c*sqrt(n)) of the ratio rows."""

    def test_classical_at_100(self):
        spec = make_residue_spec(1, [0])
        table = TableFactory(100).table(spec, FULL_A)
        assert ratio_at(table, 100) == pytest.approx(0.7432664983286154, abs=1e-9)

    def test_accepts_precomputed_count(self):
        spec = make_residue_spec(1, [0])
        table = CountTable(spec, FULL_A, count_dp(range(1, 101), 100))
        assert table.values[100] == 190569292
        assert ratio_at(table, 100) == pytest.approx(0.7432664983286154, abs=1e-9)

    def test_rejects_unreachable(self):
        # odd n has no partition into even parts; n = 0 has no ratio at all
        even = make_residue_spec(2, [0])
        assert _ratio_rows(TableFactory(5).table(even, FULL_A)) == []
        ratios = [row["ratio"] for row in table_rows(even, TableFactory(5))]
        assert ratios[0] is None and ratios[1::2] == [None] * 3
        assert None not in ratios[2::2]

    @given(n=st.integers(1, 400))
    @settings(max_examples=40, deadline=None)
    def test_classical_ratio_below_one(self, n):
        spec = make_residue_spec(1, [0])
        table = CountTable(spec, FULL_A, count_dp(range(1, n + 1), n))
        assert ratio_at(table, n) <= 1.0

    def test_odd_set_ratio_at_ten_thousand(self):
        table = TableFactory(10_000).table(make_residue_spec(2, [1]), FULL_A)
        assert 0.85 < ratio_at(table, 10_000) < 1.0


# each check and the variant set its statement is about
READS = [
    (check_theorem1, A_PLUS),
    (check_erdos, A_PLUS),
    (check_nathanson_chain, FULL_A),
    (check_rplus_poly_bound, R_PLUS),
    (_ratio_rows, FULL_A),
]


@pytest.mark.parametrize("check,reads", READS)
def test_each_check_refuses_every_other_variant(check, reads):
    """For m=1, R={0} the full and tail counts are both p(n): only the label differs."""
    factory = TableFactory(20)
    spec = make_residue_spec(1, [0])
    assert check(factory.table(spec, reads))
    for variant in (FULL_A, A_PLUS, R_PLUS):
        if variant != reads:
            with pytest.raises(IntegrityError, match=f"handed the {variant} table"):
                check(factory.table(spec, variant))


@pytest.mark.parametrize("m,residues", [(1, []), (2, [1]), (2, [0, 1])])
def test_erdos_refuses_other_specs(m, residues):
    with pytest.raises(IntegrityError, match="table of p"):
        check_erdos(TableFactory(20).table(make_residue_spec(m, residues), A_PLUS))


def test_report_row_shape():
    odd = make_residue_spec(2, [1])
    row = check_theorem1(TableFactory(3).table(odd, A_PLUS))[3]
    assert list(row) == [
        "m",
        "R",
        "variant",
        "n",
        "count",
        "log_count",
        "bound",
        "slack",
        "holds",
    ]
    assert row["count"] == "1"
    assert isinstance(row["count"], str)
    assert row["variant"] == "a-plus"
    assert row["R"] == (1,)

    spec = make_residue_spec(3, [0, 2])
    analytic = [
        (check_eq1(spec, 0.5), "eq1", 3, (0, 2), None),
        (check_eq2_pointwise(1, 3, 0.5), "eq2", 3, None, 1),
        (check_eq3(spec, 0.5), "eq3", 3, (0, 2), None),
        (check_sinh_inequality(0.5), "sinh", None, None, None),
        *[
            (row, label, 3, None, 1)
            for row, label in zip(
                check_derivative_nonpositive(1, 3, [0.0, 0.5]),
                ["envelope-derivative", "envelope-at-zero", "envelope-derivative", "envelope-cap"],
            )
        ],
        (find_counterexample_odd_remark([1.0])[0], "odd-remark", None, None, None),
    ]
    for row, label, m, residues, r in analytic:
        # a row holds only its own fields: of m, R and r, those it has a value for
        own = [k for k, v in (("m", m), ("R", residues), ("r", r)) if v is not None]
        assert list(row) == ["check", *own, "x", "t", "lhs", "rhs", "margin", "holds"]
        assert (row["check"], row.get("m"), row.get("R"), row.get("r")) == (label, m, residues, r)
        assert all(isinstance(row[k], float) for k in ("x", "t", "lhs", "rhs", "margin"))
        assert row["holds"] is True
