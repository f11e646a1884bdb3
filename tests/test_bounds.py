"""Log evaluation and the bound checkers."""

import math

import mpmath
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from partlab.bounds import (
    BoundParams,
    asymptotic_ratio,
    check_erdos,
    check_nathanson_chain,
    check_rplus_poly_bound,
    check_theorem1,
    erdos_rhs,
    log_of_count,
    theorem1_rhs,
)
from partlab.counting import TableFactory, count_dp, count_recurrence
from partlab.partset import FULL_A, make_residue_spec, parts_up_to
from partlab.series import (
    check_derivative_nonpositive,
    check_eq1,
    check_eq2_pointwise,
    check_eq3,
    check_sinh_inequality,
    find_counterexample_odd_remark,
)
from test_partset import spec_strategy


class TestLogOfCount:
    def test_one(self):
        assert log_of_count(1) == 0.0

    def test_rejects_zero(self):
        with pytest.raises(ValueError):
            log_of_count(0)

    def test_power_of_two(self):
        assert log_of_count(2**1000) == pytest.approx(1000 * math.log(2), rel=1e-12)

    def test_p100(self):
        # p(100), independently certified by the recurrence engine below
        assert count_recurrence(range(1, 101), 100).values[100] == 190569292
        assert log_of_count(190569292) == pytest.approx(19.06552642392738, abs=1e-6)

    @given(st.integers(1, 10**40))
    @settings(max_examples=80)
    def test_against_mpmath(self, c):
        with mpmath.workdps(40):
            reference = float(mpmath.log(c))
        assert log_of_count(c) == pytest.approx(reference, rel=1e-12)

    def test_huge_count_against_mpmath(self):
        c = 3**12345 + 17
        with mpmath.workdps(60):
            reference = float(mpmath.log(mpmath.mpf(3) ** 12345))
        assert log_of_count(c) == pytest.approx(reference, rel=1e-12)


class TestRhsFormulas:
    def test_erdos_values(self):
        assert erdos_rhs(0) == 0.0
        assert erdos_rhs(6) == pytest.approx(2 * math.pi, rel=1e-15)
        assert erdos_rhs(100) == pytest.approx(25.65099660323728, rel=1e-12)

    def test_classical_constant(self):
        params = BoundParams.from_spec(make_residue_spec(1, [0]))
        assert params.c == pytest.approx(math.pi * math.sqrt(2.0 / 3.0), rel=1e-15)
        assert params.c == pytest.approx(2.565099660323728, rel=1e-12)

    @given(st.integers(0, 5000))
    @settings(max_examples=60)
    def test_reduces_to_classical(self, n):
        params = BoundParams.from_spec(make_residue_spec(1, [0]))
        assert theorem1_rhs(n, params) == pytest.approx(erdos_rhs(n), rel=1e-12)

    def test_halved_modulus(self):
        params = BoundParams.from_spec(make_residue_spec(2, [1]))
        assert theorem1_rhs(300, params) == pytest.approx(10 * math.pi, rel=1e-12)
        assert theorem1_rhs(0, params) == 0.0


class TestTheorem1Check:
    def test_classical_at_100(self):
        reports = check_theorem1(make_residue_spec(1, [0]), 100)
        last = reports[100]
        assert last["count"] == "190569292"
        assert last["slack"] == pytest.approx(6.585470179309901, abs=1e-9)
        assert last["holds"]

    def test_base_case_zero_slack(self):
        report = check_theorem1(make_residue_spec(3, [1, 2]), 0)[0]
        assert report["count"] == "1"
        assert report["log_count"] == 0.0
        assert report["bound"] == 0.0
        assert report["slack"] == 0.0
        assert report["holds"]

    def test_sparse_tail(self):
        # m=2, R={1}: the only tail partition of 5 is the singleton {5}
        reports = check_theorem1(make_residue_spec(2, [1]), 5)
        assert reports[5]["count"] == "1"
        assert reports[5]["log_count"] == 0.0
        assert reports[5]["bound"] == pytest.approx(math.pi * math.sqrt(10 / 6), rel=1e-12)

    def test_vacuous_rows(self):
        # m=2, R={0}: even parts only, odd n unreachable
        reports = check_theorem1(make_residue_spec(2, [0]), 6)
        for n in (1, 3, 5):
            assert reports[n]["count"] == "0"
            assert reports[n]["log_count"] is None
            assert reports[n]["slack"] is None
            assert reports[n]["holds"]

    @given(spec=spec_strategy(m_max=6, allow_empty=False))
    @settings(max_examples=30, deadline=None)
    def test_small_sweep_holds(self, spec):
        assert all(r["holds"] for r in check_theorem1(spec, 150))


class TestErdosCheck:
    def test_all_hold_to_500(self):
        reports = check_erdos(500)
        assert len(reports) == 501
        assert all(r["holds"] for r in reports)
        assert reports[100]["count"] == "190569292"


class TestRPlusPolyBound:
    def test_examples(self):
        reports = check_rplus_poly_bound(make_residue_spec(2, [1]), 6)
        assert reports[6]["count"] == "1"  # only 1+1+1+1+1+1
        assert reports[6]["holds"]
        reports = check_rplus_poly_bound(make_residue_spec(5, [2, 3]), 6)
        assert reports[6]["count"] == "2"  # 2+2+2 and 3+3
        assert reports[6]["holds"]

    def test_empty_head_set(self):
        reports = check_rplus_poly_bound(make_residue_spec(3, [0]), 5)
        assert [r["count"] for r in reports] == ["1", "0", "0", "0", "0", "0"]
        assert all(r["holds"] for r in reports)

    def test_verdict_is_integer_exact(self):
        # At n'=0 the bound is exactly 1 and the count is exactly 1: equality
        report = check_rplus_poly_bound(make_residue_spec(4, [1, 3]), 0)[0]
        assert report["count"] == "1"
        assert report["holds"]

    @given(spec=spec_strategy(m_max=8), n_max=st.integers(0, 200))
    @settings(max_examples=40, deadline=None)
    def test_holds_exactly(self, spec, n_max):
        assert all(r["holds"] for r in check_rplus_poly_bound(spec, n_max))


class TestNathansonChain:
    def test_odd_parts_at_5(self):
        reports = check_nathanson_chain(make_residue_spec(2, [1]), 5)
        r5 = reports[5]
        assert r5["count"] == "3"
        assert r5["log_count"] == pytest.approx(math.log(3), rel=1e-12)
        expected = 2 * math.log(6) + math.pi * math.sqrt(10 / 6)
        assert r5["bound"] == pytest.approx(expected, rel=1e-12)
        assert r5["holds"]

    def test_base_cases(self):
        reports = check_nathanson_chain(make_residue_spec(1, [0]), 1)
        assert reports[0]["slack"] == 0.0 and reports[0]["holds"]
        assert reports[1]["holds"]

    def test_two_class_case(self):
        reports = check_nathanson_chain(make_residue_spec(4, [1, 3]), 10)
        assert reports[10]["holds"]
        assert reports[10]["slack"] > 0

    @given(spec=spec_strategy(m_max=6, allow_empty=False), n_max=st.integers(0, 120))
    @settings(max_examples=30, deadline=None)
    def test_chain_consistency(self, spec, n_max):
        """Chain bound >= log p_A >= log p_{A+} wherever counts are positive."""
        factory = TableFactory(n_max)
        full = factory.full_a(spec)
        tail = factory.aplus(spec)
        chain = check_nathanson_chain(spec, n_max, table=full)
        for n in range(n_max + 1):
            if full.values[n] >= 1:
                assert chain[n]["bound"] >= math.log(full.values[n]) - 1e-9
            if tail.values[n] >= 1:
                assert full.values[n] >= tail.values[n]
                assert chain[n]["bound"] >= math.log(tail.values[n]) - 1e-9


class TestAsymptoticRatio:
    def test_classical_at_100(self):
        spec = make_residue_spec(1, [0])
        assert asymptotic_ratio(spec, 100) == pytest.approx(
            0.7432664983286154, abs=1e-9
        )

    def test_accepts_precomputed_count(self):
        spec = make_residue_spec(1, [0])
        assert asymptotic_ratio(spec, 100, count=190569292) == pytest.approx(
            0.7432664983286154, abs=1e-9
        )

    def test_rejects_unreachable(self):
        with pytest.raises(ValueError):
            asymptotic_ratio(make_residue_spec(2, [0]), 5)  # odd n, even parts
        with pytest.raises(ValueError):
            asymptotic_ratio(make_residue_spec(2, [1]), 0)

    @given(n=st.integers(1, 400))
    @settings(max_examples=40, deadline=None)
    def test_classical_ratio_below_one(self, n):
        spec = make_residue_spec(1, [0])
        count = count_dp(parts_up_to(spec, FULL_A, n), n).values[n]
        assert asymptotic_ratio(spec, n, count=count) <= 1.0

    def test_odd_set_ratio_at_ten_thousand(self):
        spec = make_residue_spec(2, [1])
        count = TableFactory(10_000).full_a(spec).values[10_000]
        assert 0.85 < asymptotic_ratio(spec, 10_000, count=count) < 1.0


def test_report_row_shape():
    row = check_theorem1(make_residue_spec(2, [1]), 3)[3]
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
    assert row["R"] == [1]

    spec = make_residue_spec(3, [0, 2])
    analytic = [
        (check_eq1(spec, 0.5), "eq1", 3, [0, 2], None),
        (check_eq2_pointwise(1, 3, 0.5), "eq2", 3, None, 1),
        (check_eq3(spec, 0.5), "eq3", 3, [0, 2], None),
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
        assert list(row) == ["check", "m", "R", "r", "x", "t", "lhs", "rhs", "margin", "holds"]
        assert (row["check"], row["m"], row["R"], row["r"]) == (label, m, residues, r)
        assert all(isinstance(row[k], float) for k in ("x", "t", "lhs", "rhs", "margin"))
        assert row["holds"] is True
