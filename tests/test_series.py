"""Series identity, kernel inequalities, helpers, and the odd-part remark."""

import math

import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from partlab.series import (
    _kernel_term,
    check_derivative_nonpositive,
    check_eq1,
    check_eq2_pointwise,
    check_eq3,
    check_sinh_inequality,
    check_sqrt_split,
    default_t_grid,
    default_x_grid,
    find_counterexample_odd_remark,
    kernel_sides,
    rhs_closed_form,
    series_sum_adaptive,
)
from partlab.partset import make_residue_spec
from _oracle import lhs_series_truncated, series_sum_reference
from test_partset import spec_strategy


TINY_T = [5e-324, 1e-300, 1e-200]


class TestGrids:
    def test_x_grid(self):
        grid = default_x_grid()
        assert len(grid) == 201  # 200 log-spaced points plus the exact unit point
        assert grid[0] == pytest.approx(1e-3, rel=1e-12)
        assert grid[-1] == pytest.approx(1e2, rel=1e-12)
        assert 1.0 in grid
        assert grid == sorted(grid)

    def test_t_grid(self):
        grid = default_t_grid()
        assert len(grid) == 19
        assert grid[0] == 0.05 and grid[-1] == 0.95


class TestEvaluationPoint:
    """Each row carries its point both as x and as t = e**-x."""

    def test_roundtrip(self):
        row = check_eq2_pointwise(0, 1, 2.0)
        assert row["t"] == pytest.approx(math.exp(-2.0), rel=1e-15)
        row = check_eq1(make_residue_spec(1, [0]), 0.25)
        assert row["x"] == pytest.approx(math.log(4.0), rel=1e-15)

    def test_domain(self):
        with pytest.raises(ValueError):
            check_eq3(make_residue_spec(2, [1]), 0.0)
        with pytest.raises(ValueError):
            check_eq1(make_residue_spec(2, [1]), 1.0)


class TestClosedForm:
    def test_classical_geometric(self):
        # m=1, R={0}: sum a*t^a = t/(1-t)^2, so 2.0 at t=1/2
        spec = make_residue_spec(1, [0])
        assert rhs_closed_form(spec, 0.5) == pytest.approx(2.0, rel=1e-15)

    def test_odd_tail_value(self):
        spec = make_residue_spec(2, [1])
        assert rhs_closed_form(spec, 0.5) == pytest.approx(11 / 18, rel=1e-14)

    def test_domain(self):
        spec = make_residue_spec(2, [1])
        for bad in (0.0, 1.0, -0.5, 1.5):
            with pytest.raises(ValueError):
                rhs_closed_form(spec, bad)

    def test_empty_residues(self):
        assert rhs_closed_form(make_residue_spec(3, []), 0.5) == 0.0


class TestTruncatedSeries:
    def test_classical_converges_to_two(self):
        spec = make_residue_spec(1, [0])
        value, converged = series_sum_adaptive(spec, 0.5)
        assert converged
        assert value == pytest.approx(2.0, rel=1e-11)

    @given(
        spec=spec_strategy(m_max=8),
        t=st.one_of(st.sampled_from(default_t_grid() + TINY_T), st.floats(0.01, 0.99)),
    )
    @example(spec=make_residue_spec(1, [0]), t=5e-324)
    @example(spec=make_residue_spec(2, [1]), t=1e-300)
    @example(spec=make_residue_spec(8, [0, 3, 7]), t=1e-200)
    @settings(max_examples=150, deadline=None)
    def test_one_pass_equals_from_scratch_reference(self, spec, t):
        """The one-pass sum reads the partial sums the doubling rule re-sums.

        At the TINY_T every term, or every term after the first, underflows
        to 0.0, so a doubling leaves the partial sum unchanged and the rule
        stops there, also when the sum itself is 0.0.
        """
        value, converged = series_sum_adaptive(spec, t)
        ref_value, ref_converged = series_sum_reference(spec, t)
        assert value.hex() == ref_value.hex()
        assert converged is ref_converged

    def test_gives_up_at_the_cap(self):
        # t = 1 - 2**-53: the terms barely decay, so no doubling settles by 2**20
        spec = make_residue_spec(8, [0])
        t = 1.0 - 2.0**-53
        value, converged = series_sum_adaptive(spec, t)
        assert converged is False
        assert (value, converged) == series_sum_reference(spec, t)

    def test_leading_term_dominates_near_zero(self):
        # smallest tail part of (m=2, R={1}) is 3, so the series opens as 3t^3
        spec = make_residue_spec(2, [1])
        t = 1e-3
        value = lhs_series_truncated(spec, t, 4096)
        assert value / (3 * t**3) == pytest.approx(1.0, abs=1e-5)

    def test_cutoff_monotone(self):
        spec = make_residue_spec(4, [1, 3])
        t = 0.3
        sums = [lhs_series_truncated(spec, t, c) for c in (8, 16, 64, 256, 1024)]
        assert sums == sorted(sums)
        assert sums[-1] <= rhs_closed_form(spec, t) + 1e-12

    def test_domain(self):
        spec = make_residue_spec(2, [1])
        with pytest.raises(ValueError):
            lhs_series_truncated(spec, 1.0, 64)
        with pytest.raises(ValueError):
            lhs_series_truncated(spec, 0.5, 0)
        for bad in (0.0, 1.0):
            with pytest.raises(ValueError):
                series_sum_adaptive(spec, bad)

    @given(spec=spec_strategy(m_max=8), t=st.sampled_from(default_t_grid()))
    @settings(max_examples=80, deadline=None)
    def test_identity_on_grid(self, spec, t):
        report = check_eq1(spec, t)
        assert report["holds"], (spec, t, report)

    @given(
        spec=spec_strategy(m_max=6, allow_empty=False),
        t=st.floats(0.05, 0.9),
        cutoff=st.sampled_from([64, 128, 512]),
    )
    @settings(max_examples=80, deadline=None)
    def test_partial_sums_never_exceed_closed_form(self, spec, t, cutoff):
        partial = lhs_series_truncated(spec, t, cutoff)
        assert partial <= rhs_closed_form(spec, t) * (1 + 1e-12) + 1e-300


class TestKernelBound:
    def test_unit_point(self):
        report = check_eq2_pointwise(0, 1, 1.0)
        assert report["lhs"] == pytest.approx(0.9206735942077924, rel=1e-12)
        assert report["rhs"] == 1.0
        assert report["holds"]

    def test_near_zero(self):
        report = check_eq2_pointwise(0, 1, 1e-3)
        # both sides blow up like 1/x^2; the gap stays near 1/12
        assert report["rhs"] == pytest.approx(1e6, rel=1e-12)
        assert report["margin"] == pytest.approx(1 / 12, abs=1e-4)
        assert report["holds"]

    def test_offset_residue(self):
        report = check_eq2_pointwise(1, 2, 0.5)
        assert report["lhs"] == pytest.approx(1.4698202409045455, rel=1e-12)
        assert report["rhs"] == 2.0
        assert report["holds"]

    def test_domain(self):
        with pytest.raises(ValueError):
            check_eq2_pointwise(2, 2, 1.0)
        with pytest.raises(ValueError):
            check_eq2_pointwise(0, 1, 0.0)

    @given(
        m=st.integers(1, 8),
        data=st.data(),
        x=st.sampled_from(default_x_grid()),
    )
    @settings(max_examples=120, deadline=None)
    def test_holds_on_grid(self, m, data, x):
        r = data.draw(st.integers(0, m - 1))
        assert check_eq2_pointwise(r, m, x)["holds"]


class TestSummedKernelBound:
    def test_classical_unit_point(self):
        spec = make_residue_spec(1, [0])
        report = check_eq3(spec, 1.0)
        assert report["lhs"] == pytest.approx(0.9206735942077924, rel=1e-12)
        assert report["rhs"] == 1.0
        assert report["holds"]

    def test_odd_small_x(self):
        report = check_eq3(make_residue_spec(2, [1]), 0.1)
        assert report["rhs"] == pytest.approx(50.0, rel=1e-12)
        assert report["holds"]

    def test_two_classes_large_x(self):
        report = check_eq3(make_residue_spec(4, [1, 3]), 10.0)
        assert report["lhs"] < 1e-20
        assert report["rhs"] == pytest.approx(2 / 400, rel=1e-12)
        assert report["holds"]

    @given(spec=spec_strategy(m_max=8), x=st.sampled_from(default_x_grid()))
    @settings(max_examples=100, deadline=None)
    def test_holds_on_grid(self, spec, x):
        assert check_eq3(spec, x)["holds"]

    @given(
        spec=spec_strategy(m_max=8, allow_empty=False),
        x=st.sampled_from(default_x_grid()),
    )
    @settings(max_examples=100, deadline=None)
    def test_consistent_with_closed_form(self, spec, x):
        """The kernel's lhs at e**-x and the plain closed form at t agree tightly."""
        via_x, _ = kernel_sides(spec.m, spec.residues, x)
        t = math.exp(-x)
        if 0.0 < t < 1.0:
            via_t = rhs_closed_form(spec, t)
            scale = max(abs(via_x), abs(via_t))
            if scale > 0:
                assert abs(via_x - via_t) / scale < 1e-12

    def test_lhs_is_the_left_to_right_fold(self):
        """lhs adds the class terms in order, so its bits do not depend on the Python version.

        From Python 3.12, sum() of these three terms gives ...736 instead.
        """
        lhs, _ = kernel_sides(3, (0, 1, 2), 0.001)
        terms = [_kernel_term(r, 3, 0.001) for r in (0, 1, 2)]
        assert lhs == (terms[0] + terms[1]) + terms[2] == 999996.9216621735
        empty, _ = kernel_sides(3, (), 0.001)
        assert empty == 0 and type(empty) is int


class TestSinhGap:
    def test_unit(self):
        report = check_sinh_inequality(1.0)
        assert report["rhs"] == pytest.approx(2 * math.sinh(0.5), rel=1e-15)
        assert report["holds"]

    def test_tiny_margin_resolved(self):
        report = check_sinh_inequality(1e-6)
        assert report["holds"]
        assert report["margin"] > 0
        assert report["margin"] == pytest.approx((1e-6) ** 3 / 24, rel=0.05)

    def test_large(self):
        report = check_sinh_inequality(20.0)
        assert report["rhs"] == pytest.approx(math.exp(10) - math.exp(-10), rel=1e-12)
        assert report["holds"]

    @given(x=st.sampled_from(default_x_grid()))
    @settings(max_examples=60)
    def test_holds_on_grid(self, x):
        assert check_sinh_inequality(x)["holds"]


class TestSqrtSplit:
    @pytest.mark.parametrize("n,a,k", [(100, 10, 1), (4, 4, 1), (9, 1, 9)])
    def test_examples(self, n, a, k):
        row = check_sqrt_split(n)
        assert list(row) == ["check", "n", "margin", "holds"]
        assert row["check"] == "sqrt-split" and row["n"] == n
        assert row["holds"]
        root_n = math.sqrt(n)
        assert row["margin"] <= (root_n - a * k / (2.0 * root_n)) - math.sqrt(n - a * k)

    def test_rejects_nonpositive_n(self):
        with pytest.raises(ValueError):
            check_sqrt_split(0)

    def test_exhaustive_small(self):
        """Each (a, k) with a*k <= n splits; the margin is the least over them."""
        for n in range(1, 201):
            row = check_sqrt_split(n)
            assert row["holds"]
            root_n = math.sqrt(n)
            least = min(
                (root_n - a * k / (2.0 * root_n)) - math.sqrt(n - a * k)
                for a in range(1, n + 1)
                for k in range(1, n // a + 1)
            )
            assert row["margin"] == least

    def test_one_failing_split_fails_the_row(self, monkeypatch):
        """A sqrt(n - d) that reads 0.1 too high at one d fails the row, by that d's gap."""
        real = math.sqrt

        def high_at_43(v):
            return real(v) + 0.1 if v == 43 else real(v)

        monkeypatch.setattr(math, "sqrt", high_at_43)
        row = check_sqrt_split(50)
        monkeypatch.undo()
        gap = (math.sqrt(50) - 7 / (2.0 * math.sqrt(50))) - (math.sqrt(43) + 0.1)
        assert row["holds"] is False
        assert row["margin"] == gap
        assert row["margin"] == pytest.approx(-0.0813, abs=1e-4)


class TestEnvelope:
    def test_zero_residue_degenerates(self):
        reports = check_derivative_nonpositive(0, 3, [0.0, 0.5, 2.0])
        assert all(r["holds"] for r in reports)
        derivs = [r for r in reports if r["check"] == "envelope-derivative"]
        assert all(r["lhs"] == 0.0 for r in derivs)
        caps = [r for r in reports if r["check"].startswith("envelope-")]
        assert all(r["rhs"] == 3.0 for r in caps if r["check"] != "envelope-derivative")

    def test_strictly_decreasing_case(self):
        reports = check_derivative_nonpositive(1, 2, [1.0])
        deriv = next(r for r in reports if r["check"] == "envelope-derivative")
        expected = 3 * (math.exp(-3) - math.exp(-1))
        assert deriv["lhs"] == pytest.approx(expected, rel=1e-12)
        assert deriv["lhs"] < 0
        assert deriv["holds"]

    def test_value_at_zero_is_modulus(self):
        reports = check_derivative_nonpositive(1, 2, [0.0])
        at_zero = next(r for r in reports if r["check"] == "envelope-at-zero")
        assert at_zero["lhs"] == 2.0
        assert at_zero["margin"] == 0.0
        assert at_zero["holds"]

    @given(m=st.integers(1, 8), data=st.data())
    @settings(max_examples=60, deadline=None)
    def test_holds_on_grid(self, m, data):
        r = data.draw(st.integers(0, m - 1))
        grid = [0.0] + default_x_grid()
        assert all(rep["holds"] for rep in check_derivative_nonpositive(r, m, grid))


class TestOddRemark:
    def test_unit_point_is_a_counterexample(self):
        found = find_counterexample_odd_remark([1.0])
        assert len(found) == 1
        report = found[0]
        assert report["lhs"] == pytest.approx(0.5586427637246371, rel=1e-12)
        assert report["rhs"] == 0.5
        assert report["margin"] == pytest.approx(0.05864276372463706, abs=1e-12)

    def test_large_x_is_not(self):
        assert find_counterexample_odd_remark([10.0]) == []

    def test_small_x_margin_near_one_twelfth(self):
        found = find_counterexample_odd_remark([1e-3])
        assert len(found) == 1
        assert found[0]["margin"] == pytest.approx(1 / 12, abs=1e-4)

    def test_default_grid_finds_failures(self):
        found = find_counterexample_odd_remark(default_x_grid())
        assert found
        assert any(r["x"] == 1.0 for r in found)

    def test_rejects_nonpositive_grid(self):
        with pytest.raises(ValueError):
            find_counterexample_odd_remark([0.0])
