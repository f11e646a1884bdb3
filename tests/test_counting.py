"""Counting engines, their agreement, and the counting identities."""

import random

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from _oracle import (
    brute_count,
    convolution_check_range,
    count_dp,
    enumerate_partitions,
    eq4_rhs_direct,
)
from partlab import counting
from partlab.counting import IntegrityError, TableFactory, count_bruteforce, count_recurrence
from partlab.partset import A_PLUS, FULL_A, R_PLUS, make_residue_spec, parts_up_to
from partlab.sweeps import subsets_for_modulus
from test_partset import spec_strategy


class TestCountDP:
    """The coin-change definition's known values, pinned on the library's two
    table engines: the factory (which shares the definition's kernel) and
    the recurrence (which shares nothing with it)."""

    def test_unrestricted_small(self):
        expected = (1, 1, 2, 3, 5, 7)
        assert TableFactory(5).full_a(make_residue_spec(1, [0])).values == expected
        assert count_recurrence([1, 2, 3, 4, 5], 5).values == expected

    def test_tail_of_odd_parts(self):
        # m=2, R={1}: tail parts up to 5 are [3, 5]; only 5 itself works
        spec = make_residue_spec(2, [1])
        assert TableFactory(5).aplus(spec).values[5] == 1
        assert count_recurrence([3, 5], 5).values[5] == 1

    def test_empty_parts(self):
        # R={} has no parts at all; R={0} has no head part
        assert TableFactory(3).aplus(make_residue_spec(4, [])).values == (1, 0, 0, 0)
        assert TableFactory(3).rplus(make_residue_spec(5, [0])).values == (1, 0, 0, 0)
        assert count_recurrence([], 3).values == (1, 0, 0, 0)

    def test_rejects_bad_parts(self):
        # both engines take a part list through the one shared validator
        for engine in (count_recurrence, count_bruteforce):
            with pytest.raises(ValueError):
                engine([2, 2], 5)
            with pytest.raises(ValueError):
                engine([3, 1], 5)
            with pytest.raises(ValueError):
                engine([0, 1], 5)


class TestCountRecurrence:
    def test_matches_dp_small(self):
        table = count_recurrence(range(1, 6), 5)
        assert table.values[5] == 7
        assert 5 * 7 == eq4_rhs_direct(table, 5)

    def test_single_even_part(self):
        assert count_recurrence([2], 5).values[5] == 0
        assert count_recurrence([2], 6).values[6] == 1

    def test_known_value_p100(self):
        assert count_recurrence(range(1, 101), 100).values[100] == 190569292

    def test_corrupted_divisor_sums_raise(self, monkeypatch):
        """A wrong sigma breaks the divisibility at some level; it must not pass."""
        real = counting._divisor_sums

        def corrupted(parts, n):
            sigma = real(parts, n)
            sigma[2] += 1
            return sigma

        monkeypatch.setattr(counting, "_divisor_sums", corrupted)
        with pytest.raises(IntegrityError):
            count_recurrence(range(1, 11), 10)

    @given(
        parts=st.lists(st.integers(1, 300), max_size=12, unique=True),
        n=st.integers(0, 300),
    )
    @settings(max_examples=40, deadline=None)
    def test_matches_dp_on_arbitrary_parts(self, parts, n):
        parts = sorted(parts)
        assert count_recurrence(parts, n).values == count_dp(parts, n).values


class TestCountBruteforce:
    def test_small_cases(self):
        assert count_bruteforce([1, 2, 3, 4], 4).values[4] == 5
        assert count_bruteforce([5], 4).values[4] == 0
        assert count_bruteforce([3, 7], 0).values[0] == 1

    def test_ceiling_enforced(self):
        with pytest.raises(ValueError):
            count_bruteforce([1], 61)
        assert count_bruteforce([1], 80, ceiling=100).values[80] == 1

    @pytest.mark.parametrize("parts", [[2, 3, 5, 7], [4, 9], [3], [2, 5, 6]])
    def test_parts_without_one(self, parts):
        # the smallest part's runs are tallied in strides of that part
        table = count_bruteforce(parts, 40)
        assert table.values == count_dp(parts, 40).values
        assert table.values == tuple(brute_count(parts, k) for k in range(41))

    def test_n_below_the_smallest_part(self):
        assert count_bruteforce([4, 9], 3).values == (1, 0, 0, 0)
        assert count_bruteforce([5], 4).values == (1, 0, 0, 0, 0)

    def test_no_parts(self):
        assert count_bruteforce([], 0).values == (1,)
        assert count_bruteforce([], 7).values == (1,) + (0,) * 7

    def test_n_zero(self):
        assert count_bruteforce([1], 0).values == (1,)
        assert count_bruteforce([2, 3, 5], 0).values == (1,)

    @pytest.mark.parametrize(
        "parts",
        [
            list(range(1, 61, 2)),  # m = 2, R = {1}: the odd parts
            [p for p in range(1, 61) if p % 4 in (2, 3)],  # m = 4, R = {2, 3}
        ],
    )
    def test_up_to_the_ceiling(self, parts):
        assert count_bruteforce(parts, 60).values == count_dp(parts, 60).values

    @given(
        parts=st.sets(st.integers(1, 30), max_size=8),
        n=st.integers(0, 25),
    )
    @settings(max_examples=60, deadline=None)
    def test_one_walk_gives_the_whole_table(self, parts, n):
        parts = sorted(parts)
        table = count_bruteforce(parts, n)
        assert table.values == count_dp(parts, n).values
        assert table.values == tuple(brute_count(parts, k) for k in range(n + 1))


@given(spec=spec_strategy(m_max=5), n=st.integers(0, 18))
@settings(max_examples=60, deadline=None)
def test_three_engines_agree(spec, n):
    """DP, recurrence, and exhaustive enumeration are independent; they must match."""
    for variant in (FULL_A, A_PLUS, R_PLUS):
        parts = parts_up_to(spec, variant, n)
        dp = count_dp(parts, n)
        rec = count_recurrence(parts, n)
        assert dp.values == rec.values
        assert dp.values[n] == count_bruteforce(parts, n).values[n]
        assert dp.values[n] == brute_count(parts, n)


@given(spec=spec_strategy(m_max=6), n=st.integers(0, 60))
@settings(max_examples=60, deadline=None)
def test_count_sandwich(spec, n):
    """Part-set inclusion: tail counts <= full counts <= unrestricted counts."""
    tail = count_dp(parts_up_to(spec, A_PLUS, n), n).values[n]
    full = count_dp(parts_up_to(spec, FULL_A, n), n).values[n]
    unrestricted = count_dp(range(1, n + 1), n).values[n]
    assert tail <= full <= unrestricted


@given(
    extra=st.lists(st.integers(2, 30), max_size=6, unique=True),
    n=st.integers(0, 50),
)
@settings(max_examples=60, deadline=None)
def test_monotone_when_one_available(extra, n):
    """With part 1 available, counts never decrease in n."""
    parts = sorted({1, *extra})
    values = count_dp(parts, n).values
    assert all(values[j] <= values[j + 1] for j in range(n))


class TestEq4:
    def test_direct_matches_all_levels(self):
        table = count_dp(range(1, 31), 30)
        for n in range(31):
            assert eq4_rhs_direct(table, n) == n * table.values[n]

    def test_recurrence_matches_dp_restricted(self):
        spec = make_residue_spec(3, [1, 2])
        for variant in (FULL_A, A_PLUS, R_PLUS):
            parts = parts_up_to(spec, variant, 120)
            assert count_recurrence(parts, 120).values == count_dp(parts, 120).values

    def test_recurrence_integrity_message(self):
        # A corrupted table must trip the direct identity, not pass silently.
        table = count_dp(range(1, 11), 10)
        bad = table.values[:10] + (table.values[10] + 1,)
        corrupted = type(table)(parts=table.parts, values=bad)
        assert eq4_rhs_direct(corrupted, 10) != 10 * corrupted.values[10]


class TestConvolution:
    def test_odd_parts_example(self):
        spec = make_residue_spec(2, [1])
        report = convolution_check_range(spec, 5)[5]
        assert (report.n, report.lhs, report.rhs, report.holds) == (5, 3, 3, True)

    def test_classical_degenerates(self):
        # m=1, R={0}: the head set is empty, so the sum collapses to p(7)
        spec = make_residue_spec(1, [0])
        report = convolution_check_range(spec, 7)[7]
        assert report.lhs == report.rhs == 15

    def test_n_zero(self):
        (report,) = convolution_check_range(make_residue_spec(5, [2, 3]), 0)
        assert report.n == 0
        assert report.lhs == report.rhs == 1

    @given(spec=spec_strategy(m_max=5), n_max=st.integers(0, 40))
    @settings(max_examples=40, deadline=None)
    def test_range_holds(self, spec, n_max):
        assert all(r.holds for r in convolution_check_range(spec, n_max))


class TestTableFactory:
    @given(spec=spec_strategy(m_max=5))
    @settings(max_examples=30, deadline=None)
    def test_matches_count_dp(self, spec):
        n = 120
        factory = TableFactory(n)
        assert factory.aplus(spec).values == count_dp(
            parts_up_to(spec, A_PLUS, n), n
        ).values
        assert factory.full_a(spec).values == count_dp(
            parts_up_to(spec, FULL_A, n), n
        ).values
        assert factory.rplus(spec).values == count_dp(
            parts_up_to(spec, R_PLUS, n), n
        ).values

    def test_known_value(self):
        factory = TableFactory(100)
        spec = make_residue_spec(1, [0])
        assert factory.full_a(spec).values[100] == 190569292

    def test_empty_residues(self):
        factory = TableFactory(10)
        spec = make_residue_spec(4, [])
        assert factory.aplus(spec).values == (1,) + (0,) * 10

    def test_shared_cache_matches_count_dp(self):
        """Every subset of m <= 7, built in bitmask, reverse and shuffled order.

        Tail tables are cached and extended in place while being built, so
        full_a must not write through to a cached tail table, and no table
        may depend on which subsets were built before it.
        """
        n = 150
        specs = [spec for m in range(1, 8) for spec in subsets_for_modulus(m)]
        expected = {spec: _dp_tables(spec, n) for spec in specs}
        shuffled = list(specs)
        random.Random(6).shuffle(shuffled)
        for order in (specs, list(reversed(specs)), shuffled):
            factory = TableFactory(n)
            for spec in order:
                aplus, full, rplus = expected[spec]
                assert factory.aplus(spec).values == aplus
                assert factory.full_a(spec).values == full
                assert factory.rplus(spec).values == rplus
                assert factory.aplus(spec).values == aplus
            for spec in specs:
                assert factory.aplus(spec).values == expected[spec][0]

    @pytest.mark.parametrize("m", range(1, 8))
    def test_every_n_max_up_to_m(self, m):
        """Tables shorter than the modulus: no tail part fits, the head may."""
        for n_max in range(m + 1):
            factory = TableFactory(n_max)
            for spec in subsets_for_modulus(m):
                assert (
                    factory.aplus(spec).values,
                    factory.full_a(spec).values,
                    factory.rplus(spec).values,
                ) == _dp_tables(spec, n_max)

    @pytest.mark.parametrize("residues", [range(6), [0, 1, 2, 4, 5]])
    def test_dense_residues_at_scale(self, residues):
        n = 2000
        spec = make_residue_spec(6, residues)
        factory = TableFactory(n)
        assert factory.aplus(spec).values == count_dp(parts_up_to(spec, A_PLUS, n), n).values
        assert factory.full_a(spec).values == count_dp(parts_up_to(spec, FULL_A, n), n).values

    @pytest.mark.parametrize("m,wrong_at", [(1, 0), (4, 0), (4, 1), (4, 3), (7, 5)])
    def test_wrong_partition_numbers_raise(self, monkeypatch, m, wrong_at):
        """A p(n) table off below m leaves tail counts below m; it must not pass."""
        real = counting._partition_numbers

        def corrupted(n):
            values = real(n)
            values[wrong_at] += 1
            return values

        monkeypatch.setattr(counting, "_partition_numbers", corrupted)
        with pytest.raises(IntegrityError):
            TableFactory(40).aplus(make_residue_spec(m, range(m)))


def test_partition_numbers_match_count_dp():
    """Every n <= 40 (each new pentagonal offset up to 40) and n = 1000."""
    table = list(count_dp(range(1, 1001), 1000).values)
    assert counting._partition_numbers(1000) == table
    for n in range(41):
        assert counting._partition_numbers(n) == table[: n + 1]


def _dp_tables(spec, n):
    """(a-plus, full-a, r-plus) counts of 0..n from count_dp."""
    return tuple(
        count_dp(parts_up_to(spec, variant, n), n).values
        for variant in (A_PLUS, FULL_A, R_PLUS)
    )


def test_enumeration_oracle_is_sane():
    """The test-side oracle itself: partitions of 4 over [1..4], listed."""
    got = sorted(enumerate_partitions([1, 2, 3, 4], 4))
    assert got == [(1, 1, 1, 1), (2, 1, 1), (2, 2), (3, 1), (4,)]
